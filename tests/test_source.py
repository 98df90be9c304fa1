"""Checks on the package source itself."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ktq")


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert, so no correctness check may rely on it
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _functions_where(predicate):
    """Names 'module.function' of the innermost functions under src/ktq/
    holding a node that satisfies predicate."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = "%s.%s" % (module, node.name)
            if predicate(node):
                found.append(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, module)
    return found


def test_one_function_splits_input_into_lines_and_cuts_comments():
    # every input format shares its line rules through errors.read_records
    def calls(node, name):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )

    splits = _functions_where(lambda node: calls(node, "splitlines"))
    cuts = _functions_where(
        lambda node: isinstance(node, ast.Constant) and node.value == "#"
    )
    assert splits == ["errors.read_records"]
    assert cuts == ["errors.read_records"]


def test_invariants_read_no_crossing_data():
    # the crossing-sign rule lives in diagram.associated_chain alone: the
    # class checks and state sums read the chains it builds
    reads = _functions_where(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("crossings", "corners", "kind")
    )
    assert [owner for owner in reads if owner.startswith("invariants")] == []
