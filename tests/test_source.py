"""Checks on the package source itself."""

import ast
import glob
import os
import subprocess
import sys

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
    holding a node that satisfies predicate; a method is named
    'module.Class.method'."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]

        def visit(node, owner, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = "%s.%s" % (scope, node.name)
            if isinstance(node, ast.ClassDef):
                scope = "%s.%s" % (scope, node.name)
            if predicate(node):
                found.append(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner, scope)

        visit(tree, module, module)
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


def test_one_function_tests_for_unit_pivots():
    # elementary_divisors and LatticeSolver share one unit elimination,
    # intlinalg._eliminate_units
    def unit(node):
        return isinstance(node, ast.Constant) and node.value == 1 or (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and unit(node.operand)
        )

    def unit_test(node):
        # a == 1 or a == -1, abs(a) == 1, a in (1, -1)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            return all(
                isinstance(v, ast.Compare) and isinstance(v.ops[0], ast.Eq) and unit(v.comparators[0])
                for v in node.values
            )
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
            return getattr(node.left.func, "id", None) == "abs" and unit(node.comparators[0])
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            elts = getattr(node.comparators[0], "elts", [])
            return len(elts) == 2 and all(unit(e) for e in elts)
        return False

    assert _functions_where(unit_test) == ["intlinalg._eliminate_units"]


def test_unit_elimination_has_two_callers():
    # a lattice is eliminated by its LatticeSolver, which answers both
    # membership and the mod-m kernel, or by elementary_divisors
    def calls(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_eliminate_units"

    assert sorted(_functions_where(calls)) == [
        "intlinalg.LatticeSolver._eliminate", "intlinalg.elementary_divisors"
    ]


def test_one_latin_search_path():
    # the Latin search always prunes to the least table of each relabeling
    # orbit; dedup only chooses whether enumerate_ktqs expands the orbits
    def takes_dedup(node):
        return isinstance(node, ast.FunctionDef) and "dedup" in [
            a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ]

    owners = _functions_where(takes_dedup)
    assert [owner for owner in owners if owner.startswith("algebra.")] == ["algebra.enumerate_ktqs"]


def test_invariants_read_no_crossing_data():
    # the crossing-sign rule lives in diagram.associated_chain alone: the
    # class checks and state sums read the chains it builds
    reads = _functions_where(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("crossings", "corners", "kind")
    )
    assert [owner for owner in reads if owner.startswith("invariants")] == []


def test_the_cli_imports_no_heavy_standard_modules():
    # each of these costs milliseconds of start-up in every ktq process;
    # -S keeps site, which may import typing itself, out of the count
    script = (
        "import sys; sys.path.insert(0, %r); import ktq.cli; "
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
        % os.path.join(SRC, os.pardir)
    )
    heavy = ["dataclasses", "inspect", "ast", "typing"]
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *heavy],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
