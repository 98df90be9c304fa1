"""Checks on the package source itself."""

import ast
import glob
import io
import os
import subprocess
import sys

import pytest

from conftest import fixture_path
from ktq.cli import cli_main

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


def _fresh_python(script, *argv):
    """Run script in a new interpreter that imports ktq from src/."""
    return subprocess.run(
        [sys.executable, "-c", script, os.path.join(SRC, os.pardir), *argv],
        capture_output=True, text=True, timeout=60,
    )


# The ktq modules a fresh process holds after each subcommand, beyond
# ktq.cli, ktq.algebra, ktq.errors and ktq.variants, which every one loads.
ENGINE = ["chains", "homology", "intlinalg"]
LOADED = {
    "verify": [],
    "enumerate": [],
    "homology": ENGINE,
    "cocycles": ENGINE,
    "color": ["chains", "diagram"],
    "statesum": ENGINE + ["diagram", "invariants"],
    "compare": ENGINE + ["diagram", "invariants"],
}
ARGV = {
    "verify": ["verify", fixture_path("z5affine.ktq")],
    "enumerate": ["enumerate", "--order", "3", "--filter", "iktq"],
    "homology": ["homology", fixture_path("z3linear.ktq"), "--degree", "2", "--relators", "D"],
    "cocycles": ["cocycles", fixture_path("z3linear.ktq"), "--mod", "3", "--relators", "D"],
    "color": ["color", fixture_path("z3linear.ktq"), fixture_path("trefoil.dg"), "--list"],
    "statesum": ["statesum", fixture_path("z3linear.ktq"), fixture_path("trefoil.dg"), "PHI"],
    "compare": ["compare", fixture_path("z3linear.ktq"), fixture_path("fr3_after.dg"),
                fixture_path("fr3_before.dg"), "--variant", "NI",
                "--correspondence", fixture_path("fr3.corr"), "--mod", "3"],
}


@pytest.mark.parametrize("command", list(LOADED))
def test_a_fresh_process_loads_only_what_its_subcommand_runs(command, tmp_path):
    # in this process every module is loaded already, so only a new
    # interpreter shows which ones a subcommand pulls in
    phi = tmp_path / "phi.coc"
    phi.write_text("cocycle 3\n0 1 0 -> 2\n0 2 0 -> 1\n")
    argv = [str(phi) if a == "PHI" else a for a in ARGV[command]]
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ktq.cli; "
        "code = ktq.cli.cli_main(sys.argv[2:]); sys.stdout.flush(); "
        "print(sorted(m for m in sys.modules if m.startswith('ktq.')), file=sys.stderr); "
        "sys.exit(code)"
    )
    done = _fresh_python(script, *argv)
    out = io.StringIO()
    code = cli_main(argv, out)
    assert (done.returncode, done.stdout) == (code, out.getvalue()) and code == 0
    always = ["algebra", "cli", "errors", "variants"]
    expected = sorted("ktq." + m for m in always + LOADED[command])
    assert done.stderr.splitlines()[-1] == str(expected)


# what touches ktq.homology before the checks below
FIRST = {
    "package": "from ktq import two_cocycles; import ktq.homology as H",
    "submodule": "import ktq.homology as H; from ktq import two_cocycles",
    "cli": "import ktq.cli; ktq.cli.homology; import ktq.homology as H",
    "attribute": "import ktq; H = ktq.homology",
}


@pytest.mark.parametrize("first", list(FIRST))
def test_ktq_homology_is_the_submodule_whatever_runs_first(first):
    # the homology function is ktq.homology.homology; the package binds no
    # attribute of that name that could shadow the submodule
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); %s; "
        "import ktq, ktq.cli; from ktq import homology; "
        "print(homology is H is ktq.homology is sys.modules['ktq.homology'], "
        "ktq.cli.homology is H.homology, type(H.homology).__name__)" % FIRST[first]
    )
    done = _fresh_python(script)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True True function\n", "")
