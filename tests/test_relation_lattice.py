"""The degree-1 relation lattice im d_2 + R_1 that HomologyClassChecker and
two_cocycles read from the homology engine's cone, against the dense
assembly the checker used before it (boundary_matrix with the
relator_columns appended), and its preconditions against homology(X, 1, v).
"""

import importlib
import io

import pytest

from ktq import MathError
from ktq.algebra import classify, enumerate_ktqs
from ktq.homology import (
    HomologyClassChecker,
    HomologyVariant,
    _degree1_relations,
    boundary_matrix,
    homology,
    relator_columns,
    two_cocycles,
)
from ktq.cli import cli_main
from ktq.intlinalg import dense_matrix, lattice_basis

from conftest import fixture_path, load_algebra

KTQS = ["order1", "z2sum", "z2sum1", "z3linear", "z5affine"]
KINDS = ("L", "R", "full")


def dense_assembly(X, v):
    """im d_2 + R_1 as the dense matrix of every degree-2 boundary followed
    by every degree-1 relator generator."""
    M = boundary_matrix(X, 2, v.diff_kind)
    rel = relator_columns(X, 1, v.relators)
    return [row + [col[i] for col in rel] for i, row in enumerate(M)]


def quotient_variants(X):
    for relators in ("none", "D") + (("I", "ID") if X.is_iktq else ()):
        for kind in KINDS:
            yield HomologyVariant(relators, "quotient", kind)


@pytest.mark.parametrize("name", KTQS)
def test_relations_span_the_dense_assembly(name):
    # the Hermite basis is canonical, so equal bases mean equal lattices
    X = load_algebra(name + ".ktq")
    for v in quotient_variants(X):
        cols = _degree1_relations(X, v)
        got = lattice_basis(dense_matrix(cols, X.order ** 3), len(cols))
        assert got == lattice_basis(dense_assembly(X, v)), v


def refused(f):
    try:
        f()
    except MathError:
        return True
    return False


def small_quasigroups():
    for name in ("order1", "z2sum", "z2sum1", "z3sum", "z3linear"):
        yield load_algebra(name + ".ktq")
    for n in (1, 2, 3):
        yield from (classify(t) for t in enumerate_ktqs(n, "all_quasigroups"))


@pytest.mark.parametrize("relators", ["none", "D", "I", "ID"])
def test_refuses_what_homology_refuses(relators):
    seen = set()
    for X in small_quasigroups():
        for kind in KINDS:
            v = HomologyVariant(relators, "quotient", kind)
            expected = refused(lambda: homology(X, 1, v))
            seen.add(expected)
            assert refused(lambda: HomologyClassChecker(X, v)) == expected, (X.t.values, v)
            if kind == "full":
                assert refused(lambda: two_cocycles(X, 2, v)) == expected, (X.t.values, v)
    assert seen == {True, False}


def test_compare_builds_the_relation_lattice_once(monkeypatch):
    # the class checks and the mod-m cocycles of one report share one build
    module = importlib.import_module("ktq.homology")  # ktq.homology is the function
    built = []

    class Counted(module._RelatorLattices):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(module, "_RelatorLattices", Counted)
    _degree1_relations.cache_clear()
    code = cli_main(
        ["compare", fixture_path("z3linear.ktq"), fixture_path("fr3_after.dg"),
         fixture_path("fr3_before.dg"), "--variant", "NI",
         "--correspondence", fixture_path("fr3.corr"), "--mod", "3"],
        io.StringIO(),
    )
    _degree1_relations.cache_clear()
    assert code == 0
    assert len(built) == 1
