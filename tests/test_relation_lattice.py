"""The degree-1 relation lattice im d_2 + R_1 that HomologyClassChecker and
two_cocycles read from the homology engine's cone, against the dense
assembly the checker used before it (boundary_matrix with the
relator_columns appended), its preconditions against homology(X, 1, v),
and membership in it by unit elimination against the Hermite form and the
dense oracle.
"""

import importlib
import io
import random

import pytest

from ktq import MathError
from ktq.algebra import classify, enumerate_ktqs
from ktq.chains import Chain
from ktq.homology import (
    NAMED_VARIANTS,
    HomologyClassChecker,
    HomologyVariant,
    _degree1_relations,
    boundary_matrix,
    chain_basis,
    homology,
    relator_columns,
    two_cocycles,
)
from ktq.cli import cli_main
from ktq.intlinalg import LatticeSolver, dense_matrix, lattice_basis

import hnf_oracle
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
        cols = _degree1_relations(X, v)._columns
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
    import ktq.homology as module
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


def test_compare_eliminates_the_relation_lattice_once(monkeypatch):
    # the class checks and the mod-m cocycles read one unit elimination, on
    # the sparse columns: no dense matrix is converted back to columns
    intlinalg = importlib.import_module("ktq.intlinalg")
    eliminate = intlinalg._eliminate_units
    columns_eliminated = []

    def counted(columns, nrows):
        columns_eliminated.append(len(columns))
        return eliminate(columns, nrows)

    def refused_conversion(M, ncols):
        raise AssertionError("intlinalg._columns called")

    monkeypatch.setattr(intlinalg, "_eliminate_units", counted)
    monkeypatch.setattr(intlinalg, "_columns", refused_conversion)
    _degree1_relations.cache_clear()
    for alg, order, after, before, corr, variant, m in [
        ("z5affine.ktq", 5, "r3_after.dg", "r3_before.dg", "r3.corr", "N", "5"),
        ("z3linear.ktq", 3, "fr3_after.dg", "fr3_before.dg", "fr3.corr", "NID", "3"),
    ]:
        columns_eliminated.clear()
        code = cli_main(
            ["compare", fixture_path(alg), fixture_path(after), fixture_path(before),
             "--variant", variant, "--correspondence", fixture_path(corr), "--mod", m],
            io.StringIO(),
        )
        assert code == 0
        # one elimination, of the transpose: a column per triple
        assert columns_eliminated == [order ** 3]
    _degree1_relations.cache_clear()


def sampled_vectors(cols, nrows, rng):
    """Sparse vectors over the rows of the lattice spanned by cols: small
    combinations of its columns, the same with one entry moved, doubled
    random vectors and random vectors."""
    out = []
    for _ in range(12):
        member = {}
        for col in rng.sample(cols, min(len(cols), rng.randint(1, 6))):
            q = rng.choice((-2, -1, 1, 2))
            for i, a in col.items():
                member[i] = member.get(i, 0) + q * a
        out.append(member)
        moved = dict(member)
        i = rng.randrange(nrows)
        moved[i] = moved.get(i, 0) + rng.choice((-1, 1, 2))
        out.append(moved)
        rand = {rng.randrange(nrows): rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
        out.append(rand)
        out.append({i: 2 * a for i, a in rand.items()})
    return out


@pytest.mark.parametrize("name", KTQS + ["z3sum"])
def test_membership_by_elimination_matches_the_hermite_form_and_the_oracle(name):
    X = load_algebra(name + ".ktq")
    nrows = X.order ** 3
    rng = random.Random(name)
    seen = set()
    for relators in ("none", "D", "I", "ID"):
        for kind in KINDS:
            v = HomologyVariant(relators, "quotient", kind)
            if refused(lambda: homology(X, 1, v)):
                continue
            cols = list(_degree1_relations(X, v)._columns)
            solver = LatticeSolver.from_columns(cols, nrows)
            hermite = LatticeSolver.from_columns(cols, nrows)
            oracle = hnf_oracle.DenseLatticeSolver(dense_matrix(cols, nrows), len(cols))
            for w in sampled_vectors(cols, nrows, rng):
                got = solver.member(w)
                assert got == (hermite.coordinates(w) is not None), (v, w)
                dense = [w.get(i, 0) for i in range(nrows)]
                assert got == (oracle.coordinates(dense) is not None), (v, w)
                seen.add(got)
            # membership never built the Hermite basis of the whole lattice
            assert solver._basis is None
    # z3sum is a quasigroup whose differential does not square to zero, so
    # homology(X, 1, v) refuses every variant
    assert seen == (set() if name == "z3sum" else {True, False})


def test_a_torsion_class_is_decided_by_the_non_unit_residual(z3linear):
    # H_1 of NI is Z^3 + (Z/2)^3.  Where T(x) = x_1 the I relator of the
    # triple x is 2x, so x is a cycle with 2x in the lattice, and x itself
    # is outside it for some x: the unit pivots cannot see that
    v = NAMED_VARIANTS["NI"]
    assert str(homology(z3linear, 1, v)) == "Z^3 + Z/2 + Z/2 + Z/2"
    checker = HomologyClassChecker(z3linear, v)
    zero = Chain(1)
    outside = []
    for x in chain_basis(3, 1):
        if z3linear.t(*x) == x[1]:
            assert checker.equal(Chain.single(x, 2), zero)
            if not checker.equal(Chain.single(x), zero):
                outside.append(x)
    assert outside
    assert checker.solver._residual.basis
    assert checker.solver._basis is None
