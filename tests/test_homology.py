from itertools import product

import pytest

from ktq import MathError
from ktq.chains import Chain, all_tuples, boundary_tuple, relator_generators
from ktq.homology import (
    NAMED_VARIANTS,
    Cochain,
    HomologyClassChecker,
    HomologyVariant,
    boundary_matrix,
    chain_basis,
    homology,
    parse_cocycle,
    serialize_cocycle,
    two_cocycles,
)


def test_variant_validation():
    with pytest.raises(ValueError):
        HomologyVariant("X", "quotient", "full")
    with pytest.raises(ValueError):
        HomologyVariant("D", "weird", "full")
    with pytest.raises(ValueError):
        HomologyVariant("D", "quotient", "LR")
    assert NAMED_VARIANTS["N"].relators == "D"
    assert NAMED_VARIANTS["plain"].relators == "none"


def test_boundary_matrix_shape(z3linear):
    M = boundary_matrix(z3linear, 1)
    assert len(M) == 9 and len(M[0]) == 27
    # every column is the vector of the tuple's boundary
    cols = chain_basis(3, 1)
    idx = {t: i for i, t in enumerate(chain_basis(3, 0))}
    b = boundary_tuple(z3linear, cols[5], "full")
    for t, c in b.terms.items():
        assert M[idx[t]][5] == c


def test_h_minus_one_is_z(samples):
    for X in samples:
        if not X.is_quasigroup:
            continue
        assert str(homology(X, -1)) == "Z"


def test_order1_normalized_homology_vanishes(order1):
    for n in (1, 2):
        assert homology(order1, n, NAMED_VARIANTS["N"]).is_trivial


def test_degree1_regressions(z2sum, z2sum1, z3linear):
    N = NAMED_VARIANTS["N"]
    assert str(homology(z2sum, 1, N)) == "Z^2"
    assert str(homology(z2sum1, 1, N)) == "Z"
    assert str(homology(z3linear, 1, N)) == "Z^6"
    assert str(homology(z3linear, 1, NAMED_VARIANTS["plain"])) == "Z^9"
    assert str(homology(z3linear, 1, NAMED_VARIANTS["NI"])) == "Z^3 + Z/2 + Z/2 + Z/2"
    assert str(homology(z3linear, 1, NAMED_VARIANTS["NID"])) == "Z^3"


def test_subcomplex_mode(z3linear):
    v = HomologyVariant("D", "subcomplex", "full")
    assert str(homology(z3linear, 1, v)) == "Z^3"


def test_degree_cap_guard(z5affine):
    with pytest.raises(MathError):
        homology(z5affine, 3, NAMED_VARIANTS["N"])  # needs degree 4 chains
    with pytest.raises(MathError):
        homology(z5affine, -2, NAMED_VARIANTS["plain"])


def test_variant_preconditions(z5affine, z3sum):
    with pytest.raises(MathError):
        homology(z5affine, 1, NAMED_VARIANTS["NI"])  # not involutory
    with pytest.raises(MathError):
        homology(z3sum, 1, NAMED_VARIANTS["N"])  # not even a quasigroup


def test_two_cocycle_counts(z3linear, z5affine):
    assert len(two_cocycles(z3linear, 3, NAMED_VARIANTS["N"])) == 10
    assert len(two_cocycles(z3linear, 3, NAMED_VARIANTS["NID"])) == 7
    assert len(two_cocycles(z3linear, 2, NAMED_VARIANTS["N"])) == 10
    assert len(two_cocycles(z5affine, 5, NAMED_VARIANTS["N"])) == 20


def test_two_cocycles_vanish_on_coboundaries_and_relators(z3linear):
    m = 3
    v = NAMED_VARIANTS["NID"]
    for phi in two_cocycles(z3linear, m, v):
        for tup in all_tuples(3, 2):
            assert phi.evaluate(boundary_tuple(z3linear, tup, "full")) % m == 0
        for g in relator_generators(z3linear, 1, v.relators):
            assert phi.evaluate(g) % m == 0


def test_two_cocycles_preconditions(z5affine):
    with pytest.raises(MathError):
        two_cocycles(z5affine, 5, NAMED_VARIANTS["NI"])
    with pytest.raises(MathError):
        two_cocycles(z5affine, 5, HomologyVariant("D", "subcomplex", "full"))


def test_class_checker_preconditions(z3linear, z5affine):
    # subcomplex classes are not decided by the quotient lattice
    with pytest.raises(MathError):
        HomologyClassChecker(z3linear, HomologyVariant("D", "subcomplex", "full"))
    with pytest.raises(MathError):
        HomologyClassChecker(z5affine, NAMED_VARIANTS["NI"])  # not involutory


def test_relators_require_a_quasigroup():
    from ktq.algebra import affine_table, classify

    bad = classify(affine_table(4, 1, 2, 1))
    with pytest.raises(MathError):
        two_cocycles(bad, 2, NAMED_VARIANTS["N"])
    with pytest.raises(MathError):
        HomologyClassChecker(bad, NAMED_VARIANTS["N"])


def test_class_checker_boundary_is_null(z3linear):
    checker = HomologyClassChecker(z3linear, NAMED_VARIANTS["plain"])
    zero = Chain(1)
    for tup in all_tuples(3, 2):
        b = boundary_tuple(z3linear, tup, "full")
        assert checker.equal(b, zero)


def test_class_checker_detects_nontrivial_cycle(z3linear):
    # (a,a,a) is a cycle; in the plain theory it is not null-homologous
    c = Chain.single((0, 0, 0))
    assert not HomologyClassChecker(z3linear, NAMED_VARIANTS["plain"]).equal(c, Chain(1))
    # but it is a D-relator, so the normalized class is zero
    assert HomologyClassChecker(z3linear, NAMED_VARIANTS["N"]).equal(c, Chain(1))


def test_class_checker_rejects_non_cycles(z3linear):
    with pytest.raises(MathError):
        HomologyClassChecker(z3linear).equal(Chain.single((0, 0, 1)), Chain(1))
    # a chain's rows are read in base 3, where (0, 0, 3) would read as
    # (0, 1, 0): an entry outside the algebra is refused, past either end
    for tup in ((0, 0, 3), (0, 0, -1)):
        with pytest.raises(MathError, match="outside the algebra"):
            HomologyClassChecker(z3linear).equal(Chain(1), Chain.single(tup))


def test_cocycle_parse_serialize_roundtrip():
    phi = Cochain(5, {(0, 1, 2): 3, (1, 1, 1): 4})
    again = parse_cocycle(serialize_cocycle(phi))
    assert again.modulus == 5 and again.values == phi.values
    assert phi((0, 1, 2)) == 3
    assert phi((2, 2, 2)) == 0


def test_quotient_subcomplex_ranks_are_consistent(z3linear):
    # dim C_1 = dim C^D_1 + dim (C_1 / C^D_1) as free abelian groups
    from ktq.intlinalg import lattice_basis
    from ktq.homology import relator_columns

    cols = relator_columns(z3linear, 1, "D")
    M = [[col[i] for col in cols] for i in range(27)]
    assert len(lattice_basis(M, len(cols))) == 9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("v", [
    NAMED_VARIANTS["plain"],
    NAMED_VARIANTS["N"],
    HomologyVariant("D", "subcomplex", "full"),
])
def test_non_ktq_homology_is_refused(z3sum, n, v):
    # z3sum is a quasigroup without A3: its differential does not square to zero
    with pytest.raises(MathError):
        homology(z3sum, n, v)
