"""The free-complex homology engine against frozen groups, the mapping
cone over the degenerate relators against restriction to degenerate tuples,
and the degenerate part splitting off the plain complex.

FROZEN holds H_n for n = -1, 0, 1, 2 of every fixture x valid relators x
mode x differential kind ("MathError" where a precondition is refused).
The dense lattice pipeline that the engine replaced (kernel_int, Hermite
basis, one LatticeSolver.solve per image column, Smith form) computed the
same groups on every one of these cases, and on z3linear H3 in plain and
N; z5affine stops at degree 1 because its H2 took minutes there.  The
other z3linear H3 groups in Z3_H3 were frozen from the engine before its
Hermite form became sparse, when D still went by restriction and I and ID
through the dense Hermite form.
"""

import io

import pytest

from ktq import MathError
from ktq.algebra import classify, enumerate_ktqs
from ktq.chains import boundary_tuple, is_d_degenerate
from ktq.cli import cli_main
from ktq.intlinalg import AbelianGroup, LatticeSolver
from ktq.homology import (
    DIFF_CHOICES,
    MODE_CHOICES,
    NAMED_VARIANTS,
    RELATOR_CHOICES,
    HomologyVariant,
    boundary_columns,
    chain_basis,
    homology,
)

from conftest import fixture_path, load_algebra

ALGEBRAS = ["order1", "z2sum", "z2sum1", "z3sum", "z3linear", "z5affine"]

# (algebra, relators, mode, kind): H_-1, H_0, H_1[, H_2]
FROZEN = {
    ("order1", "none", "quotient", "L"): ("0", "0", "0", "0"),
    ("order1", "none", "quotient", "R"): ("0", "0", "0", "0"),
    ("order1", "none", "quotient", "full"): ("Z", "Z", "Z", "Z"),
    ("order1", "D", "quotient", "L"): ("0", "0", "0", "0"),
    ("order1", "D", "quotient", "R"): ("0", "0", "0", "0"),
    ("order1", "D", "quotient", "full"): ("Z", "Z", "0", "0"),
    ("order1", "D", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("order1", "D", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("order1", "D", "subcomplex", "full"): ("0", "0", "Z", "Z"),
    ("order1", "I", "quotient", "L"): ("0", "0", "0", "0"),
    ("order1", "I", "quotient", "R"): ("0", "0", "0", "0"),
    ("order1", "I", "quotient", "full"): ("Z", "Z", "Z/2", "Z/2"),
    ("order1", "I", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("order1", "I", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("order1", "I", "subcomplex", "full"): ("0", "0", "Z", "Z"),
    ("order1", "ID", "quotient", "L"): ("0", "0", "0", "0"),
    ("order1", "ID", "quotient", "R"): ("0", "0", "0", "0"),
    ("order1", "ID", "quotient", "full"): ("Z", "Z", "0", "0"),
    ("order1", "ID", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("order1", "ID", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("order1", "ID", "subcomplex", "full"): ("0", "0", "Z", "Z"),
    ("z2sum", "none", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum", "none", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum", "none", "quotient", "full"): ("Z", "Z^2", "Z^4", "Z^8"),
    ("z2sum", "D", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum", "D", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum", "D", "quotient", "full"): ("Z", "Z^2", "Z^2", "Z^2"),
    ("z2sum", "D", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum", "D", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum", "D", "subcomplex", "full"): ("0", "0", "Z^2", "Z^6"),
    ("z2sum", "I", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum", "I", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum", "I", "quotient", "full"): ("Z", "Z^2", "Z + Z/2 + Z/2", "Z/2 + Z/2 + Z/2 + Z/2"),
    ("z2sum", "I", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum", "I", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum", "I", "subcomplex", "full"): ("0", "0", "Z^3", "Z^8"),
    ("z2sum", "ID", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum", "ID", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum", "ID", "quotient", "full"): ("Z", "Z^2", "Z", "0"),
    ("z2sum", "ID", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum", "ID", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum", "ID", "subcomplex", "full"): ("0", "0", "Z^3", "Z^8"),
    ("z2sum1", "none", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "none", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "none", "quotient", "full"): ("Z", "Z + Z/2", "Z^2", "Z^4 + Z/2"),
    ("z2sum1", "D", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "D", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "D", "quotient", "full"): ("Z", "Z + Z/2", "Z", "Z + Z/2"),
    ("z2sum1", "D", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "D", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "D", "subcomplex", "full"): ("0", "0", "Z", "Z^3"),
    ("z2sum1", "I", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "I", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "I", "quotient", "full"): ("Z", "Z + Z/2", "Z/2", "Z/2 + Z/2"),
    ("z2sum1", "I", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "I", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "I", "subcomplex", "full"): ("0", "0", "Z^2", "Z^4 + Z/2"),
    ("z2sum1", "ID", "quotient", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "ID", "quotient", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "ID", "quotient", "full"): ("Z", "Z + Z/2", "0", "0"),
    ("z2sum1", "ID", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z2sum1", "ID", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z2sum1", "ID", "subcomplex", "full"): ("0", "0", "Z^2", "Z^4 + Z/2"),
    ("z3sum", "none", "quotient", "L"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "none", "quotient", "R"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "none", "quotient", "full"): ("Z", "Z", "MathError", "MathError"),
    ("z3sum", "D", "quotient", "L"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "D", "quotient", "R"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "D", "quotient", "full"): ("Z", "Z", "MathError", "MathError"),
    ("z3sum", "D", "subcomplex", "L"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "D", "subcomplex", "R"): ("0", "0", "MathError", "MathError"),
    ("z3sum", "D", "subcomplex", "full"): ("0", "0", "MathError", "MathError"),
    ("z3linear", "none", "quotient", "L"): ("0", "0", "0", "0"),
    ("z3linear", "none", "quotient", "R"): ("0", "0", "0", "0"),
    ("z3linear", "none", "quotient", "full"): ("Z", "Z^3", "Z^9", "Z^27"),
    ("z3linear", "D", "quotient", "L"): ("0", "0", "0", "0"),
    ("z3linear", "D", "quotient", "R"): ("0", "0", "0", "0"),
    ("z3linear", "D", "quotient", "full"): ("Z", "Z^3", "Z^6", "Z^12"),
    ("z3linear", "D", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z3linear", "D", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z3linear", "D", "subcomplex", "full"): ("0", "0", "Z^3", "Z^15"),
    ("z3linear", "I", "quotient", "L"): ("0", "0", "0", "0"),
    ("z3linear", "I", "quotient", "R"): ("0", "0", "0", "0"),
    ("z3linear", "I", "quotient", "full"): (
        "Z",
        "Z^3",
        "Z^3 + Z/2 + Z/2 + Z/2",
        "Z + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
    ),
    ("z3linear", "I", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z3linear", "I", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z3linear", "I", "subcomplex", "full"): ("0", "0", "Z^6", "Z^26"),
    ("z3linear", "ID", "quotient", "L"): ("0", "0", "0", "0"),
    ("z3linear", "ID", "quotient", "R"): ("0", "0", "0", "0"),
    ("z3linear", "ID", "quotient", "full"): ("Z", "Z^3", "Z^3", "Z"),
    ("z3linear", "ID", "subcomplex", "L"): ("0", "0", "0", "0"),
    ("z3linear", "ID", "subcomplex", "R"): ("0", "0", "0", "0"),
    ("z3linear", "ID", "subcomplex", "full"): ("0", "0", "Z^6", "Z^26"),
    ("z5affine", "none", "quotient", "L"): ("0", "0", "0"),
    ("z5affine", "none", "quotient", "R"): ("0", "0", "0"),
    ("z5affine", "none", "quotient", "full"): ("Z", "Z", "Z"),
    ("z5affine", "D", "quotient", "L"): ("0", "0", "0"),
    ("z5affine", "D", "quotient", "R"): ("0", "0", "0"),
    ("z5affine", "D", "quotient", "full"): ("Z", "Z", "0"),
    ("z5affine", "D", "subcomplex", "L"): ("0", "0", "0"),
    ("z5affine", "D", "subcomplex", "R"): ("0", "0", "0"),
    ("z5affine", "D", "subcomplex", "full"): ("0", "0", "Z"),
}

# (relators, mode, kind): H_3 of z3linear
Z3_H3 = {
    ("none", "quotient", "L"): "0",
    ("none", "quotient", "R"): "0",
    ("none", "quotient", "full"): "Z^81",
    ("D", "quotient", "L"): "0",
    ("D", "quotient", "R"): "0",
    ("D", "quotient", "full"): "Z^24",
    ("D", "subcomplex", "L"): "0",
    ("D", "subcomplex", "R"): "0",
    ("D", "subcomplex", "full"): "Z^57",
    ("I", "quotient", "L"): "0",
    ("I", "quotient", "R"): "0",
    ("I", "quotient", "full"): " + ".join(["Z/2"] * 15),
    ("I", "subcomplex", "L"): "0",
    ("I", "subcomplex", "R"): "0",
    ("I", "subcomplex", "full"): "Z^81",
    ("ID", "quotient", "L"): "0",
    ("ID", "quotient", "R"): "0",
    ("ID", "quotient", "full"): "0",
    ("ID", "subcomplex", "L"): "0",
    ("ID", "subcomplex", "R"): "0",
    ("ID", "subcomplex", "full"): "Z^81",
}


def outcome(compute):
    try:
        return str(compute())
    except MathError:
        return "MathError"


def cases():
    for name in ALGEBRAS:
        X = load_algebra(name + ".ktq")
        relator_sets = ["none", "D"] + (["I", "ID"] if X.is_iktq else [])
        for relators in relator_sets:
            # with no relators both modes are the plain complex
            for mode in ("quotient",) if relators == "none" else ("quotient", "subcomplex"):
                for kind in ("L", "R", "full"):
                    for n in range(-1, 2 if name == "z5affine" else 3):
                        yield name, relators, mode, kind, n


@pytest.mark.parametrize("name,relators,mode,kind,n", list(cases()))
def test_engine_matches_dense_pipeline(name, relators, mode, kind, n):
    X = load_algebra(name + ".ktq")
    v = HomologyVariant(relators, mode, kind)
    assert outcome(lambda: homology(X, n, v)) == FROZEN[name, relators, mode, kind][n + 1]


def variant_id(key):
    """The shorthand name of a named variant, else relators-mode-kind."""
    named = {(v.relators, v.mode, v.diff_kind): name for name, v in NAMED_VARIANTS.items()}
    return named.get(key, "-".join(key))


@pytest.mark.parametrize("variant", sorted(Z3_H3), ids=variant_id)
def test_engine_matches_dense_pipeline_z3_h3(z3linear, variant):
    assert str(homology(z3linear, 3, HomologyVariant(*variant))) == Z3_H3[variant]


def restricted_differential(X, m, kind, subcomplex):
    """d_m of the degenerate subcomplex D, which keeps the rows and columns
    of the degenerate tuples, or of the quotient C/D, which keeps those of
    the nondegenerate ones: (columns, number of rows)."""
    cols = boundary_columns(X, m, kind)
    here = [is_d_degenerate(X, t)[0] for t in chain_basis(X.order, m)]
    below = [is_d_degenerate(X, t)[0] for t in chain_basis(X.order, m - 1)]
    for col, degenerate in zip(cols, here):
        if degenerate and not all(below[i] for i in col):
            raise MathError("differential leaves the degenerate subcomplex")
    rows = {}
    for i, degenerate in enumerate(below):
        if degenerate == subcomplex:
            rows[i] = len(rows)
    kept = [
        {rows[i]: c for i, c in col.items() if i in rows}
        for col, degenerate in zip(cols, here)
        if degenerate == subcomplex
    ]
    return kept, len(rows)


def free_homology(d_n, d_n1):
    """H_n of a free complex from its differentials d_n, d_{n+1}, each
    (columns, number of rows), by the elementary divisors of each, unpruned."""
    (cols_n, rows_n), (cols_n1, dim_n) = d_n, d_n1
    rank_n = len(LatticeSolver.from_columns(cols_n, rows_n).divisors)
    divisors = LatticeSolver.from_columns(cols_n1, dim_n).divisors
    return AbelianGroup(dim_n - rank_n - len(divisors), tuple(d for d in divisors if d > 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_restriction_equals_cone_over_degenerate_relators(n):
    # D is spanned by tuples, so restriction computes D and C/D directly
    for name in ("z3linear", "z5affine") if n < 3 else ("z3linear",):
        X = load_algebra(name + ".ktq")
        for mode in MODE_CHOICES:
            subcomplex = mode == "subcomplex"
            for kind in DIFF_CHOICES:
                expect = free_homology(
                    *(restricted_differential(X, m, kind, subcomplex) for m in (n, n + 1))
                )
                assert homology(X, n, HomologyVariant("D", mode, kind)) == expect, (
                    name, mode, kind,
                )


def assembled_columns(X, n, kind):
    """d_n as sparse columns, one boundary_tuple Chain per degree-n tuple."""
    index = {t: i for i, t in enumerate(chain_basis(X.order, n - 1))}
    return tuple(
        {index[t]: c for t, c in boundary_tuple(X, tup, kind).terms.items()}
        for tup in chain_basis(X.order, n)
    )


@pytest.mark.parametrize("name", ALGEBRAS)
def test_boundary_columns_match_boundary_tuple(name):
    X = load_algebra(name + ".ktq")
    for n in range(-1, 3 if name == "z5affine" else 4):
        for kind in DIFF_CHOICES:
            assert boundary_columns(X, n, kind) == assembled_columns(X, n, kind), (n, kind)


def test_no_caller_changes_the_cached_columns(z3linear):
    # every degree that homology(X, n <= 2) and a compare report read, all
    # in the cache at once, so a second call returns the same objects
    first = {n: boundary_columns(z3linear, n, "full") for n in range(-1, 4)}
    for n in range(-1, 3):
        for relators in RELATOR_CHOICES:
            for mode in MODE_CHOICES:
                homology(z3linear, n, HomologyVariant(relators, mode, "full"))
    code = cli_main(
        ["compare", fixture_path("z3linear.ktq"), fixture_path("r3_after.dg"),
         fixture_path("r3_before.dg"), "--variant", "NID",
         "--correspondence", fixture_path("r3.corr"), "--mod", "3"],
        io.StringIO(),
    )
    assert code == 0
    for n, cols in first.items():
        assert boundary_columns(z3linear, n, "full") is cols
        assert cols == assembled_columns(z3linear, n, "full"), n


def primary_parts(group):
    """The free rank and the sorted prime-power orders of the torsion."""
    parts = []
    for d in group.torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return group.free_rank, sorted(parts)


def direct_sum(a, b):
    (ra, ta), (rb, tb) = primary_parts(a), primary_parts(b)
    return ra + rb, sorted(ta + tb)


# plain, D-subcomplex and D-quotient homology
SPLIT = (HomologyVariant(), HomologyVariant("D", "subcomplex"), HomologyVariant("D", "quotient"))

# degrees where all three are refused: z3sum's differential does not square
# to zero from d_1 d_2 on
SPLIT_REFUSED = {("z3sum", 1), ("z3sum", 2), ("z3sum", 3)}


# the 37 KTQs of order 4 up to relabeling; their H_3 (111 groups, 23 s in
# process) is left out
ORDER4_KTQS = {"ktq4_%02d" % i: t for i, t in enumerate(enumerate_ktqs(4, "ktq", dedup=True))}


@pytest.mark.parametrize("name", ALGEBRAS + sorted(ORDER4_KTQS))
def test_the_degenerate_part_splits_off(name):
    # plain = D-subcomplex + D-quotient, as rack homology splits into quandle
    # and degenerate homology (Litherland and Nelson, 2003); the subcomplex
    # comes through _RelatorLattices.sub and the quotient through the cone
    X = classify(ORDER4_KTQS[name]) if name in ORDER4_KTQS else load_algebra(name + ".ktq")
    for n in range(4 if X.order <= 3 else 3):
        if (name, n) in SPLIT_REFUSED:
            for v in SPLIT:
                with pytest.raises(MathError):
                    homology(X, n, v)
            continue
        plain, sub, quot = (homology(X, n, v) for v in SPLIT)
        assert primary_parts(plain) == direct_sum(sub, quot), (n, plain, sub, quot)


def test_the_involution_part_does_not_split_off(order1):
    # the I-quotient gains 2-torsion from the relators x + x[j], so order1
    # H_1 is Z, not Z + Z + Z/2
    plain, sub, quot = (
        homology(order1, 1, v)
        for v in (HomologyVariant(), HomologyVariant("I", "subcomplex"), HomologyVariant("I"))
    )
    assert (str(plain), str(sub), str(quot)) == ("Z", "Z", "Z/2")
    assert primary_parts(plain) != direct_sum(sub, quot)


def test_the_involution_and_degenerate_part_does_not_split_off():
    # with the degenerate tuples as well, the ID-quotient of the fourth
    # order-3 KTQ still gains 2-torsion: H_1 is Z^5, not Z^4 + Z + Z/2
    X = classify(enumerate_ktqs(3, "ktq", dedup=True)[3])
    plain, sub, quot = (
        homology(X, 1, v)
        for v in (HomologyVariant(), HomologyVariant("ID", "subcomplex"), HomologyVariant("ID"))
    )
    assert (str(plain), str(sub), str(quot)) == ("Z^5", "Z^4", "Z + Z/2")
    assert primary_parts(plain) != direct_sum(sub, quot)
