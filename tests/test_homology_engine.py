"""The free-complex homology engine against frozen groups, and the mapping
cone against restriction.

FROZEN holds H_n for n = -1, 0, 1, 2 of every fixture x valid relators x
mode x differential kind ("MathError" where a precondition is refused).
The dense lattice pipeline that the engine replaced (kernel_int, Hermite
basis, one LatticeSolver.solve per image column, Smith form) computed the
same groups on every one of these cases, and on z3linear H3 in plain and
N; z5affine stops at degree 1 because its H2 took minutes there.
"""

import pytest

from ktq import MathError
from ktq.homology import (
    NAMED_VARIANTS,
    HomologyVariant,
    _free_homology,
    _RelatorLattices,
    homology,
)

from conftest import load_algebra

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

Z3_H3 = {"plain": "Z^81", "N": "Z^24"}


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


@pytest.mark.parametrize("variant", ["plain", "N"])
def test_engine_matches_dense_pipeline_z3_h3(z3linear, variant):
    assert str(homology(z3linear, 3, NAMED_VARIANTS[variant])) == Z3_H3[variant]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_restriction_equals_cone_over_degenerate_relators(z3linear, n):
    cone = _RelatorLattices(z3linear, "D", "full").cone
    assert _free_homology(cone, n) == homology(z3linear, n, NAMED_VARIANTS["N"])
