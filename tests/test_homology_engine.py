"""The free-complex homology engine against the dense lattice pipeline it
replaced (tests/dense_homology.py), and the mapping cone against
restriction."""

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
from dense_homology import dense_homology

ALGEBRAS = ["order1", "z2sum", "z2sum1", "z3sum", "z3linear", "z5affine"]


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
                    # z5affine H2 takes minutes in the dense pipeline
                    for n in range(-1, 2 if name == "z5affine" else 3):
                        yield name, relators, mode, kind, n


@pytest.mark.parametrize("name,relators,mode,kind,n", list(cases()))
def test_engine_matches_dense_pipeline(name, relators, mode, kind, n):
    X = load_algebra(name + ".ktq")
    v = HomologyVariant(relators, mode, kind)
    assert outcome(lambda: homology(X, n, v)) == outcome(lambda: dense_homology(X, n, v))


@pytest.mark.parametrize("variant", ["plain", "N"])
def test_engine_matches_dense_pipeline_z3_h3(z3linear, variant):
    v = NAMED_VARIANTS[variant]
    assert str(homology(z3linear, 3, v)) == str(dense_homology(z3linear, 3, v))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_restriction_equals_cone_over_degenerate_relators(z3linear, n):
    cone = _RelatorLattices(z3linear, "D", "full").cone
    assert _free_homology(cone, n) == homology(z3linear, n, NAMED_VARIANTS["N"])
