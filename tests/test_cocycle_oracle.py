"""The mod-m cocycles of two_cocycles against an independent mod-p rank.

The relation lattice im d_2 + R_1 is assembled here from the face-by-face
chains.boundary_tuple and from chains.relator_generators, and its rank
over F_p comes from the elimination of tests/rank_oracle.py, so the
check goes through neither the cached differentials, the mapping cone
nor intlinalg.
"""

import pytest

from ktq import MathError
from ktq.chains import boundary_tuple, relator_generators
from ktq.homology import HomologyVariant, chain_basis, two_cocycles

from conftest import load_algebra
from rank_oracle import rank_mod_p

# the relator sets whose quotient variant each fixture quasigroup accepts;
# z3sum is a quasigroup whose differential does not square to zero
ACCEPTED = {
    "order1": ("none", "D", "I", "ID"),
    "z2sum": ("none", "D", "I", "ID"),
    "z2sum1": ("none", "D", "I", "ID"),
    "z3sum": (),
    "z3linear": ("none", "D", "I", "ID"),
    "z5affine": ("none", "D"),
}
PRIMES = (2, 3, 5)
MODULI = (2, 3, 4, 5, 6)


def test_rank_mod_p_on_small_matrices():
    assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}], 3) == 1
    assert rank_mod_p([{0: 2}, {1: 3}], 2) == 1
    assert rank_mod_p([{0: 2}, {1: 3}], 5) == 2
    assert rank_mod_p([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], 3) == 2
    assert rank_mod_p([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3) == 3
    assert rank_mod_p([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 2) == 2


def relation_columns(X, relators):
    """im d_2 + R_1 as sparse columns over the triples: the boundary of
    every degree-2 tuple, then every degree-1 relator generator."""
    index = {t: i for i, t in enumerate(chain_basis(X.order, 1))}
    chains = [boundary_tuple(X, tup, "full") for tup in chain_basis(X.order, 2)]
    if relators != "none":
        chains += relator_generators(X, 1, relators)
    return [{index[t]: c for t, c in z.terms.items()} for z in chains]


def accepts(X, v):
    try:
        two_cocycles(X, 2, v)
    except MathError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_cocycles_match_an_independent_rank_and_vanish_on_the_relations(name):
    X = load_algebra(name + ".ktq")
    index = {t: i for i, t in enumerate(chain_basis(X.order, 1))}
    accepted = []
    for relators in ("none", "D", "I", "ID"):
        v = HomologyVariant(relators, "quotient", "full")
        if not accepts(X, v):
            continue
        accepted.append(relators)
        cols = relation_columns(X, relators)
        for m in MODULI:
            gens = two_cocycles(X, m, v)
            if m in PRIMES:
                assert len(gens) == len(index) - rank_mod_p(cols, m), (relators, m)
            for phi in gens:
                x = {index[t]: a for t, a in phi.values.items()}
                assert x, (relators, m)
                for col in cols:
                    assert sum(a * x.get(i, 0) for i, a in col.items()) % m == 0, (relators, m)
    assert tuple(accepted) == ACCEPTED[name]
