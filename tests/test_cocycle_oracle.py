"""The mod-m cocycles of two_cocycles against an independent mod-p rank.

The relation lattice L = im d_2 + R_1 is assembled here from the
face-by-face chains.boundary_tuple and from chains.relator_generators, and
its rank over F_p comes from the elimination of tests/rank_oracle.py, so
the check goes through neither the cached differentials, the mapping cone
nor intlinalg.

Vanishing on L plus the size of the span shows that the generators span
the whole cocycle module Hom(Z^n / L, Z_m), n the number of triples: for a
prime p, rank_p(gens) = n - rank_p(L); for m = 6 the same at p = 2 and 3
(Z_6 = Z_2 x Z_3); and for m = 4 the span, counted by an elimination over
Z/4 written here, has the order of Hom(Z^n / L, Z_4).  Since L lies in
ker d_1, Z^n / L = H_1 + Z^(rk d_1), with H_1 that of homology(X, 1, v).
"""

from math import gcd, prod

import pytest

from ktq import MathError
from ktq.chains import boundary_tuple, relator_generators
from ktq.homology import HomologyVariant, chain_basis, homology, two_cocycles

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


def span_size_mod4(rows):
    """The order of the submodule of (Z/4)^n spanned by sparse rows
    {column: coeff}.  A row with an odd entry spans a summand of order 4:
    it clears its column from the other rows and leaves.  The rows left
    are twice vectors over F_2, whose span has order 2^rank."""
    rows = [{c: a % 4 for c, a in row.items() if a % 4} for row in rows]
    size = 1
    while True:
        pick = next(((k, c) for k, row in enumerate(rows) for c, a in row.items() if a % 2), None)
        if pick is None:
            return size * 2 ** rank_mod_p([{c: a // 2 for c, a in row.items()} for row in rows], 2)
        k, c = pick
        pivot = rows.pop(k)
        for row in rows:
            # an odd residue mod 4 is its own inverse
            f = row.get(c, 0) * pivot[c] % 4
            for j, a in pivot.items() if f else ():
                x = (row.get(j, 0) - f * a) % 4
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        size *= 4


def test_span_size_mod4_on_small_matrices():
    assert span_size_mod4([]) == 1
    assert span_size_mod4([{0: 2}]) == 2
    assert span_size_mod4([{0: 1, 1: 2}, {0: 3, 1: 2}]) == 4
    assert span_size_mod4([{0: 1, 1: 2}, {0: 1}]) == 8
    assert span_size_mod4([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 4
    assert span_size_mod4([{0: 2}, {1: 2}, {0: 2, 1: 2}]) == 4
    assert span_size_mod4([{0: 1}, {1: 3}, {0: 1, 1: 1}]) == 16


# the rank of d_1 mod this prime is its rank over Q unless the prime
# divides an elementary divisor of d_1, the order of a torsion class of H_0
LARGE_PRIME = 2 ** 31 - 1


def d1_rank(X):
    """rk d_1 over Q, from the face-by-face boundary of every triple."""
    index = {t: i for i, t in enumerate(chain_basis(X.order, 0))}
    cols = [
        {index[t]: c for t, c in boundary_tuple(X, tup, "full").terms.items()}
        for tup in chain_basis(X.order, 1)
    ]
    return rank_mod_p(cols, LARGE_PRIME)


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
    rk_d1 = d1_rank(X)
    accepted = []
    for relators in ("none", "D", "I", "ID"):
        v = HomologyVariant(relators, "quotient", "full")
        if not accepts(X, v):
            continue
        accepted.append(relators)
        cols = relation_columns(X, relators)
        dim = {p: len(index) - rank_mod_p(cols, p) for p in PRIMES}
        h1 = homology(X, 1, v)
        assert all(t % LARGE_PRIME for t in homology(X, 0, v).torsion)
        for m in MODULI:
            gens = two_cocycles(X, m, v)
            rows = [{index[t]: a for t, a in phi.values.items()} for phi in gens]
            if m in PRIMES:
                assert len(gens) == dim[m], (relators, m)
            for x in rows:
                assert x, (relators, m)
                for col in cols:
                    assert sum(a * x.get(i, 0) for i, a in col.items()) % m == 0, (relators, m)
            if m == 4:
                hom = 4 ** (h1.free_rank + rk_d1) * prod(gcd(t, 4) for t in h1.torsion)
                assert span_size_mod4(rows) == hom, (relators, m)
            else:
                for p in PRIMES:
                    if m % p == 0:
                        assert rank_mod_p(rows, p) == dim[p], (relators, m, p)
    assert tuple(accepted) == ACCEPTED[name]
