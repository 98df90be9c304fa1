"""Universal coefficients: the plain and D homology groups of homology()
against mod-p ranks of the same complexes, built here.

For a free complex C and a prime p,

    dim H_n(C (x) F_p) = rank H_n + t_p(H_n) + t_p(H_{n-1}),

with t_p counting the torsion orders of a group that p divides.  The left
side comes from the complex restricted to a set of tuples: the plain
complex takes all of them, the D-quotient the nondegenerate ones (faces
that are degenerate drop out) and the D-subcomplex the degenerate ones.
Its differentials come from the face-by-face chains.boundary_tuple and
its ranks from the mod-p elimination of tests/rank_oracle.py, so
the check goes through neither the cached differentials, the mapping cone
nor intlinalg.
"""

from itertools import product

import pytest

from ktq.algebra import affine_table, classify, enumerate_ktqs
from ktq.chains import all_tuples, boundary_tuple
from ktq.homology import HomologyVariant, homology

from conftest import load_algebra
from rank_oracle import rank_mod_p

PRIMES = (2, 3, 5)
FIXTURES = ("order1", "z2sum", "z2sum1", "z3linear", "z5affine")


def algebras():
    """(name, algebra) for the fixture KTQs, the order <= 3 KTQs up to
    relabeling, and the affine KTQs over Z_n for n <= 5."""
    out = [(name, load_algebra(name + ".ktq")) for name in FIXTURES]
    for n in (1, 2, 3):
        for k, t in enumerate(enumerate_ktqs(n, "ktq", dedup=True)):
            out.append(("order%d-%d" % (n, k), classify(t)))
    for n in range(1, 6):
        for a, b, c in product(range(n), repeat=3):
            X = classify(affine_table(n, a, b, c))
            if X.is_ktq:
                out.append(("%dx+%dy+%dz-mod%d" % (a, b, c, n), X))
    return out


ALGEBRAS = algebras()

# (top degree, primes) by order.  Ranking an order-5 d_3 mod p takes
# seconds, so order 5 stops at H_1, with the one prime of its torsion.
REACH = {5: (1, (5,))}


def degenerate(X, tup):
    """Whether some window of tup has T(x_{j-1}, x_j, x_{j+1}) = x_j."""
    return any(X.t(*tup[j - 1:j + 2]) == tup[j] for j in range(1, len(tup) - 1))


# name -> (variant, whether the complex keeps a tuple)
COMPLEXES = {
    "plain": (HomologyVariant("none", "quotient"), lambda X, tup: True),
    "D-quotient": (HomologyVariant("D", "quotient"), lambda X, tup: not degenerate(X, tup)),
    "D-subcomplex": (HomologyVariant("D", "subcomplex"), degenerate),
}


def torsion_count(group, p):
    return sum(1 for d in group.torsion if d % p == 0)


@pytest.mark.parametrize("name, X", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_homology_obeys_universal_coefficients(name, X):
    top, primes = REACH.get(X.order, (2, PRIMES))
    faces = {
        n: {tup: boundary_tuple(X, tup).terms for tup in all_tuples(X.order, n)}
        for n in range(-1, top + 2)
    }
    for label, (variant, keeps) in COMPLEXES.items():
        basis = {
            n: [tup for tup in all_tuples(X.order, n) if keeps(X, tup)]
            for n in range(-2, top + 2)
        }
        ranks = {}
        for n in range(-1, top + 2):
            # d_n restricted to the basis, one sparse row per face
            index = {tup: i for i, tup in enumerate(basis[n - 1])}
            rows = [{} for _ in index]
            for j, tup in enumerate(basis[n]):
                for f, c in faces[n][tup].items():
                    if f in index:
                        rows[index[f]][j] = c
            ranks[n] = {p: rank_mod_p(rows, p) for p in primes}
        groups = {n: homology(X, n, variant) for n in range(-1, top + 1)}
        for n, p in product(range(0, top + 1), primes):
            mod_p = len(basis[n]) - ranks[n][p] - ranks[n + 1][p]
            expected = (
                groups[n].free_rank + torsion_count(groups[n], p)
                + torsion_count(groups[n - 1], p)
            )
            assert mod_p == expected, (label, n, p, groups[n], groups[n - 1])
