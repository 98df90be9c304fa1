"""Universal coefficients: the plain, D, I and ID homology groups of
homology() against mod-p ranks of the same complexes, built here.

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

The I and ID relators x + x[j] span a subcomplex R whose quotient C/R can
have torsion in its chain groups, so there the check builds, from the
relators written here, the Hermite basis of each R_n (tests/hnf_oracle.py),
the differential of R in coordinates of those bases, and the mapping cone
of R -> C, Cone_n = R_{n-1} + C_n with d(r, c) = (-d r, r + d c): free
complexes whose homology is that of R and of C/R.

On the cochain side, the mod-p cocycles on triples that two_cocycles
returns for a quotient variant vanish on im d_2 + R_1, which lies in
ker d_1, so they are Hom(C_1 / (im d_2 + R_1), F_p) and

    dim Z^1(p) = rank_p(d_1) + b_1(p),  b_1(p) = rank H_1 + t_p(H_1) + t_p(H_0),

with d_1 the plain degree-1 differential (R_0 = 0) and H_0, H_1 those of
the quotient.  This ties the unit elimination behind the cocycles to the
one behind homology().
"""

from itertools import product

import pytest

from ktq.algebra import affine_table, classify, enumerate_ktqs
from ktq.chains import all_tuples, boundary_tuple
from ktq.homology import HomologyVariant, homology, two_cocycles

from conftest import load_algebra
from hnf_oracle import column_hnf
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

# (top degree, primes) by name, else by order.  Ranking an order-5 d_3
# mod p takes up to 1.5 s per complex and prime, so order 5 stops at H_1,
# with the one prime of its torsion, except the z5affine fixture: it
# reaches H_2 at p = 5, where d_2 has many unit pivots to prune d_3 at.
REACH = {5: (1, (5,)), "z5affine": (2, (5,))}


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


def face_table(X, top):
    """The faces {face: coeff} of every tuple of degree -1 to top + 1."""
    return {
        n: {tup: boundary_tuple(X, tup).terms for tup in all_tuples(X.order, n)}
        for n in range(-1, top + 2)
    }


@pytest.mark.parametrize("name, X", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_homology_obeys_universal_coefficients(name, X):
    top, primes = REACH.get(name, REACH.get(X.order, (2, PRIMES)))
    faces = face_table(X, top)
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


@pytest.mark.parametrize("name, X", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_cocycles_obey_universal_coefficients(name, X):
    index = {tup: i for i, tup in enumerate(all_tuples(X.order, 0))}
    d1 = [{} for _ in index]
    for j, tup in enumerate(all_tuples(X.order, 1)):
        for f, c in boundary_tuple(X, tup).terms.items():
            d1[index[f]][j] = c
    ranks = {p: rank_mod_p(d1, p) for p in PRIMES}
    for names in ("none", "D") + (("I", "ID") if X.is_iktq else ()):
        variant = HomologyVariant(names, "quotient")
        h0, h1 = homology(X, 0, variant), homology(X, 1, variant)
        for p in PRIMES:
            b1 = h1.free_rank + torsion_count(h1, p) + torsion_count(h0, p)
            assert len(two_cocycles(X, p, variant)) == ranks[p] + b1, (names, p, h0, h1)


def relators(X, n, names):
    """The degree-n relators of the sets in names, each once, as sparse
    chains {tuple: coeff}: D the degenerate tuples, I the sums x + x[j] for
    1 <= j <= n, with x[j] slot j replaced by T(x_{j-1}, x_j, x_{j+1})."""
    out = set()
    for tup in all_tuples(X.order, n):
        if "D" in names and degenerate(X, tup):
            out.add(((tup, 1),))
        if "I" in names:
            for j in range(1, n + 1):
                other = tup[:j] + (X.t(*tup[j - 1:j + 2]),) + tup[j + 1:]
                out.add(((tup, 2),) if other == tup else tuple(sorted([(tup, 1), (other, 1)])))
    return [dict(g) for g in sorted(out)]


def coordinates(basis, v):
    """The coefficients {k: q} of a sparse vector over a Hermite basis, a
    list of (pivot row, sparse column) in increasing pivot order; None
    when v is not in the lattice.  Sparse, since the dense
    DenseLatticeSolver.coordinates reads every row for each of the
    thousands of vectors an order-4 complex asks about."""
    res, y = dict(v), {}
    for k, (i, col) in enumerate(basis):
        q, r = divmod(res.get(i, 0), col[i])
        if r:
            return None
        if q:
            y[k] = q
            for row, a in col.items():
                res[row] = res.get(row, 0) - q * a
    return None if any(res.values()) else y


IKTQS = [(name, X) for name, X in ALGEBRAS if X.is_iktq]


@pytest.mark.parametrize("name, X", IKTQS, ids=[name for name, _ in IKTQS])
def test_involutory_homology_obeys_universal_coefficients(name, X):
    top, primes = REACH.get(X.order, (2, PRIMES))
    faces = face_table(X, top)
    index = {
        n: {tup: i for i, tup in enumerate(all_tuples(X.order, n))} for n in range(-2, top + 2)
    }

    def d(n, chain):
        """The boundary of a degree-n chain, sparse over the degree n-1 tuples."""
        out = {}
        for tup, c in chain.items():
            for f, a in faces[n][tup].items():
                k = index[n - 1][f]
                out[k] = out.get(k, 0) + c * a
        return out

    for names in ("I", "ID"):
        gens = {n: relators(X, n, names) for n in range(-1, top + 2)}
        basis = {-2: []}
        for n in range(-1, top + 1):
            M = [[0] * len(gens[n]) for _ in index[n]]
            for j, g in enumerate(gens[n]):
                for tup, c in g.items():
                    M[index[n][tup]][j] = c
            H, _, pivots = column_hnf(M, len(gens[n]), transform=False)
            basis[n] = [(i, {r: row[c] for r, row in enumerate(H) if row[c]}) for i, c in pivots]

        def coords(n, chain):
            y = coordinates(basis[n - 1], d(n, chain))
            assert y is not None, (names, n, chain)  # d leaves R
            return y

        # the generators of R_n span it, and so R_n (x) F_p too: their
        # images have the rank of each differential
        sub, cone = {}, {}
        for n in range(0, top + 2):
            sub[n] = [coords(n, g) for g in gens[n]]
            r = len(basis[n - 2])
            cone[n] = [
                {**{k: -q for k, q in coords(n - 1, g).items()},
                 **{r + index[n - 1][tup]: c for tup, c in g.items()}}
                for g in gens[n - 1]
            ] + [{r + index[n - 1][f]: a for f, a in faces[n][tup].items()} for tup in index[n]]
        dims = {
            "subcomplex": {n: len(basis[n]) for n in range(top + 1)},
            "quotient": {n: len(basis[n - 1]) + len(index[n]) for n in range(top + 1)},
        }
        for mode, rows in (("subcomplex", sub), ("quotient", cone)):
            variant = HomologyVariant(names, mode)
            groups = {n: homology(X, n, variant) for n in range(-1, top + 1)}
            ranks = {n: {p: rank_mod_p(rows[n], p) for p in primes} for n in rows}
            for n, p in product(range(top + 1), primes):
                mod_p = dims[mode][n] - ranks[n][p] - ranks[n + 1][p]
                expected = (
                    groups[n].free_rank + torsion_count(groups[n], p)
                    + torsion_count(groups[n - 1], p)
                )
                assert mod_p == expected, (names, mode, n, p, groups[n], groups[n - 1])
