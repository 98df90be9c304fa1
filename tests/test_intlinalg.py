import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from ktq.intlinalg import (
    AbelianGroup,
    LatticeSolver,
    cokernel,
    column_hnf,
    elementary_divisors,
    kernel_int,
    kernel_mod,
    lattice_basis,
    smith_normal_form,
    snf_diagonal,
)

import hnf_oracle


def det(M):
    """Exact determinant via fraction-free elimination (test oracle)."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            for k in range(c, n):
                A[r][k] -= f * A[c][k]
    out = Fraction(sign)
    for i in range(n):
        out *= A[i][i]
    return out


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_snf_known_matrix():
    D = snf_diagonal([[2, 4], [6, 8]])
    assert D == [2, 4]


def test_snf_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = random_matrix(rng, rows, cols)
        U, D, V = smith_normal_form(M, cols)
        assert matmul(matmul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            for j in range(rows):
                for k in range(cols):
                    if j != k:
                        assert D[j][k] == 0
        if rows == cols:
            assert abs(det(M)) == abs(det(D))


def test_snf_zero_and_empty_shapes():
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal([], ncols=3) == []
    U, D, V = smith_normal_form([[0, 0, 0]], 3)
    assert D == [[0, 0, 0]]


def test_column_hnf_is_canonical_column_space():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        M = random_matrix(rng, rows, cols)
        H, W, pivots = column_hnf(M, cols, transform=True)
        assert matmul(M, W) == H
        assert abs(det(W)) == 1
        prev_row = -1
        for i, j in pivots:
            assert i > prev_row
            prev_row = i
            assert H[i][j] > 0
            for jj in range(j):
                assert 0 <= H[i][jj] < H[i][j]


def test_lattice_rank_and_basis():
    M = [[1, 2, 3], [2, 4, 6]]
    assert len(lattice_basis(M, 3)) == 1
    assert lattice_basis(M, 3) == [[1, 2]]


def test_lattice_membership_brute_force():
    # lattice spanned by (2, 0) and (1, 3): brute-force all small combos
    M = [[2, 1], [0, 3]]
    spanned = set()
    for a, b in product(range(-8, 9), repeat=2):
        spanned.add((2 * a + b, 3 * b))
    for v in product(range(-6, 7), repeat=2):
        expect = v in spanned
        coeffs = LatticeSolver(M, 2).solve(list(v))
        assert (coeffs is not None) == expect, v
        if coeffs is not None:
            assert [2 * coeffs[0] + coeffs[1], 3 * coeffs[1]] == list(v)


def test_lattice_solver_solves():
    M = [[2, 1], [0, 3]]
    s = LatticeSolver(M, 2)
    c = s.solve([4, 6])
    assert c is not None
    assert [2 * c[0] + c[1], 3 * c[1]] == [4, 6]
    assert s.solve([1, 0]) is None
    assert s.contains([0, 0])


def test_lattice_solver_coordinates_and_lazy_transform():
    M = [[2, 1, 3], [0, 3, 3]]
    s = LatticeSolver(M, 3)
    # membership needs neither the Hermite basis nor the transform, and
    # coordinates never need the transform
    assert s.contains([4, 6]) and not s.contains([1, 0])
    assert s._basis is None
    y = s.coordinates({0: 4, 1: 6})
    assert [sum(q * s.basis[a].get(k, 0) for a, q in y.items()) for k in range(2)] == [4, 6]
    assert s._W is None
    c = s.solve([4, 6])
    assert s._W is not None
    assert [sum(M[i][j] * c[j] for j in range(3)) for i in range(2)] == [4, 6]


def sparse_columns(M, ncols):
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(ncols)]


@st.composite
def lattice_queries(draw):
    """A sparse integer matrix of at most 8 x 8, mostly 0 and +-1 with some
    +-2 and +-3, and a query vector: a small combination of its columns,
    perturbed in some draws."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    entry = st.sampled_from((0,) * 8 + (1, -1) * 3 + (2, -2, 3, -3))
    M = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    x = draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
    e = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=rows, max_size=rows))
    v = [sum(a * b for a, b in zip(row, x)) + d for row, d in zip(M, e)]
    return M, cols, v


@settings(derandomize=True, max_examples=400, deadline=None)
@given(query=lattice_queries())
def test_sparse_hermite_form_matches_the_dense_oracle(query):
    M, cols, v = query
    H0, _, pivots0 = hnf_oracle.column_hnf(M, cols)
    H, W, pivots = column_hnf(M, cols, transform=True)
    assert (H, pivots) == (H0, pivots0)
    assert column_hnf(M, cols) == (H, None, pivots)
    assert matmul(M, W) == H
    assert abs(det(W)) == 1
    solver = LatticeSolver(M, cols)
    assert LatticeSolver.from_columns(sparse_columns(M, cols), len(M)).basis == solver.basis
    oracle = hnf_oracle.DenseLatticeSolver(M, cols)
    y0 = oracle.coordinates(v)
    y = solver.coordinates({i: a for i, a in enumerate(v) if a})
    assert y == (None if y0 is None else {k: q for k, q in enumerate(y0) if q})
    assert solver.contains(v) == (y0 is not None)
    for c in (solver.solve(v), oracle.solve(v)):
        assert (c is None) == (y0 is None)
        if c is not None:
            assert [sum(a * b for a, b in zip(row, c)) for row in M] == v


def test_elementary_divisors_match_dense_snf():
    rng = random.Random(11)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.random()
        M = [
            [rng.choice((-2, -1, 1, 2, 3)) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        expect = [d for d in snf_diagonal(M, cols) if d]
        assert elementary_divisors(sparse_columns(M, cols), rows) == expect, M


def test_elementary_divisors_of_non_unit_blocks():
    # no unit entry at all: everything goes to the dense Smith form
    assert elementary_divisors(sparse_columns([[2, 4], [6, 8]], 2), 2) == [2, 4]
    assert elementary_divisors([{0: 2}, {}], 3) == [2]
    assert elementary_divisors([], 0) == []


def test_kernel_int():
    M = [[1, 2, 3]]
    K = kernel_int(M, 3)
    assert len(K) == 2
    for k in K:
        assert sum(m * x for m, x in zip([1, 2, 3], k)) == 0
    # full-rank square matrix: trivial kernel
    assert kernel_int([[2, 1], [1, 1]], 2) == []


def test_kernel_mod_composite_modulus():
    # over Z/4, 2*2 = 0: the kernel of (2) is generated by 2, not 0
    gens = kernel_mod([[2]], 4, 1)
    assert gens == [[2]]
    gens = kernel_mod([[2, 0], [0, 1]], 4, 2)
    assert gens == [[2, 0]]


def kernel_brute(M, cols, m):
    """Every x in (Z/m)^cols with M*x = 0 mod m (test oracle)."""
    return {
        v
        for v in product(range(m), repeat=cols)
        if all(sum(a * x for a, x in zip(row, v)) % m == 0 for row in M)
    }


def span_mod(gens, cols, m):
    """The additive span mod m of the generators."""
    spanned = {(0,) * cols}
    frontier = [(0,) * cols]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((b + x) % m for b, x in zip(base, g))
            if nxt not in spanned:
                spanned.add(nxt)
                frontier.append(nxt)
    return spanned


def rank_mod_p(M, cols, p):
    """Rank over F_p by Gauss-Jordan elimination (test oracle)."""
    A = [[x % p for x in row] for row in M]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        r += 1
    return r


def test_kernel_mod_matches_brute_force():
    rng = random.Random(3)
    for m in (2, 3, 4, 6):
        for _ in range(10):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            M = random_matrix(rng, rows, cols, 0, m - 1)
            gens = kernel_mod(M, m, cols)
            assert span_mod(gens, cols, m) == kernel_brute(M, cols, m), (m, M)


@st.composite
def sparse_systems(draw):
    """A sparse integer matrix with at most 5 columns and entries in
    -3..3, mostly 0 and +-1, with a modulus in 2..9."""
    cols = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))
    M = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    return M, cols, draw(st.integers(2, 9))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(system=sparse_systems())
def test_kernel_mod_spans_the_kernel(system):
    M, cols, m = system
    gens = kernel_mod(M, m, cols)
    assert all(len(g) == cols and all(0 <= x < m for x in g) and any(g) for g in gens)
    assert span_mod(gens, cols, m) == kernel_brute(M, cols, m)
    if all(m % q for q in range(2, m)):
        assert len(gens) == cols - rank_mod_p(M, cols, m)


def test_cokernel_groups():
    assert str(cokernel([[2, 0], [0, 3]], 2)) == "Z/6"
    assert str(cokernel([[1]], 1)) == "0"
    assert str(cokernel([[0]], 1)) == "Z"
    g = cokernel([[2, 0, 0], [0, 2, 0]], 3)
    assert g.free_rank == 0 and g.torsion == (2, 2)


def test_abelian_group_rendering():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert AbelianGroup(0, ()).is_trivial
    assert not AbelianGroup(0, (3,)).is_trivial
