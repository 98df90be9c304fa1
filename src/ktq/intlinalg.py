"""Exact integer matrix algorithms: Smith and Hermite normal forms,
elementary divisors of sparse matrices, lattice membership and kernels
(integral and modulo m).

Dense matrices are plain lists of row lists of Python ints.  A matrix may
have zero rows; pass ncols explicitly whenever the column count cannot be
read off the data.  Sparse matrices are lists of columns, each a dict
{row: nonzero coefficient}.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Tuple

from .errors import MathError


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus a divisibility
    chain of torsion orders d1 | d2 | ..., each >= 2."""

    free_rank: int
    torsion: Tuple[int, ...] = ()

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion


def _shape(M, ncols):
    m = len(M)
    if ncols is None:
        if m == 0:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(M[0])
    for row in M:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    return m, ncols


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf(M, ncols, want_u, want_v):
    m, n = _shape(M, ncols)
    D = [list(row) for row in M]
    U = _identity(m) if want_u else None
    V = _identity(n) if want_v else None

    def swap_rows(a, b):
        D[a], D[b] = D[b], D[a]
        if U is not None:
            U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in D:
            row[a], row[b] = row[b], row[a]
        if V is not None:
            for row in V:
                row[a], row[b] = row[b], row[a]

    def negate_row(a):
        D[a] = [-x for x in D[a]]
        if U is not None:
            U[a] = [-x for x in U[a]]

    def row_sub(a, b, q):
        # row a -= q * row b
        Da, Db = D[a], D[b]
        for j in range(n):
            Da[j] -= q * Db[j]
        if U is not None:
            Ua, Ub = U[a], U[b]
            for j in range(m):
                Ua[j] -= q * Ub[j]

    def col_sub(a, b, q):
        # col a -= q * col b
        for row in D:
            row[a] -= q * row[b]
        if V is not None:
            for row in V:
                row[a] -= q * row[b]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of least magnitude in the trailing block
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best == 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        if D[t][t] < 0:
            negate_row(t)

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    row_sub(i, t, D[i][t] // D[t][t])
            for i in range(t + 1, m):
                if D[i][t]:
                    # positive remainder, strictly smaller than the pivot
                    swap_rows(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // D[t][t])
            for j in range(t + 1, n):
                if D[t][j]:
                    swap_cols(t, j)
                    dirty = True
                    break

        p = D[t][t]
        offender = -1
        for i in range(t + 1, m):
            if any(D[i][j] % p for j in range(t + 1, n)):
                offender = i
                break
        if offender >= 0:
            # fold the offending row into the pivot row and redo this step
            row_sub(t, offender, -1)
            continue
        t += 1

    return U, D, V


def smith_normal_form(M, ncols=None):
    """Return (U, D, V) with D = U*M*V, U and V unimodular, D diagonal with
    nonnegative entries satisfying d_i | d_{i+1}."""
    return _snf(M, ncols, True, True)


def snf_diagonal(M, ncols=None):
    """The diagonal of the Smith form only (no transforms tracked)."""
    _, D, _ = _snf(M, ncols, False, False)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def column_hnf(M, ncols=None, transform=False):
    """Column-style Hermite normal form of the lattice spanned by the
    columns of M.

    Returns (H, W, pivots) with H = M*W, W unimodular (or None when
    transform is False), and pivots a list of (row, col) positions with
    strictly increasing rows, positive pivot entries, and entries of earlier
    columns reduced to [0, pivot) in each pivot row.  Columns after the last
    pivot are zero.
    """
    m, n = _shape(M, ncols)
    H = [list(row) for row in M]
    W = _identity(n) if transform else None

    def swap_cols(a, b):
        for row in H:
            row[a], row[b] = row[b], row[a]
        if W is not None:
            for row in W:
                row[a], row[b] = row[b], row[a]

    def col_sub(a, b, q):
        for row in H:
            row[a] -= q * row[b]
        if W is not None:
            for row in W:
                row[a] -= q * row[b]

    def negate_col(a):
        for row in H:
            row[a] = -row[a]
        if W is not None:
            for row in W:
                row[a] = -row[a]

    pivots = []
    c = 0
    for i in range(m):
        if c == n:
            break
        found = -1
        for j in range(c, n):
            if H[i][j]:
                found = j
                break
        if found < 0:
            continue
        if found != c:
            swap_cols(c, found)
        for j in range(c + 1, n):
            while H[i][j]:
                if H[i][c] == 0 or abs(H[i][j]) < abs(H[i][c]):
                    swap_cols(c, j)
                else:
                    col_sub(j, c, H[i][j] // H[i][c])
        if H[i][c] < 0:
            negate_col(c)
        for j in range(c):
            q = H[i][j] // H[i][c]
            if q:
                col_sub(j, c, q)
        pivots.append((i, c))
        c += 1
    return H, W, pivots


def lattice_basis(M, ncols=None):
    """A canonical basis (list of column vectors) of the column lattice."""
    H, _, pivots = column_hnf(M, ncols)
    m = len(M)
    return [[H[i][c] for i in range(m)] for _, c in pivots]


class LatticeSolver:
    """Reusable exact solver for M*c = v against a fixed column lattice.

    The Hermite form is computed once.  Membership and coordinates over the
    Hermite basis need only its forward residue pass; the unimodular
    transform back to coefficients of the columns of M is computed on the
    first solve() that finds a solution.
    """

    def __init__(self, M, ncols=None):
        self.nrows, self.ncols = _shape(M, ncols)
        self._columns = [
            {i: M[i][j] for i in range(self.nrows) if M[i][j]} for j in range(self.ncols)
        ]
        H, _, self.pivots = column_hnf(M, ncols)
        #: the Hermite basis of the lattice as sparse columns, one per pivot
        self.basis = [
            {k: H[k][c] for k in range(i, self.nrows) if H[k][c]} for i, c in self.pivots
        ]
        self._W = None

    def coordinates(self, v):
        """Integer coefficients of v over the Hermite basis, or None when v
        is not in the lattice."""
        if len(v) != self.nrows:
            raise ValueError("dimension mismatch")
        res = list(v)
        y = []
        for (i, _), col in zip(self.pivots, self.basis):
            p = col[i]
            if res[i] % p:
                return None
            q = res[i] // p
            y.append(q)
            if q:
                for k, h in col.items():
                    res[k] -= q * h
        if any(res):
            return None
        return y

    def solve(self, v):
        """An integer coefficient vector c with M*c = v, or None."""
        y = self.coordinates(v)
        if y is None:
            return None
        if self._W is None:
            M = [[0] * self.ncols for _ in range(self.nrows)]
            for j, col in enumerate(self._columns):
                for i, a in col.items():
                    M[i][j] = a
            _, self._W, _ = column_hnf(M, self.ncols, transform=True)
        W = self._W
        return [
            sum(W[row][c] * q for (_, c), q in zip(self.pivots, y))
            for row in range(self.ncols)
        ]

    def contains(self, v):
        return self.coordinates(v) is not None


def kernel_int(M, ncols=None):
    """A basis of the integer kernel {x : M*x = 0} (list of vectors)."""
    _, n = _shape(M, ncols)
    _, W, pivots = column_hnf(M, ncols, transform=True)
    r = len(pivots)
    return [[W[row][j] for row in range(n)] for j in range(r, n)]


def kernel_mod(M, modulus, ncols=None):
    """A generating set of {x : M*x = 0 mod modulus}, vectors reduced mod
    modulus, computed through the integer Smith form (correct for composite
    moduli)."""
    if modulus < 2:
        raise MathError("modulus must be >= 2")
    m, n = _shape(M, ncols)
    _, D, V = _snf(M, ncols, False, True)
    gens = []
    for j in range(n):
        d = D[j][j] if j < m else 0
        if d == 0:
            k = 1
        else:
            k = modulus // gcd(d, modulus)
            if k == modulus:
                continue  # only the zero residue class
        vec = [(V[row][j] * k) % modulus for row in range(n)]
        if any(vec):
            gens.append(vec)
    return gens


def cokernel(M, ncols=None):
    """The structure of Z^rows / colspan(M)."""
    rows, _ = _shape(M, ncols)
    diag = snf_diagonal(M, ncols)
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianGroup(rows - len(nonzero), torsion)


def elementary_divisors(columns, nrows):
    """The nonzero invariant factors d1 | d2 | ... of a sparse integer
    matrix with nrows rows, given as a list of columns {row: coeff}.

    Entries +-1 are eliminated first, each contributing the factor 1: at
    every step a unit is taken from the shortest column, in its shortest
    row, to keep the fill low (Dumas, Heckenbach, Saunders and Welker,
    2003).  Only the block left without unit entries goes to the dense
    Smith form.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows = [dict() for _ in range(nrows)]
    for j, col in cols.items():
        for i, a in col.items():
            rows[i][j] = a
    units = 0
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    while heap:
        size, j = heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue  # eliminated, or queued again with its new size
        p = None
        for i, a in col.items():
            if (a == 1 or a == -1) and (p is None or len(rows[i]) < len(rows[p])):
                p = i
        if p is None:
            continue  # requeued if a later elimination changes it
        u = col.pop(p)
        del cols[j]
        prow = rows[p]
        rows[p] = {}
        del prow[j]
        for i, a in col.items():
            # row i -= (a / u) * row p; a / u == a * u for a unit u
            f = a * u
            row = rows[i]
            del row[j]
            for k, b in prow.items():
                x = row.get(k, 0) - f * b
                if x:
                    row[k] = x
                    cols[k][i] = x
                else:
                    del row[k]
                    del cols[k][i]
        for k in prow:
            # the column operations that clear the rest of row p touch no
            # other row, since column j is now zero off the pivot
            ck = cols[k]
            del ck[p]
            if ck:
                heappush(heap, (len(ck), k))
            else:
                del cols[k]
        units += 1
    live = sorted({i for col in cols.values() for i in col})
    if not live:
        return [1] * units
    where = {i: r for r, i in enumerate(live)}
    M = [[0] * len(cols) for _ in live]
    for c, col in enumerate(cols.values()):
        for i, a in col.items():
            M[where[i]][c] = a
    return [1] * units + [d for d in snf_diagonal(M, len(cols)) if d]
