"""Exact integer matrix algorithms: Smith and Hermite normal forms,
elementary divisors of sparse matrices, lattice membership and kernels
(integral and modulo m).

Sparse matrices, lists of columns each a dict {row: nonzero coefficient},
are the working format: one routine, _hermite, computes every Hermite form
on them, and one, _eliminate_units, eliminates their unit pivots for
elementary_divisors, kernel_mod and LatticeSolver, which decides
membership by replaying that elimination on the query and builds the
Hermite basis of the whole lattice only when basis, coordinates or solve
need it.  Dense matrices, plain lists of row lists of Python ints,
appear only at the adapters: column_hnf, lattice_basis, kernel_int,
LatticeSolver(M, ncols), kernel_mod, and the Smith forms.  A dense matrix may have zero rows; pass ncols explicitly
whenever the column count cannot be read off the data.
"""

from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import MathError


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion", defaults=((),))):
    """A finitely generated abelian group: free_rank (int) plus torsion, a
    divisibility chain of orders d1 | d2 | ..., each >= 2 (tuple of int)."""

    __slots__ = ()

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


def _axpy(v, q, h):
    """v += q*h for sparse vectors {index: coeff} and q != 0, keeping no
    zeros."""
    for k, x in h.items():
        y = v.get(k, 0) + q * x
        if y:
            v[k] = y
        else:
            del v[k]


def _hermite(columns, transform=False):
    """Column Hermite form of the lattice spanned by sparse columns
    {row: coeff}.

    Each column is inserted in turn: while its first row holds a pivot,
    Euclid's algorithm on that row (with swaps) leaves one of the two
    columns zero there, and that one goes on.  Then every pivot is made
    positive, and in each pivot row, in increasing order, the earlier
    columns that touch it (a row -> columns index) are reduced to
    [0, pivot).  Returns (basis, W): the Hermite basis as sparse columns
    in increasing order of their pivot rows (each column's least row), and
    W None or, with transform, one transform {input column: coeff} per
    basis column followed by one per kernel vector; together they form a
    unimodular matrix.
    """
    at = {}  # pivot row -> [column, its transform]
    kernel = []
    for j, col in enumerate(columns):
        v, t = dict(col), ({j: 1} if transform else None)
        while v:
            i = min(v)
            if i not in at:
                at[i] = [v, t]
                break
            h, s = at[i]
            while True:
                q = v[i] // h[i]
                if q:
                    _axpy(v, -q, h)
                    if transform:
                        _axpy(t, -q, s)
                if i not in v:
                    break
                v, h, t, s = h, v, s, t
            at[i] = [h, s]
        else:
            if transform:
                kernel.append(t)
    rows = sorted(at)
    touching = {}  # row -> pivot rows of the columns with an entry there
    for i in rows:
        h, s = at[i]
        if h[i] < 0:
            for part in (h, s) if transform else (h,):
                for k in part:
                    part[k] = -part[k]
        for k in h:
            touching.setdefault(k, set()).add(i)
    for i in rows:
        h, s = at[i]
        for j in list(touching[i]):
            g, r = at[j]
            q = g.get(i, 0) // h[i] if j < i else 0
            if q:
                _axpy(g, -q, h)
                if transform:
                    _axpy(r, -q, s)
                for k in h:
                    touching[k].add(j)
    basis = [at[i][0] for i in rows]
    return basis, ([at[i][1] for i in rows] + kernel if transform else None)


def _columns(M, ncols):
    """The columns of a dense matrix as sparse columns {row: coeff}."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(ncols)]


def dense_matrix(columns, nrows):
    """Sparse columns {row: coeff} as a dense list of rows."""
    M = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, a in col.items():
            M[i][j] = a
    return M


def column_hnf(M, ncols=None, transform=False):
    """Column-style Hermite normal form of the lattice spanned by the
    columns of M.

    Returns (H, W, pivots) with H = M*W, W unimodular (or None when
    transform is False), and pivots a list of (row, col) positions with
    strictly increasing rows, positive pivot entries, and entries of earlier
    columns reduced to [0, pivot) in each pivot row.  Columns after the last
    pivot are zero.  A dense view of _hermite.
    """
    m, n = _shape(M, ncols)
    basis, W = _hermite(_columns(M, n), transform)
    H = dense_matrix(basis + [{}] * (n - len(basis)), m)
    pivots = [(min(col), c) for c, col in enumerate(basis)]
    return H, (dense_matrix(W, n) if transform else None), pivots


def lattice_basis(M, ncols=None):
    """A canonical basis (list of column vectors) of the column lattice."""
    H, _, pivots = column_hnf(M, ncols)
    return [[row[c] for row in H] for _, c in pivots]


class LatticeSolver:
    """Reusable exact solver for M*c = v against a fixed column lattice.

    Membership (member, contains) carries the query through the row
    operations of the columns' unit elimination (_eliminate_units, run
    once), then tests what is left against the Hermite form of the residual
    block, which has no unit entries.  The Hermite basis of the whole
    lattice is built on the first access to basis, coordinates or solve,
    and the unimodular transform back to coefficients of the columns of M
    on the first solve() that finds a solution.  LatticeSolver(M, ncols)
    takes a dense matrix, from_columns sparse columns.
    """

    def __init__(self, M, ncols=None):
        nrows, ncols = _shape(M, ncols)
        self._build(_columns(M, ncols), nrows)

    @classmethod
    def from_columns(cls, columns, nrows):
        """The solver for the lattice of sparse columns {row: coeff}."""
        solver = cls.__new__(cls)
        solver._build(columns, nrows)
        return solver

    def _build(self, columns, nrows):
        self.nrows, self.ncols = nrows, len(columns)
        self._columns = columns
        self._basis = self._W = self._units = None

    @property
    def basis(self):
        """The Hermite basis of the lattice as sparse columns, one per
        pivot, in increasing order of their pivot rows."""
        if self._basis is None:
            self._basis, _ = _hermite(self._columns)
            self._pivot = {min(col): k for k, col in enumerate(self._basis)}
        return self._basis

    def member(self, residue):
        """Whether a sparse vector {row: coeff} lies in the lattice."""
        if self._units is None:
            self._units, cols = _eliminate_units(self._columns, self.nrows)
            self._residual = LatticeSolver.from_columns(list(cols.values()), self.nrows)
        res = {i: a for i, a in residue.items() if a}
        for _, u, _, p, pcol in self._units:
            # row i -= (a / u) * row p for each entry a of the pivot column,
            # then row p leaves: the unit column spans it
            x = res.pop(p, 0)
            if x:
                _axpy(res, -u * x, pcol)
        return self._residual.coordinates(res) is not None

    def coordinates(self, residue):
        """Integer coefficients {basis index: q} of a sparse vector
        {row: coeff} over the Hermite basis, or None when it is not in the
        lattice."""
        basis = self.basis
        res = {i: a for i, a in residue.items() if a}
        y = {}
        while res:
            i = min(res)
            k = self._pivot.get(i)
            if k is None:
                return None
            col = basis[k]
            q, r = divmod(res[i], col[i])
            if r:
                return None
            y[k] = q
            _axpy(res, -q, col)
        return y

    def _sparse(self, v):
        if len(v) != self.nrows:
            raise ValueError("dimension mismatch")
        return {i: a for i, a in enumerate(v) if a}

    def solve(self, v):
        """An integer coefficient vector c with M*c = v, or None."""
        y = self.coordinates(self._sparse(v))
        if y is None:
            return None
        if self._W is None:
            _, self._W = _hermite(self._columns, transform=True)
        c = [0] * self.ncols
        for k, q in y.items():
            for j, a in self._W[k].items():
                c[j] += q * a
        return c

    # Nothing in ktq calls contains or solve; perfbench/tracing.py wraps
    # both on the class by name.
    def contains(self, v):
        return self.member(self._sparse(v))


def kernel_int(M, ncols=None):
    """A basis of the integer kernel {x : M*x = 0} (list of vectors)."""
    _, n = _shape(M, ncols)
    basis, W = _hermite(_columns(M, n), transform=True)
    return [[t.get(j, 0) for j in range(n)] for t in W[len(basis):]]


def kernel_mod(M, modulus, ncols=None):
    """A generating set of {x : M*x = 0 mod modulus}, vectors reduced mod
    modulus, correct for composite moduli.

    The equations are reduced by sparse elimination of +-1 pivots first
    (as in elementary_divisors).  A unit is invertible mod every m, so
    each pivot row expresses one variable through the others.  Only the
    residual block goes to the integer Smith form U*R*V = D, whose columns
    give the generators (m / gcd(d_j, m)) * V e_j of its kernel; the
    eliminated variables are then filled in by back-substitution in
    reverse order.  For prime m there are n - rank_m(M) generators.
    """
    if modulus < 2:
        raise MathError("modulus must be >= 2")
    m, n = _shape(M, ncols)
    pivots, cols = _eliminate_units(_columns(M, n), m)
    eliminated = {pivot[0] for pivot in pivots}
    free = [j for j in range(n) if j not in eliminated]
    R = _dense_block(cols, free)
    _, D, V = _snf(R, len(free), False, True)
    gens = []
    for c in range(len(free)):
        d = D[c][c] if c < len(R) else 0
        k = modulus // gcd(d, modulus)
        if k == modulus:
            continue  # only the zero residue class
        x = [0] * n
        for r, j in enumerate(free):
            x[j] = V[r][c] * k % modulus
        for j, u, prow, _, _ in reversed(pivots):
            # u*x_j + sum prow[i]*x_i = 0 and 1/u == u for a unit u
            x[j] = -u * sum(a * x[i] for i, a in prow.items()) % modulus
        if any(x):
            gens.append(x)
    return gens


def cokernel(M, ncols=None):
    """The structure of Z^rows / colspan(M)."""
    rows, _ = _shape(M, ncols)
    diag = snf_diagonal(M, ncols)
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d >= 2)
    return AbelianGroup(rows - len(nonzero), torsion)


def _eliminate_units(columns, nrows):
    """Sparse elimination of +-1 pivots from an integer matrix with nrows
    rows, given as a list of columns {row: coeff}.

    At every step a unit is taken from the shortest column, in its shortest
    row, to keep the fill low (Dumas, Heckenbach, Saunders and Welker,
    2003).  Row operations clear the rest of its column; the pivot row and
    column then leave the matrix.  Returns (pivots, cols): pivots lists
    (j, u, prow, p, pcol) in elimination order, for the pivot u in column j
    and row p, with the rest of its row, prow {col: coeff}, and of its
    column, pcol {row: coeff}, at that step; cols maps each column left
    with nonzero entries to them.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows = [dict() for _ in range(nrows)]
    for j, col in cols.items():
        for i, a in col.items():
            rows[i][j] = a
    pivots = []
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
        pivots.append((j, u, prow, p, col))
    return pivots, cols


def _dense_block(cols, order):
    """The rows that the sparse columns touch, as a dense matrix over the
    columns listed in order (a column missing from cols is zero)."""
    live = sorted({i for j in order for i in cols.get(j, ())})
    where = {i: r for r, i in enumerate(live)}
    R = [[0] * len(order) for _ in live]
    for c, j in enumerate(order):
        for i, a in cols.get(j, {}).items():
            R[where[i]][c] = a
    return R


def elementary_divisors(columns, nrows):
    """The nonzero invariant factors d1 | d2 | ... of a sparse integer
    matrix with nrows rows, given as a list of columns {row: coeff}.

    Entries +-1 are eliminated first (_eliminate_units), each contributing
    the factor 1.  Only the block left without unit entries goes to the
    dense Smith form.
    """
    pivots, cols = _eliminate_units(columns, nrows)
    units = [1] * len(pivots)
    if not cols:
        return units
    return units + [d for d in snf_diagonal(_dense_block(cols, list(cols)), len(cols)) if d]
