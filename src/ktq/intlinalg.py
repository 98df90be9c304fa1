"""Exact integer matrix algorithms: Smith and Hermite normal forms,
elementary divisors of sparse matrices, lattice membership and kernels
(integral and modulo m).

Sparse matrices, lists of columns each a dict {row: nonzero coefficient},
are the working format: one routine, _hermite, computes every Hermite form
on them, and one, _eliminate_units, eliminates the unit pivots of their
columns for LatticeSolver, whose one elimination answers membership, the
mod-m kernel and the elementary divisors.  _with_transform carries a
transform as rows below the columns, as _snf carries V.  Dense matrices,
plain lists of row lists of Python ints, appear only at the adapters:
column_hnf, lattice_basis, kernel_int, LatticeSolver(M, ncols), kernel_mod,
cokernel, dense_matrix, and the Smith forms.  A dense matrix may have zero
rows; pass ncols explicitly whenever the column count cannot be read off
the data.
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


def _snf(M, ncols, want_v):
    """(D, V) with D = U*M*V in Smith form for some unimodular U, and V
    None unless wanted.

    One matrix A is eliminated: the m rows of M, then, when want_v, the n
    rows of V.  Row operations act on the first m rows; column operations
    act on columns 0..n-1 of every row, so they update D and V together.
    """
    m, n = _shape(M, ncols)
    A = [list(row) for row in M]
    if want_v:
        A += [[int(i == j) for j in range(n)] for i in range(n)]

    def move_to_pivot(i, j):
        # swap rows t and i, then columns t and j
        A[t], A[i] = A[i], A[t]
        for row in A:
            row[t], row[j] = row[j], row[t]

    def row_sub(a, b, q):
        # row a -= q * row b
        Ra, Rb = A[a], A[b]
        for j in range(len(Ra)):
            Ra[j] -= q * Rb[j]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of least magnitude in the trailing block
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best == 0:
            break
        move_to_pivot(pi, pj)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    row_sub(i, t, A[i][t] // A[t][t])
            for i in range(t + 1, m):
                if A[i][t]:
                    # positive remainder, strictly smaller than the pivot
                    move_to_pivot(i, t)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
            for j in range(t + 1, n):
                if A[t][j]:
                    move_to_pivot(t, j)
                    dirty = True
                    break

        p = A[t][t]
        offender = -1
        for i in range(t + 1, m):
            if any(A[i][j] % p for j in range(t + 1, n)):
                offender = i
                break
        if offender >= 0:
            # fold the offending row into the pivot row and redo this step
            row_sub(t, offender, -1)
            continue
        t += 1

    return A[:m], (A[m:] if want_v else None)


def smith_normal_form(M, ncols=None):
    """Return (D, V) with D = U*M*V for some unimodular U, V unimodular, D
    diagonal with nonnegative entries satisfying d_i | d_{i+1}."""
    return _snf(M, ncols, True)


def snf_diagonal(M, ncols=None):
    """The diagonal of the Smith form only (no transform tracked)."""
    D, _ = _snf(M, ncols, False)
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


def _hermite(columns):
    """Column Hermite form of the lattice spanned by sparse columns
    {row: coeff}.

    Each column is inserted in turn: while its first row holds a pivot,
    Euclid's algorithm on that row (with swaps) leaves one of the two
    columns zero there, and that one goes on.  Then every pivot is made
    positive, and in each pivot row, in increasing order, the earlier
    columns that touch it (a row -> columns index) are reduced to
    [0, pivot).  Returns the Hermite basis as sparse columns in increasing
    order of their pivot rows (each column's least row)."""
    at = {}  # pivot row -> column
    for col in columns:
        v = dict(col)
        while v:
            i = min(v)
            if i not in at:
                at[i] = v
                break
            h = at[i]
            while i in v:
                q = v[i] // h[i]
                if q:
                    _axpy(v, -q, h)
                if i in v:
                    v, h = h, v
            at[i] = h
    rows = sorted(at)
    touching = {}  # row -> pivot rows of the columns with an entry there
    for i in rows:
        h = at[i]
        if h[i] < 0:
            at[i] = h = {k: -a for k, a in h.items()}
        for k in h:
            touching.setdefault(k, set()).add(i)
    for i in rows:
        h = at[i]
        for j in list(touching[i]):
            g = at[j]
            q = g.get(i, 0) // h[i] if j < i else 0
            if q:
                _axpy(g, -q, h)
                for k in h:
                    touching[k].add(j)
    return [at[i] for i in rows]


def _with_transform(columns, nrows):
    """(basis, W): the Hermite basis of sparse columns with nrows rows, and
    the unimodular transform W, one {input column: coeff} per basis column
    and then per kernel vector, read off the rows nrows + j that carry e_j."""
    full = _hermite([{**col, nrows + j: 1} for j, col in enumerate(columns)])
    basis = [{i: a for i, a in col.items() if i < nrows} for col in full if min(col) < nrows]
    return basis, [{i - nrows: a for i, a in col.items() if i >= nrows} for col in full]


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
    """Column-style Hermite normal form of the columns of M, a dense view
    of _hermite: (H, W, pivots) with H = M*W, W unimodular (or None when
    transform is False), and pivots a list of (row, col) positions with
    strictly increasing rows, positive pivot entries, and entries of earlier
    columns reduced to [0, pivot) in each pivot row.  Columns after the last
    pivot are zero."""
    m, n = _shape(M, ncols)
    columns = _columns(M, n)
    basis, W = _with_transform(columns, m) if transform else (_hermite(columns), None)
    H = dense_matrix(basis + [{}] * (n - len(basis)), m)
    pivots = [(min(col), c) for c, col in enumerate(basis)]
    return H, (dense_matrix(W, n) if transform else None), pivots


def lattice_basis(M, ncols=None):
    """A canonical basis (list of column vectors) of the column lattice."""
    H, _, pivots = column_hnf(M, ncols)
    return [[row[c] for row in H] for _, c in pivots]


class LatticeSolver:
    """Reusable exact solver for M*c = v against a fixed column lattice.

    One unit elimination of the columns of M serves membership (member,
    contains), the mod-m kernel of the transpose of M (kernel_mod) and the
    elementary divisors of M (divisors).  The Hermite basis is built on the
    first access to basis, coordinates or solve, and the transform back to
    coefficients of the columns of M on the first solve() that finds a
    solution.  LatticeSolver(M, ncols) takes a dense matrix, from_columns
    sparse columns.
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
            self._basis = _hermite(self._columns)
            self._pivot = {min(col): k for k, col in enumerate(self._basis)}
        return self._basis

    def _eliminate(self):
        """The unit pivots of the columns, records (j, p, u, col) as
        _eliminate_units gives them, and the residual lattice they leave."""
        if self._units is None:
            self._units, left = _eliminate_units(self._columns, self.nrows)
            self._residual = LatticeSolver.from_columns(list(left.values()), self.nrows)
        return self._units

    @property
    def divisors(self):
        """The nonzero invariant factors d1 | d2 | ... of the columns: a 1
        per unit pivot, then those of the dense Smith form of the residual
        block, which has no unit entry."""
        ones, left = [1] * len(self._eliminate()), self._residual._columns
        return ones + [d for d in snf_diagonal(_dense_block(left), len(left)) if d] if left else ones

    def member(self, residue):
        """Whether a sparse vector {row: coeff} lies in the lattice."""
        res = {i: a for i, a in residue.items() if a}
        for _, p, u, col in self._eliminate():
            # replay the row operations that cleared the pivot's column
            x = res.pop(p, 0)
            if x:
                _axpy(res, -u * x, col)
        return self._residual.coordinates(res) is not None

    def kernel_mod(self, modulus):
        """Generators of {x : c.x = 0 mod modulus for each column c}, dense,
        reduced mod modulus, correct for composite moduli.  The Smith form
        U*R*V = D of the residual's transpose over the free rows gives the
        generators (m / gcd(d_j, m)) * V e_j of its kernel; each unit pivot,
        invertible mod every m, then fills in the coordinate of its row in
        reverse order.  For prime m there are nrows - rank_m(M) of them."""
        if modulus < 2:
            raise MathError("modulus must be >= 2")
        pivots, n = self._eliminate(), self.nrows
        eliminated = {pivot[1] for pivot in pivots}
        free = [i for i in range(n) if i not in eliminated]
        R = [[col.get(i, 0) for i in free] for col in self._residual._columns]
        D, V = _snf(R, len(free), True)
        gens = []
        for c in range(len(free)):
            d = D[c][c] if c < len(R) else 0
            k = modulus // gcd(d, modulus)
            if k == modulus:
                continue  # only the zero residue class
            x = [0] * n
            for r, i in enumerate(free):
                x[i] = V[r][c] * k % modulus
            for _, p, u, col in reversed(pivots):
                # u*x_p + sum col[i]*x_i = 0 and 1/u == u for a unit u
                x[p] = -u * sum(a * x[i] for i, a in col.items()) % modulus
            if any(x):
                gens.append(x)
        return gens

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
            _, self._W = _with_transform(self._columns, self.nrows)
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
    m, n = _shape(M, ncols)
    basis, W = _with_transform(_columns(M, n), m)
    return [[t.get(j, 0) for j in range(n)] for t in W[len(basis):]]


def kernel_mod(M, modulus, ncols=None):
    """A generating set of {x : M*x = 0 mod modulus}, vectors reduced mod
    modulus: the dense view of LatticeSolver.kernel_mod over the rows of M."""
    rows = [{j: a for j, a in enumerate(row) if a} for row in M]
    return LatticeSolver.from_columns(rows, _shape(M, ncols)[1]).kernel_mod(modulus)


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
    (j, p, u, col) in elimination order, for the pivot u in column j and
    row p, with the rest of its column, col {row: coeff}, at that step;
    cols maps each column left with nonzero entries to them.
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
        pivots.append((j, p, u, col))
    return pivots, cols


def _dense_block(cols):
    """Sparse columns as a dense matrix over the rows they touch."""
    live = sorted({i for col in cols for i in col})
    where = {i: r for r, i in enumerate(live)}
    R = [[0] * len(cols) for _ in live]
    for c, col in enumerate(cols):
        for i, a in col.items():
            R[where[i]][c] = a
    return R
