"""The dense column Hermite form and lattice solver that the sparse
Hermite routine of ktq.intlinalg replaced, kept as an oracle: every column
operation runs on the whole dense matrix (and its transform)."""


def column_hnf(M, ncols, transform=True):
    """(H, W, pivots) with H = M*W, W unimodular (None unless transform),
    pivots (row, col) with strictly increasing rows, positive pivots and
    earlier columns reduced to [0, pivot) in each pivot row; columns after
    the last pivot are zero."""
    m, n = len(M), ncols
    H = [list(row) for row in M]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transform else []

    def swap_cols(a, b):
        for row in H + W:
            row[a], row[b] = row[b], row[a]

    def col_sub(a, b, q):
        for row in H + W:
            row[a] -= q * row[b]

    pivots = []
    c = 0
    for i in range(m):
        if c == n:
            break
        found = next((j for j in range(c, n) if H[i][j]), -1)
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
            col_sub(c, c, 2)  # negate column c
        for j in range(c):
            q = H[i][j] // H[i][c]
            if q:
                col_sub(j, c, q)
        pivots.append((i, c))
        c += 1
    return H, (W if transform else None), pivots


class DenseLatticeSolver:
    """Membership, coordinates over the Hermite basis, and a solution of
    M*c = v, all read off the dense Hermite form."""

    def __init__(self, M, ncols):
        self.nrows = len(M)
        self.H, self.W, self.pivots = column_hnf(M, ncols)

    def coordinates(self, v):
        res = list(v)
        y = []
        for i, c in self.pivots:
            p = self.H[i][c]
            if res[i] % p:
                return None
            q = res[i] // p
            y.append(q)
            for k in range(self.nrows):
                res[k] -= q * self.H[k][c]
        return None if any(res) else y

    def solve(self, v):
        y = self.coordinates(v)
        if y is None:
            return None
        return [sum(row[c] * q for (_, c), q in zip(self.pivots, y)) for row in self.W]
