"""The dense lattice pipeline that computed homology before the free-complex
engine, kept as an independent oracle for it.

kernel_int -> Hermite basis of the kernel -> one LatticeSolver.solve per
image column -> Smith form of the coefficient matrix.  Slow: z5affine H2
takes minutes here.
"""

from ktq.errors import MathError
from ktq.homology import boundary_matrix, relator_columns
from ktq.intlinalg import AbelianGroup, LatticeSolver, cokernel, kernel_int, lattice_basis


def _columns_to_matrix(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


def _matrix_columns(M, ncols):
    return [[row[j] for row in M] for j in range(ncols)]


def _quotient_group(kernel_gens, image_cols, ambient_dim):
    """ker/im for a sublattice pair: kernel_gens generate K, image_cols
    generate M with M contained in K; returns K/M."""
    if not kernel_gens:
        for col in image_cols:
            if any(col):
                raise MathError("image does not lie in the kernel lattice")
        return AbelianGroup(0)
    G = _columns_to_matrix(kernel_gens, ambient_dim)
    basis = lattice_basis(G, len(kernel_gens))
    rank = len(basis)
    solver = LatticeSolver(_columns_to_matrix(basis, ambient_dim), rank)
    coeff_cols = []
    for col in image_cols:
        c = solver.solve(col)
        if c is None:
            raise MathError("image does not lie in the kernel lattice")
        coeff_cols.append(c)
    return cokernel(_columns_to_matrix(coeff_cols, rank), len(coeff_cols))


def _homology_quotient(X, n, v):
    kind = v.diff_kind
    dim_n = X.order ** (n + 2)
    dim_n1 = X.order ** (n + 3)
    Dn = boundary_matrix(X, n, kind)
    Dn1 = boundary_matrix(X, n + 1, kind)
    Bn = relator_columns(X, n, v.relators)
    Bn_1 = relator_columns(X, n - 1, v.relators)

    # relative kernel: x with Dn*x in the span of the lower-degree relators
    if Bn_1:
        rows = len(Dn)
        stacked = [Dn[i] + [col[i] for col in Bn_1] for i in range(rows)]
        ker = kernel_int(stacked, dim_n + len(Bn_1))
        kernel_gens = [vec[:dim_n] for vec in ker]
    else:
        kernel_gens = kernel_int(Dn, dim_n)

    image_cols = _matrix_columns(Dn1, dim_n1) + Bn
    return _quotient_group(kernel_gens, image_cols, dim_n)


def _restricted_matrix(X, n, kind, basis_n, basis_n_1, dim_n_1):
    """The differential restricted to the relator lattice, expressed in the
    Hermite bases of consecutive degrees."""
    Dn = boundary_matrix(X, n, kind)
    if basis_n_1:
        solver = LatticeSolver(_columns_to_matrix(basis_n_1, dim_n_1), len(basis_n_1))
    else:
        solver = None
    cols = []
    for p in basis_n:
        w = [sum(Dn[i][j] * p[j] for j in range(len(p))) for i in range(len(Dn))]
        if solver is None:
            if any(w):
                raise MathError("differential leaves the relator subcomplex")
            cols.append([])
        else:
            c = solver.solve(w)
            if c is None:
                raise MathError("differential leaves the relator subcomplex")
            cols.append(c)
    return _columns_to_matrix(cols, len(basis_n_1))


def _homology_subcomplex(X, n, v):
    kind = v.diff_kind
    dims = {m: X.order ** (m + 2) for m in (n - 1, n, n + 1)}
    bases = {}
    for m in (n - 1, n, n + 1):
        cols = relator_columns(X, m, v.relators)
        bases[m] = lattice_basis(_columns_to_matrix(cols, dims[m]), len(cols)) if cols else []
    if not bases[n]:
        return AbelianGroup(0)
    An = _restricted_matrix(X, n, kind, bases[n], bases[n - 1], dims[n - 1])
    An1 = _restricted_matrix(X, n + 1, kind, bases[n + 1], bases[n], dims[n])
    kernel_gens = kernel_int(An, len(bases[n])) if bases[n - 1] else [
        [1 if i == j else 0 for i in range(len(bases[n]))]
        for j in range(len(bases[n]))
    ]
    image_cols = _matrix_columns(An1, len(bases[n + 1])) if bases[n + 1] else []
    return _quotient_group(kernel_gens, image_cols, len(bases[n]))


def dense_homology(X, n, v):
    """H_n of the variant v; the preconditions and the degree cap are the
    caller's."""
    if v.relators == "none" or v.mode == "quotient":
        return _homology_quotient(X, n, v)
    return _homology_subcomplex(X, n, v)
