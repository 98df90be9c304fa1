"""Homology of the chain complexes attached to a finite KTQ or IKTQ.

Chain groups have the lexicographic tuple basis.  Every variant is the
homology of a free complex with sparse differentials d, read off their
elementary divisors (``intlinalg.elementary_divisors``, unit pivots first):

    H_n = Z^(dim C_n - rk d_n - rk d_{n+1}) + torsion of d_{n+1}.

- plain: all tuples.
- D (degenerate tuples): D is spanned by tuples, so the subcomplex keeps
  the rows and columns of the degenerate tuples, and the quotient C/D those
  of the nondegenerate ones.
- I and ID (sums x + x[j]): the subcomplex R has the Hermite basis of the
  relator lattice, with the differential in coordinates of that basis.  The
  quotient C/R can have torsion in its chain groups, so it is replaced by
  the mapping cone of R -> C, Cone_n = R_{n-1} + C_n with
  d(r, c) = (-d r, r + d c): a free complex quasi-isomorphic to C/R
  (Weibel, An introduction to homological algebra, 1.5).

A differential that does not square to zero, or relators that do not span
a subcomplex, raise MathError.  All arithmetic is exact.
"""

from dataclasses import dataclass
from .chains import (
    Chain,
    all_tuples,
    boundary,
    boundary_tuple,
    is_d_degenerate,
    relator_generators,
)
from .errors import FormatError, MathError
from .intlinalg import AbelianGroup, LatticeSolver, elementary_divisors

# Unused here, but looked up in this module by name: perfbench/tracing.py
# wraps them where they are bound.
from .intlinalg import cokernel, kernel_int, lattice_basis  # noqa: F401

RELATOR_CHOICES = ("none", "D", "I", "ID")
MODE_CHOICES = ("quotient", "subcomplex")
DIFF_CHOICES = ("L", "R", "full")


@dataclass(frozen=True)
class HomologyVariant:
    relators: str = "none"
    mode: str = "quotient"
    diff_kind: str = "full"

    def __post_init__(self):
        if self.relators not in RELATOR_CHOICES:
            raise ValueError("unknown relator set %r" % (self.relators,))
        if self.mode not in MODE_CHOICES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.diff_kind not in DIFF_CHOICES:
            raise ValueError("unknown differential kind %r" % (self.diff_kind,))


#: Shorthand names used by the command line and the invariance lemmas.
NAMED_VARIANTS = {
    "plain": HomologyVariant("none", "quotient", "full"),
    "N": HomologyVariant("D", "quotient", "full"),
    "NI": HomologyVariant("I", "quotient", "full"),
    "NID": HomologyVariant("ID", "quotient", "full"),
}


def chain_basis(order, n):
    """Lexicographic basis of the degree-n chain group; degree -2 is Z with
    the empty tuple as generator."""
    return all_tuples(order, n)


def chain_vector(c, index):
    vec = [0] * len(index)
    for tup, coeff in c.terms.items():
        vec[index[tup]] += coeff
    return vec


def boundary_columns(X, n, kind="full"):
    """The degree-n differential as sparse columns {row: coeff}, one per
    degree-n tuple, rows indexed by the degree n-1 basis."""
    index = {t: i for i, t in enumerate(chain_basis(X.order, n - 1))}
    return [
        {index[t]: c for t, c in boundary_tuple(X, tup, kind).terms.items()}
        for tup in chain_basis(X.order, n)
    ]


def boundary_matrix(X, n, kind="full"):
    """Matrix of the degree-n differential: rows indexed by the degree n-1
    basis, columns by the degree-n basis."""
    cols = boundary_columns(X, n, kind)
    M = [[0] * len(cols) for _ in range(X.order ** (n + 1))]
    for j, col in enumerate(cols):
        for i, c in col.items():
            M[i][j] = c
    return M


def relator_columns(X, n, relators):
    """Relator generators of degree n as column vectors (list of columns)."""
    if relators == "none" or n < 1:
        return []
    index = {t: i for i, t in enumerate(chain_basis(X.order, n))}
    return [chain_vector(g, index) for g in relator_generators(X, n, relators)]


def default_degree_cap(order):
    # |X|**(n+2) generator growth; see the module notes
    return 4 if order <= 3 else 3


def _columns_to_matrix(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


_LEAVES = "differential leaves the relator subcomplex"


def _tuple_differential(X, m, kind, part):
    """d_m of the free complex of all tuples (part None), of the degenerate
    subcomplex D (part True) or of the quotient C/D, whose basis is the
    nondegenerate tuples (part False): (columns, number of rows)."""
    cols = boundary_columns(X, m, kind)
    if part is None:
        return cols, X.order ** (m + 1)
    here = [is_d_degenerate(X, t)[0] for t in chain_basis(X.order, m)]
    below = [is_d_degenerate(X, t)[0] for t in chain_basis(X.order, m - 1)]
    for col, degenerate in zip(cols, here):
        if degenerate and not all(below[i] for i in col):
            raise MathError(_LEAVES)
    rows = {}
    for i, degenerate in enumerate(below):
        if degenerate == part:
            rows[i] = len(rows)
    kept = [
        {rows[i]: c for i, c in col.items() if i in rows}
        for col, degenerate in zip(cols, here)
        if degenerate == part
    ]
    return kept, len(rows)


class _RelatorLattices:
    """The subcomplex R spanned by a relator set (I or ID; any set works),
    in the Hermite bases of its chain groups, and the mapping cone of
    R -> C."""

    def __init__(self, X, relators, kind):
        self.X, self.relators, self.kind = X, relators, kind
        self._boundary = {}
        self._lattice = {}

    def boundary(self, m):
        if m not in self._boundary:
            self._boundary[m] = boundary_columns(self.X, m, self.kind)
        return self._boundary[m]

    def lattice(self, m):
        """A LatticeSolver over the degree-m relators, or None for R_m = 0."""
        if m not in self._lattice:
            cols = relator_columns(self.X, m, self.relators)
            self._lattice[m] = (
                LatticeSolver(_columns_to_matrix(cols, self.X.order ** (m + 2)), len(cols))
                if cols else None
            )
        return self._lattice[m]

    def rank(self, m):
        lat = self.lattice(m)
        return len(lat.basis) if lat else 0

    def sub(self, m):
        """d_m of R: the boundary of each Hermite basis vector of R_m, in
        coordinates of the Hermite basis of R_{m-1}."""
        lat, below = self.lattice(m), self.lattice(m - 1)
        if lat is None:
            return [], self.rank(m - 1)
        d = self.boundary(m)
        cols = []
        for p in lat.basis:
            w = [0] * self.X.order ** (m + 1)
            for j, a in p.items():
                for i, c in d[j].items():
                    w[i] += a * c
            if below is None:
                if any(w):
                    raise MathError(_LEAVES)
                coords = []
            else:
                coords = below.coordinates(w)
                if coords is None:
                    raise MathError(_LEAVES)
            cols.append({a: q for a, q in enumerate(coords) if q})
        return cols, self.rank(m - 1)

    def cone(self, m):
        """d_m of the cone: R_{m-1} + C_m -> R_{m-2} + C_{m-1}."""
        below, r = self.sub(m - 1)
        lat = self.lattice(m - 1)
        cols = []
        for p, col in zip(lat.basis if lat else (), below):
            c = {a: -q for a, q in col.items()}
            for k, x in p.items():
                c[r + k] = x
            cols.append(c)
        for col in self.boundary(m):
            cols.append({r + i: c for i, c in col.items()})
        return cols, r + self.X.order ** (m + 1)


def _free_homology(differential, n):
    """H_n of a free complex from its sparse differentials d_n, d_{n+1}."""
    cols_n, rows_n = differential(n)
    if not cols_n:
        return AbelianGroup(0)
    cols_n1, dim_n = differential(n + 1)
    for col in cols_n1:
        acc = {}
        for i, a in col.items():
            for k, b in cols_n[i].items():
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            raise MathError("the differential does not square to zero in degree %d" % n)
    rank_n = len(elementary_divisors(cols_n, rows_n))
    divisors = elementary_divisors(cols_n1, dim_n)
    return AbelianGroup(
        dim_n - rank_n - len(divisors), tuple(d for d in divisors if d > 1)
    )


def homology(X, n, v=HomologyVariant(), degree_cap=None):
    """The degree-n homology group of the requested variant.

    Quotient mode computes the homology of C/R, subcomplex mode of R itself;
    with relators 'none' both give the plain homology.  Degrees above the
    materialization cap are rejected unless degree_cap overrides it.
    """
    if n < -1:
        raise MathError("homology is computed for degrees >= -1")
    if v.relators in ("I", "ID") and not X.is_iktq:
        raise MathError("variant %s requires an involutory KTQ" % v.relators)
    if not X.is_quasigroup and v.relators != "none":
        raise MathError("relator subgroups require a quasigroup")
    cap = degree_cap if degree_cap is not None else default_degree_cap(X.order)
    if n + 1 > cap:
        raise MathError(
            "degree %d exceeds the materialization cap %d for order %d"
            % (n, cap, X.order)
        )
    kind = v.diff_kind
    if v.relators in ("none", "D"):
        part = None if v.relators == "none" else v.mode == "subcomplex"
        return _free_homology(lambda m: _tuple_differential(X, m, kind, part), n)
    lattices = _RelatorLattices(X, v.relators, kind)
    return _free_homology(lattices.cone if v.mode == "quotient" else lattices.sub, n)


class Cochain:
    """A function from degree-1 tuples (triples) to residues mod m."""

    __slots__ = ("modulus", "values")

    def __init__(self, modulus, values=None):
        if modulus < 2:
            raise MathError("modulus must be >= 2")
        self.modulus = modulus
        self.values = {}
        if values:
            for tup, v in values.items():
                if len(tup) != 3:
                    raise ValueError("cochain inputs are triples, got %r" % (tup,))
                v %= modulus
                if v:
                    self.values[tup] = v

    def __call__(self, triple):
        return self.values.get(triple, 0)

    def evaluate(self, chain):
        """Pair with an integer chain of degree 1, mod m."""
        if chain.degree != 1:
            raise ValueError("cochains pair with degree-1 chains")
        return sum(c * self(t) for t, c in chain.terms.items()) % self.modulus

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.modulus == other.modulus
            and self.values == other.values
        )

    def __repr__(self):
        return "Cochain(%d, %r)" % (self.modulus, self.values)


def two_cocycles(X, modulus, v):
    """Generators of the mod-m cocycles on triples for the given variant.

    A cocycle vanishes on the full differential of every degree-2 tuple and
    on every degree-1 relator generator of the variant.
    """
    if v.mode != "quotient" or v.diff_kind != "full":
        raise MathError("cocycles are defined for the quotient/full variants")
    if v.relators in ("I", "ID") and not X.is_iktq:
        raise MathError("variant %s requires an involutory KTQ" % v.relators)
    triples = chain_basis(X.order, 1)
    index = {t: i for i, t in enumerate(triples)}
    from .intlinalg import kernel_mod

    rows = []
    for tup in chain_basis(X.order, 2):
        rows.append(chain_vector(boundary_tuple(X, tup, "full"), index))
    if v.relators != "none":
        for g in relator_generators(X, 1, v.relators):
            rows.append(chain_vector(g, index))
    gens = kernel_mod(rows, modulus, len(triples))
    out = []
    for vec in gens:
        values = {triples[i]: x for i, x in enumerate(vec) if x % modulus}
        if values:
            out.append(Cochain(modulus, values))
    return out


class HomologyClassChecker:
    """Decides equality of homology classes of degree-1 cycles.

    Two cycles are equal in the variant iff their difference lies in the
    integer span of all degree-2 differentials together with the degree-1
    relator generators.
    """

    def __init__(self, X, v=HomologyVariant("D", "quotient", "full")):
        self.X = X
        self.v = v
        triples = chain_basis(X.order, 1)
        self.index = {t: i for i, t in enumerate(triples)}
        M = boundary_matrix(X, 2, v.diff_kind)
        if v.relators != "none":
            rel = relator_columns(X, 1, v.relators)
            M = [row + [col[i] for col in rel] for i, row in enumerate(M)]
        self.solver = LatticeSolver(M, len(M[0]))

    def _check_cycle(self, c, name):
        if c.degree != 1:
            raise MathError("%s chain must have degree 1" % name)
        if boundary(self.X, c, self.v.diff_kind):
            raise MathError("%s chain is not a cycle" % name)

    def equal(self, c1, c2):
        self._check_cycle(c1, "first")
        self._check_cycle(c2, "second")
        return self.solver.contains(chain_vector(c1 - c2, self.index))


def class_equal(X, c1, c2, v=HomologyVariant("D", "quotient", "full")):
    """One-shot homology-class comparison of two degree-1 cycles."""
    return HomologyClassChecker(X, v).equal(c1, c2)


def parse_cocycle(text):
    """Cocycle file format: 'cocycle <m>' header, then 'a b c -> v' lines
    for the nonzero values; '#' starts a comment."""
    modulus = None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if modulus is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "cocycle":
                raise FormatError("line %d: expected header 'cocycle <m>'" % lineno)
            try:
                modulus = int(parts[1])
            except ValueError:
                raise FormatError("line %d: bad modulus %r" % (lineno, parts[1]))
            if modulus < 2:
                raise FormatError("line %d: modulus must be >= 2" % lineno)
            continue
        parts = line.split()
        if len(parts) != 5 or parts[3] != "->":
            raise FormatError("line %d: expected 'a b c -> v'" % lineno)
        try:
            a, b, c, val = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[4])
        except ValueError:
            raise FormatError("line %d: bad integer" % lineno)
        values[(a, b, c)] = val
    if modulus is None:
        raise FormatError("empty cocycle file")
    return Cochain(modulus, values)


def serialize_cocycle(phi):
    lines = ["cocycle %d" % phi.modulus]
    for tup in sorted(phi.values):
        lines.append("%d %d %d -> %d" % (tup[0], tup[1], tup[2], phi.values[tup]))
    return "\n".join(lines) + "\n"
