"""Homology of the chain complexes attached to a finite KTQ or IKTQ.

Chain groups have the lexicographic tuple basis.  Every variant is the
homology of a free complex with sparse differentials d, read off their
elementary divisors (LatticeSolver.divisors, unit pivots first):

    H_n = Z^(dim C_n - rk d_n - rk d_{n+1}) + torsion of d_{n+1}.

- plain: all tuples (the cone over R = 0).
- D, I and ID (degenerate tuples, sums x + x[j], or both): the subcomplex
  R has the Hermite basis of the relator lattice, with the differential in
  coordinates of that basis; for D that basis is the degenerate tuples.
  The quotient C/R can have torsion in its chain groups, so it is replaced
  by the mapping cone of R -> C, Cone_n = R_{n-1} + C_n with
  d(r, c) = (-d r, r + d c): a free complex quasi-isomorphic to C/R
  (Weibel, An introduction to homological algebra, 1.5).  Every lattice
  stays in sparse columns from the generators to intlinalg.

Every differential comes from boundary_columns(X, n, kind), a small cache
of sparse columns built from chains.face_entries by base-|X| index
arithmetic, so a process builds each d_n once; callers never change it.

One cached reduction, _reduction(X, n, v), eliminates d_n and d_{n+1}
once: d_{n+1} gets a unit column at each unit pivot of d_n, which deletes
that row.  homology reads H_n off the two.  In degree 1 the second is the
relation lattice im d_2 + R_1 (d_2 of the cone; its rows are the
triples, since R_0 = 0), pruned: HomologyClassChecker asks it for
membership, and two_cocycles reads the mod-m cocycles off the same unit
pivots, with the rows of d_1 at its pivots for the cocycles the pruning
drops; neither builds the lattice's Hermite basis.  A chain becomes a
sparse column by the same base-|X| arithmetic (chain_column); _product is
every product of columns with a vector: d_n d_{n+1}, d of R, is_cycle.

A differential that does not square to zero, or relators that do not span
a subcomplex, raise MathError.  All arithmetic is exact.
"""

from functools import lru_cache
from .chains import SIDES, all_tuples, face_entries, relator_generators
from .errors import FormatError, MathError, integers, read_records
from .intlinalg import AbelianGroup, LatticeSolver, _axpy, dense_matrix
from .variants import HomologyVariant

# Re-exported: the variant names live in ktq.variants, which the command
# line reads without loading this module.
from .variants import DIFF_CHOICES, MODE_CHOICES, NAMED_VARIANTS, RELATOR_CHOICES  # noqa: F401

# Unused here, but looked up in this module by name: perfbench/tracing.py
# wraps them where they are bound.
from .chains import boundary, boundary_tuple  # noqa: F401
from .intlinalg import cokernel, kernel_int, lattice_basis  # noqa: F401


def chain_basis(order, n):
    """Lexicographic basis of the degree-n chain group; degree -2 is Z with
    the empty tuple as generator."""
    return all_tuples(order, n)


def chain_vector(c, index):
    vec = [0] * len(index)
    for tup, coeff in c.terms.items():
        vec[index[tup]] += coeff
    return vec


def chain_column(order, c):
    """A chain as a sparse column {row: coeff}, a tuple's row being its
    value in base |X|.  MathError for an entry outside the algebra."""
    col = {}
    for t, a in c.terms.items():
        i = 0
        for x in t:
            if not 0 <= x < order:
                raise MathError("a chain refers to elements outside the algebra")
            i = i * order + x
        col[i] = a
    return col


def _product(cols, v):
    """The sparse columns cols times the sparse vector v {column: coeff}."""
    out = {}
    for j, a in v.items():
        _axpy(out, a, cols[j])
    return out


@lru_cache(maxsize=8)
def boundary_columns(X, n, kind="full"):
    """The degree-n differential as sparse columns {row: coeff}, one per
    degree-n tuple, rows indexed by the degree n-1 basis.

    The faces come from chains.face_entries; a face's row is its index in
    base |X|, the digits it shares with the tuple read off the tuple's own
    index.  Cached, so callers must not change the columns.
    """
    if kind not in SIDES:
        raise ValueError("unknown differential kind %r" % (kind,))
    q, v = X.order, X.t.values
    power = [q ** k for k in range(n + 2)]
    cols = []
    for j, x in enumerate(chain_basis(q, n)):
        col = {}
        for side, sign in SIDES[kind]:
            for i in range(n + 1):
                f = 0
                for y in face_entries(v, q, side, i, x):
                    f = f * q + y
                if side == "L":  # the entries, then x[i+1:]
                    f = f * power[n + 1 - i] + j % power[n + 1 - i]
                else:  # x[:i+1], then the entries
                    f += j // power[n + 1 - i] * power[n - i]
                c = col.get(f, 0) + (sign if i % 2 == 0 else -sign)
                if c:
                    col[f] = c
                else:
                    del col[f]
        cols.append(col)
    return tuple(cols)


def boundary_matrix(X, n, kind="full"):
    """Matrix of the degree-n differential: rows indexed by the degree n-1
    basis, columns by the degree-n basis.  Nothing in ktq calls it; tests
    and perfbench/tracing.py use it."""
    return dense_matrix(boundary_columns(X, n, kind), X.order ** (n + 1))


def _relator_columns(X, n, relators):
    """Relator generators of degree n as sparse columns {row: coeff}."""
    if relators == "none" or n < 1:
        return []
    return [chain_column(X.order, g) for g in relator_generators(X, n, relators)]


def relator_columns(X, n, relators):
    """Relator generators of degree n as column vectors (list of columns):
    the dense view of _relator_columns."""
    rows = range(X.order ** (n + 2))
    return [[col.get(i, 0) for i in rows] for col in _relator_columns(X, n, relators)]


#: The most work homology(X, n) and the degree-1 relation lattice may take
#: on: the |X|**(n+2) + |X|**(n+3) generators of C_n and C_{n+1} times
#: (n+2)**2, a floor on the faces of one tuple.  z5 H_2 needs 60,000, z3 H_4
#: 104,976; z5 H_3 (468,750), order 1 above degree 385 and degree 1 from
#: order 14 on are refused; z5 H_3 would take about 1.2 s in process.  The
#: slowest admitted request measured in process (2-core VM, Python 3.11) is
#: `cocycles` over 4x + 12y + 10z mod 13 (276,822): 7-8 s and 200 MB, as
#: long as its H_1; an order-4 H_3 (128,000) takes up to 0.7 s.
MAX_WORK = 300000


class _RelatorLattices:
    """The subcomplex R spanned by a relator set (none, D, I or ID), in the
    Hermite bases of its chain groups, and the mapping cone of R -> C."""

    def __init__(self, X, relators, kind):
        self.X, self.relators, self.kind = X, relators, kind
        self._lattice = {}

    def lattice(self, m):
        """A LatticeSolver over the degree-m relators."""
        if m not in self._lattice:
            cols = _relator_columns(self.X, m, self.relators)
            self._lattice[m] = LatticeSolver.from_columns(cols, self.X.order ** (m + 2))
        return self._lattice[m]

    def sub(self, m):
        """d_m of R: the boundary of each Hermite basis vector of R_m, in
        coordinates of the Hermite basis of R_{m-1}."""
        lat, below = self.lattice(m), self.lattice(m - 1)
        d = boundary_columns(self.X, m, self.kind) if lat.basis else ()
        cols = [below.coordinates(_product(d, p)) for p in lat.basis]
        if None in cols:
            raise MathError("differential leaves the relator subcomplex")
        return cols, len(below.basis)

    def cone(self, m):
        """d_m of the cone: R_{m-1} + C_m -> R_{m-2} + C_{m-1}."""
        below, r = self.sub(m - 1)
        cols = []
        for p, col in zip(self.lattice(m - 1).basis, below):
            c = {a: -q for a, q in col.items()}
            for k, x in p.items():
                c[r + k] = x
            cols.append(c)
        for col in boundary_columns(self.X, m, self.kind):
            cols.append({r + i: c for i, c in col.items()})
        return cols, r + self.X.order ** (m + 1)


def _check_request(X, n, v):
    """Refuse, before anything is built, a degree below -1, a relator set
    the algebra cannot carry, or a degree needing more than MAX_WORK work."""
    if n < -1:
        raise MathError("homology is computed for degrees >= -1")
    if v.relators in ("I", "ID") and not X.is_iktq:
        raise MathError("variant %s requires an involutory KTQ" % v.relators)
    if v.relators != "none" and not X.is_quasigroup:
        raise MathError("relator subgroups require a quasigroup")
    # (|X|**(n+2) + |X|**(n+3)) * (n+2)**2; the exponent is capped, since
    # 2**64 already exceeds the limit, so that an absurd degree costs nothing
    if X.order ** min(n + 2, 64) * (1 + X.order) * (n + 2) ** 2 > MAX_WORK:
        raise MathError(
            "degree %d over order %d needs %d^%d + %d^%d generators times %d^2,"
            " more work than %d"
            % (n, X.order, X.order, n + 2, X.order, n + 3, n + 2, MAX_WORK)
        )


def _check_square(cols_n, cols_n1, n):
    """Refuse sparse differentials d_n, d_{n+1} with d_n d_{n+1} != 0."""
    if any(_product(cols_n, col) for col in cols_n1):
        raise MathError("the differential does not square to zero in degree %d" % n)


@lru_cache(maxsize=1)
def _reduction(X, n, v):
    """(d_n, d_{n+1}) of the variant as LatticeSolvers, the second with a
    unit column {j: 1} at each unit pivot column j of d_n, in pivot order.

    The reduction along the complex (Kaczynski, Mrozek and Slusarek 1998):
    as d_n d_{n+1} = 0 and d_n's unit pivots form a unimodular block of
    it, the rows of d_{n+1} at their columns are integer combinations of
    its other rows, so the unit columns delete them and keep its divisors,
    adding a 1 each.  Refused by _check_request and where d_n d_{n+1} != 0.
    Cached, so that homology(X, 1, v), class checks and cocycles share it.
    """
    _check_request(X, n, v)
    lattices = _RelatorLattices(X, v.relators, v.diff_kind)
    sub = v.mode == "subcomplex" and v.relators != "none"
    differential = lattices.sub if sub else lattices.cone
    cols_n, rows_n = differential(n)
    cols_n1, dim_n = differential(n + 1) if cols_n else ([], 0)
    _check_square(cols_n, cols_n1, n)
    d_n = LatticeSolver.from_columns(cols_n, rows_n)
    units = [{j: 1} for j, _, _, _ in d_n._eliminate()]
    return d_n, LatticeSolver.from_columns(cols_n1 + units, dim_n)


def homology(X, n, v=HomologyVariant()):
    """The degree-n homology group of the requested variant, read off the
    divisors of _reduction(X, n, v).

    Quotient mode computes the homology of C/R, subcomplex mode of R itself;
    with relators 'none' both give the plain homology.  A degree needing
    more than MAX_WORK work is refused before anything is built
    (_check_request), as are a degree below -1 and a relator set the
    algebra cannot carry.
    """
    d_n, d_n1 = _reduction(X, n, v)
    # each unit column adds a divisor 1 to those of d_{n+1}
    units, divisors = len(d_n._eliminate()), d_n1.divisors
    free = d_n1.nrows - len(d_n.divisors) - (len(divisors) - units)
    return AbelianGroup(free, tuple(d for d in divisors if d > 1))


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

    A cocycle vanishes on im d_2 + R_1.  The kernel of d_2 with its unit
    columns (_reduction(X, 1, v)) holds those that also vanish at d_1's
    unit pivots P; the rows of d_1 at its pivots, coboundaries unimodular
    on P, add a direct complement.  A modulus below 2 is refused before
    anything is built, and a variant where homology(X, 1, v) refuses it.
    """
    if modulus < 2:
        raise MathError("modulus must be >= 2")
    if v.mode != "quotient" or v.diff_kind != "full":
        raise MathError("cocycles are defined for the quotient/full variants")
    d1, solver = _reduction(X, 1, v)
    coboundaries = [[col.get(p, 0) for col in d1._columns] for _, p, _, _ in d1._eliminate()]
    triples = chain_basis(X.order, 1)
    return [
        Cochain(modulus, {triples[i]: x for i, x in enumerate(vec) if x})
        for vec in solver.kernel_mod(modulus) + coboundaries
    ]


def is_cycle(d1, col):
    """Whether d1, the columns of boundary_columns(X, 1, kind), kills col."""
    return not _product(d1, col)


class HomologyClassChecker:
    """Decides equality of homology classes of degree-1 cycles.

    Two cycles are equal in the variant iff their difference lies in
    im d_2 + R_1, or in d_2 with its unit columns (_reduction(X, 1, v),
    asked by LatticeSolver.member), so only quotient variants are decided,
    and only where homology(X, 1, v) is.  Each chain is tested for a cycle
    through the cached d_1.
    """

    def __init__(self, X, v=HomologyVariant("D", "quotient", "full")):
        if v.mode != "quotient":
            raise MathError("homology classes are compared in quotient mode only")
        self.order = X.order
        _, self.solver = _reduction(X, 1, v)
        self.d1 = boundary_columns(X, 1, v.diff_kind)

    def _cycle_column(self, c, name):
        if c.degree != 1:
            raise MathError("%s chain must have degree 1" % name)
        col = chain_column(self.order, c)
        if not is_cycle(self.d1, col):
            raise MathError("%s chain is not a cycle" % name)
        return col

    def equal(self, c1, c2):
        diff = self._cycle_column(c1, "first")
        _axpy(diff, -1, self._cycle_column(c2, "second"))
        return self.solver.member(diff)


def parse_cocycle(text):
    """Cocycle file format: header 'cocycle <m>' with m >= 2, then
    'a b c -> v' lines for the nonzero values; a later line for the same
    triple overrides an earlier one."""
    def value(_, fields):
        if len(fields) != 5 or fields[3] != "->":
            raise FormatError("expected 'a b c -> v'")
        a, b, c, v = integers(fields[:3] + fields[4:])
        return (a, b, c), v

    modulus, values = read_records(text, "cocycle", value)
    if modulus < 2:
        raise FormatError("header 'cocycle %d': the modulus must be >= 2" % modulus)
    return Cochain(modulus, dict(values))


def serialize_cocycle(phi):
    lines = ["cocycle %d" % phi.modulus]
    for tup in sorted(phi.values):
        lines.append("%d %d %d -> %d" % (tup[0], tup[1], tup[2], phi.values[tup]))
    return "\n".join(lines) + "\n"
