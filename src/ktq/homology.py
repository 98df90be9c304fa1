"""Homology of the chain complexes attached to a finite KTQ or IKTQ.

Chain groups have the lexicographic tuple basis.  Every variant is the
homology of a free complex with sparse differentials d, read off their
elementary divisors (``intlinalg.elementary_divisors``, unit pivots first):

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

HomologyClassChecker and two_cocycles read one degree-1 relation lattice,
im d_2 + R_1 (d_2 of the cone; its rows are the triples, since R_0 = 0),
under the preconditions of homology(X, 1, v).  A process builds and
eliminates it once: one cached LatticeSolver answers the checker's
membership questions and gives the mod-m cocycles from the same unit
pivots, and never builds the lattice's Hermite basis.  A chain is a cycle
when its product with the cached d_1 vanishes (is_cycle), as the checker
and the state sums of ktq.invariants test it.

A differential that does not square to zero, or relators that do not span
a subcomplex, raise MathError.  All arithmetic is exact.
"""

from functools import lru_cache
from .chains import SIDES, all_tuples, face_entries, relator_generators
from .errors import FormatError, MathError, integers, read_records
from .intlinalg import AbelianGroup, LatticeSolver, dense_matrix, elementary_divisors
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


def _chain_columns(chains, order, n):
    """Chains of degree n as sparse columns {row: coeff}, rows indexed by
    the degree-n basis."""
    index = {t: i for i, t in enumerate(chain_basis(order, n))}
    return [{index[t]: c for t, c in chain.terms.items()} for chain in chains]


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
    return _chain_columns(relator_generators(X, n, relators), X.order, n)


def relator_columns(X, n, relators):
    """Relator generators of degree n as column vectors (list of columns):
    the dense view of _relator_columns."""
    rows = range(X.order ** (n + 2))
    return [[col.get(i, 0) for i in rows] for col in _relator_columns(X, n, relators)]


def default_degree_cap(order):
    # |X|**(n+2) generator growth; see the module notes
    return 4 if order <= 3 else 3


#: The most work homology(X, n) may take on, whatever the degree cap: the
#: |X|**(n+2) + |X|**(n+3) generators of C_n and C_{n+1} times (n+2)**2, a
#: floor on the faces of one tuple.  z5 H_2 needs 60,000, z3 H_4 104,976;
#: z5 H_3 (468,750, over 30 s) and order 1 above degree 385 are refused.
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
        cols = []
        for p in lat.basis:
            w = {}
            for j, a in p.items():
                for i, c in d[j].items():
                    w[i] = w.get(i, 0) + a * c
            coords = below.coordinates(w)
            if coords is None:
                raise MathError("differential leaves the relator subcomplex")
            cols.append(coords)
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


def _check_variant(X, v):
    """Refuse a relator set the algebra cannot carry."""
    if v.relators in ("I", "ID") and not X.is_iktq:
        raise MathError("variant %s requires an involutory KTQ" % v.relators)
    if v.relators != "none" and not X.is_quasigroup:
        raise MathError("relator subgroups require a quasigroup")


def _check_square(cols_n, cols_n1, n):
    """Refuse sparse differentials d_n, d_{n+1} with d_n d_{n+1} != 0."""
    for col in cols_n1:
        acc = {}
        for i, a in col.items():
            for k, b in cols_n[i].items():
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            raise MathError("the differential does not square to zero in degree %d" % n)


def _free_homology(differential, n):
    """H_n of a free complex from its sparse differentials d_n, d_{n+1}."""
    cols_n, rows_n = differential(n)
    if not cols_n:
        return AbelianGroup(0)
    cols_n1, dim_n = differential(n + 1)
    _check_square(cols_n, cols_n1, n)
    rank_n = len(elementary_divisors(cols_n, rows_n))
    divisors = elementary_divisors(cols_n1, dim_n)
    return AbelianGroup(
        dim_n - rank_n - len(divisors), tuple(d for d in divisors if d > 1)
    )


def homology(X, n, v=HomologyVariant(), degree_cap=None):
    """The degree-n homology group of the requested variant.

    Quotient mode computes the homology of C/R, subcomplex mode of R itself;
    with relators 'none' both give the plain homology.  Degrees above the
    materialization cap are rejected unless degree_cap overrides it, and
    so, always, is a degree needing more than MAX_WORK work.
    """
    if n < -1:
        raise MathError("homology is computed for degrees >= -1")
    _check_variant(X, v)
    cap = degree_cap if degree_cap is not None else default_degree_cap(X.order)
    if n + 1 > cap:
        raise MathError(
            "degree %d exceeds the materialization cap %d for order %d"
            % (n, cap, X.order)
        )
    # (|X|**(n+2) + |X|**(n+3)) * (n+2)**2; the exponent is capped, since
    # 2**64 already exceeds the limit, so that an absurd degree costs nothing
    if X.order ** min(n + 2, 64) * (1 + X.order) * (n + 2) ** 2 > MAX_WORK:
        raise MathError(
            "degree %d over order %d needs %d^%d + %d^%d generators times %d^2,"
            " more work than %d"
            % (n, X.order, X.order, n + 2, X.order, n + 3, n + 2, MAX_WORK)
        )
    lattices = _RelatorLattices(X, v.relators, v.diff_kind)
    sub = v.mode == "subcomplex" and v.relators != "none"
    return _free_homology(lattices.sub if sub else lattices.cone, n)


@lru_cache(maxsize=1)
def _degree1_relations(X, v):
    """im d_2 + R_1 of a quotient variant: the LatticeSolver of d_2 of the
    cone of R -> C over the triples (R_0 = 0), cached so that a report's
    class checks and cocycles share one unit elimination.  Refuses what
    homology(X, 1, v) refuses: relator set, relators leaving R, d_1 d_2 != 0."""
    _check_variant(X, v)
    lattices = _RelatorLattices(X, v.relators, v.diff_kind)
    cols, _ = lattices.cone(2)
    _check_square(lattices.cone(1)[0], cols, 1)
    return LatticeSolver.from_columns(cols, X.order ** 3)


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

    A cocycle vanishes on im d_2 + R_1 (_degree1_relations), and a variant
    is refused where homology(X, 1, v) refuses it.
    """
    if v.mode != "quotient" or v.diff_kind != "full":
        raise MathError("cocycles are defined for the quotient/full variants")
    triples = chain_basis(X.order, 1)
    return [
        Cochain(modulus, {triples[i]: x for i, x in enumerate(vec) if x})
        for vec in _degree1_relations(X, v).kernel_mod(modulus)
    ]


def triple_index(order):
    """The column of each triple in the degree-1 basis."""
    return {t: i for i, t in enumerate(chain_basis(order, 1))}


def is_cycle(d1, index, c):
    """Whether the degree-1 chain c is a cycle, for d1 the columns of
    boundary_columns(X, 1, kind) and index = triple_index(X.order)."""
    acc = {}
    for t, a in c.terms.items():
        for i, b in d1[index[t]].items():
            acc[i] = acc.get(i, 0) + a * b
    return not any(acc.values())


class HomologyClassChecker:
    """Decides equality of homology classes of degree-1 cycles.

    Two cycles are equal in the variant iff their difference lies in
    im d_2 + R_1 (_degree1_relations, asked by LatticeSolver.member), so
    only quotient variants are decided, and only where homology(X, 1, v)
    is.  Each chain is tested for a cycle through the cached d_1.
    """

    def __init__(self, X, v=HomologyVariant("D", "quotient", "full")):
        if v.mode != "quotient":
            raise MathError("homology classes are compared in quotient mode only")
        self.index = triple_index(X.order)
        self.solver = _degree1_relations(X, v)
        self.d1 = boundary_columns(X, 1, v.diff_kind)

    def _check_cycle(self, c, name):
        if c.degree != 1:
            raise MathError("%s chain must have degree 1" % name)
        if not is_cycle(self.d1, self.index, c):
            raise MathError("%s chain is not a cycle" % name)

    def equal(self, c1, c2):
        self._check_cycle(c1, "first")
        self._check_cycle(c2, "second")
        diff = c1 - c2
        return self.solver.member({self.index[t]: a for t, a in diff.terms.items()})


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
