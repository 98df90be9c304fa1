"""Finite ternary quasigroups presented by operation tables.

Elements are the integers 0..order-1.  A ternary operation is a flat table
of order**3 entries; the quasigroup property, the division tables and the
two third-Reidemeister axioms (A3L, A3R) are all checked by finite
enumeration.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product

from .errors import FormatError, MathError, integers, read_records


class OpTable:
    """A ternary operation on {0, ..., order-1} stored as a flat table.

    Entry ``values[(i*order + j)*order + k]`` is the result of applying the
    operation to (i, j, k), i.e. entries are in lexicographic order of the
    argument triple.
    """

    __slots__ = ("order", "values")

    def __init__(self, order, values):
        values = tuple(values)
        if order < 1:
            raise FormatError("order must be a positive integer")
        if len(values) != order ** 3:
            raise FormatError(
                "expected %d table entries for order %d, got %d"
                % (order ** 3, order, len(values))
            )
        for v in values:
            if not isinstance(v, int) or not 0 <= v < order:
                raise FormatError(
                    "table entry %r out of range for order %d" % (v, order)
                )
        self.order = order
        self.values = values

    @classmethod
    def from_function(cls, order, fn):
        n = order
        return cls(n, (fn(i, j, k) for i, j, k in product(range(n), repeat=3)))

    def __call__(self, i, j, k):
        return self.values[(i * self.order + j) * self.order + k]

    def __eq__(self, other):
        return (
            isinstance(other, OpTable)
            and self.order == other.order
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.order, self.values))

    def __repr__(self):
        return "OpTable(order=%d)" % self.order


class ValidationReport(
    namedtuple("ValidationReport", "ok slot quad_a quad_b", defaults=(None, None, None))
):
    """Result of a quasigroup check: ok (bool) and, when it is false, slot
    (int), the argument slot 0, 1 or 2 whose induced unary map fails to be a
    bijection, and quad_a, quad_b (tuples), two quadruples (x1, x2, x3, x0)
    differing only in that slot but sharing the same value x0; else None."""

    __slots__ = ()


class A3Report(
    namedtuple("A3Report", "a3l a3r a3l_witness a3r_witness", defaults=(None, None))
):
    """check_a3's flags a3l and a3r (bool) and witnesses (tuple or None)."""

    __slots__ = ()


class TernaryQuasigroup(
    namedtuple(
        "TernaryQuasigroup",
        "t l m r is_quasigroup satisfies_a3l satisfies_a3r is_involutory",
    )
):
    """An operation table t (OpTable), its division tables l, m, r (OpTable,
    or None when t is not a quasigroup) and four flags (bool)."""

    __slots__ = ()

    @property
    def order(self):
        return self.t.order

    @property
    def is_ktq(self):
        return self.is_quasigroup and self.satisfies_a3l and self.satisfies_a3r

    @property
    def is_iktq(self):
        return self.is_ktq and self.is_involutory


def validate_quasigroup(t):
    """Check that fixing any two argument slots yields a bijection.

    Returns a ValidationReport; the first failing line (in slot, fixed-pair,
    argument order) is reported.
    """
    n = t.order
    for slot in range(3):
        for f0, f1 in product(range(n), repeat=2):
            seen = {}
            for x in range(n):
                args = [f0, f1]
                args.insert(slot, x)
                out = t(*args)
                if out in seen:
                    return ValidationReport(
                        False, slot, seen[out] + (out,), tuple(args) + (out,)
                    )
                seen[out] = tuple(args)
    return ValidationReport(True)


def derive_divisions(t):
    """Invert a quasigroup table slot-by-slot, giving (L, M, R).

    With x0 = T(x1, x2, x3): L(x0, x2, x3) = x1, M(x1, x0, x3) = x2 and
    R(x1, x2, x0) = x3.
    """
    report = validate_quasigroup(t)
    if not report.ok:
        raise MathError(
            "not a quasigroup: slot %d is not bijective (witness %r vs %r)"
            % (report.slot, report.quad_a, report.quad_b)
        )
    n = t.order
    lv = [0] * n ** 3
    mv = [0] * n ** 3
    rv = [0] * n ** 3
    for x1, x2, x3 in product(range(n), repeat=3):
        x0 = t(x1, x2, x3)
        lv[(x0 * n + x2) * n + x3] = x1
        mv[(x1 * n + x0) * n + x3] = x2
        rv[(x1 * n + x2) * n + x0] = x3
    return OpTable(n, lv), OpTable(n, mv), OpTable(n, rv)


# An axiom is an equation between two terms in T and the variables of one
# instance.  It is compiled once into a straight-line program over registers
# that start as the instance's variables: each step appends T of three
# registers (the entries are read left to right, innermost first, and each
# distinct subterm once), and the equation holds when two registers agree.
Axiom = namedtuple("Axiom", "arity steps lhs rhs")

HOLDS, FAILS = -1, -2


def _compile(variables, equation):
    """Compile ``lhs = rhs``, written in T and the one-letter variables,
    into an Axiom whose instances take the variables in the given order."""
    text = equation.replace(" ", "")
    register = {name: r for r, name in enumerate(variables)}
    steps = []

    def term(pos):
        if not text.startswith("T(", pos):
            return register[text[pos]], pos + 1
        args = []
        pos += 2
        for _ in range(3):
            r, pos = term(pos)
            args.append(r)
            pos += 1  # the ',' or ')' after the argument
        key = tuple(args)
        if key not in register:
            register[key] = len(variables) + len(steps)
            steps.append(key)
        return register[key], pos

    lhs, pos = term(0)
    rhs, _ = term(pos + 1)  # past the '='
    return Axiom(len(variables), tuple(steps), lhs, rhs)


A3L = _compile("abcd", "T(T(a,b,c), c, d) = T(T(a,b,T(b,c,d)), T(b,c,d), d)")
A3R = _compile("abcd", "T(a, b, T(b,c,d)) = T(a, T(a,b,c), T(T(a,b,c), c, d))")
# T = M, i.e. each map y -> T(x, y, z) is its own inverse
INVOLUTION = _compile("xyz", "T(x, T(x,y,z), z) = y")

#: The axioms each enumeration filter checks, by filter name.
FILTER_AXIOMS = {"all_quasigroups": (), "ktq": (A3L, A3R), "iktq": (A3L, A3R, INVOLUTION)}


def _evaluate(v, n, axiom, args):
    """One instance of an axiom on the flat table v of order n, where None
    marks an unfilled entry.  Returns HOLDS, FAILS or the index of the first
    unfilled entry the instance reads."""
    r = list(args)
    for x, y, z in axiom.steps:
        i = (r[x] * n + r[y]) * n + r[z]
        w = v[i]
        if w is None:
            return i
        r.append(w)
    return HOLDS if r[axiom.lhs] == r[axiom.rhs] else FAILS


def check_a3(t):
    """Check axioms A3L and A3R over all quadruples (a, b, c, d).

    A3L: T(T(a,b,c), c, d) = T(T(a,b,T(b,c,d)), T(b,c,d), d)
    A3R: T(a, b, T(b,c,d)) = T(a, T(a,b,c), T(T(a,b,c), c, d))

    Each witness is the first failing quadruple in lexicographic order.
    The quasigroup property is not assumed; the axioms are equational.
    """
    n, v = t.order, t.values
    wl = wr = None
    for q in product(range(n), repeat=4):
        if wl is None and _evaluate(v, n, A3L, q) == FAILS:
            wl = q
        if wr is None and _evaluate(v, n, A3R, q) == FAILS:
            wr = q
        if wl is not None and wr is not None:
            break
    return A3Report(wl is None, wr is None, wl, wr)


def classify(t):
    """Build a TernaryQuasigroup with all flags set for the given table."""
    try:
        l, m, r = derive_divisions(t)
    except MathError:  # not a quasigroup
        l = m = r = None
    a3 = check_a3(t)
    involutory = m is not None and m.values == t.values
    return TernaryQuasigroup(t, l, m, r, m is not None, a3.a3l, a3.a3r, involutory)


def affine_table(n, alpha, beta, gamma):
    """The table T(x, y, z) = (alpha*x + beta*y + gamma*z) mod n.

    Not validated here; it is a quasigroup iff alpha, beta and gamma are all
    units mod n.
    """
    if n < 1:
        raise FormatError("order must be a positive integer")
    return OpTable.from_function(
        n, lambda x, y, z: (alpha * x + beta * y + gamma * z) % n
    )


def hat(t):
    """The outer-slot reversal: hat(T)(x, y, z) = T(z, y, x)."""
    return OpTable.from_function(t.order, lambda x, y, z: t(z, y, x))


@lru_cache(maxsize=8)
def _relabelings(n):
    """(perm, src) for every permutation of range(n), identity first, where
    the relabeled table's entry at index p is perm[values[src[p]]]."""
    out = []
    for perm in permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        src = tuple(
            (inv[i] * n + inv[j]) * n + inv[k] for i, j, k in product(range(n), repeat=3)
        )
        out.append((perm, src))
    return tuple(out)


def _evaluate_relabeling(v, n, perm, src):
    """The lex-leader test of one relabeling on the flat table v of order
    n, where None marks an unfilled entry: FAILS when the relabeled table
    is already smaller than v on the entries the filled ones determine
    (then no completion of v is the least of its orbit), HOLDS when it is
    already larger, or equal on a full table, and otherwise the index of
    the first unfilled entry the comparison reads.  The relabeled entry at
    p is perm[v[src[p]]]; n is unused and keeps the signature of
    _evaluate."""
    for p, s in enumerate(src):
        x = v[s]
        if x is None:
            return s
        y = v[p]
        if y is None:
            return p
        e = perm[x]
        if e < y:
            return FAILS
        if e > y:
            return HOLDS
    return HOLDS


def _wake(v, n, watch, pos):
    """Re-evaluate the instances waiting on the just-filled entry pos.

    An instance is (evaluate, a, b), evaluated as evaluate(v, n, a, b).  An
    undecided one moves to the watch list of the next unfilled entry it
    reads.  Returns those entries, or None (with the moves taken back)
    when an instance fails."""
    moved = []
    for check in watch[pos]:
        evaluate, a, b = check
        r = evaluate(v, n, a, b)
        if r >= 0:
            watch[r].append(check)
            moved.append(r)
        elif r == FAILS:
            for q in moved:
                watch[q].pop()
            return None
    return moved


def _checked_latin_tables(n, axioms):
    """Value tuples of the least table of each relabeling orbit of the
    order-n tables whose three slot maps are bijections and on which every
    instance of the given axioms holds, in lexicographic order.

    Entries are filled in index order with ascending values (an explicit
    stack, no recursion).  Each axiom instance waits on the first unfilled
    entry it reads, so a violated instance prunes the branch as soon as the
    entries it reads are filled (forward checking).  Each non-identity
    relabeling is one more instance, its lex-leader test (Crawford,
    Ginsberg, Luks & Roy, KR 1996): a prefix that some relabeling already
    makes smaller is pruned, which drops no least table, and on a full
    table the test is exact.
    """
    total = n ** 3
    v = [None] * total
    watch = [[] for _ in range(total)]
    checks = [(_evaluate, axiom, args)
              for axiom in axioms for args in product(range(n), repeat=axiom.arity)]
    checks += [(_evaluate_relabeling, perm, src) for perm, src in _relabelings(n)[1:]]
    for check in checks:
        evaluate, a, b = check
        watch[evaluate(v, n, a, b)].append(check)
    # bitmasks of the values used on each line, by the slot that varies
    used_i, used_j, used_k = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    lines = [(j * n + k, i * n + k, i * n + j) for i, j, k in product(range(n), repeat=3)]
    moved = [()] * total  # moved[p]: the watch lists that filling p appended to

    def release(p):
        """Empty entry p, undo what filling it did, and return its value."""
        x = v[p]
        v[p] = None
        a, b, c = lines[p]
        clear = ~(1 << x)
        used_i[a] &= clear
        used_j[b] &= clear
        used_k[c] &= clear
        for q in moved[p]:
            watch[q].pop()
        return x

    pos, x = 0, 0
    while pos >= 0:
        if pos == total:
            yield tuple(v)
            pos -= 1
            x = release(pos) + 1
            continue
        a, b, c = lines[pos]
        taken = used_i[a] | used_j[b] | used_k[c]
        while x < n:
            if not taken >> x & 1:
                v[pos] = x
                moved[pos] = _wake(v, n, watch, pos) if watch[pos] else ()
                if moved[pos] is not None:
                    break
            x += 1
        if x < n:
            bit = 1 << x
            used_i[a] |= bit
            used_j[b] |= bit
            used_k[c] |= bit
            pos, x = pos + 1, 0
        else:
            v[pos] = None
            pos -= 1
            if pos >= 0:
                x = release(pos) + 1


def canonical_form(t):
    """Lexicographically least value tuple over simultaneous relabelings.

    A relabeling is abandoned at the first entry that exceeds the least
    tuple found so far.
    """
    v = t.values
    best = v
    for perm, src in _relabelings(t.order):
        for p, s in enumerate(src):
            e = perm[v[s]]
            if e != best[p]:
                break
        else:
            continue
        if e < best[p]:
            best = tuple(perm[v[s]] for s in src)
    return best


def enumerate_ktqs(n, filt="ktq", dedup=False, max_order=4):
    """Exhaustively enumerate the order-n quasigroup tables that pass a
    filter, in lexicographic order of their value tuples.

    filt selects 'all_quasigroups', 'ktq' (A3L and A3R) or 'iktq' (also
    T = M).  The Latin search reaches only the least table of each
    relabeling orbit, and canonical_form confirms each; with dedup=True
    those are returned.  Each filter is the Latin property plus equations
    in T, hence closed under relabeling, so without dedup the orbits of
    the least tables are returned, sorted.  Orders above max_order are
    rejected; pass a larger max_order explicitly to override.  On a 2-core
    Xeon VM with Python 3.11, order 5 takes about 12 s with the 'ktq'
    filter and under a second with 'iktq', with or without dedup.
    """
    if filt not in FILTER_AXIOMS:
        raise ValueError("unknown filter %r" % (filt,))
    if n < 1:
        raise FormatError("order must be a positive integer")
    if n > max_order:
        raise MathError(
            "order %d exceeds the enumeration cap %d; raise max_order to override"
            % (n, max_order)
        )
    tables = [v for v in _checked_latin_tables(n, FILTER_AXIOMS[filt])
              if canonical_form(OpTable(n, v)) == v]
    if not dedup:
        tables = sorted({tuple(perm[v[s]] for s in src)
                         for v in tables for perm, src in _relabelings(n)})
    return [OpTable(n, v) for v in tables]


def parse_algebra(text):
    """Algebra file format: header 'ktq <n>', then the n**3 entries in
    lexicographic argument order, on as many lines as the writer likes."""
    order, rows = read_records(text, "ktq", lambda n, fields: integers(fields))
    return OpTable(order, [v for row in rows for v in row])


def serialize_algebra(t):
    """Render an OpTable in the algebra file format (canonical layout:
    one line of order entries per (i, j) pair)."""
    n, entries = t.order, list(map(str, t.values))
    rows = (" ".join(entries[r:r + n]) for r in range(0, n ** 3, n))
    return "ktq %d\n" % n + "\n".join(rows) + "\n"
