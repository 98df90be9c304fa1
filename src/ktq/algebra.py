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


# An axiom is one or more equations between terms in T over the variables
# of one instance, compiled once into a straight-line program over
# registers that start as the instance's variables: each step appends T of
# three registers (the entries are read left to right, innermost first,
# and each distinct subterm once).  The program is a part (rest, lhs, rhs,
# tails), the shared prefix: the steps every equation reads, in the order
# the first equation reads them.  Its tails are one part per equation: the
# steps only that equation reads, numbered on from the prefix's registers,
# and lhs, rhs, the two registers that agree when the equation holds (the
# prefix compares register 0 with itself).  A3L and A3R over the same
# (a, b, c, d) share four of their five reads, T(a,b,c), T(T(a,b,c),c,d),
# T(b,c,d) and T(a,b,T(b,c,d)), so each has a one-step tail.
#
# rest[k] is the steps a part still reads once k registers are known, and
# ahead[k] those of them, after the next, whose arguments are among the k.
# In the search, an instance waiting on an unfilled entry is the
# watch-list entry (part, r), which carries its resume state: the part it
# is in and the registers r it has read, whose count is the step it
# stopped at.  A wake reads only the entries the steps from there on read,
# and a finished prefix starts every tail, so each equation is decided as
# soon as the entries it reads are filled.  Entries are filled in index
# order, so a stopped prefix waits on the last unfilled entry that its
# next step and the steps ahead read: the others are filled by then.
Axiom = namedtuple("Axiom", "arity program")


def _compile(variables, *equations):
    """Compile equations ``lhs = rhs``, written in T and the one-letter
    variables, into one Axiom whose instances take the variables in the
    given order."""
    reads = []  # per equation: its subterms in read order, and its sides
    for equation in equations:
        text, order = equation.replace(" ", ""), []

        def term(pos):
            if not text.startswith("T(", pos):
                return text[pos], pos + 1
            args = []
            pos += 2
            for _ in range(3):
                arg, pos = term(pos)
                args.append(arg)
                pos += 1  # the ',' or ')' after the argument
            key = tuple(args)
            if key not in order:
                order.append(key)
            return key, pos

        lhs, pos = term(0)
        rhs, _ = term(pos + 1)  # past the '='
        reads.append((order, lhs, rhs))

    def part(register, keys, lhs, rhs):
        """(rest, ahead, lhs, rhs) of the part that reads keys, its
        registers numbered on from those in register."""
        base, steps = len(register), []
        for key in keys:
            steps.append(tuple(register[arg] for arg in key))
            register[key] = len(register)
        rest = (None,) * base + tuple(tuple(steps[k:]) for k in range(len(steps) + 1))
        ahead = (None,) * base + tuple(
            tuple(step for step in steps[k + 1:] if max(step) < base + k)
            for k in range(len(steps) + 1))
        return rest, ahead, register[lhs], register[rhs]

    shared = [key for key in reads[0][0] if all(key in order for order, _, _ in reads)]
    register = {name: r for r, name in enumerate(variables)}
    prefix = part(register, shared, variables[0], variables[0])
    tails = tuple(part(dict(register), [key for key in order if key not in shared], lhs, rhs) + ((),)
                  for order, lhs, rhs in reads)
    return Axiom(len(variables), prefix + (tails,))


# its tails are A3L and A3R, in that order
A3 = _compile("abcd",
              "T(T(a,b,c), c, d) = T(T(a,b,T(b,c,d)), T(b,c,d), d)",
              "T(a, b, T(b,c,d)) = T(a, T(a,b,c), T(T(a,b,c), c, d))")
# T = M, i.e. each map y -> T(x, y, z) is its own inverse
INVOLUTION = _compile("xyz", "T(x, T(x,y,z), z) = y")

#: The axioms each enumeration filter checks, by filter name.
FILTER_AXIOMS = {"all_quasigroups": (), "ktq": (A3,), "iktq": (A3, INVOLUTION)}
#: The largest order enumerate_ktqs admits, by filter name.  One `ktq
#: enumerate` run each (2-core VM, Python 3.11), without and with dedup:
#: all_quasigroups order 4 2.0 s and 0.4 s, ktq order 5 3.3-5.5 s both,
#: iktq order 5 0.2 s, iktq order 6 28 s and 26-27 s (31-34 s under load).
#: all_quasigroups order 5 with dedup and ktq order 6 ran for minutes.
MAX_ORDER = {"all_quasigroups": 4, "ktq": 5, "iktq": 6}


def _resume_axioms(v, n, entries, watch, moved):
    """Resume the axiom instances (part, r) in entries on the flat table v
    of order n, where None marks an unfilled entry: read the rest of each
    part and, once the prefix is read, each tail.  An instance left
    waiting is appended to watch[i] for the unfilled entry i, and that
    list to moved.  Returns False when an equation fails.  The one walker
    of the compiled programs."""
    for part, r in entries:
        rest, ahead, lhs, rhs, tails = part
        for x, y, z in rest[len(r)]:
            i = (r[x] * n + r[y]) * n + r[z]
            w = v[i]
            if w is None:
                for x, y, z in ahead[len(r)]:
                    j = (r[x] * n + r[y]) * n + r[z]
                    if j > i:
                        i = j
                q = watch[i]
                q.append((part, r))
                moved.append(q)
                break
            r += (w,)
        else:
            if r[lhs] != r[rhs]:
                return False
            # the tails are read inline (a call per tail cost about 10% of
            # the order-4 search); A3's have one step, so none looks ahead
            k = len(r)
            for tail in tails:
                rest, _, lhs, rhs, _ = tail
                s = r
                for x, y, z in rest[k]:
                    i = (s[x] * n + s[y]) * n + s[z]
                    w = v[i]
                    if w is None:
                        q = watch[i]
                        q.append((tail, s))
                        moved.append(q)
                        break
                    s += (w,)
                else:
                    if s[lhs] != s[rhs]:
                        return False
    return True


def check_a3(t):
    """Check axioms A3L and A3R over all quadruples (a, b, c, d).

    A3L: T(T(a,b,c), c, d) = T(T(a,b,T(b,c,d)), T(b,c,d), d)
    A3R: T(a, b, T(b,c,d)) = T(a, T(a,b,c), T(T(a,b,c), c, d))

    Each witness is the first failing quadruple in lexicographic order.
    The quasigroup property is not assumed; the axioms are equational.
    """
    n, v = t.order, t.values
    *prefix, tails = A3.program
    alone = [(*prefix, (tail,)) for tail in tails]  # A3L, A3R
    witness = [None] * len(alone)
    for q in product(range(n), repeat=A3.arity):
        # a full table leaves nothing waiting
        if _resume_axioms(v, n, [(A3.program, q)], None, None):
            continue
        for e, part in enumerate(alone):
            if witness[e] is None and not _resume_axioms(v, n, [(part, q)], None, None):
                witness[e] = q
        if None not in witness:
            break
    wl, wr = witness
    return A3Report(wl is None, wr is None, wl, wr)


#: The most A3 quadruples, order**4, that classify checks: order 40
#: (2,560,000) is admitted, at 4.6-5.7 s for `ktq verify` on a 2-core VM with
#: Python 3.11, the scale of the slowest admitted homology request.
MAX_A3_QUADRUPLES = 40 ** 4


def classify(t):
    """Build a TernaryQuasigroup with all flags set for the given table.
    An order past MAX_A3_QUADRUPLES is refused before anything is checked."""
    if t.order ** 4 > MAX_A3_QUADRUPLES:
        raise MathError("order %d needs %d^4 A3 quadruples, more than %d"
                        % (t.order, t.order, MAX_A3_QUADRUPLES))
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


def _resume_tests(v, entries, tests, moved):
    """Resume the lex-leader tests (perm, src, p) in entries on the flat
    table v, where None marks an unfilled entry.  A test compares the
    relabeled table, whose entry at p is perm[v[src[p]]], with v from the
    position p its comparison reached.  It fails when the relabeled table
    is already smaller on the entries the filled ones determine (then no
    completion of v is the least of its orbit), and holds when it is
    already larger, or equal on a full table.  A test left waiting is
    appended to tests[i] for the unfilled entry i, and that list to moved.
    Returns False when a test fails."""
    for perm, src, p in entries:
        for p in range(p, len(src)):
            x, y = v[src[p]], v[p]
            if x is None or y is None:
                q = tests[max(src[p], p)]  # filled entries come first
                q.append((perm, src, p))
                moved.append(q)
                break
            if perm[x] != y:
                if perm[x] < y:
                    return False
                break
    return True


def _wake(v, n, watch, tests, pos):
    """Resume the axiom instances and lex-leader tests waiting on the
    just-filled entry pos.  Returns the watch lists they moved to, or None
    (with the moves taken back) when one fails."""
    moved = []
    if _resume_axioms(v, n, watch[pos], watch, moved) and _resume_tests(v, tests[pos], tests, moved):
        return moved
    for q in moved:
        q.pop()
    return None


def _checked_latin_tables(n, axioms):
    """Value tuples of the least table of each relabeling orbit of the
    order-n tables whose three slot maps are bijections and on which every
    instance of the given axioms holds, in lexicographic order.

    Entries are filled in index order with ascending values (an explicit
    stack, no recursion).  Each axiom instance waits on an unfilled entry it
    reads and resumes where it stopped, so a violated equation prunes the
    branch as soon as the entries it reads are filled (forward checking).
    Each non-identity relabeling is one more instance, its lex-leader test,
    resumed at the position its comparison reached (Crawford,
    Ginsberg, Luks & Roy, KR 1996): a prefix that some relabeling already
    makes smaller is pruned, which drops no least table, and on a full
    table the test is exact.
    """
    total = n ** 3
    v = [None] * total
    watch = [[] for _ in range(total)]  # axiom instances
    tests = [[] for _ in range(total)]  # lex-leader tests
    _resume_axioms(v, n, [(axiom.program, args) for axiom in axioms
                          for args in product(range(n), repeat=axiom.arity)], watch, [])
    _resume_tests(v, [(perm, src, 0) for perm, src in _relabelings(n)[1:]], tests, [])
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
            q.pop()
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
                moved[pos] = _wake(v, n, watch, tests, pos)
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


def enumerate_ktqs(n, filt="ktq", dedup=False):
    """Exhaustively enumerate the order-n quasigroup tables that pass a
    filter, in lexicographic order of their value tuples.

    filt selects 'all_quasigroups', 'ktq' (A3L and A3R) or 'iktq' (also
    T = M).  The Latin search reaches only the least table of each
    relabeling orbit, and canonical_form confirms each; with dedup=True
    those are returned.  Each filter is the Latin property plus equations
    in T, hence closed under relabeling, so without dedup the orbits of
    the least tables are returned, sorted.  An order above MAX_ORDER[filt]
    (4 for all_quasigroups, 5 for ktq, 6 for iktq) is refused with a
    MathError before anything is built.  The largest admitted orders took
    up to 2 s, 5.5 s and 28 s (31-34 s under load), as MAX_ORDER records.
    """
    if filt not in FILTER_AXIOMS:
        raise ValueError("unknown filter %r" % (filt,))
    if n < 1:
        raise FormatError("order must be a positive integer")
    if n > MAX_ORDER[filt]:
        raise MathError("order %d exceeds %d, the largest order the %s filter enumerates"
                        % (n, MAX_ORDER[filt], filt))
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
