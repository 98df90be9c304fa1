"""Region-based combinatorial model of link, flat-link and marker diagrams.

Corner roles are data, not geometry: a classical or flat crossing line
names four regions (a, b, c, d) and imposes the single relation
d = T(a, b, c); a marker names (p, q, p', q') and identifies the regions
of the two opposite pairs, which must therefore share colors.  The
coloring search merges those regions into classes, plans its propagation
once and runs the plan with an explicit stack, so diagram depth is not
bounded by the recursion limit.  Encoders of new diagrams must pick roles
matching the usual pictorial conventions; the shipped fixtures document
theirs.
"""

from collections import namedtuple
from itertools import product

from .chains import Chain
from .errors import FormatError, MathError, integers, read_records

# Unused here, but looked up in this module by name: perfbench/tracing.py
# wraps it where it is bound.
from .chains import boundary  # noqa: F401

CROSSING_KINDS = ("P", "N", "F", "M")


class Crossing(namedtuple("Crossing", "kind corners")):
    """One crossing line: kind (str: P positive, N negative, F flat, M
    marker) and corners (tuple of four region indices, int)."""

    __slots__ = ()

    def __new__(cls, kind, corners):
        if kind not in CROSSING_KINDS:
            raise FormatError("unknown crossing kind %r" % (kind,))
        if len(corners) != 4:
            raise FormatError("a crossing names exactly four regions")
        return super().__new__(cls, kind, corners)


class Diagram(namedtuple("Diagram", "num_regions crossings")):
    """A diagram: num_regions (int) and crossings (tuple of Crossing)."""

    __slots__ = ()

    def __new__(cls, num_regions, crossings):
        if num_regions < 1:
            raise FormatError("a diagram needs at least one region")
        kinds = {c.kind for c in crossings}
        if "F" in kinds and ("P" in kinds or "N" in kinds):
            raise FormatError("flat and classical crossings cannot be mixed")
        for c in crossings:
            for r in c.corners:
                if not 0 <= r < num_regions:
                    raise FormatError(
                        "region index %d out of range (%d regions)"
                        % (r, num_regions)
                    )
        return super().__new__(cls, num_regions, crossings)

    @property
    def is_flat(self):
        return any(c.kind == "F" for c in self.crossings)

    @property
    def is_classical(self):
        return any(c.kind in ("P", "N") for c in self.crossings)


def parse_diagram(text):
    """Diagram file format: header 'diagram <num_regions>', then one
    crossing per line: 'P a b c d' | 'N a b c d' | 'F a b c d' |
    'M p q p2 q2' (0-based region indices)."""
    def crossing(n, fields):
        if len(fields) != 5:
            raise FormatError("expected '<P|N|F|M> r r r r'")
        corners = tuple(integers(fields[1:]))
        for r in corners:
            if not 0 <= r < n:
                raise FormatError("region index %d out of range" % r)
        return Crossing(fields[0], corners)

    return Diagram(*read_records(text, "diagram", crossing))


def serialize_diagram(d):
    lines = ["diagram %d" % d.num_regions]
    for c in d.crossings:
        lines.append("%s %d %d %d %d" % ((c.kind,) + tuple(c.corners)))
    return "\n".join(lines) + "\n"


def _check_algebra(d, X):
    if not X.is_quasigroup:
        raise MathError("colorings require a quasigroup")
    if d.is_flat and not X.is_iktq:
        raise MathError("flat diagrams require an involutory KTQ")


def check_comparable(d1, d2, X):
    """Refuse a flat diagram paired with a classical one, and a diagram
    that X cannot color (see colorings)."""
    if (d1.is_flat and d2.is_classical) or (d2.is_flat and d1.is_classical):
        raise MathError("cannot compare a flat diagram with a classical one")
    _check_algebra(d1, X)
    _check_algebra(d2, X)


def is_valid_coloring(d, X, col):
    """True iff every crossing constraint (see associated_chain) holds."""
    _check_algebra(d, X)
    try:
        associated_chain(d, X, col)
    except MathError:
        return False
    return True


#: The most leaves (|X|**seeds) and regions of a coloring search.  The tests
#: need at most 5^6 leaves, the benchmark diagrams 5^4 and 3^6.
MAX_LEAVES = 10 ** 6


def _check_leaves(order, seeds):
    # the exponent is capped, since 2**64 already exceeds the limit
    if order ** max(0, min(seeds, 64)) > MAX_LEAVES:
        raise MathError("coloring needs %d^%d search leaves, more than %d"
                        % (order, seeds, MAX_LEAVES))


def _search_plan(d, tables):
    """The class of each region, and the coloring search as one step
    (seed class, forced, checks) per seed.  Markers are folded first into
    classes of regions that share a color.  The forcing rule reads only
    which classes are colored, so it runs once, here.  The seed is the class
    of the first uncolored region.  A crossing whose one uncolored corner is
    the lone corner of its class forces it, as (class, table, argument
    classes); a crossing colored otherwise is a check of T."""
    n = d.num_regions
    root = list(range(n))

    def find(r):
        while root[r] != r:
            root[r] = root[root[r]]
            r = root[r]
        return r

    for cr in d.crossings:
        if cr.kind == "M":
            p, q, p2, q2 = cr.corners
            root[find(p)] = find(p2)
            root[find(q)] = find(q2)
    cls = [find(r) for r in range(n)]
    crossings = [tuple(cls[r] for r in cr.corners) for cr in d.crossings if cr.kind != "M"]
    watch = {}  # only the classes some crossing touches
    for i, corners in enumerate(crossings):
        for k in set(corners):
            watch.setdefault(k, []).append(i)
    colored, planned, steps = [False] * n, [False] * len(crossings), []
    for seed in cls:
        if colored[seed]:
            continue
        colored[seed] = True
        trail, forced, checks = [seed], [], []
        for k in trail:  # the propagation queue: it grows while it is read
            for i in watch.get(k, ()):
                corners = crossings[i]
                missing = [s for s in range(4) if not colored[corners[s]]]
                if planned[i] or len(missing) > 1:
                    continue
                planned[i] = True
                if not missing:
                    checks.append(corners)
                    continue
                s = missing[0]
                args = list(corners)
                args[s] = corners[3]  # L(d,b,c), M(a,d,c), R(a,b,d) or T(a,b,c)
                forced.append((corners[s], tables[s], *args[:3]))
                colored[corners[s]] = True
                trail.append(corners[s])
        steps.append((seed, tuple(forced), tuple(checks)))
    return cls, steps


def colorings(d, X):
    """All valid colorings, as assignment tuples in lexicographic order.

    The search runs the steps of _search_plan.  An explicit stack tries the
    seed values of each step in increasing order, fills the step's forced
    classes by table lookups and checks its crossings.  Seeds are first
    uncolored regions, so depth-first order is lexicographic order.  A
    search of more than MAX_LEAVES leaves is refused before it starts, and
    before its plan when the regions or order**(regions - crossings -
    markers) exceed MAX_LEAVES: that exponent bounds the seeds from below.
    """
    _check_algebra(d, X)
    order, t = X.order, X.t.values
    if d.num_regions > MAX_LEAVES:
        raise MathError("coloring a diagram of %d regions, more than %d"
                        % (d.num_regions, MAX_LEAVES))
    # each crossing forces at most one class, each marker merges at most two
    markers = sum(cr.kind == "M" for cr in d.crossings)
    _check_leaves(order, d.num_regions - len(d.crossings) - markers)
    cls, steps = _search_plan(d, (X.l.values, X.m.values, X.r.values, t))
    _check_leaves(order, len(steps))
    color, out = [0] * len(cls), []
    nxt = [0] * len(steps)  # the stack: the next value of each step's seed
    level, last = 0, len(steps) - 1
    while level >= 0:
        v = nxt[level]
        if v == order:
            nxt[level], level = 0, level - 1
            continue
        nxt[level] = v + 1
        seed, forced, checks = steps[level]
        color[seed] = v
        for k, tab, a, b, c in forced:
            color[k] = tab[(color[a] * order + color[b]) * order + color[c]]
        for a, b, c, e in checks:
            if t[(color[a] * order + color[b]) * order + color[c]] != color[e]:
                break
        else:
            if level == last:
                out.append(tuple(map(color.__getitem__, cls)))
            else:
                level += 1
    return out


def brute_force_colorings(d, X):
    """Independent oracle: filter all |X|**regions assignments."""
    _check_algebra(d, X)
    return [
        col
        for col in product(range(X.order), repeat=d.num_regions)
        if is_valid_coloring(d, X, col)
    ]


def associated_chain(d, X, col):
    """The degree-1 chain of a colored diagram: +(a,b,c) per positive or
    flat crossing, -(a,b,c) per negative one; markers contribute nothing.
    MathError when col is not a valid coloring, checked in the same pass.
    The chain of a diagram that closes up is a cycle; the class checks and
    state sums of ktq.invariants test that."""
    _check_algebra(d, X)
    order, t, terms = X.order, X.t.values, []
    for c in d.crossings:
        a, b, cc, dd = c.corners
        if c.kind == "M":
            if col[a] != col[cc] or col[b] != col[dd]:
                raise MathError("the assignment is not a valid coloring")
            continue
        tri = (col[a], col[b], col[cc])
        if t[(tri[0] * order + tri[1]) * order + tri[2]] != col[dd]:
            raise MathError("the assignment is not a valid coloring")
        terms.append((tri, -1 if c.kind == "N" else 1))
    return Chain(1, terms)


def parse_correspondence(text):
    """Correspondence file format: lines 'i j' pairing region i of the first
    diagram with region j of the second.  It has no '<keyword> <n>' header;
    a line 'correspondence' may appear anywhere and is skipped."""
    def pair(_, fields):
        if fields == ["correspondence"]:
            return None
        if len(fields) != 2:
            raise FormatError("expected 'i j'")
        return tuple(integers(fields))

    return [p for p in read_records(text, None, pair)[1] if p is not None]


def join_colorings(d1, d2, cols1, cols2, pairs):
    """The pairs of the given colorings of d1 and d2 that agree on the
    mapped regions, in the order of cols1, then cols2: a hash join on the
    colors of those regions.  A pair naming a region outside either
    diagram raises FormatError, a join of more than MAX_LEAVES pairs
    MathError before it is built."""
    for i, j in pairs:
        if not (0 <= i < d1.num_regions and 0 <= j < d2.num_regions):
            raise FormatError(
                "correspondence pair %d %d out of range (%d and %d regions)"
                % (i, j, d1.num_regions, d2.num_regions)
            )
    by_key = {}
    for c2 in cols2:
        by_key.setdefault(tuple(c2[j] for _, j in pairs), []).append(c2)
    groups = [by_key.get(tuple(c1[i] for i, _ in pairs), ()) for c1 in cols1]
    size = sum(map(len, groups))
    if size > MAX_LEAVES:
        raise MathError("the join has %d coloring pairs, more than %d" % (size, MAX_LEAVES))
    return [(c1, c2) for c1, group in zip(cols1, groups) for c2 in group]


def matched_colorings(d1, d2, X, pairs):
    """Pairs of colorings of the two diagrams that agree on the mapped
    regions, in the order of the first diagram's colorings, then the
    second's (see join_colorings)."""
    return join_colorings(d1, d2, colorings(d1, X), colorings(d2, X), pairs)
