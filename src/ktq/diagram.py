"""Region-based combinatorial model of link, flat-link and marker diagrams.

Corner roles are data, not geometry: a classical or flat crossing line
names four regions (a, b, c, d) and imposes the single relation
d = T(a, b, c); a marker names (p, q, p', q') and identifies the regions
of the two opposite pairs, which must therefore share colors.  The
coloring search merges those regions into classes and backtracks
iteratively, with an explicit stack, so diagram depth is not bounded by
the recursion limit.  Encoders of new diagrams must pick roles matching
the usual pictorial conventions; the shipped fixtures document theirs.
"""

from dataclasses import dataclass
from itertools import product
from typing import Tuple

from .chains import Chain
from .errors import FormatError, MathError, integers, read_records

# Unused here, but looked up in this module by name: perfbench/tracing.py
# wraps it where it is bound.
from .chains import boundary  # noqa: F401

CROSSING_KINDS = ("P", "N", "F", "M")


@dataclass(frozen=True)
class Crossing:
    kind: str  # P positive, N negative, F flat, M marker
    corners: Tuple[int, int, int, int]

    def __post_init__(self):
        if self.kind not in CROSSING_KINDS:
            raise FormatError("unknown crossing kind %r" % (self.kind,))
        if len(self.corners) != 4:
            raise FormatError("a crossing names exactly four regions")


@dataclass(frozen=True)
class Diagram:
    num_regions: int
    crossings: Tuple[Crossing, ...]

    def __post_init__(self):
        if self.num_regions < 1:
            raise FormatError("a diagram needs at least one region")
        kinds = {c.kind for c in self.crossings}
        if "F" in kinds and ("P" in kinds or "N" in kinds):
            raise FormatError("flat and classical crossings cannot be mixed")
        for c in self.crossings:
            for r in c.corners:
                if not 0 <= r < self.num_regions:
                    raise FormatError(
                        "region index %d out of range (%d regions)"
                        % (r, self.num_regions)
                    )

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


def is_valid_coloring(d, X, col):
    """True iff every crossing constraint holds for the region assignment."""
    _check_algebra(d, X)
    for c in d.crossings:
        if c.kind == "M":
            p, q, p2, q2 = c.corners
            if col[p] != col[p2] or col[q] != col[q2]:
                return False
        else:
            a, b, cc, dd = c.corners
            if X.t(col[a], col[b], col[cc]) != col[dd]:
                return False
    return True


def colorings(d, X):
    """All valid colorings, as assignment tuples in lexicographic order.

    Markers only identify regions, so they are folded first into classes
    of regions that share a color.  The search then backtracks, with an
    explicit stack, over the class of the first uncolored region, trying
    colors in increasing order.  Coloring a class re-examines the crossings
    on its watch list: a crossing whose only uncolored class fills a single
    corner has that color forced through T or the matching division table,
    and a fully colored crossing must satisfy T.
    """
    _check_algebra(d, X)
    n, order = d.num_regions, X.order
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
    watch = [[] for _ in range(n)]
    for cr in d.crossings:
        if cr.kind != "M":
            corners = tuple(cls[r] for r in cr.corners)
            for k in set(corners):
                watch[k].append(corners)
    t = X.t
    solve = (X.l, X.m, X.r, t)  # the missing corner 0, 1, 2 or 3
    color = [None] * n  # per class representative
    trail = []  # colored classes, in order; the tail is the propagation queue

    def propagate(j):
        """Propagate from the classes trail[j:]; False on contradiction."""
        while j < len(trail):
            for corners in watch[trail[j]]:
                vals = [color[k] for k in corners]
                missing = vals.count(None)
                if missing == 0:
                    if t(vals[0], vals[1], vals[2]) != vals[3]:
                        return False
                elif missing == 1:
                    s = vals.index(None)
                    vals[s] = vals[3]  # L(d,b,c), M(a,d,c), R(a,b,d) or T(a,b,c)
                    color[corners[s]] = solve[s](vals[0], vals[1], vals[2])
                    trail.append(corners[s])
            j += 1
        return True

    out = []
    stack = [[0, 0, 0]]  # first uncolored region, next color, trail length
    while stack:
        frame = stack[-1]
        i, v, mark = frame
        for k in trail[mark:]:
            color[k] = None
        del trail[mark:]
        if v == order:
            stack.pop()
            continue
        frame[1] = v + 1
        color[cls[i]] = v
        trail.append(cls[i])
        if not propagate(mark):
            continue
        while i < n and color[cls[i]] is not None:
            i += 1
        if i == n:
            out.append(tuple(color[k] for k in cls))
        else:
            stack.append([i, 0, len(trail)])
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
    MathError when col is not a valid coloring.  The chain of a diagram
    that closes up is a cycle; HomologyClassChecker.equal tests that."""
    if not is_valid_coloring(d, X, col):
        raise MathError("the assignment is not a valid coloring")
    acc = {}
    for c in d.crossings:
        if c.kind == "M":
            continue
        sign = -1 if c.kind == "N" else 1
        tri = (col[c.corners[0]], col[c.corners[1]], col[c.corners[2]])
        acc[tri] = acc.get(tri, 0) + sign
    return Chain(1, acc)


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
    diagram raises FormatError."""
    for i, j in pairs:
        if not (0 <= i < d1.num_regions and 0 <= j < d2.num_regions):
            raise FormatError(
                "correspondence pair %d %d out of range (%d and %d regions)"
                % (i, j, d1.num_regions, d2.num_regions)
            )
    by_key = {}
    for c2 in cols2:
        by_key.setdefault(tuple(c2[j] for _, j in pairs), []).append(c2)
    return [
        (c1, c2)
        for c1 in cols1
        for c2 in by_key.get(tuple(c1[i] for i, _ in pairs), ())
    ]


def matched_colorings(d1, d2, X, pairs):
    """Pairs of colorings of the two diagrams that agree on the mapped
    regions, in the order of the first diagram's colorings, then the
    second's (see join_colorings)."""
    return join_colorings(d1, d2, colorings(d1, X), colorings(d2, X), pairs)
