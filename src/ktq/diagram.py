"""Region-based combinatorial model of link, flat-link and marker diagrams.

Corner roles are data, not geometry: a classical or flat crossing line
names four regions (a, b, c, d) and imposes the single relation
d = T(a, b, c); a marker names (p, q, p', q') and forces equal colors on
the two opposite pairs.  Encoders of new diagrams must pick roles matching
the usual pictorial conventions; the shipped fixtures document theirs.
"""

from dataclasses import dataclass
from itertools import product
from typing import Tuple

from .chains import Chain, boundary
from .errors import FormatError, MathError

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
    """Diagram file format: '#' comments, header 'diagram <num_regions>',
    then one crossing per line: 'P a b c d' | 'N a b c d' | 'F a b c d' |
    'M p q p2 q2' (0-based region indices)."""
    num_regions = None
    crossings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if num_regions is None:
            if len(parts) != 2 or parts[0] != "diagram":
                raise FormatError("line %d: expected header 'diagram <n>'" % lineno)
            try:
                num_regions = int(parts[1])
            except ValueError:
                raise FormatError("line %d: bad region count %r" % (lineno, parts[1]))
            continue
        if len(parts) != 5 or parts[0] not in CROSSING_KINDS:
            raise FormatError(
                "line %d: expected '<P|N|F|M> r r r r', got %r" % (lineno, raw)
            )
        try:
            corners = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise FormatError("line %d: bad region index" % lineno)
        for r in corners:
            if not 0 <= r < num_regions:
                raise FormatError(
                    "line %d: region index %d out of range" % (lineno, r)
                )
        crossings.append(Crossing(parts[0], corners))
    if num_regions is None:
        raise FormatError("empty diagram file")
    kinds = {c.kind for c in crossings}
    if "F" in kinds and ("P" in kinds or "N" in kinds):
        raise FormatError("flat and classical crossings cannot be mixed")
    return Diagram(num_regions, tuple(crossings))


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

    Backtracks over regions in index order; whenever a crossing has a single
    unknown region (appearing in a single corner) the missing color is
    forced through T or the matching division table.
    """
    _check_algebra(d, X)
    n = d.num_regions
    order = X.order
    assign = [None] * n
    out = []

    def deduce():
        """Propagate forced values; returns the trail of regions set here,
        or None on contradiction (with the trail already undone)."""
        trail = []
        changed = True
        while changed:
            changed = False
            for cr in d.crossings:
                if cr.kind == "M":
                    for u, w in ((0, 2), (1, 3)):
                        ru, rw = cr.corners[u], cr.corners[w]
                        vu, vw = assign[ru], assign[rw]
                        if vu is None and vw is not None:
                            assign[ru] = vw
                            trail.append(ru)
                            changed = True
                        elif vw is None and vu is not None:
                            assign[rw] = vu
                            trail.append(rw)
                            changed = True
                        elif vu is not None and vu != vw:
                            for r in trail:
                                assign[r] = None
                            return None
                    continue
                corners = cr.corners
                vals = [assign[r] for r in corners]
                unknown = {corners[p] for p in range(4) if vals[p] is None}
                if not unknown:
                    if X.t(vals[0], vals[1], vals[2]) != vals[3]:
                        for r in trail:
                            assign[r] = None
                        return None
                    continue
                if len(unknown) != 1:
                    continue
                region = next(iter(unknown))
                slots = [p for p in range(4) if corners[p] == region]
                if len(slots) != 1:
                    continue  # repeated unknown corner: leave to backtracking
                s = slots[0]
                a, b, c, dd = vals
                if s == 3:
                    v = X.t(a, b, c)
                elif s == 0:
                    v = X.l(dd, b, c)
                elif s == 1:
                    v = X.m(a, dd, c)
                else:
                    v = X.r(a, b, dd)
                assign[region] = v
                trail.append(region)
                changed = True
        return trail

    def rec():
        region = None
        for i in range(n):
            if assign[i] is None:
                region = i
                break
        if region is None:
            out.append(tuple(assign))
            return
        for v in range(order):
            assign[region] = v
            trail = deduce()
            if trail is not None:
                rec()
                for r in trail:
                    assign[r] = None
        assign[region] = None

    rec()
    return out


def count_colorings(d, X):
    return len(colorings(d, X))


def brute_force_colorings(d, X):
    """Independent oracle: filter all |X|**regions assignments."""
    _check_algebra(d, X)
    return [
        col
        for col in product(range(X.order), repeat=d.num_regions)
        if is_valid_coloring(d, X, col)
    ]


def presentation(d):
    """The finitely presented algebra of a diagram, as text: one generator
    per region, one relation per crossing.  No simplification."""
    names = ["r%d" % i for i in range(d.num_regions)]
    lines = ["generators: " + ", ".join(names)]
    for c in d.crossings:
        if c.kind == "M":
            p, q, p2, q2 = c.corners
            lines.append("%s = %s" % (names[p], names[p2]))
            lines.append("%s = %s" % (names[q], names[q2]))
        else:
            a, b, cc, dd = c.corners
            lines.append(
                "T(%s, %s, %s) = %s" % (names[a], names[b], names[cc], names[dd])
            )
    return "\n".join(lines) + "\n"


def associated_chain(d, X, col):
    """The degree-1 chain of a colored diagram: +(a,b,c) per positive or
    flat crossing, -(a,b,c) per negative one; markers contribute nothing.
    MathError when that chain is not a cycle."""
    if not is_valid_coloring(d, X, col):
        raise MathError("the assignment is not a valid coloring")
    acc = {}
    for c in d.crossings:
        if c.kind == "M":
            continue
        sign = -1 if c.kind == "N" else 1
        tri = (col[c.corners[0]], col[c.corners[1]], col[c.corners[2]])
        acc[tri] = acc.get(tri, 0) + sign
    chain = Chain(1, acc)
    if boundary(X, chain, "full"):
        raise MathError("the associated chain is not a cycle")
    return chain


def parse_correspondence(text):
    """Fixture correspondence file: '#' comments, optional header
    'correspondence', then lines 'i j' pairing region i of the first
    diagram with region j of the second."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "correspondence":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("line %d: expected 'i j'" % lineno)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError("line %d: bad region index" % lineno)
    return pairs


def matched_colorings(d1, d2, X, pairs):
    """Pairs of colorings of the two diagrams that agree on the mapped
    regions."""
    c2s = colorings(d2, X)
    out = []
    for c1 in colorings(d1, X):
        for c2 in c2s:
            if all(c1[i] == c2[j] for i, j in pairs):
                out.append((c1, c2))
    return out
