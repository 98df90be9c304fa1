"""Seeded braid-closure diagrams and Reidemeister move pairs.

A braid on ``strands`` strands is a word of letters (gap, sign): gap i in
1..strands-1 crosses strands i and i+1.  Gap 0 (left of strand 1) and gap
``strands`` (right of the last strand) are single regions; an inner gap with
k letters has k regions, separated by its crossings, and the last letter in
a gap closes onto that gap's first region.  With ``cur`` the region currently
open in every gap, a crossing in gap i is written

    positive:  P cur[i-1] cur[i] cur[i+1] new
    negative:  N cur[i-1] new cur[i+1] cur[i]
    flat:      F cur[i-1] cur[i] cur[i+1] new

so ``fixtures/r3_before.dg`` is the closure of s1 s2 s1.

Every region is keyed by (gap, id of the letter that ends it), or (gap, None)
for a gap without letters.  The letters outside a move keep their ids, so two
diagrams related by one move share the keys of every region outside the move
disc; the region correspondence pairs equal keys.
"""

from dataclasses import dataclass
from itertools import count, product


@dataclass(frozen=True)
class Letter:
    ident: int
    gap: int
    sign: int  # +1 or -1


@dataclass(frozen=True)
class Closure:
    num_regions: int
    crossings: tuple  # (kind, a, b, c, d)
    keys: tuple  # region index -> key

    def text(self, comment=""):
        lines = ["# " + comment] if comment else []
        lines.append("diagram %d" % self.num_regions)
        lines.extend("%s %d %d %d %d" % c for c in self.crossings)
        return "\n".join(lines) + "\n"


def closure(strands, word, flat=False):
    """The closure diagram of a braid word (a sequence of Letters)."""
    counts = [0] * (strands + 1)
    for letter in word:
        if not 1 <= letter.gap < strands:
            raise ValueError("gap %d out of range for %d strands" % (letter.gap, strands))
        counts[letter.gap] += 1
    cur = list(range(strands + 1))
    keys = {g: (g, None) for g in range(strands + 1)}
    seen = [0] * (strands + 1)
    fresh = count(strands + 1)
    crossings = []
    for letter in word:
        i = letter.gap
        keys[cur[i]] = (i, letter.ident)
        seen[i] += 1
        new = i if seen[i] == counts[i] else next(fresh)
        if flat:
            crossings.append(("F", cur[i - 1], cur[i], cur[i + 1], new))
        elif letter.sign > 0:
            crossings.append(("P", cur[i - 1], cur[i], cur[i + 1], new))
        else:
            crossings.append(("N", cur[i - 1], new, cur[i + 1], cur[i]))
        cur[i] = new
    num_regions = len(keys)
    return Closure(num_regions, tuple(crossings), tuple(keys[r] for r in range(num_regions)))


def correspondence(first, second):
    """Pairs (region of first, region of second) with equal keys."""
    where = {k: r for r, k in enumerate(second.keys)}
    return [(r, where[k]) for r, k in enumerate(first.keys) if k in where]


def correspondence_text(pairs, comment=""):
    lines = ["# " + comment] if comment else []
    lines.append("correspondence")
    lines.extend("%d %d" % p for p in pairs)
    return "\n".join(lines) + "\n"


def random_braid(rng, strands, length, ids):
    """A random word made of shuffled sweeps, each sweep using every inner
    gap once, so every gap has letters and all gaps carry similar loads."""
    gaps = []
    while len(gaps) < length:
        sweep = list(range(1, strands))
        rng.shuffle(sweep)
        gaps.extend(sweep)
    return [Letter(next(ids), g, rng.choice((1, -1))) for g in gaps[:length]]


def r3_pair(rng, strands, length):
    """(after, before) words for s_i s_{i+1} s_i -> s_{i+1} s_i s_{i+1},
    one sign for all three letters, placed in a random braid."""
    ids = count()
    base = random_braid(rng, strands, length - 3, ids)
    p = rng.randrange(len(base) + 1)
    i = rng.randrange(1, strands - 1)
    s = rng.choice((1, -1))
    x1, x2, x3 = Letter(next(ids), i, s), Letter(next(ids), i + 1, s), Letter(next(ids), i, s)
    # the letters entering each gap's regions from outside the disc keep ids
    y1, y2, y3 = Letter(x2.ident, i + 1, s), Letter(x1.ident, i, s), Letter(next(ids), i + 1, s)
    before = base[:p] + [x1, x2, x3] + base[p:]
    after = base[:p] + [y1, y2, y3] + base[p:]
    return after, before


def r2_pair(rng, strands, length):
    """(after, before) words: s_i^e s_i^-e inserted into a random braid."""
    ids = count()
    base = random_braid(rng, strands, length - 2, ids)
    p = rng.randrange(len(base) + 1)
    i = rng.randrange(1, strands)
    e = rng.choice((1, -1))
    after = base[:p] + [Letter(next(ids), i, e), Letter(next(ids), i, -e)] + base[p:]
    return after, base


MOVES = {"R2": r2_pair, "R3": r3_pair}


def move_pair(rng, move, strands, length, flat):
    """(after, before, correspondence after -> before) as Closures."""
    w_after, w_before = MOVES[move](rng, strands, length)
    after = closure(strands, w_after, flat)
    before = closure(strands, w_before, flat)
    return after, before, correspondence(after, before)


def linear_form(table_text):
    """(p, (alpha, beta, gamma)) for an algebra file holding the table
    T(x, y, z) = alpha*x + beta*y + gamma*z mod p with p prime."""
    tokens = [t for line in table_text.splitlines() for t in line.split("#", 1)[0].split()]
    p, values = int(tokens[1]), [int(t) for t in tokens[2:]]
    coeffs = (values[p * p], values[p], values[1])
    linear = all(v == (coeffs[0] * x + coeffs[1] * y + coeffs[2] * z) % p
                 for v, (x, y, z) in zip(values, product(range(p), repeat=3)))
    if p < 2 or any(p % q == 0 for q in range(2, p)) or not linear:
        raise ValueError("not a linear quasigroup over a prime field")
    return p, coeffs


def count_colorings(diagram, p, coeffs):
    """Colorings of a P/N/F diagram by a linear quasigroup over Z/p: the
    solutions of one linear equation per crossing, p**(regions - rank).
    An oracle independent of the program's backtracking search."""
    rows = []
    for _, a, b, c, d in diagram.crossings:
        row = [0] * diagram.num_regions
        for r, k in zip((a, b, c, d), coeffs + (-1,)):
            row[r] = (row[r] + k) % p
        rows.append(row)
    rank = 0
    for col in range(diagram.num_regions):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return p ** (diagram.num_regions - rank)


def _combine(p, terms):
    """sum(k * form) mod p over linear forms stored as {variable: coefficient}."""
    out = {}
    for k, form in terms:
        for var, c in form.items():
            out[var] = (out.get(var, 0) + k * c) % p
    return {v: c for v, c in out.items() if c}


def search_cost(diagram, p, coeffs):
    """Crossing visits of the program's coloring search on a P/N/F diagram
    over a linear quasigroup, predicted without running it.

    The search colors the lowest uncolored region with each of p values and
    propagates crossings with a single unknown corner until nothing changes.
    Which regions propagation reaches depends only on which are colored, so
    every node at one depth has the same colored set; a node survives when
    the fully colored crossings hold, and for a linear quasigroup the
    survivors at depth k number p**(k - rank of those crossings' equations).
    Each surviving node costs p deductions of passes * crossings visits.
    """
    weights = coeffs + (-1,)
    form = [None] * diagram.num_regions  # region -> {chosen region index: coefficient}
    checked = [False] * len(diagram.crossings)
    basis = {}  # pivot variable -> equation with coefficient 1 there
    depth = rank = 0
    alive, cost = 1, 0
    while None in form:
        form[form.index(None)] = {depth: 1}
        depth += 1
        passes, changed = 0, True
        while changed:
            changed, passes = False, passes + 1
            for n, (_, *corners) in enumerate(diagram.crossings):
                unknown = {r for r in corners if form[r] is None}
                if not unknown and not checked[n]:
                    checked[n] = True
                    row = _combine(p, [(k, form[r]) for k, r in zip(weights, corners)])
                    for var in sorted(basis, reverse=True):
                        if row.get(var):
                            row = _combine(p, [(1, row), (-row[var], basis[var])])
                    if row:
                        var = max(row)
                        inv = pow(row[var], p - 2, p)
                        basis[var] = _combine(p, [(inv, row)])
                        rank += 1
                elif len(unknown) == 1:
                    slots = [s for s, r in enumerate(corners) if r in unknown]
                    if len(slots) == 1:
                        s = slots[0]
                        inv = pow(weights[s], p - 2, p)
                        form[corners[s]] = _combine(p, [
                            (-inv * k, form[r])
                            for i, (k, r) in enumerate(zip(weights, corners)) if i != s])
                        changed = True
        cost += alive * p * passes * len(diagram.crossings)
        alive = p ** (depth - rank)
    return cost
