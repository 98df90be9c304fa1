"""Cocycle state sums and invariance reports over fixture diagram pairs.

A report searches each diagram's colorings once and reuses the two lists
for the counts, the matched pairs and every state sum.  The state sums of
all cocycles come from one pass over a diagram's colorings: each
coloring's signed crossing triples are tallied once, and every cocycle is
evaluated on that tally.
"""

from dataclasses import dataclass
from typing import Tuple

from .diagram import associated_chain, colorings

# The report's hash join of two coloring lists.  It is bound here as
# matched_colorings, the name under which perfbench/tracing.py times the
# join and counts its pairs; the public matched_colorings(d1, d2, X, pairs)
# is ktq.diagram.matched_colorings.
from .diagram import join_colorings as matched_colorings
from .errors import MathError
from .homology import HomologyClassChecker, HomologyVariant


@dataclass(frozen=True)
class GroupRingElement:
    """An element of Z[Z_m], additively written: a finitely supported
    integer-coefficient map on residues mod m."""

    modulus: int
    coeffs: Tuple[Tuple[int, int], ...]  # sorted (residue, coefficient) pairs

    @classmethod
    def from_dict(cls, modulus, d):
        return cls(modulus, tuple(sorted((r, c) for r, c in d.items() if c)))

    def as_dict(self):
        return dict(self.coeffs)

    def total(self):
        return sum(c for _, c in self.coeffs)

    def render(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%d*[%d]" % (c, r) for r, c in self.coeffs)

    def __str__(self):
        return self.render()


def _check_cocycle(X, phi):
    if any(not 0 <= t < X.order for tup in phi.values for t in tup):
        raise MathError("cocycle refers to elements outside the algebra")


def _state_sums(d, cols, cocycles):
    """The state sum of each cocycle over the colorings cols of d."""
    signed = [
        (-1 if cr.kind == "N" else 1,) + cr.corners[:3]
        for cr in d.crossings
        if cr.kind != "M"
    ]
    sums = [(phi, {}) for phi in cocycles]
    for col in cols:
        tally = {}
        for sign, a, b, c in signed:
            tri = (col[a], col[b], col[c])
            tally[tri] = tally.get(tri, 0) + sign
        for phi, acc in sums:
            s = sum(n * phi(tri) for tri, n in tally.items()) % phi.modulus
            acc[s] = acc.get(s, 0) + 1
    return [GroupRingElement.from_dict(phi.modulus, acc) for phi, acc in sums]


def state_sum(d, X, phi):
    """The cocycle state sum: for each coloring, accumulate the signed sum
    of cocycle values over crossings (markers contribute nothing), and
    record one group-ring unit at the resulting residue."""
    _check_cocycle(X, phi)
    return _state_sums(d, colorings(d, X), [phi])[0]


def invariant_report(d1, d2, X, variant=None, correspondence=None, cocycles=()):
    """Compare two diagrams: coloring counts, homology classes of matched
    colorings (when a region correspondence is supplied), and state sums
    for each given cocycle.

    Returns a list of (key, value) rows ending with a 'verdict' row, either
    'consistent with invariance' or 'distinguished'.
    """
    if (d1.is_flat and d2.is_classical) or (d2.is_flat and d1.is_classical):
        raise MathError("cannot compare a flat diagram with a classical one")
    if variant is None:
        variant = HomologyVariant("D", "quotient", "full")
    rows = []
    cols1 = colorings(d1, X)
    cols2 = colorings(d2, X)
    n1, n2 = len(cols1), len(cols2)
    rows.append(("colorings.first", str(n1)))
    rows.append(("colorings.second", str(n2)))
    counts_equal = n1 == n2
    rows.append(("colorings.equal", "yes" if counts_equal else "no"))

    classes_equal = True
    if correspondence is not None:
        checker = HomologyClassChecker(X, variant)
        checked = 0
        for c1, c2 in matched_colorings(d1, d2, cols1, cols2, correspondence):
            eq = checker.equal(
                associated_chain(d1, X, c1), associated_chain(d2, X, c2)
            )
            classes_equal = classes_equal and eq
            checked += 1
        rows.append(("classes.checked", str(checked)))
        rows.append(("classes.equal", "yes" if classes_equal else "no"))

    cocycles = tuple(cocycles)
    for phi in cocycles:
        _check_cocycle(X, phi)
    sums_equal = True
    sums = zip(_state_sums(d1, cols1, cocycles), _state_sums(d2, cols2, cocycles))
    for i, (s1, s2) in enumerate(sums):
        rows.append(("statesum.%d.first" % i, s1.render()))
        rows.append(("statesum.%d.second" % i, s2.render()))
        rows.append(("statesum.%d.equal" % i, "yes" if s1 == s2 else "no"))
        sums_equal = sums_equal and s1 == s2

    verdict = (
        "consistent with invariance"
        if counts_equal and classes_equal and sums_equal
        else "distinguished"
    )
    rows.append(("verdict", verdict))
    return rows


def render_report(rows):
    return "\n".join("%s %s" % (k, v) for k, v in rows) + "\n"
