"""Cocycle state sums and invariance reports over fixture diagram pairs.

Both invariants are read off each coloring's associated chain
(diagram.associated_chain): its homology class and its cocycle values.  A
report searches each diagram's colorings once and builds each coloring's
chain at most once, for the class checks and every state sum.
"""

from collections import namedtuple

from .diagram import associated_chain, colorings

# The report's hash join of two coloring lists.  It is bound here as
# matched_colorings, the name under which perfbench/tracing.py times the
# join and counts its pairs; the public matched_colorings(d1, d2, X, pairs)
# is ktq.diagram.matched_colorings.
from .diagram import join_colorings as matched_colorings
from .errors import MathError
from .homology import (
    HomologyClassChecker,
    HomologyVariant,
    boundary_columns,
    is_cycle,
    triple_index,
)


class GroupRingElement(namedtuple("GroupRingElement", "modulus coeffs")):
    """An element of Z[Z_m], additively written: a finitely supported
    integer-coefficient map on residues mod m.  modulus is m (int); coeffs
    is a tuple of sorted (residue, coefficient) pairs of int."""

    __slots__ = ()

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


def _chains(d, X, cols, test_cycles):
    """The associated chain of each coloring.  With test_cycles, MathError
    when one is not a cycle: the diagram does not close up."""
    chains = {col: associated_chain(d, X, col) for col in cols}
    if test_cycles:
        d1, index = boundary_columns(X, 1, "full"), triple_index(X.order)
        if not all(is_cycle(d1, index, z) for z in chains.values()):
            raise MathError("the diagram does not close up: a chain is not a cycle")
    return chains


def _state_sums(chains, cocycles):
    """The state sum of each cocycle over the associated chains of a
    diagram's colorings."""
    sums = [(phi, {}) for phi in cocycles]
    for z in chains:
        for phi, acc in sums:
            s = phi.evaluate(z)
            acc[s] = acc.get(s, 0) + 1
    return [GroupRingElement.from_dict(phi.modulus, acc) for phi, acc in sums]


def state_sum(d, X, phi):
    """The cocycle state sum: for each coloring, evaluate the cocycle on
    the associated chain (markers contribute nothing), and record one
    group-ring unit at the resulting residue."""
    _check_cocycle(X, phi)
    return _state_sums(_chains(d, X, colorings(d, X), True).values(), [phi])[0]


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

    cocycles = tuple(cocycles)
    chains1 = chains2 = {}
    if correspondence is not None or cocycles:
        # the class checks below test the matched chains for cycles
        test = correspondence is None
        chains1, chains2 = _chains(d1, X, cols1, test), _chains(d2, X, cols2, test)

    classes_equal = True
    if correspondence is not None:
        checker = HomologyClassChecker(X, variant)
        matched = matched_colorings(d1, d2, cols1, cols2, correspondence)
        equal = [checker.equal(chains1[c1], chains2[c2]) for c1, c2 in matched]
        classes_equal = all(equal)
        rows.append(("classes.checked", str(len(equal))))
        rows.append(("classes.equal", "yes" if classes_equal else "no"))

    for phi in cocycles:
        _check_cocycle(X, phi)
    sums_equal = True
    sums = zip(
        _state_sums(chains1.values(), cocycles), _state_sums(chains2.values(), cocycles)
    )
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
