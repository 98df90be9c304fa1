"""The coloring search pinned from outside: a frozen digest of its output
on fixed braid closures, corner cases against the brute-force oracle, and
the bound on the leaves of the search."""

import hashlib
from itertools import product

import pytest

import ktq.diagram
from ktq import MathError
from ktq.diagram import Crossing, Diagram, brute_force_colorings, colorings, join_colorings

from test_invariance_property import closure

# (strands, gaps, signs): braid words whose closures are colored both as
# classical diagrams (z3linear, z5affine) and as flat ones (z3linear)
WORDS = [
    (2, [1, 1, 1], [-1, 1, 1]),
    (2, [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, -1, -1]),
    (2, [1, 1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, -1, -1, 1, 1]),
    (3, [1, 1, 2], [-1, 1, -1]),
    (3, [2, 1, 1, 2, 1, 2], [-1, 1, -1, 1, -1, -1]),
    (3, [2, 2, 2, 1, 2, 2, 1, 1, 2], [1, -1, -1, 1, -1, -1, -1, 1, -1]),
    (4, [1, 3, 1], [1, 1, 1]),
    (4, [2, 2, 3, 2, 3, 2], [-1, 1, -1, -1, 1, -1]),
    (4, [1, 1, 2, 3, 3, 2, 1, 2, 2], [1, -1, -1, -1, 1, 1, 1, -1, -1]),
    (5, [2, 1, 1], [-1, 1, 1]),
    (5, [3, 3, 4, 4, 2, 1], [1, -1, -1, 1, 1, 1]),
    (5, [4, 1, 2, 4, 3, 2, 1, 4, 3], [1, -1, 1, -1, -1, -1, -1, -1, -1]),
]

# sha256 of repr of the list of colorings(d, X), over WORDS in order and,
# for each word, the classical closure over z3linear and z5affine, then the
# flat closure over z3linear; frozen from the region-by-region backtracking
# search that the planned search replaced
COLORINGS_DIGEST = "fda8a8c73fd8fe8cd9d26f1476a0f9c5c25179f1ffbcc4ffd4f63cc231f5f1da"


def closures():
    for strands, gaps, signs in WORDS:
        word = [(n, g, s) for n, (g, s) in enumerate(zip(gaps, signs))]
        classical, _ = closure(strands, word, False)
        flat, _ = closure(strands, word, True)
        yield classical, "z3"
        yield classical, "z5"
        yield flat, "z3"


def test_colorings_of_braid_closures_are_frozen(z3linear, z5affine):
    algebras = {"z3": z3linear, "z5": z5affine}
    results = [colorings(d, algebras[a]) for d, a in closures()]
    for result in results:
        assert result == sorted(result)
    counts = [len(r) for r in results]
    assert 25 in counts[1::3] and 81 in counts[2::3]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == COLORINGS_DIGEST


def M(*corners):
    return Crossing("M", corners)


def P(*corners):
    return Crossing("P", corners)


CORNER_CASES = {
    # no crossings: every region is a seed
    "no crossings": Diagram(3, ()),
    # markers only: two classes, {0, 2, 4} and {1, 3}
    "markers only": Diagram(5, (M(0, 1, 2, 3), M(2, 3, 4, 1))),
    # all four corners in one class, directly and through markers
    "one-class crossing": Diagram(2, (P(1, 1, 1, 1),)),
    "one-class crossing via markers": Diagram(4, (M(0, 1, 2, 3), M(0, 1, 1, 0), P(0, 1, 2, 3))),
    # region 4 is no seed: the marker merges it into the class that the
    # crossing forces from the seeds 0, 1 and 2
    "marker into a forced class": Diagram(5, (P(0, 1, 2, 3), M(3, 0, 4, 0))),
    # the seed region 1 shares a class with corner d of the first crossing,
    # so that crossing forces its corner c, and the second one region 5
    "seed class on corner d": Diagram(6, (P(0, 1, 2, 3), M(1, 4, 3, 4), P(0, 0, 5, 1))),
    # from the seeds 0, 1 and 2, L forces region 3, M region 4, R region 5
    "each division table forces": Diagram(6, (P(3, 0, 1, 2), P(0, 4, 1, 2), P(0, 1, 5, 2))),
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_cases_match_brute_force(name, order1, z2sum, z3linear, z5affine):
    d = CORNER_CASES[name]
    for X in (order1, z2sum, z3linear, z5affine):
        got = colorings(d, X)
        assert got == brute_force_colorings(d, X), (name, X.order)
        assert got == sorted(got)


def test_a_diagram_without_crossings_has_every_coloring(z3linear, z5affine):
    for X in (z3linear, z5affine):
        assert colorings(Diagram(3, ()), X) == list(product(range(X.order), repeat=3))


def test_a_search_with_too_many_leaves_is_refused(monkeypatch, z3linear, order1):
    with pytest.raises(MathError, match="3\\^40 search leaves"):
        colorings(Diagram(40, ()), z3linear)
    # over order 1 any number of seeds has one leaf
    assert colorings(Diagram(2000, ()), order1) == [(0,) * 2000]
    monkeypatch.setattr(ktq.diagram, "MAX_LEAVES", 9)
    assert len(colorings(Diagram(2, ()), z3linear)) == 9
    # a forced region adds no leaves
    assert len(colorings(Diagram(3, (P(0, 0, 1, 2),)), z3linear)) == 9
    with pytest.raises(MathError):
        colorings(Diagram(3, ()), z3linear)


def test_an_oversized_join_is_refused_before_it_is_built(monkeypatch, z3linear):
    # without correspondence pairs, every coloring of one crossing-free
    # diagram matches every coloring of the other: 9 x 9 pairs
    d = Diagram(2, ())
    cols = colorings(d, z3linear)
    assert len(join_colorings(d, d, cols, cols, [])) == 81
    monkeypatch.setattr(ktq.diagram, "MAX_LEAVES", 80)
    with pytest.raises(MathError, match="81 coloring pairs, more than 80"):
        join_colorings(d, d, cols, cols, [])
    # a pair splits the hash groups: 9 groups of 3 x 3
    assert len(join_colorings(d, d, cols, cols, [(0, 1)])) == 27
