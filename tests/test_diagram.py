import pytest
from hypothesis import given, settings, strategies as st

from ktq import FormatError, MathError
from ktq.chains import boundary
from ktq.diagram import (
    Crossing,
    Diagram,
    associated_chain,
    brute_force_colorings,
    colorings,
    is_valid_coloring,
    matched_colorings,
    parse_correspondence,
    parse_diagram,
    serialize_diagram,
)

from conftest import load_correspondence, load_diagram

ALL_DIAGRAMS = [
    "unknot0.dg",
    "kink.dg",
    "fkink.dg",
    "trefoil.dg",
    "marker.dg",
    "r2par_before.dg",
    "r2par_after.dg",
    "r2anti_before.dg",
    "r2anti_after.dg",
    "r3_before.dg",
    "r3_after.dg",
    "fr2_before.dg",
    "fr2par_after.dg",
    "fr2anti_after.dg",
    "fr3_before.dg",
    "fr3_after.dg",
]


def test_parse_serialize_roundtrip():
    for name in ALL_DIAGRAMS:
        d = load_diagram(name)
        assert parse_diagram(serialize_diagram(d)) == d


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        parse_diagram("diagram 2\nP 0 1 2 0\n")
    assert "line 2" in str(e.value)
    with pytest.raises(FormatError):
        parse_diagram("P 0 1 0 1\n")  # missing header
    with pytest.raises(FormatError):
        parse_diagram("diagram 3\nQ 0 1 2 0\n")
    with pytest.raises(FormatError):
        parse_diagram("")


def test_flat_classical_mixing_rejected():
    with pytest.raises(FormatError):
        parse_diagram("diagram 4\nP 0 1 2 3\nF 0 1 2 3\n")
    with pytest.raises(FormatError):
        Diagram(4, (Crossing("F", (0, 1, 2, 3)), Crossing("N", (0, 1, 2, 3))))
    # markers may accompany either kind
    parse_diagram("diagram 4\nF 0 1 2 3\nM 0 1 2 3\n")


def test_crossing_validation():
    with pytest.raises(FormatError):
        Crossing("Z", (0, 1, 2, 3))
    with pytest.raises(FormatError):
        Diagram(0, ())


def test_solver_matches_brute_force_on_all_fixtures(z3linear, z5affine):
    for name in ALL_DIAGRAMS:
        d = load_diagram(name)
        algebras = [z3linear] if d.is_flat else [z3linear, z5affine]
        for X in algebras:
            got = colorings(d, X)
            assert got == brute_force_colorings(d, X), (name, X.order)
            assert got == sorted(got)  # lexicographic order


@st.composite
def small_diagrams(draw):
    """At most 6 regions and 5 crossings: P/N or F crossings with M markers,
    corners drawn independently, so repeated corners occur."""
    n = draw(st.integers(1, 6))
    kinds = ("F", "M") if draw(st.booleans()) else ("P", "N", "M")
    corners = st.tuples(*[st.integers(0, n - 1)] * 4)
    crossings = draw(st.lists(st.builds(Crossing, st.sampled_from(kinds), corners), max_size=5))
    return Diagram(n, tuple(crossings))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(d=small_diagrams())
def test_solver_matches_brute_force_on_small_diagrams(d, order1, z2sum, z3linear, z5affine):
    algebras = [order1, z2sum, z3linear] + ([] if d.is_flat else [z5affine])
    for X in algebras:
        assert colorings(d, X) == brute_force_colorings(d, X), (d, X.order)


def test_specific_coloring_counts(z3linear, z5affine):
    assert len(colorings(load_diagram("trefoil.dg"), z3linear)) == 3
    assert len(colorings(load_diagram("unknot0.dg"), z3linear)) == 9
    assert len(colorings(load_diagram("unknot0.dg"), z5affine)) == 25
    assert len(colorings(load_diagram("kink.dg"), z3linear)) == 9
    assert len(colorings(load_diagram("marker.dg"), z3linear)) == 3


def test_flat_requires_iktq(z5affine):
    with pytest.raises(MathError):
        colorings(load_diagram("fkink.dg"), z5affine)


def test_coloring_requires_quasigroup(z3sum):
    # z3sum is a quasigroup, so colorings work; a non-quasigroup must fail
    from ktq.algebra import affine_table, classify

    bad = classify(affine_table(4, 1, 2, 1))
    with pytest.raises(MathError):
        colorings(load_diagram("unknot0.dg"), bad)


def test_is_valid_coloring(z3linear):
    d = load_diagram("trefoil.dg")
    for col in colorings(d, z3linear):
        assert is_valid_coloring(d, z3linear, col)
    assert not is_valid_coloring(d, z3linear, (0, 1, 2))


def test_marker_constraint(z3linear):
    d = load_diagram("marker.dg")
    for col in colorings(d, z3linear):
        m = next(c for c in d.crossings if c.kind == "M")
        p, q, p2, q2 = m.corners
        assert col[p] == col[p2] and col[q] == col[q2]


def test_associated_chain_is_cycle_everywhere(z3linear, z5affine):
    for name in ALL_DIAGRAMS:
        d = load_diagram(name)
        algebras = [z3linear] if d.is_flat else [z3linear, z5affine]
        for X in algebras:
            for col in colorings(d, X):
                c = associated_chain(d, X, col)
                assert not boundary(X, c, "full")


def test_associated_chain_rejects_invalid_coloring(z3linear):
    with pytest.raises(MathError):
        associated_chain(load_diagram("trefoil.dg"), z3linear, (0, 1, 2))


def test_associated_chain_rejects_non_cycles(z3linear):
    # a lone crossing does not close up: its chain (0, 0, 1) has a boundary
    d = parse_diagram("diagram 4\nP 0 1 2 3\n")
    col = (0, 0, 1, z3linear.t(0, 0, 1))
    assert is_valid_coloring(d, z3linear, col)
    with pytest.raises(MathError):
        associated_chain(d, z3linear, col)


def test_associated_chain_signs(z3linear):
    d = load_diagram("r2par_after.dg")  # one P and one N with equal corners
    for col in colorings(d, z3linear):
        assert not associated_chain(d, z3linear, col)


def test_correspondence_parsing_and_matching(z3linear):
    pairs = load_correspondence("r3.corr")
    assert pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]
    with pytest.raises(FormatError):
        parse_correspondence("0 1 2\n")
    d1 = load_diagram("r3_after.dg")
    d2 = load_diagram("r3_before.dg")
    matched = matched_colorings(d1, d2, z3linear, pairs)
    assert len(matched) == 27
    assert matched == [
        (c1, c2)
        for c1 in colorings(d1, z3linear)
        for c2 in colorings(d2, z3linear)
        if all(c1[i] == c2[j] for i, j in pairs)
    ]
