"""The input readers: every parser returns an object or raises FormatError,
whatever the text, and parse(serialize(x)) == x for valid objects."""

import pytest
from hypothesis import given, settings, strategies as st

from ktq import FormatError
from ktq.algebra import OpTable, parse_algebra, serialize_algebra
from ktq.diagram import parse_correspondence, parse_diagram, serialize_diagram
from ktq.homology import Cochain, parse_cocycle, serialize_cocycle

from test_diagram import small_diagrams

PARSERS = [parse_algebra, parse_diagram, parse_correspondence, parse_cocycle]

TOKENS = [
    "ktq", "diagram", "cocycle", "correspondence", "P", "N", "F", "M", "Q",
    "->", "#", "0", "1", "2", "3", "4", "-1", "27", "x", "1.5", "",
]

token_soup = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=7).map(" ".join), max_size=8
).map("\n".join)


def parses_or_refuses(text):
    for parse in PARSERS:
        try:
            parse(text)
        except FormatError:
            pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text())
def test_any_text_parses_or_raises_format_error(text):
    parses_or_refuses(text)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(text=token_soup)
def test_token_soup_parses_or_raises_format_error(text):
    parses_or_refuses(text)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 3))
    return OpTable(n, draw(st.lists(st.integers(0, n - 1), min_size=n ** 3, max_size=n ** 3)))


@st.composite
def cochains(draw):
    m = draw(st.integers(2, 7))
    triples = st.tuples(*[st.integers(0, 4)] * 3)
    return Cochain(m, draw(st.dictionaries(triples, st.integers(-10, 10))))


@pytest.mark.parametrize(
    "objects, serialize, parse",
    [
        (tables(), serialize_algebra, parse_algebra),
        (small_diagrams(), serialize_diagram, parse_diagram),
        (cochains(), serialize_cocycle, parse_cocycle),
    ],
    ids=["algebra", "diagram", "cocycle"],
)
def test_parse_inverts_serialize(objects, serialize, parse):
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(x=objects)
    def roundtrip(x):
        assert parse(serialize(x)) == x

    roundtrip()


def test_errors_name_the_line():
    cases = [
        (parse_algebra, "# table\nktq 2\n0 1\n0 x 1\n", "line 4:"),
        (parse_algebra, "\nnope 2\n", "line 2:"),
        (parse_diagram, "diagram 3\n\nQ 0 1 2 0\n", "line 3: unknown crossing kind"),
        (parse_diagram, "diagram 3\nP 0 1 2\n", "line 2:"),
        (parse_cocycle, "cocycle 3\n0 0 0 => 1\n", "line 2:"),
        (parse_correspondence, "correspondence\n0 1\n0 1 2\n", "line 3:"),
    ]
    for parse, text, expected in cases:
        with pytest.raises(FormatError) as e:
            parse(text)
        assert str(e.value).startswith(expected), (text, str(e.value))


def test_correspondence_header_is_optional_and_skipped_anywhere():
    assert parse_correspondence("0 1\ncorrespondence\n2 3 # pair\n") == [(0, 1), (2, 3)]
    assert parse_correspondence("") == []


def test_cocycle_modulus_below_two_is_a_format_error():
    with pytest.raises(FormatError):
        parse_cocycle("cocycle 1\n")
