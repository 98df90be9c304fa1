"""The record types are immutable values: equal fields make equal, equally
hashed records, and construction validates what it is given."""

import pytest

from ktq.algebra import A3Report, ValidationReport
from ktq.diagram import Crossing, Diagram
from ktq.errors import FormatError
from ktq.homology import NAMED_VARIANTS, HomologyVariant, _reduction
from ktq.intlinalg import AbelianGroup
from ktq.invariants import GroupRingElement

from conftest import load_algebra


def _records():
    cross = Crossing("P", (0, 1, 2, 3))
    return [
        ValidationReport(True),
        A3Report(True, True),
        load_algebra("z3linear.ktq"),
        HomologyVariant(),
        AbelianGroup(0),
        cross,
        Diagram(4, (cross,)),
        GroupRingElement.from_dict(3, {0: 2, 1: 1}),
    ]


def test_records_built_separately_are_equal_and_hash_equal():
    for a, b in zip(_records(), _records()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert HomologyVariant() == NAMED_VARIANTS["plain"]
    assert hash(HomologyVariant()) == hash(NAMED_VARIANTS["plain"])
    assert HomologyVariant("D") != NAMED_VARIANTS["plain"]


def test_equal_records_share_the_relation_lattice_cache(cleared_caches):
    first = _reduction(load_algebra("z3linear.ktq"), 1, HomologyVariant("D"))
    again = _reduction(load_algebra("z3linear.ktq"), 1, NAMED_VARIANTS["N"])
    assert again is first
    assert _reduction.cache_info().hits == 1


def test_records_are_immutable():
    names = ["ok", "a3l", "t", "relators", "free_rank", "kind", "crossings", "coeffs"]
    for rec, name in zip(_records(), names):
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_record_defaults_and_repr():
    assert ValidationReport(True) == ValidationReport(True, None, None, None)
    assert A3Report(False, True).a3l_witness is None
    assert AbelianGroup(0).torsion == ()
    assert repr(AbelianGroup(2, (3,))) == "AbelianGroup(free_rank=2, torsion=(3,))"
    assert repr(HomologyVariant()) == (
        "HomologyVariant(relators='none', mode='quotient', diff_kind='full')"
    )
    assert repr(Crossing("M", (0, 1, 0, 1))) == "Crossing(kind='M', corners=(0, 1, 0, 1))"


def test_invalid_records_are_refused():
    with pytest.raises(ValueError, match="unknown differential kind 'LR'"):
        HomologyVariant(diff_kind="LR")
    with pytest.raises(FormatError, match="exactly four regions"):
        Crossing("P", (0, 1, 2))
    with pytest.raises(FormatError, match="region index 3 out of range"):
        Diagram(3, (Crossing("P", (0, 1, 2, 3)),))
