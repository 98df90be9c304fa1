from itertools import product

import pytest

import ktq.algebra
from ktq import FormatError, MathError
from ktq.algebra import (
    OpTable,
    affine_table,
    canonical_form,
    check_a3,
    classify,
    derive_divisions,
    enumerate_ktqs,
    hat,
    parse_algebra,
    serialize_algebra,
    validate_quasigroup,
)

from conftest import fixture_text


def test_optable_call_matches_from_function():
    t = OpTable.from_function(3, lambda x, y, z: (x + 2 * y + z) % 3)
    for x, y, z in product(range(3), repeat=3):
        assert t(x, y, z) == (x + 2 * y + z) % 3


def test_optable_rejects_out_of_range_entries():
    with pytest.raises(FormatError):
        OpTable(2, (0, 1, 1, 0, 1, 0, 0, 2))
    with pytest.raises(FormatError, match="order must be a positive integer"):
        affine_table(0, 1, 1, 1)


def test_serialize_parse_roundtrip():
    t = affine_table(5, 2, 3, 1)
    assert parse_algebra(serialize_algebra(t)).values == t.values


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse_algebra("ktq 2\n0 1\n0 x\n0 1\n1 0\n")
    with pytest.raises(FormatError):
        parse_algebra("nope 2\n")
    with pytest.raises(FormatError):
        parse_algebra("ktq 2\n0 1\n")  # truncated


def test_validate_quasigroup_accepts_affine_units():
    assert validate_quasigroup(affine_table(5, 2, 3, 1)).ok
    assert validate_quasigroup(affine_table(3, 1, 1, 1)).ok


def test_validate_quasigroup_reports_failing_slot():
    # beta = 2 is not a unit mod 4
    rep = validate_quasigroup(affine_table(4, 1, 2, 1))
    assert not rep.ok
    assert rep.slot == 1
    assert rep.quad_a[3] == rep.quad_b[3]


def test_derive_divisions_satisfies_all_six_identities():
    t = affine_table(5, 2, 3, 1)
    l, m, r = derive_divisions(t)
    for a, b, c in product(range(5), repeat=3):
        d = t(a, b, c)
        assert l(d, b, c) == a
        assert m(a, d, c) == b
        assert r(a, b, d) == c
        assert t(l(a, b, c), b, c) == a
        assert t(a, m(a, b, c), c) == b
        assert t(a, b, r(a, b, c)) == c


def test_derive_divisions_rejects_non_quasigroup():
    with pytest.raises(MathError):
        derive_divisions(affine_table(4, 1, 2, 1))


def test_check_a3_on_linear_iktq():
    rep = check_a3(affine_table(3, 1, 2, 1))
    assert rep.a3l and rep.a3r


def test_check_a3_rejects_plain_sum_mod3():
    # x + y + z mod 3 is a quasigroup but not a KTQ
    rep = check_a3(affine_table(3, 1, 1, 1))
    assert not (rep.a3l and rep.a3r)
    assert rep.a3l_witness is not None or rep.a3r_witness is not None


def test_classify_flags(z3linear, z5affine, z3sum, order1):
    assert z3linear.is_iktq and z3linear.is_ktq and z3linear.is_involutory
    assert z5affine.is_ktq and not z5affine.is_involutory and not z5affine.is_iktq
    assert z3sum.is_quasigroup and not z3sum.is_ktq
    assert order1.is_iktq


def test_classify_checks_the_quasigroup_property_once(monkeypatch):
    calls = []
    check = ktq.algebra.validate_quasigroup
    monkeypatch.setattr(
        ktq.algebra, "validate_quasigroup", lambda t: calls.append(t) or check(t)
    )
    for t in (affine_table(3, 1, 2, 1), affine_table(4, 1, 2, 1)):
        calls.clear()
        q = classify(t)
        assert len(calls) == 1
        assert (q.l is None) == (not q.is_quasigroup)
    assert not q.is_quasigroup and not q.is_involutory


def test_classify_affine_family():
    # (alpha, beta, gamma) with beta = -alpha*gamma... the linear IKTQ shape:
    # x - y + z works over every modulus
    for n in (2, 3, 4, 5, 7):
        q = classify(affine_table(n, 1, n - 1, 1))
        assert q.is_iktq, n


def test_hat_is_an_involution():
    t = affine_table(5, 2, 3, 1)
    assert hat(hat(t)).values == t.values
    for x, y, z in product(range(5), repeat=3):
        assert hat(t)(x, y, z) == t(z, y, x)


def test_hat_of_ktq_is_ktq(z5affine):
    q = classify(hat(z5affine.t))
    assert q.is_ktq


def test_enumerate_order1_and_order2():
    assert len(enumerate_ktqs(1, filt="all_quasigroups")) == 1
    two = enumerate_ktqs(2, filt="iktq")
    assert [t.values for t in two] == [
        (0, 1, 1, 0, 1, 0, 0, 1),
        (1, 0, 0, 1, 0, 1, 1, 0),
    ]


def test_enumerate_order3_counts():
    assert len(enumerate_ktqs(3, filt="all_quasigroups")) == 24
    assert len(enumerate_ktqs(3, filt="ktq")) == 12
    assert len(enumerate_ktqs(3, filt="iktq")) == 6
    assert len(enumerate_ktqs(3, filt="ktq", dedup=True)) == 7


def test_enumerate_refuses_large_orders():
    # one past each filter's largest order, and an absurd order
    for filt, n in (("all_quasigroups", 5), ("ktq", 6), ("iktq", 7), ("ktq", 10 ** 20)):
        with pytest.raises(MathError, match="the largest order the %s filter" % filt):
            enumerate_ktqs(n, filt=filt)
    # both order-2 Latin tables are KTQs
    assert len(enumerate_ktqs(2, filt="all_quasigroups")) == 2
    assert len(enumerate_ktqs(2, filt="ktq")) == 2


def test_canonical_form_is_relabeling_invariant():
    t = affine_table(3, 1, 2, 1)
    # relabel through the 3-cycle 0->1->2->0
    perm = (1, 2, 0)
    inv = (2, 0, 1)
    relabeled = OpTable.from_function(
        3, lambda x, y, z: perm[t(inv[x], inv[y], inv[z])]
    )
    assert canonical_form(t) == canonical_form(relabeled)


def test_fixture_headers_parse(z3linear):
    assert z3linear.order == 3
    # comments and blank lines are tolerated
    text = "# padded\n\n" + fixture_text("z3linear.ktq")
    assert parse_algebra(text).values == z3linear.t.values
