from collections import Counter

import pytest

import ktq.diagram
import ktq.invariants
from ktq import MathError
from ktq.diagram import associated_chain, colorings, matched_colorings
from ktq.homology import NAMED_VARIANTS, Cochain, HomologyClassChecker, two_cocycles
from ktq.invariants import (
    GroupRingElement,
    invariant_report,
    render_report,
    state_sum,
)

from conftest import load_algebra, load_correspondence, load_diagram


def test_group_ring_rendering():
    assert GroupRingElement.from_dict(3, {0: 9}).render() == "9*[0]"
    assert GroupRingElement.from_dict(3, {1: 6, 0: 3}).render() == "3*[0] + 6*[1]"
    assert GroupRingElement.from_dict(3, {}).render() == "0"
    assert GroupRingElement.from_dict(3, {2: 0}).render() == "0"
    e = GroupRingElement.from_dict(5, {0: 2, 3: 1})
    assert e.total() == 3
    assert e.as_dict() == {0: 2, 3: 1}


def test_state_sum_zero_cocycle(z3linear):
    phi = Cochain(3, {})
    s = state_sum(load_diagram("trefoil.dg"), z3linear, phi)
    assert s.render() == "3*[0]"
    s = state_sum(load_diagram("unknot0.dg"), z3linear, phi)
    assert s.render() == "9*[0]"


def test_state_sum_counts_all_colorings(z3linear):
    d = load_diagram("kink.dg")
    for phi in two_cocycles(z3linear, 3, NAMED_VARIANTS["N"]):
        assert state_sum(d, z3linear, phi).total() == 9


def test_state_sum_rejects_foreign_cocycle(z3linear):
    phi = Cochain(3, {(0, 1, 4): 1})
    with pytest.raises(MathError):
        state_sum(load_diagram("trefoil.dg"), z3linear, phi)


def test_marker_contributes_nothing(z3linear):
    d = load_diagram("marker.dg")
    # only diagonal colorings; every crossing triple is (t,t,t)
    phi = Cochain(3, {(t, t, t): 1 for t in range(3)})
    s = state_sum(d, z3linear, phi)
    assert s.as_dict() == {1: 3}


def test_invariant_report_consistent_pair(z3linear):
    rows = invariant_report(
        load_diagram("kink.dg"),
        load_diagram("unknot0.dg"),
        z3linear,
        variant=NAMED_VARIANTS["N"],
        correspondence=load_correspondence("kink_unknot.corr"),
        cocycles=two_cocycles(z3linear, 3, NAMED_VARIANTS["N"]),
    )
    d = dict(rows)
    assert d["colorings.equal"] == "yes"
    assert d["classes.equal"] == "yes"
    assert d["verdict"] == "consistent with invariance"
    assert rows[-1][0] == "verdict"


def test_invariant_report_distinguishes(z3linear):
    rows = dict(
        invariant_report(
            load_diagram("trefoil.dg"), load_diagram("unknot0.dg"), z3linear
        )
    )
    assert rows["colorings.first"] == "3"
    assert rows["colorings.second"] == "9"
    assert rows["verdict"] == "distinguished"


def test_invariant_report_refuses_a_foreign_cocycle_before_any_search(monkeypatch, z3linear):
    def refused_search(d, X):
        raise AssertionError("colorings searched")

    monkeypatch.setattr(ktq.invariants, "colorings", refused_search)
    phi = Cochain(3, {(0, 7, 1): 1})
    with pytest.raises(MathError, match="outside the algebra"):
        invariant_report(
            load_diagram("kink.dg"), load_diagram("unknot0.dg"), z3linear,
            correspondence=load_correspondence("kink_unknot.corr"), cocycles=[phi],
        )


def test_invariant_report_rejects_flat_vs_classical(z3linear):
    with pytest.raises(MathError):
        invariant_report(
            load_diagram("fkink.dg"), load_diagram("kink.dg"), z3linear
        )


def test_render_report_format():
    text = render_report([("a", "1"), ("verdict", "x y")])
    assert text == "a 1\nverdict x y\n"


# (after, before, correspondence, algebra, modulus, variants)
MOVES = [
    ("kink.dg", "unknot0.dg", "kink_unknot.corr", "z3linear", 3, ("N", "NI", "NID")),
    ("r2par_after.dg", "r2par_before.dg", "r2par.corr", "z3linear", 3, ("N", "NI", "NID")),
    ("r2anti_after.dg", "r2anti_before.dg", "r2anti.corr", "z3linear", 3, ("N", "NI", "NID")),
    ("r3_after.dg", "r3_before.dg", "r3.corr", "z3linear", 3, ("N", "NI", "NID")),
    ("r3_after.dg", "r3_before.dg", "r3.corr", "z5affine", 5, ("N",)),
    ("fr2par_after.dg", "fr2_before.dg", "fr2par.corr", "z3linear", 3, ("NI", "NID")),
    ("fr2anti_after.dg", "fr2_before.dg", "fr2anti.corr", "z3linear", 3, ("NI", "NID")),
    ("fr3_after.dg", "fr3_before.dg", "fr3.corr", "z3linear", 3, ("NI", "NID")),
]


def reference_rows(d1, d2, X, variant, pairs, cocycles):
    """The report assembled from the public per-diagram functions."""
    yn = {True: "yes", False: "no"}
    n1, n2 = len(colorings(d1, X)), len(colorings(d2, X))
    checker = HomologyClassChecker(X, variant)
    matched = matched_colorings(d1, d2, X, pairs)
    classes = all(
        [checker.equal(associated_chain(d1, X, c1), associated_chain(d2, X, c2))
         for c1, c2 in matched]
    )
    rows = [
        ("colorings.first", str(n1)),
        ("colorings.second", str(n2)),
        ("colorings.equal", yn[n1 == n2]),
        ("classes.checked", str(len(matched))),
        ("classes.equal", yn[classes]),
    ]
    sums = True
    for i, phi in enumerate(cocycles):
        s1, s2 = state_sum(d1, X, phi), state_sum(d2, X, phi)
        rows.append(("statesum.%d.first" % i, s1.render()))
        rows.append(("statesum.%d.second" % i, s2.render()))
        rows.append(("statesum.%d.equal" % i, yn[s1 == s2]))
        sums = sums and s1 == s2
    invariant = n1 == n2 and classes and sums
    rows.append(("verdict", "consistent with invariance" if invariant else "distinguished"))
    return rows


@pytest.mark.parametrize(
    "after,before,corr,alg,m,vname",
    [move[:5] + (v,) for move in MOVES for v in move[5]],
)
def test_report_searches_each_diagram_once(monkeypatch, after, before, corr, alg, m, vname):
    X = load_algebra(alg + ".ktq")
    d1, d2 = load_diagram(after), load_diagram(before)
    pairs = load_correspondence(corr)
    variant = NAMED_VARIANTS[vname]
    cocycles = two_cocycles(X, m, variant)
    expected = reference_rows(d1, d2, X, variant, pairs, cocycles)

    searches = []

    def counted(d, X):
        searches.append(d)
        return colorings(d, X)

    monkeypatch.setattr(ktq.invariants, "colorings", counted)
    monkeypatch.setattr(ktq.diagram, "colorings", counted)
    rows = invariant_report(
        d1, d2, X, variant=variant, correspondence=pairs, cocycles=cocycles
    )
    assert searches == [d1, d2]
    assert rows == expected


def test_report_builds_each_chain_once_and_checks_cycles_only_in_the_checker(
    monkeypatch, z3linear
):
    # the one-pair correspondence matches each of the 27 colorings of either
    # r3 diagram with 9 of the other's: 243 pairs from 54 associated chains
    d1, d2 = load_diagram("r3_after.dg"), load_diagram("r3_before.dg")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        ktq.invariants, "associated_chain", counted("associated_chain", associated_chain)
    )
    monkeypatch.setattr(
        HomologyClassChecker, "equal", counted("equal", HomologyClassChecker.equal)
    )
    for owner in (ktq.invariants, ktq.homology):
        monkeypatch.setattr(owner, "is_cycle", counted(owner.__name__, owner.is_cycle))
    rows = dict(invariant_report(
        d1, d2, z3linear, variant=NAMED_VARIANTS["N"], correspondence=[(0, 0)]
    ))
    assert rows["classes.checked"] == "243"
    # every cycle test is HomologyClassChecker.equal's, two per pair
    assert calls == {"associated_chain": 54, "equal": 243, "ktq.homology": 2 * 243}
