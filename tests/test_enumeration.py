"""The forward-checked enumeration against the brute-force oracle in
tests/enumeration_oracle.py, the order-4 and order-5 results frozen, and
the axiom evaluator, the lex-leader test and the canonical form against
literal definitions."""

import hashlib
import io
import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import enumeration_oracle as oracle
from ktq.algebra import (
    FAILS,
    FILTER_AXIOMS,
    HOLDS,
    OpTable,
    _checked_latin_tables,
    _evaluate_relabeling,
    _relabelings,
    affine_table,
    canonical_form,
    check_a3,
    classify,
    enumerate_ktqs,
)
from ktq.cli import cli_main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FILTERS = ("all_quasigroups", "ktq", "iktq")


@lru_cache(maxsize=None)
def order4(filt, dedup):
    return [t.values for t in enumerate_ktqs(4, filt, dedup)]


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out)
    return code, out.getvalue()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("dedup", [False, True])
def test_enumeration_matches_the_brute_force_oracle(n, filt, dedup):
    expect = [t.values for t in oracle.enumerate_ktqs(n, filt, dedup)]
    assert [t.values for t in enumerate_ktqs(n, filt, dedup)] == expect
    # the search alone: lex-leader pruning leaves only least tables
    least = [t.values for t in oracle.enumerate_ktqs(n, filt, True)]
    assert list(_checked_latin_tables(n, FILTER_AXIOMS[filt])) == least


@pytest.mark.parametrize("filt, dedup, count", [
    ("all_quasigroups", False, 55296),
    ("all_quasigroups", True, 2589),
    ("ktq", True, 37),
    ("ktq", False, 168),
    ("iktq", True, 16),
    ("iktq", False, 72),
])
def test_order4_counts(filt, dedup, count):
    tables = order4(filt, dedup)
    assert len(tables) == count
    assert tables == sorted(set(tables))
    # the search alone, before enumerate_ktqs asks canonical_form
    assert list(_checked_latin_tables(4, FILTER_AXIOMS[filt])) == order4(filt, True)


def test_order4_latin_dedup_digest():
    # the 2,589 least Latin tables of order 4, frozen before lex-leader pruning
    digest = hashlib.sha256(repr(order4("all_quasigroups", True)).encode()).hexdigest()
    assert digest == "1dfda2f6be0a524bba0f3a8f15889b8edec721119325c9180dc64c626ed61209"


def test_order5_iktq_dedup_output_digest():
    # the 5 IKTQs of order 5 up to relabeling, frozen before lex-leader pruning
    code, out = run_cli("enumerate", "--order", "5", "--max-order", "5", "--filter", "iktq", "--dedup")
    assert code == 0 and out.endswith("# count 5\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "031798c133949842a29d8f2c77d7da40689876a80e2f4ea7519af43c1d525c7f"
    )


def test_order5_iktq_dedup_holds_exactly_the_affine_iktqs_over_z5():
    # as over Z4, T = ax + by + cz is a KTQ iff b = -ac, an IKTQ iff also b = -1
    units = list(product(range(1, 5), repeat=3))
    tables = {u: affine_table(5, *u) for u in units}
    iktq = [u for u in units if classify(tables[u]).is_iktq]
    assert iktq == [(a, 4, c) for a, c in product(range(1, 5), repeat=2) if a * c % 5 == 1]
    forms = {u: canonical_form(tables[u]) for u in units}
    found = {t.values for t in enumerate_ktqs(5, "iktq", True, max_order=5)}
    assert {forms[u] for u in iktq} == found & set(forms.values())


# the sha256 of the output of the benchmark's enumerate jobs
@pytest.mark.parametrize("filt, digest", [
    ("ktq", "46cca30bfb828147593d68dcf4cf350d839dafcd1f9f3b01a7739fc8eeae7f40"),
    ("iktq", "c4b4bd486d5390b011197d4d68c12205695814739f950c2cb8a3ccc0d5cad797"),
])
def test_order4_dedup_output_digest(filt, digest):
    code, out = run_cli("enumerate", "--order", "4", "--filter", filt, "--dedup")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the sha256 of `ktq enumerate` stdout without --dedup, frozen while the
# search without dedup still ran unpruned
@pytest.mark.parametrize("n, filt, digest", [
    (1, "all_quasigroups", "f5c7676a4311e6a54f3d3764a87f28294c8f7be70e42f22fcfba9c9eb98fd042"),
    (1, "ktq", "f5c7676a4311e6a54f3d3764a87f28294c8f7be70e42f22fcfba9c9eb98fd042"),
    (1, "iktq", "f5c7676a4311e6a54f3d3764a87f28294c8f7be70e42f22fcfba9c9eb98fd042"),
    (2, "all_quasigroups", "16c11b4a9c60e7a6c6a51df58a970e0ba61130fa8a8b7c4ef846b57076d0cb2a"),
    (2, "ktq", "16c11b4a9c60e7a6c6a51df58a970e0ba61130fa8a8b7c4ef846b57076d0cb2a"),
    (2, "iktq", "16c11b4a9c60e7a6c6a51df58a970e0ba61130fa8a8b7c4ef846b57076d0cb2a"),
    (3, "all_quasigroups", "6f6aebaf10aa92c12271466075bbd6da30cc1700c81fd9717c85793e679e6029"),
    (3, "ktq", "c6eaebc4e3b5fbc27a7979eed39a937f7ff8e15d8359091d8a6589a66891f617"),
    (3, "iktq", "3c6c261dd918d69bf36df87b55dc577414e98176f1c24c02c5b467c220bc5263"),
    (4, "all_quasigroups", "ba7badbed717f24596f07a20caea67952a73a330fa43adaac4ca83bf73cbb058"),
    (4, "ktq", "46ebee2de9e5ad8fd1fcaabb1c93e4b25de3e62accd396a80b95adefdceae5cc"),
    (4, "iktq", "075d001901eec3f84441ffb4972b9f2d6d47a85e1d6e80e577872da6adcb6560"),
    (5, "iktq", "25dd5e18406b11f440e364e9d4c2efb997e85c196a897fafe82a9551adc7002a"),
])
def test_enumerate_output_digest_without_dedup(n, filt, digest):
    code, out = run_cli("enumerate", "--order", str(n), "--max-order", "5", "--filter", filt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_order4_contains_exactly_the_affine_ktqs_over_z4():
    # T = ax + by + cz over Z4 satisfies A3L iff b = -ac, by comparing the
    # coefficients of the two sides; it is involutory iff moreover b = -1
    units = [(a, b, c) for a, b, c in product((1, 3), repeat=3)]
    ktq = [u for u in units if (u[1] + u[0] * u[2]) % 4 == 0]
    iktq = [u for u in ktq if u[1] == 3]
    assert ktq == [(1, 1, 3), (1, 3, 1), (3, 1, 1), (3, 3, 3)]
    assert iktq == [(1, 3, 1), (3, 3, 3)]
    for u in units:
        values = affine_table(4, *u).values
        assert (values in order4("ktq", False)) == (u in ktq), u
        assert (values in order4("iktq", False)) == (u in iktq), u


def relabel(values, n, perm):
    """The table perm(T(perm^-1 x, perm^-1 y, perm^-1 z)), by definition."""
    t, inv = OpTable(n, values), [perm.index(x) for x in range(n)]
    return OpTable.from_function(n, lambda x, y, z: perm[t(inv[x], inv[y], inv[z])]).values


@pytest.mark.parametrize("filt", ["ktq", "iktq"])
def test_order4_output_is_the_orbits_of_the_dedup_list(filt):
    # beyond the oracle's reach: relabelings, canonical forms and
    # automorphism groups by brute force
    tables, least = order4(filt, False), order4(filt, True)
    assert {oracle.canonical_form(OpTable(4, v)) for v in tables} <= set(least)
    perms = list(permutations(range(4)))
    assert {relabel(v, 4, perm) for v in tables for perm in perms} == set(tables)
    automorphisms = [sum(relabel(v, 4, perm) == v for perm in perms) for v in least]
    assert len(tables) == sum(24 // a for a in automorphisms)


LATIN = list(oracle.latin_tables(3)) + [
    affine_table(4, a, b, c) for a, b, c in product((1, 3), repeat=3)
]


@st.composite
def tables(draw):
    """Tables of order at most 4: arbitrary ones (almost never Latin), and
    relabelings of Latin tables (the order-3 ones and the unit affine
    tables of order 4)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return OpTable(n, draw(st.lists(st.integers(0, n - 1), min_size=n ** 3, max_size=n ** 3)))
    t = draw(st.sampled_from(LATIN))
    perm = draw(st.permutations(range(t.order)))
    inv = [perm.index(x) for x in range(t.order)]
    return OpTable.from_function(t.order, lambda x, y, z: perm[t(inv[x], inv[y], inv[z])])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=tables())
def test_canonical_form_is_the_least_relabeling(t):
    assert canonical_form(t) == oracle.canonical_form(t)


def refused(values, n, k):
    """Whether a non-identity relabeling refuses the first k entries of a
    table of order n, the others unfilled."""
    v = list(values[:k]) + [None] * (n ** 3 - k)
    outcomes = [_evaluate_relabeling(v, n, perm, src) for perm, src in _relabelings(n)[1:]]
    for r in outcomes:  # decided, or waiting on an unfilled entry
        assert r in (HOLDS, FAILS) or k <= r < n ** 3
    return FAILS in outcomes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=tables())
def test_lex_leader_test_refuses_only_prefixes_of_non_least_tables(t):
    smaller = oracle.canonical_form(t) < t.values
    for k in range(len(t.values)):
        assert smaller or not refused(t.values, t.order, k), k
    # exact on the full table
    assert refused(t.values, t.order, len(t.values)) == smaller


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=tables())
def test_check_a3_matches_the_literal_equations(t):
    rep = check_a3(t)
    assert (rep.a3l, rep.a3r, rep.a3l_witness, rep.a3r_witness) == oracle.check_a3(t)


TRACED_JOBS = {
    "enumerate": ["enumerate", "--order", "3", "--filter", "ktq", "--dedup"],
    "homology": ["homology", "fixtures/z3linear.ktq", "--degree", "2", "--relators", "D"],
    "compare": ["compare", "fixtures/z3linear.ktq", "fixtures/fr3_after.dg",
                "fixtures/fr3_before.dg", "--variant", "NI",
                "--correspondence", "fixtures/fr3.corr", "--mod", "3"],
}


@pytest.mark.parametrize("job", list(TRACED_JOBS))
def test_traced_benchmark_job_matches_the_untraced_run(tmp_path, monkeypatch, job):
    # the benchmark's tracer patches ktq names and fails when one is missing
    argv = TRACED_JOBS[job]
    report = tmp_path / "report.json"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "job.py"), str(report), "1", "--"] + argv,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(ROOT)  # the argv names fixtures relative to the checkout
    assert proc.stdout == run_cli(*argv)[1]
    trace = json.loads(report.read_text())["trace"]
    if job == "enumerate":
        assert "algebra.enumerate" in trace["total"]
        assert "algebra.canonical_form" in trace["total"]
    elif job == "homology":
        # ktq.cli binds homology on first lookup; the tracer wraps it there
        assert "homology.homology" in trace["total"]
        assert trace["counts"]["homology.homology.calls"] == 1
    else:
        # one class check per matched pair, both seen by the tracer
        assert "homology.checker_init" in trace["total"]
        counts = trace["counts"]
        assert counts["homology.checker_equal.calls"] == counts["diagram.matched.pairs"] > 0
