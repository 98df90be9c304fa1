"""Checks of the benchmark itself: the braid-closure generator, the oracles,
failure counting and the tracer.  Run with

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from gen import Letter, closure, count_colorings, linear_form, move_pair  # noqa: E402
from ktq import classify, parse_algebra, parse_correspondence, parse_diagram  # noqa: E402
from ktq.chains import boundary  # noqa: E402
from ktq.diagram import associated_chain, brute_force_colorings, colorings  # noqa: E402
from ktq.homology import NAMED_VARIANTS  # noqa: E402
from ktq.invariants import invariant_report  # noqa: E402

import run  # noqa: E402
from workloads import Job, expect_invariance, expect_text, make_jobs  # noqa: E402


def fixture(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def z3():
    text = fixture("z3linear.ktq")
    return classify(parse_algebra(text)), linear_form(text)


@pytest.fixture(scope="module")
def z5():
    text = fixture("z5affine.ktq")
    return classify(parse_algebra(text)), linear_form(text)


def test_closure_encodes_the_r3_fixtures():
    s1, s2 = 1, 2
    before = closure(3, [Letter(0, s1, 1), Letter(1, s2, 1), Letter(2, s1, 1)])
    after = closure(3, [Letter(0, s2, 1), Letter(1, s1, 1), Letter(2, s2, 1)])
    assert parse_diagram(before.text()) == parse_diagram(fixture("r3_before.dg"))
    assert parse_diagram(after.text()) == parse_diagram(fixture("r3_after.dg"))


def test_flat_closure_encodes_the_fr3_fixture():
    word = [Letter(0, 1, 1), Letter(1, 2, -1), Letter(2, 1, 1)]
    assert parse_diagram(closure(3, word, flat=True).text()) == parse_diagram(fixture("fr3_before.dg"))


@pytest.mark.parametrize("flat", [False, True])
def test_solver_matches_brute_force_and_chains_are_cycles(z3, flat):
    X, form = z3
    rng = random.Random(7)
    for trial in range(20):
        strands = rng.choice((2, 3))
        word = [Letter(i, rng.randrange(1, strands), rng.choice((1, -1)))
                for i in range(rng.randrange(1, 6))]
        d = parse_diagram(closure(strands, word, flat).text())
        found = colorings(d, X)
        assert found == brute_force_colorings(d, X)
        assert len(found) == count_colorings(closure(strands, word, flat), *form)
        for col in found:
            assert not boundary(X, associated_chain(d, X, col), "full")


def test_count_oracle_on_z5(z5):
    X, form = z5
    rng = random.Random(3)
    for _ in range(5):
        after, before, _ = move_pair(rng, "R3", 3, 4, False)
        for c in (after, before):
            assert count_colorings(c, *form) == len(colorings(parse_diagram(c.text()), X))


@pytest.mark.parametrize("move", ["R2", "R3"])
@pytest.mark.parametrize("flat", [False, True])
def test_generated_move_pairs_are_consistent_with_invariance(z3, z5, move, flat):
    X, form = z3 if flat else z5
    variant = NAMED_VARIANTS["NI" if flat else "N"]
    rng = random.Random(11)
    for _ in range(5):
        after, before, corr = move_pair(rng, move, 3, 6, flat)
        pairs = parse_correspondence("\n".join("%d %d" % p for p in corr))
        rows = dict(invariant_report(parse_diagram(after.text()), parse_diagram(before.text()),
                                     X, variant=variant, correspondence=pairs))
        assert rows["verdict"] == "consistent with invariance"
        assert rows["classes.equal"] == "yes"
        assert rows["classes.checked"] == str(count_colorings(after, *form))


def test_invariance_oracle_reads_state_sum_totals():
    good = ("colorings.first 9\ncolorings.second 9\nclasses.checked 9\nclasses.equal yes\n"
            "statesum.0.first 3*[0] + 6*[1]\nstatesum.0.second 3*[0] + 6*[1]\n"
            "statesum.0.equal yes\nverdict consistent with invariance\n")
    assert expect_invariance(9)(good) == []
    assert expect_invariance(9)(good.replace("6*[1]\nstatesum.0.second", "5*[1]\nstatesum.0.second"))
    assert expect_invariance(27)(good)


def test_wrong_expected_value_is_a_failure_and_the_run_goes_on(tmp_path):
    argv = ["homology", "fixtures/z3linear.ktq", "--degree", "1"]
    jobs = [Job("wrong", argv, expect_text("Z^10")), Job("right", argv, expect_text("Z^9")),
            Job("crash", ["homology", "fixtures/missing.ktq", "--degree", "1"], expect_text("Z"))]
    sets = run.run_sets(jobs, random.Random(0), str(tmp_path), False, 0)
    results = {r.name: r for _, rs in sets for r in rs}
    assert len(sets) == 1 and set(results) == {"wrong", "right", "crash"}
    assert results["wrong"].problems and results["crash"].problems
    assert results["right"].problems == []
    assert results["right"].setup > 0


def test_traced_job_accounts_for_its_time(tmp_path):
    report = tmp_path / "report.json"
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "job.py"), str(report), "1", "--",
         "compare", "fixtures/z3linear.ktq", "fixtures/fr3_after.dg", "fixtures/fr3_before.dg",
         "--variant", "NI", "--correspondence", "fixtures/fr3.corr", "--mod", "3"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert "verdict consistent with invariance" in out.stdout
    trace = json.loads(report.read_text())["trace"]
    job = trace["total"]["cli.main"]
    assert abs(sum(trace["layers"].values()) - job) < 0.05 * job
    assert min(trace["self"].values()) > -1e-3
    assert trace["counts"]["diagram.colorings.calls"] > 0
    assert trace["counts"]["homology.checker_equal.calls"] == trace["counts"]["diagram.matched.pairs"]


def test_seed_fixes_the_compare_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = make_jobs("compare", ROOT, str(a), 5)
    second = make_jobs("compare", ROOT, str(b), 5)
    for j1, j2 in zip(first, second):
        for p1, p2 in zip(j1.argv, j2.argv):
            if p1.endswith((".dg", ".corr")):
                assert open(p1).read() == open(p2).read()


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end([(1.0, [
        run.JobResult("j", 1.0, 0.1, 10.0, [], None)])]))
    traced = set(run.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
