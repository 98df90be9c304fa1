import hashlib
import io
import os
import subprocess
import sys
import time

import pytest

import ktq.cli
import ktq.homology
from ktq.algebra import OpTable, affine_table, serialize_algebra
from ktq.cli import cli_main

from conftest import fixture_path

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out)
    return code, out.getvalue()


def test_verify_iktq():
    code, out = run("verify", fixture_path("z3linear.ktq"))
    assert code == 0
    assert out == "quasigroup: yes, A3L: yes, A3R: yes, involutory: yes (IKTQ)\n"


def test_verify_ktq_and_plain_quasigroup():
    code, out = run("verify", fixture_path("z5affine.ktq"))
    assert code == 0
    assert out == "quasigroup: yes, A3L: yes, A3R: yes, involutory: no (KTQ)\n"
    code, out = run("verify", fixture_path("z3sum.ktq"))
    assert code == 0
    assert out.startswith("quasigroup: yes, A3L: no")


def test_enumerate_counts():
    code, out = run("enumerate", "--order", "2", "--filter", "iktq")
    assert code == 0
    assert out.rstrip().endswith("# count 2")
    code, out = run("enumerate", "--order", "3", "--filter", "ktq", "--dedup")
    assert code == 0
    assert out.rstrip().endswith("# count 7")


def test_homology_command():
    code, out = run(
        "homology", fixture_path("z3linear.ktq"), "--degree", "1", "--relators", "D"
    )
    assert code == 0 and out == "Z^6\n"
    code, out = run(
        "homology", fixture_path("z3linear.ktq"), "--degree", "1",
        "--relators", "ID", "--mode", "quot",
    )
    assert code == 0 and out == "Z^3\n"


def test_color_command():
    code, out = run(
        "color", fixture_path("z3linear.ktq"), fixture_path("trefoil.dg"), "--list"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "colorings 3"
    assert lines[1:] == ["0 0 0", "1 1 1", "2 2 2"]


def test_color_command_on_a_deep_diagram(tmp_path):
    # 1,500 regions chained by crossings P i i i+1 i+1: the search branches
    # once per region, far past the interpreter's recursion limit
    dg = tmp_path / "deep.dg"
    dg.write_text("diagram 1500\n" + "".join(
        "P %d %d %d %d\n" % (i, i, i + 1, i + 1) for i in range(1499)
    ))
    assert run("color", fixture_path("order1.ktq"), str(dg)) == (0, "colorings 1\n")


def test_cocycles_command():
    code, out = run(
        "cocycles", fixture_path("z3linear.ktq"), "--mod", "3", "--relators", "ID"
    )
    assert code == 0
    assert out.startswith("# generators 7\n")
    assert "cocycle 3" in out


def test_statesum_command(tmp_path):
    coc = tmp_path / "zero.coc"
    coc.write_text("cocycle 3\n")
    code, out = run(
        "statesum",
        fixture_path("z3linear.ktq"),
        fixture_path("trefoil.dg"),
        str(coc),
    )
    assert code == 0 and out == "3*[0]\n"


def test_compare_command():
    code, out = run(
        "compare",
        fixture_path("z3linear.ktq"),
        fixture_path("r3_after.dg"),
        fixture_path("r3_before.dg"),
        "--variant", "N",
        "--correspondence", fixture_path("r3.corr"),
        "--mod", "3",
    )
    assert code == 0
    assert out.rstrip().endswith("verdict consistent with invariance")
    code, out = run(
        "compare",
        fixture_path("z3linear.ktq"),
        fixture_path("trefoil.dg"),
        fixture_path("unknot0.dg"),
    )
    assert code == 0
    assert out.rstrip().endswith("verdict distinguished")


def test_usage_errors_exit_1(capsys):
    assert run("no-such-command")[0] == 1
    assert run()[0] == 1
    assert run("homology", fixture_path("z3linear.ktq"))[0] == 1  # missing --degree
    assert run("enumerate", "--order", "x")[0] == 1
    # the work bound is the only bound on homology, and it has no override
    assert run(
        "homology", fixture_path("z3linear.ktq"), "--degree", "2", "--degree-cap", "9"
    )[0] == 1
    capsys.readouterr()


def test_format_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ktq"
    bad.write_text("ktq 2\n0 1\n")
    assert run("verify", str(bad))[0] == 2
    assert run("verify", str(tmp_path / "missing.ktq"))[0] == 2
    baddg = tmp_path / "bad.dg"
    baddg.write_text("diagram 2\nP 0 1 2 0\n")
    assert run("color", fixture_path("z3linear.ktq"), str(baddg))[0] == 2
    capsys.readouterr()
    latin1 = tmp_path / "latin1.ktq"
    latin1.write_bytes(b"ktq 1\n\xff\n")  # not UTF-8
    assert run("verify", str(latin1)) == (2, "")
    assert capsys.readouterr().err.startswith("input error: %s: 'utf-8' codec can't decode" % latin1)


def test_math_errors_exit_3(tmp_path, capsys):
    # I-relators need an involutory KTQ
    code, _ = run(
        "homology", fixture_path("z5affine.ktq"), "--degree", "1", "--relators", "I"
    )
    assert code == 3
    # flat diagram over a non-involutory algebra
    code, _ = run(
        "color", fixture_path("z5affine.ktq"), fixture_path("fkink.dg")
    )
    assert code == 3
    # degree over the work bound
    code, _ = run(
        "homology", fixture_path("z5affine.ktq"), "--degree", "3"
    )
    assert code == 3
    # a cocycle on elements outside the algebra, past either end
    for line in ("7 0 0 -> 1", "-1 0 0 -> 1"):
        coc = tmp_path / "outside.coc"
        coc.write_text("cocycle 3\n%s\n" % line)
        code, _ = run(
            "statesum", fixture_path("z3linear.ktq"), fixture_path("trefoil.dg"), str(coc)
        )
        assert code == 3, line
    # z3sum has no A3, so its differential does not square to zero: the
    # cocycles and the class checks refuse it as homology does
    code, out = run(
        "cocycles", fixture_path("z3sum.ktq"), "--mod", "3", "--relators", "D"
    )
    assert (code, out) == (3, "")
    pair = [fixture_path("z3sum.ktq"), fixture_path("r3_after.dg"), fixture_path("r3_before.dg")]
    for variant in ("N", "plain"):
        code, out = run(
            "compare", *pair, "--variant", variant, "--correspondence", fixture_path("r3.corr")
        )
        assert (code, out) == (3, ""), variant
        # counting colorings needs no homology
        code, out = run("compare", *pair, "--variant", variant)
        assert code == 0 and out.startswith("colorings.first "), variant
    capsys.readouterr()
    # a lone crossing does not close up: the class checks refuse its chains
    open_dg = tmp_path / "open.dg"
    open_dg.write_text("diagram 4\nP 0 1 2 3\n")
    corr = tmp_path / "open.corr"
    corr.write_text("0 0\n")
    code, out = run(
        "compare", fixture_path("z3linear.ktq"), str(open_dg), fixture_path("unknot0.dg"),
        "--correspondence", str(corr),
    )
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "precondition error: first chain is not a cycle\n"


# (algebra, relators, modulus, exit code, sha256 of stdout); the same bytes
# as when the cocycles were built from boundary and relator rows directly
COCYCLES = [
    ("z3linear", "D", 2, 0, "40d8f8aeb69c6a184b7a848a8ad25ae6b014c786a12d5af108c845b6b5b20fef"),
    ("z3linear", "D", 3, 0, "1391ce2d48b3f92616ebf9162acdc9756ee858fb4de400c0d41164bf41b3b889"),
    ("z3linear", "D", 4, 0, "715a1fe4d8d2ed73debe013f5f977d4d153578dc48b66000154e29528bb4d24c"),
    ("z3linear", "D", 5, 0, "c219f46057fc9a48decf665db73e9793e643a4e68963aa81452bd319c9c645f5"),
    ("z3linear", "D", 6, 0, "b43d354bf52c9edcb6634c8624953ac4633335c9718a7e876c9968341d47c633"),
    ("z3linear", "I", 2, 0, "e7903a56f2d9cb2ebb33b91b48ac7347812c993b9d01e151375d0858af0e9495"),
    ("z3linear", "I", 3, 0, "243a18f625418f8420e1ea4829f6064e6f0673821eb160927a78c8742440f686"),
    ("z3linear", "I", 4, 0, "d3bd534ddbda92618d227b4368f9030f9d7c340926e6944b8e1a96e0f52a044c"),
    ("z3linear", "I", 5, 0, "4cf2d299a443e9662a07eccd4405de99430bc551c03787128e6c0bb1115df1e8"),
    ("z3linear", "I", 6, 0, "ef987cd9f619b3ee81f2702648c0c103ccea870f69cf6241a263be404c52f2dc"),
    ("z3linear", "ID", 2, 0, "d6da45520b663beed4e5049fdf711aee40ede4bd377b6fa27c71c2fd246cc1a3"),
    ("z3linear", "ID", 3, 0, "243a18f625418f8420e1ea4829f6064e6f0673821eb160927a78c8742440f686"),
    ("z3linear", "ID", 4, 0, "3fd8c59ee388bee9c5560b2d1e93a9aef022af38617bf1e39258d31a0fce8648"),
    ("z3linear", "ID", 5, 0, "4cf2d299a443e9662a07eccd4405de99430bc551c03787128e6c0bb1115df1e8"),
    ("z3linear", "ID", 6, 0, "18254adf5532129b6b61c26eb1ed97980f9dd667d7f92f23b8d3637d9e8d9593"),
    ("z5affine", "D", 2, 0, "33dc7e33c95dba192d509120ed8d37108d6d53bee83a1f9dde60c27a616eb4c9"),
    ("z5affine", "D", 3, 0, "49280032b547e7b299b77a7493b5f3a2c7e6336cc31e8f1699c5c86edb2f6db6"),
    ("z5affine", "D", 4, 0, "eb24574288a19df8022b18c1752c078bf6b94fcd0099b12778011afaf63524fc"),
    ("z5affine", "D", 5, 0, "ef8b9348a79ebc79bb0b898a4ff7ac85a977ffedf8881af78d2c23bae26e66b8"),
    ("z5affine", "D", 6, 0, "44cd6f46b2a64f651bce9906cf57a462817aae38d4a170a42064116a79c43187"),
] + [
    # z5affine is not involutory: refused, nothing printed
    ("z5affine", rel, m, 3, hashlib.sha256(b"").hexdigest())
    for rel in ("I", "ID") for m in range(2, 7)
]


@pytest.mark.parametrize(
    "alg,relators,modulus,code,digest", COCYCLES, ids=["%s-%s-%d" % c[:3] for c in COCYCLES]
)
def test_cocycles_output_is_pinned(alg, relators, modulus, code, digest, capsys):
    got, out = run(
        "cocycles", fixture_path(alg + ".ktq"), "--mod", str(modulus), "--relators", relators
    )
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_output_is_byte_stable():
    a = run("compare", fixture_path("z3linear.ktq"),
            fixture_path("kink.dg"), fixture_path("unknot0.dg"),
            "--correspondence", fixture_path("kink_unknot.corr"), "--mod", "3")
    b = run("compare", fixture_path("z3linear.ktq"),
            fixture_path("kink.dg"), fixture_path("unknot0.dg"),
            "--correspondence", fixture_path("kink_unknot.corr"), "--mod", "3")
    assert a == b and a[0] == 0


def test_oversized_homology_is_refused_before_it_allocates(capsys):
    start = time.perf_counter()
    code, out = run(
        "homology", fixture_path("z3linear.ktq"), "--degree", "9"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "needs 3^11 + 3^12 generators" in capsys.readouterr().err


def test_long_tuples_are_refused_before_their_faces_are_built(capsys):
    # two generators over order 1, but each of length 1002 and 1003
    start = time.perf_counter()
    code, out = run(
        "homology", fixture_path("order1.ktq"), "--degree", "1000"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "generators times 1002^2" in capsys.readouterr().err


@pytest.mark.parametrize("filt, order", [
    pytest.param("ktq", "8", id="8"),
    pytest.param("ktq", "99999999999999999999", id="99999999999999999999"),
    ("all_quasigroups", "5"), ("ktq", "6"), ("iktq", "7"),
])
def test_an_oversized_enumeration_is_refused_before_it_allocates(filt, order, capsys):
    # one past each filter's largest order, and an absurd order, cost one comparison
    start = time.perf_counter()
    code, out = run("enumerate", "--order", order, "--filter", filt)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "the largest order the %s filter enumerates" % filt in capsys.readouterr().err


def test_enumerate_has_no_max_order_option(capsys):
    assert run("enumerate", "--order", "4", "--max-order", "4") == (1, "")
    assert "unrecognized arguments: --max-order 4" in capsys.readouterr().err


def test_classify_refuses_an_order_past_its_a3_bound(tmp_path, capsys):
    # the A3 check reads n^4 quadruples, and every subcommand classifies its
    # algebra: x - y + z took 5.7 s at order 40 and 25.9 s at order 60
    for n in (20, 45):
        (tmp_path / ("%d.ktq" % n)).write_text(serialize_algebra(affine_table(n, 1, n - 1, 1)))
    assert run("verify", str(tmp_path / "20.ktq")) == (
        0, "quasigroup: yes, A3L: yes, A3R: yes, involutory: yes (IKTQ)\n"
    )
    start = time.perf_counter()
    code, out = run("verify", str(tmp_path / "45.ktq"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "order 45 needs 45^4 A3 quadruples, more than 2560000" in capsys.readouterr().err


@pytest.mark.parametrize("argv,group", [
    (["z3linear.ktq", "--degree", "4"], "Z^243"),
    (["z3linear.ktq", "--degree", "4", "--relators", "D"], "Z^48"),
    (["z2sum1.ktq", "--degree", "7"], "Z^128"),
    (["order1.ktq", "--degree", "385"], "Z"),
])
def test_every_degree_within_the_work_bound_is_computed(argv, group):
    assert run("homology", fixture_path(argv[0]), *argv[1:]) == (0, group + "\n")


@pytest.mark.parametrize("algebra,degree", [
    ("z3linear.ktq", "5"), ("z2sum1.ktq", "8"), ("order1.ktq", "386"), ("z5affine.ktq", "3"),
])
def test_every_degree_over_the_work_bound_is_refused(algebra, degree, capsys):
    assert run("homology", fixture_path(algebra), "--degree", degree) == (3, "")
    assert "more work than 300000" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["cocycles", "z14.ktq", "--mod", "2", "--relators", "D"],
    ["compare", "z14.ktq", fixture_path("kink.dg"), fixture_path("unknot0.dg"),
     "--correspondence", fixture_path("kink_unknot.corr")],
    ["compare", "z14.ktq", fixture_path("kink.dg"), fixture_path("unknot0.dg"), "--mod", "2"],
])
def test_the_degree1_relation_lattice_is_bounded_like_homology(command, tmp_path, capsys):
    # x - y + z mod 14: its degree-1 lattice is over the work bound, as is
    # homology --degree 1
    n = 14
    values = [(x - y + z) % n for x in range(n) for y in range(n) for z in range(n)]
    (tmp_path / "z14.ktq").write_text(serialize_algebra(OpTable(n, values)))
    argv = [str(tmp_path / a) if a == "z14.ktq" else a for a in command]
    start = time.perf_counter()
    code, out = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "needs 14^3 + 14^4 generators" in capsys.readouterr().err


@pytest.mark.parametrize("table, command, message", [
    # x - y + z mod 13: a flat diagram against a classical one
    ((1, 12, 1), [fixture_path("fr3_before.dg"), fixture_path("r3_before.dg"), "--mod", "2"],
     "cannot compare a flat diagram with a classical one"),
    # x + y - z mod 13 is a KTQ, not an IKTQ, so it colors no flat diagram
    ((1, 1, 12), [fixture_path("fr3_before.dg"), fixture_path("fr3_after.dg"), "--mod", "2"],
     "flat diagrams require an involutory KTQ"),
], ids=["flat-with-classical", "flat-over-a-ktq"])
def test_compare_checks_its_diagrams_before_it_computes_cocycles(table, command, message,
                                                                  tmp_path, capsys):
    # both degree-1 lattices over order 13 took seconds before the refusal
    (tmp_path / "z13.ktq").write_text(serialize_algebra(affine_table(13, *table)))
    start = time.perf_counter()
    code, out = run("compare", str(tmp_path / "z13.ktq"), *command)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert message in capsys.readouterr().err


def test_a_modulus_below_2_is_refused_before_the_degree1_lattice(tmp_path, monkeypatch, capsys,
                                                                  cleared_caches):
    homology = ktq.homology
    calls = []
    real = homology._reduction

    def recorded(X, n, v):
        calls.append((X.order, n))
        return real(X, n, v)

    monkeypatch.setattr(homology, "_reduction", recorded)
    (tmp_path / "z13.ktq").write_text(serialize_algebra(affine_table(13, 1, 12, 1)))
    for modulus in ("1", "0"):
        argv = ["cocycles", str(tmp_path / "z13.ktq"), "--mod", modulus, "--relators", "D"]
        assert run(*argv) == (3, "")
        assert "modulus must be >= 2" in capsys.readouterr().err
    assert calls == [] and homology.boundary_columns.cache_info().currsize == 0
    # the recorder is the one two_cocycles calls
    assert run("cocycles", fixture_path("z3linear.ktq"), "--mod", "3", "--relators", "D")[0] == 0
    assert calls == [(3, 1)]


def test_the_slowest_admitted_cocycles_request_stays_fast(tmp_path, cleared_caches):
    # x + y - z mod 13 under D: its degree-1 lattice, pruned at d_1's unit
    # pivots, is eliminated in about a second; unpruned it took 15 s
    (tmp_path / "z13.ktq").write_text(serialize_algebra(affine_table(13, 1, 1, 12)))
    start = time.perf_counter()
    code, out = run("cocycles", str(tmp_path / "z13.ktq"), "--mod", "2", "--relators", "D")
    assert time.perf_counter() - start < 6.0
    assert (code, out.splitlines()[0]) == (0, "# generators 156")


# a lone crossing, and one whose colorings a correspondence matches only in
# part: 27 of its 81, so the class checks test no more than those 27
OPEN_FILES = {
    "open.dg": "diagram 4\nP 0 1 2 3\n",
    "phi.coc": "cocycle 3\n0 1 0 -> 2\n",
    "open5.dg": "diagram 5\nN 3 2 0 1\n",
    "closed2.dg": "diagram 2\nP 1 0 1 1\n",
    "part.corr": "1 0\n2 1\n",
}


@pytest.mark.parametrize("command", [
    ["statesum", "open.dg", "phi.coc"],
    ["compare", "open.dg", fixture_path("unknot0.dg"), "--mod", "3"],
    ["compare", "open5.dg", "closed2.dg", "--mod", "3", "--correspondence", "part.corr"],
])
def test_a_diagram_that_does_not_close_up_is_refused(command, tmp_path, capsys):
    # every chain a state sum reads is tested for a cycle
    for name, text in OPEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in OPEN_FILES else a for a in command]
    code, out = run(argv[0], fixture_path("z3linear.ktq"), *argv[1:])
    assert (code, out) == (3, "")
    assert "does not close up" in capsys.readouterr().err


def test_oversized_coloring_search_is_refused_before_it_starts(tmp_path, capsys):
    # no crossing: 40 regions make 3^40 colorings, and a huge region count
    # is refused before the search plan, over order 1 too
    dg = tmp_path / "wide.dg"
    for algebra, regions, message in (
        ("z3linear.ktq", 40, "needs 3^40 search leaves"),
        ("z3linear.ktq", 99999999999, "99999999999 regions, more than 1000000"),
        ("z3linear.ktq", 3000000, "3000000 regions, more than 1000000"),
        ("order1.ktq", 99999999999, "99999999999 regions, more than 1000000"),
        ("order1.ktq", 20000000, "20000000 regions, more than 1000000"),
    ):
        dg.write_text("diagram %d\n" % regions)
        start = time.perf_counter()
        code, out = run("color", fixture_path(algebra), str(dg))
        assert time.perf_counter() - start < 1.0, (algebra, regions)
        assert (code, out) == (3, ""), (algebra, regions)
        assert message in capsys.readouterr().err


def test_a_huge_crossing_free_diagram_costs_about_its_one_leaf(tmp_path):
    # the largest region count admitted, over order 1: one coloring, so the
    # plan's watch lists and per-step lists are all the cost there is (359 MB
    # peak when every region and step had its own lists, 168 MB without)
    dg = tmp_path / "wide.dg"
    dg.write_text("diagram 1000000\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    child = (
        "import resource, sys\n"
        "from ktq.cli import cli_main\n"
        "code = cli_main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, "color", fixture_path("order1.ktq"), str(dg)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "colorings 1\n")
    peak_kib = int(done.stderr.split()[-1])  # Linux reports ru_maxrss in KiB
    assert peak_kib < 250 * 1024, peak_kib


def test_an_oversized_class_check_join_is_refused(monkeypatch, tmp_path, capsys):
    # two crossing-free diagrams of 2 regions and an empty correspondence:
    # 9 x 9 matched pairs, each a class check
    (tmp_path / "two.dg").write_text("diagram 2\n")
    (tmp_path / "empty.corr").write_text("")
    argv = ["compare", fixture_path("z3linear.ktq"), str(tmp_path / "two.dg"),
            str(tmp_path / "two.dg"), "--correspondence", str(tmp_path / "empty.corr")]
    code, out = run(*argv)
    assert code == 0 and "classes.checked 81\n" in out
    monkeypatch.setattr(ktq.diagram, "MAX_LEAVES", 80)
    code, out = run(*argv)
    assert (code, out) == (3, "")
    assert "81 coloring pairs, more than 80" in capsys.readouterr().err


def test_an_oversized_join_is_refused_before_any_chain_is_built(monkeypatch, tmp_path, capsys):
    # 27 x 27 matched pairs over 3-region crossing-free diagrams
    (tmp_path / "three.dg").write_text("diagram 3\n")
    (tmp_path / "empty.corr").write_text("")
    built = []
    monkeypatch.setattr(ktq.invariants, "associated_chain", lambda *args: built.append(args))
    monkeypatch.setattr(ktq.diagram, "MAX_LEAVES", 100)
    code, out = run("compare", fixture_path("z3linear.ktq"), str(tmp_path / "three.dg"),
                    str(tmp_path / "three.dg"), "--correspondence", str(tmp_path / "empty.corr"))
    assert (code, out, built) == (3, "", [])
    assert "729 coloring pairs, more than 100" in capsys.readouterr().err


def test_homology_of_a_non_ktq_exits_3(capsys):
    code, out = run("homology", fixture_path("z3sum.ktq"), "--degree", "1")
    assert code == 3 and out == ""


def test_correspondence_out_of_range_exits_2(tmp_path, capsys):
    corr = tmp_path / "bad.corr"
    for line in ("1 9", "5 0", "0 5", "-1 0"):  # both diagrams have 5 regions
        corr.write_text("correspondence\n%s\n" % line)
        code, out = run(
            "compare",
            fixture_path("z3linear.ktq"),
            fixture_path("r3_after.dg"),
            fixture_path("r3_before.dg"),
            "--correspondence", str(corr),
        )
        assert (code, out) == (2, "")
        assert "pair %s" % line in capsys.readouterr().err


def test_internal_errors_exit_4(monkeypatch, capsys):
    def broken(args, out):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(ktq.cli._COMMANDS, "verify", broken)
    assert run("verify", fixture_path("z3linear.ktq")) == (4, "")
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: broken handler\n"
    assert "Traceback" not in err


# inputs of the -O cases besides the fixtures, written to a scratch directory
SCRATCH_INPUTS = {
    "open.dg": b"diagram 4\nP 0 1 2 3\n",  # a lone crossing: not a cycle
    "open.corr": b"0 0\n",
    "latin1.ktq": b"ktq 1\n\xff\n",  # not UTF-8
}


@pytest.mark.parametrize("argv,code", [
    (["compare", "fixtures/z3linear.ktq", "fixtures/r3_after.dg", "fixtures/r3_before.dg",
      "--variant", "N", "--correspondence", "fixtures/r3.corr", "--mod", "3"], 0),
    (["homology", "fixtures/z3linear.ktq", "--degree", "2", "--relators", "ID"], 0),
    (["compare", "fixtures/z3linear.ktq", "open.dg", "fixtures/unknot0.dg",
      "--correspondence", "open.corr"], 3),
    (["verify", "latin1.ktq"], 2),
])
def test_same_output_under_python_O(argv, code, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name, data in SCRATCH_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a) if a in SCRATCH_INPUTS else a for a in argv]

    def ktq_run(*flags):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "ktq.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    plain = ktq_run()
    assert plain[0] == code and bool(plain[1]) == (code == 0)
    assert ktq_run("-O") == plain
