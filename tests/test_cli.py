import hashlib
import io
import os
import subprocess
import sys

import pytest

import ktq.cli
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
    assert capsys.readouterr().err.startswith("input error: 'utf-8' codec can't decode")


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
    # degree past the cap
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
    ("z3linear", "D", 2, 0, "45bb062eea28ad353f934584316432fd27c7ae65b98effd59d67458ef5c05c1d"),
    ("z3linear", "D", 3, 0, "9e3d346e3d3a28c4a4f9616c8321350d092864e197223197609f411205221dda"),
    ("z3linear", "D", 4, 0, "718e3bd51c68cbf4852be71214e9febfb8f8683a5aeb5dea6203d908b3ccc195"),
    ("z3linear", "D", 5, 0, "a908b9cec702ed30d02c03366df61271cc9cc128c867f846e27e779a97334648"),
    ("z3linear", "D", 6, 0, "a9c8189e740e380a192d5211037da6cad524371c860570f56dbd61727bc13b5a"),
    ("z3linear", "I", 2, 0, "9641419779e4f9e26116490cdef014184eefb1d46a700c5ecb842673c385bba2"),
    ("z3linear", "I", 3, 0, "ff14d277ba903d9c04e14d81e2a5bd6cacf255f8e37feda5ff060267c8672d3f"),
    ("z3linear", "I", 4, 0, "aab083ca5ff7a629162689241623a866dab4dcd03c766ee5eaf5b5e9d105fd31"),
    ("z3linear", "I", 5, 0, "10b432646d41a5362bc1eddb4e4c1c4a9fff1008a020a16714f21422c8059343"),
    ("z3linear", "I", 6, 0, "a2a83bb1709636b80181a5e451c637418ea4046a0c7245a0da25a7578ecb40b1"),
    ("z3linear", "ID", 2, 0, "3bc0690b7fe2bad0c46b2563d148f7d716d0293f3bfac890cf91b333b9d7f442"),
    ("z3linear", "ID", 3, 0, "977181e3d29a51187c792aa12083cb8e729cd1b87180c54ce16f2e1bdcc0d152"),
    ("z3linear", "ID", 4, 0, "49c66da3b82455ac2827778c464646cfef0f59e8a8e2590f166377d6a7ec8fae"),
    ("z3linear", "ID", 5, 0, "cb5fe3e1832d6ace8518b4ff890d6e07a9cd814c5a394a5369ae0ba3d932c355"),
    ("z3linear", "ID", 6, 0, "2f3d2b458781d5131468b671ee87cb605ac9b8d5c9084dd2276a4c6b6d8310f5"),
    ("z5affine", "D", 2, 0, "f42fe26da77eef79eff1efc027f4f8d3bc0266e4955497b4364730d2b4b3a4e8"),
    ("z5affine", "D", 3, 0, "26c11d2b982bb4e41da1efc05bed271d188187dca0ea28492335f4cbca33c6ee"),
    ("z5affine", "D", 4, 0, "5c4b3cac148eac9b7babf83a8b4074897d94c43254bb464cc3d027d6145a5657"),
    ("z5affine", "D", 5, 0, "866e45e841f1ff6c9a72ce86974fba31ad31008df0f45cea2e62c1eea1346fe6"),
    ("z5affine", "D", 6, 0, "991f1062c27211a2a9672e0d3d65a97f6fa9564ae4a7abf0e8f8b7a017e7bc04"),
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
