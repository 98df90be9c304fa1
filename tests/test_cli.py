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


def test_math_errors_exit_3(capsys):
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
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ["compare", "fixtures/z3linear.ktq", "fixtures/r3_after.dg", "fixtures/r3_before.dg",
     "--variant", "N", "--correspondence", "fixtures/r3.corr", "--mod", "3"],
    ["homology", "fixtures/z3linear.ktq", "--degree", "2", "--relators", "ID"],
])
def test_same_output_under_python_O(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def ktq_run(*flags):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "ktq.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    plain = ktq_run()
    assert plain[0] == 0 and plain[1]
    assert ktq_run("-O") == plain
