"""The whole command line under generated input: every run of cli_main
exits with a documented code, 0 to 3, never 4 (an internal error), and
prints no traceback, whatever the subcommand, files and option values."""

from hypothesis import given, settings, strategies as st

from ktq.algebra import serialize_algebra
from ktq.cli import cli_main
from ktq.diagram import serialize_diagram
from ktq.homology import serialize_cocycle

from conftest import fixture_text
from test_diagram import small_diagrams
from test_formats import TOKENS, cochains, tables, token_soup

FIXTURE_ALGEBRAS = ["order1", "z2sum", "z2sum1", "z3sum", "z3linear", "z5affine"]
FIXTURE_DIAGRAMS = ["kink", "unknot0", "r3_after", "fr3_before", "marker", "trefoil"]


@st.composite
def perturbed(draw, texts):
    """A text with one line dropped, repeated, cut short, or with one field
    replaced by a token of the input formats."""
    lines = draw(texts).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "repeat", "cut", "token")))
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    else:
        fields = lines[i].split()
        j = draw(st.integers(0, len(fields)))
        fields[j:j + 1] = [draw(st.sampled_from(TOKENS))]
        lines[i] = " ".join(fields)
    return "\n".join(lines)


def files(valid):
    """File contents: valid, perturbed, token soup, or bytes that need not
    be UTF-8; None stands for a missing file."""
    return st.one_of(valid, perturbed(valid), token_soup, st.binary(max_size=12), st.none())


ALGEBRAS = st.one_of(
    st.sampled_from([fixture_text(n + ".ktq") for n in FIXTURE_ALGEBRAS]),
    tables().map(serialize_algebra),
)
DIAGRAMS = st.one_of(
    st.sampled_from([fixture_text(n + ".dg") for n in FIXTURE_DIAGRAMS]),
    small_diagrams().map(serialize_diagram),
)
CORRESPONDENCES = st.lists(st.tuples(st.integers(-1, 7), st.integers(0, 7)), max_size=5).map(
    lambda pairs: "".join("%d %d\n" % p for p in pairs)
)
COCYCLES = cochains().map(serialize_cocycle)
JUNK = st.sampled_from(["x", "1.5", "", "50", "1000000"])


@st.composite
def invocations(draw):
    """(argv, files): a subcommand with its positional file names and
    options; files maps each name to its contents.  Half the calls have
    only valid files and option values of the right type."""
    broken = draw(st.booleans())
    command = draw(st.sampled_from(
        ("verify", "enumerate", "homology", "color", "cocycles", "statesum", "compare")
        + (("nope",) if broken else ())
    ))
    contents = {}

    def name(kind, valid):
        path = "%s%d.%s" % (kind, len(contents), kind)
        contents[path] = draw(files(valid) if broken else valid)
        return path

    def value(valid):
        return str(draw(st.one_of(valid, JUNK) if broken else valid))

    def option(flag, valid):
        return [flag, value(valid)] if draw(st.booleans()) else []

    argv = [command]
    if command in ("verify", "homology", "color", "cocycles", "statesum", "compare"):
        argv.append(name("ktq", ALGEBRAS))
    if command in ("color", "statesum", "compare"):
        argv.append(name("dg", DIAGRAMS))
    if command == "compare":
        argv.append(name("dg", DIAGRAMS))
        argv += option("--variant", st.sampled_from(("plain", "N", "NI", "NID")))
        if draw(st.booleans()):
            argv += ["--correspondence", name("corr", CORRESPONDENCES)]
        argv += option("--mod", st.integers(-1, 7))
    if command == "statesum":
        argv.append(name("coc", COCYCLES))
    if command == "cocycles":
        argv += ["--mod", value(st.integers(-1, 7))]
        argv += ["--relators", value(st.sampled_from(("D", "I", "ID")))]
    if command == "homology":
        argv += ["--degree", value(st.integers(-3, 3))]
        argv += option("--relators", st.sampled_from(("none", "D", "I", "ID")))
        argv += option("--mode", st.sampled_from(("sub", "quot")))
        argv += option("--diff", st.sampled_from(("L", "R", "full")))
    if command == "enumerate":
        # order 7 is refused for every filter; no run starts an order-5 search
        argv += ["--order", value(st.sampled_from((-1, 0, 1, 2, 3, 7)))]
        argv += option("--filter", st.sampled_from(("ktq", "iktq", "all_quasigroups")))
        if draw(st.booleans()):
            argv.append("--dedup")
    if command == "color" and draw(st.booleans()):
        argv.append("--list")
    return argv, contents


def test_every_run_exits_with_a_documented_code(tmp_path, capsys):
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(call=invocations())
    def run(call):
        argv, contents = call
        for path, text in contents.items():
            target = tmp_path / path
            if target.exists():
                target.unlink()
            if isinstance(text, bytes):
                target.write_bytes(text)
            elif text is not None:
                target.write_text(text, encoding="utf-8")
        code = cli_main([str(tmp_path / a) if a in contents else a for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, contents, err)
        assert "Traceback" not in err, (argv, contents, err)

    run()
