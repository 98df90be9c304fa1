"""Command-line surface: verify, enumerate, homology, color, cocycles,
statesum, compare.

Exit codes: 0 success, 1 usage error, 2 input format error, 3 mathematical
precondition failure, 4 internal error (any other exception; a bug, reported
in one line without a traceback).  Diagnostics go to stderr, results to
stdout.

A process loads only what its subcommand runs: ``verify`` and ``enumerate``
need ktq.algebra alone, ``homology`` and ``cocycles`` add the homology
engine, and only the diagram commands load ktq.diagram and ktq.invariants.
"""

import argparse
import sys

from .algebra import FILTER_AXIOMS, classify, enumerate_ktqs, parse_algebra, serialize_algebra
from .errors import FormatError, MathError
from .variants import DIFF_CHOICES, NAMED_VARIANTS, RELATOR_CHOICES, HomologyVariant

# The names of these modules are bound here on first lookup (PEP 562), so a
# subcommand loads only the modules it runs.  Handlers call them as attributes
# of _cli, never as bare globals: perfbench/tracing.py looks them up on ktq.cli
# by name and replaces them with its wrappers.
_LAZY = {
    "homology": "homology parse_cocycle serialize_cocycle two_cocycles",
    "diagram": "colorings parse_correspondence parse_diagram",
    "invariants": "invariant_report render_report state_sum",
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names.split()}
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # from .module import name, spelled so that -X importtime reports it
    module = __import__(_SOURCE[name], globals(), None, (name,), 1)
    globals()[name] = value = getattr(module, name)
    return value


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="ktq", description="Ternary-quasigroup link invariants")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = sub.add_parser("verify", help="classify an algebra file")
    s.add_argument("algebra")

    s = sub.add_parser("enumerate", help="enumerate tables of a given order")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--filter", choices=tuple(FILTER_AXIOMS), default="ktq", dest="filt")
    s.add_argument("--dedup", action="store_true")
    s.add_argument("--max-order", type=int, default=4)

    s = sub.add_parser("homology", help="a homology group of an algebra")
    s.add_argument("algebra")
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--relators", choices=RELATOR_CHOICES, default="none")
    s.add_argument("--mode", choices=("sub", "quot"), default="quot")
    s.add_argument("--diff", choices=DIFF_CHOICES, default="full")
    s.add_argument("--degree-cap", type=int, default=None)

    s = sub.add_parser("color", help="count (and list) diagram colorings")
    s.add_argument("algebra")
    s.add_argument("diagram")
    s.add_argument("--list", action="store_true", dest="list_all")

    s = sub.add_parser("cocycles", help="generators of mod-m two-cocycles")
    s.add_argument("algebra")
    s.add_argument("--mod", type=int, required=True)
    s.add_argument("--relators", choices=RELATOR_CHOICES[1:], required=True)

    s = sub.add_parser("statesum", help="cocycle state sum of a diagram")
    s.add_argument("algebra")
    s.add_argument("diagram")
    s.add_argument("cocycle")

    s = sub.add_parser("compare", help="invariance report for two diagrams")
    s.add_argument("algebra")
    s.add_argument("d1")
    s.add_argument("d2")
    s.add_argument("--variant", choices=sorted(NAMED_VARIANTS), default="N")
    s.add_argument("--correspondence", default=None)
    s.add_argument("--mod", type=int, default=None)
    return p


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError("%s: %s" % (path, exc)) from None


def _load_algebra(path):
    return classify(parse_algebra(_read(path)))


def _yn(flag):
    return "yes" if flag else "no"


def _cmd_verify(args, out):
    q = _load_algebra(args.algebra)
    suffix = " (IKTQ)" if q.is_iktq else " (KTQ)" if q.is_ktq else ""
    flags = (q.is_quasigroup, q.satisfies_a3l, q.satisfies_a3r, q.is_involutory)
    out.write(
        "quasigroup: %s, A3L: %s, A3R: %s, involutory: %s%s\n" % (*map(_yn, flags), suffix)
    )
    return 0


def _cmd_enumerate(args, out):
    tables = enumerate_ktqs(
        args.order, filt=args.filt, dedup=args.dedup, max_order=args.max_order
    )
    for t in tables:
        out.write(serialize_algebra(t))
        out.write("\n")
    out.write("# count %d\n" % len(tables))
    return 0


def _cmd_homology(args, out):
    X = _load_algebra(args.algebra)
    v = HomologyVariant(
        relators=args.relators,
        mode="subcomplex" if args.mode == "sub" else "quotient",
        diff_kind=args.diff,
    )
    group = _cli.homology(X, args.degree, v, degree_cap=args.degree_cap)
    out.write(str(group) + "\n")
    return 0


def _cmd_color(args, out):
    X = _load_algebra(args.algebra)
    d = _cli.parse_diagram(_read(args.diagram))
    cols = _cli.colorings(d, X)
    out.write("colorings %d\n" % len(cols))
    if args.list_all:
        for col in cols:
            out.write(" ".join(str(v) for v in col) + "\n")
    return 0


def _cmd_cocycles(args, out):
    X = _load_algebra(args.algebra)
    v = HomologyVariant(args.relators, "quotient", "full")
    gens = _cli.two_cocycles(X, args.mod, v)
    out.write("# generators %d\n" % len(gens))
    for phi in gens:
        out.write(_cli.serialize_cocycle(phi))
        out.write("\n")
    return 0


def _cmd_statesum(args, out):
    X = _load_algebra(args.algebra)
    d = _cli.parse_diagram(_read(args.diagram))
    phi = _cli.parse_cocycle(_read(args.cocycle))
    out.write(_cli.state_sum(d, X, phi).render() + "\n")
    return 0


def _cmd_compare(args, out):
    X = _load_algebra(args.algebra)
    d1 = _cli.parse_diagram(_read(args.d1))
    d2 = _cli.parse_diagram(_read(args.d2))
    variant = NAMED_VARIANTS[args.variant]
    correspondence = None
    if args.correspondence:
        correspondence = _cli.parse_correspondence(_read(args.correspondence))
    cocycles = ()
    if args.mod is not None:
        cocycles = _cli.two_cocycles(X, args.mod, variant)
    rows = _cli.invariant_report(
        d1, d2, X, variant=variant, correspondence=correspondence, cocycles=cocycles
    )
    out.write(_cli.render_report(rows))
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "homology": _cmd_homology,
    "color": _cmd_color,
    "cocycles": _cmd_cocycles,
    "statesum": _cmd_statesum,
    "compare": _cmd_compare,
}


def cli_main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except MathError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
