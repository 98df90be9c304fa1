"""The benchmark's job sets and the oracle each job's output must pass.

A job is one ``ktq`` command line.  ``check(stdout)`` returns a list of
problems; an empty list means the output is correct.
"""

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, List

from gen import count_colorings, correspondence_text, linear_form, move_pair, search_cost


@dataclass(frozen=True)
class Job:
    name: str
    argv: List[str]
    check: Callable[[str], List[str]]


def expect_text(expected):
    def check(out):
        got = out.strip()
        return [] if got == expected else ["expected %r, got %r" % (expected, got)]

    return check


# Groups computed at the commit that introduced the benchmark.
HOMOLOGY = [
    ("z3linear", 1, "none", "quot", "Z^9"),
    ("z3linear", 1, "D", "quot", "Z^6"),
    ("z3linear", 1, "I", "quot", "Z^3 + Z/2 + Z/2 + Z/2"),
    ("z3linear", 1, "ID", "quot", "Z^3"),
    ("z3linear", 2, "none", "quot", "Z^27"),
    ("z3linear", 2, "D", "quot", "Z^12"),
    ("z3linear", 2, "I", "quot", "Z" + " + Z/2" * 9),
    ("z3linear", 2, "ID", "quot", "Z"),
    ("z3linear", 2, "D", "sub", "Z^15"),
    ("z3linear", 2, "ID", "sub", "Z^26"),
    ("z3linear", 3, "none", "quot", "Z^81"),
    ("z3linear", 3, "D", "quot", "Z^24"),
    ("z5affine", 1, "none", "quot", "Z"),
    ("z5affine", 1, "D", "quot", "0"),
]


def homology_jobs(root, work, rng):
    jobs = []
    for alg, degree, relators, mode, group in HOMOLOGY:
        jobs.append(Job(
            "%s-H%d-%s-%s" % (alg, degree, relators, mode),
            ["homology", "fixtures/%s.ktq" % alg, "--degree", str(degree),
             "--relators", relators, "--mode", mode],
            expect_text(group),
        ))
    return jobs


# (filter, table count, sha256 of stdout) at the introducing commit.
ENUMERATE = [
    ("ktq", 37, "46cca30bfb828147593d68dcf4cf350d839dafcd1f9f3b01a7739fc8eeae7f40"),
    ("iktq", 16, "c4b4bd486d5390b011197d4d68c12205695814739f950c2cb8a3ccc0d5cad797"),
]


def expect_tables(count, digest):
    def check(out):
        problems = []
        if not out.endswith("# count %d\n" % count):
            problems.append("expected %d tables, got %r" % (count, out[-40:]))
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != digest:
            problems.append("table digest %s, expected %s" % (got[:12], digest[:12]))
        return problems

    return check


def enumerate_jobs(root, work, rng):
    return [
        Job("order4-%s-dedup" % filt,
            ["enumerate", "--order", "4", "--filter", filt, "--dedup"],
            expect_tables(count, digest))
        for filt, count, digest in ENUMERATE
    ]


def _total(state_sum):
    """Sum of the coefficients of a rendered group-ring element."""
    if state_sum == "0":
        return 0
    return sum(int(term.split("*", 1)[0]) for term in state_sum.split(" + "))


def expect_invariance(colorings):
    """The report of a move pair: the oracle's coloring count on both sides,
    every matched coloring pair in one class, every state sum equal and
    summing to the coloring count."""

    def check(out):
        rows = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
        problems = []
        want = {
            "colorings.first": str(colorings),
            "colorings.second": str(colorings),
            "classes.checked": str(colorings),
            "classes.equal": "yes",
            "verdict": "consistent with invariance",
        }
        for key, value in want.items():
            if rows.get(key) != value:
                problems.append("%s: expected %r, got %r" % (key, value, rows.get(key)))
        sums = [k for k in rows if k.startswith("statesum.") and k.endswith(".equal")]
        if not sums:
            problems.append("no state sums reported")
        for key in sums:
            i = key.split(".")[1]
            if rows[key] != "yes":
                problems.append("%s: %r" % (key, rows[key]))
            for side in ("first", "second"):
                total = _total(rows.get("statesum.%s.%s" % (i, side), ""))
                if total != colorings:
                    problems.append("statesum.%s.%s sums to %d" % (i, side, total))
        return problems

    return check


# Classes of move pairs: (label, algebra, flat, variants, modulus, strands,
# braid length, coloring count, predicted search cost, pairs per set).  The
# classical z5 pairs have few colorings, so their search meets many dead
# ends; the flat z3 pairs have many colorings, so output (state sums,
# matched pairs) weighs more.  A pair is kept only when both diagrams have
# the given coloring count and the pair's predicted search cost is within
# COST_TOLERANCE of the given one: the seed changes the diagrams, not the
# amount of work.
COMPARE = [
    ("z5-N", "z5affine", False, ("N",), 5, 4, 11, 25, 50000, 2),
    ("z3-flat", "z3linear", True, ("NI", "NID"), 3, 5, 30, 81, 134000, 4),
]
COST_TOLERANCE = 0.05


def compare_jobs(root, work, rng):
    jobs = []
    for label, alg, flat, variants, modulus, strands, length, want, cost, pairs in COMPARE:
        form = linear_form(_read(os.path.join(root, "fixtures", alg + ".ktq")))
        made = 0
        while made < pairs:
            move = ("R2", "R3")[made % 2]
            after, before, corr = move_pair(rng, move, strands, length, flat)
            if count_colorings(after, *form) != want or count_colorings(before, *form) != want:
                continue
            predicted = search_cost(after, *form) + search_cost(before, *form)
            if abs(predicted - cost) > COST_TOLERANCE * cost:
                continue
            stem = os.path.join(work, "%s-%d" % (label, made))
            _write(stem + "-after.dg", after.text("%s after %s" % (label, move)))
            _write(stem + "-before.dg", before.text("%s before %s" % (label, move)))
            _write(stem + ".corr", correspondence_text(corr, "after -> before"))
            variant = variants[made // 2 % len(variants)]
            jobs.append(Job(
                "%s-%d-%s-%s" % (label, made, move, variant),
                ["compare", "fixtures/%s.ktq" % alg, stem + "-after.dg", stem + "-before.dg",
                 "--variant", variant, "--correspondence", stem + ".corr",
                 "--mod", str(modulus)],
                expect_invariance(want),
            ))
            made += 1
    return jobs


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


WORKLOADS = {
    "homology": homology_jobs,
    "compare": compare_jobs,
    "enumerate": enumerate_jobs,
}


def make_jobs(workload, root, work, seed):
    return WORKLOADS[workload](root, work, random.Random(seed))
