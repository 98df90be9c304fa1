"""Frozen outputs of `ktq cocycles` and of `ktq compare` with a region
correspondence and cocycles: the sha256 of each transcript (argv with
fixture names, exit code, stdout), so that a change to the lattice code
behind them cannot change a printed generator or a report line."""

import hashlib
import io

import pytest

from ktq.cli import cli_main

from conftest import fixture_path

ALGEBRAS = ["order1", "z2sum", "z2sum1", "z3sum", "z3linear", "z5affine"]
MODULI = (2, 3, 4, 5, 6)

# (after, before, correspondence): every fixture move pair
MOVE_PAIRS = [
    ("kink.dg", "unknot0.dg", "kink_unknot.corr"),
    ("fkink.dg", "unknot0.dg", "kink_unknot.corr"),
    ("r2par_after.dg", "r2par_before.dg", "r2par.corr"),
    ("r2anti_after.dg", "r2anti_before.dg", "r2anti.corr"),
    ("r3_after.dg", "r3_before.dg", "r3.corr"),
    ("fr2par_after.dg", "fr2_before.dg", "fr2par.corr"),
    ("fr2anti_after.dg", "fr2_before.dg", "fr2anti.corr"),
    ("fr3_after.dg", "fr3_before.dg", "fr3.corr"),
]


def transcript_digest(runs):
    """sha256 over 'argv / exit code / stdout' of each run; fixture files are
    named by their base names, so the digest does not depend on the
    checkout's location."""
    h = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        code = cli_main([fixture_path(a) if "." in a else a for a in argv], out)
        h.update(("%s\n%d\n%s\n" % (" ".join(argv), code, out.getvalue())).encode())
    return h.hexdigest()


COCYCLES = {
    "order1": "27ffe7cef691f73f2e3c2fa2d46eea817d48a57ad64d9e4ddb6c8569dc6cab03",
    "z2sum": "e7fac0c831e8de3ab9193c50873140572973e74626695696dc986bd9a7c110c5",
    "z2sum1": "bf68337bf4eba12f6b7df3b89c682eb4398b6c49f1aa5d8a8572dc15804ece1e",
    "z3sum": "2bbf24c9705397fba2fef94af587e00ae5ebe3f3138dc89a76bcaaa4121c6d90",
    "z3linear": "4af3c712261d42f119227057b54811258af2ec7115080e5609515e0a47bca7a0",
    "z5affine": "120851a4b8397c6c5d90291ca18f716b15988b55a62fe23b247a870b8ab98145",
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_cocycle_generators_are_frozen(name):
    runs = [
        ["cocycles", name + ".ktq", "--relators", relators, "--mod", str(m)]
        for relators in ("D", "I", "ID")
        for m in MODULI
    ]
    assert transcript_digest(runs) == COCYCLES[name]


COMPARE = {
    ("z3linear", "N"): "9da1f0dda7e54497203609b0181f76a33eafb456378f62c97736fae628c1edeb",
    ("z3linear", "NI"): "7a3ed5bf4cd4b368bfa0e654d85ddbd05bcec68358a7c62613d49808f88f7061",
    ("z3linear", "NID"): "eefa19fbc1a27080e947eab814c62573444488ffcdab57087a08ccef6c1a1b5f",
    ("z5affine", "N"): "0baf63cfbe791b4ee6414cfa8c29979e878f3adac780189b1dd5f01d34c5f21e",
    ("z5affine", "NI"): "36e43e55957aaec8f0b14f2be76c75ba465f06d8d6f794ff03993f2755f2e4ed",
    ("z5affine", "NID"): "4e680bba84fef3fedc4595bb615d21f0712973484956286e318c0f6e865afde3",
}


@pytest.mark.parametrize("name, variant", sorted(COMPARE))
def test_compare_reports_are_frozen(name, variant):
    runs = [
        ["compare", name + ".ktq", after, before, "--variant", variant,
         "--correspondence", corr, "--mod", str(m)]
        for after, before, corr in MOVE_PAIRS
        for m in MODULI
    ]
    assert transcript_digest(runs) == COMPARE[name, variant]
