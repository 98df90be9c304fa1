"""The homology variants by name: relator sets, modes and differential
kinds.  The command line builds its options from these without loading the
homology engine, which re-exports them."""

from collections import namedtuple

RELATOR_CHOICES = ("none", "D", "I", "ID")
MODE_CHOICES = ("quotient", "subcomplex")
DIFF_CHOICES = ("L", "R", "full")


class HomologyVariant(namedtuple("HomologyVariant", "relators mode diff_kind")):
    """A homology variant: relators (one of RELATOR_CHOICES), mode (one of
    MODE_CHOICES) and diff_kind (one of DIFF_CHOICES), all str."""

    __slots__ = ()

    def __new__(cls, relators="none", mode="quotient", diff_kind="full"):
        if relators not in RELATOR_CHOICES:
            raise ValueError("unknown relator set %r" % (relators,))
        if mode not in MODE_CHOICES:
            raise ValueError("unknown mode %r" % (mode,))
        if diff_kind not in DIFF_CHOICES:
            raise ValueError("unknown differential kind %r" % (diff_kind,))
        return super().__new__(cls, relators, mode, diff_kind)


#: Shorthand names used by the command line and the invariance lemmas.
NAMED_VARIANTS = {
    "plain": HomologyVariant("none", "quotient", "full"),
    "N": HomologyVariant("D", "quotient", "full"),
    "NI": HomologyVariant("I", "quotient", "full"),
    "NID": HomologyVariant("ID", "quotient", "full"),
}
