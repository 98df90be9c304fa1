"""The paper's invariance theorem as a property: a Reidemeister move on a
braid closure keeps the coloring count, the homology class of each
coloring's associated chain and every cocycle state sum, in the variants
the theorem covers: N for classical diagrams, NI and NID for flat ones.
Flat kinks (R1) are checked under NID only: under NI the kink's triple
(a, b, c) with T(a, b, c) = b is not null-homologous (fkink.dg against
unknot0.dg is distinguished).

A braid on s strands is a word of letters (ident, gap, sign); gap i in
1..s-1 crosses strands i and i+1.  In the closure, gap 0 (left of strand 1)
and gap s (right of strand s) are single regions, and an inner gap with k
letters has k regions, separated by its crossings; its last letter closes
onto the gap's first region.  With cur the region open in each gap, a
letter in gap i is the crossing

    positive:  P cur[i-1] cur[i] cur[i+1] new
    negative:  N cur[i-1] new cur[i+1] cur[i]
    flat:      F cur[i-1] cur[i] cur[i+1] new

so fixtures/r3_before.dg is the closure of s1 s2 s1, and kink.dg that of
s1 on two strands.  A region is keyed by its gap and the ident of the
letter that ends it (None for a gap without letters).  A move keeps the
idents of the letters outside its disc, so the region correspondence of a
move pair pairs equal keys.
"""

from functools import lru_cache
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from ktq.diagram import Crossing, Diagram, colorings
from ktq.homology import NAMED_VARIANTS, two_cocycles
from ktq.invariants import invariant_report

from conftest import load_algebra


def closure(strands, word, flat):
    """(Diagram, region keys) of the closure of a braid word."""
    letters = [0] * (strands + 1)
    for _, gap, _ in word:
        letters[gap] += 1
    cur = list(range(strands + 1))
    keys = {g: (g, None) for g in range(strands + 1)}
    seen = [0] * (strands + 1)
    fresh = count(strands + 1)
    crossings = []
    for ident, i, sign in word:
        keys[cur[i]] = (i, ident)
        seen[i] += 1
        new = i if seen[i] == letters[i] else next(fresh)
        a, b, c = cur[i - 1], cur[i], cur[i + 1]
        if flat:
            crossings.append(Crossing("F", (a, b, c, new)))
        elif sign > 0:
            crossings.append(Crossing("P", (a, b, c, new)))
        else:
            crossings.append(Crossing("N", (a, new, c, b)))
        cur[i] = new
    return Diagram(len(keys), tuple(crossings)), [keys[r] for r in range(len(keys))]


@st.composite
def braids(draw, min_strands):
    """(strands, word, next unused ident): the word has a letter in every
    inner gap, so every region of the closure is keyed by a letter."""
    strands = draw(st.integers(min_strands, 3))
    gaps = draw(st.permutations(range(1, strands)))
    gaps += draw(st.lists(st.integers(1, strands - 1), max_size=3))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(gaps), max_size=len(gaps)))
    return strands, [(n, g, s) for n, (g, s) in enumerate(zip(gaps, signs))], len(gaps)


@st.composite
def move_pairs(draw, flat, moves):
    """(after, before, correspondence after -> before) for one of the
    moves R1, R2 or R3 anywhere in a braid closure."""
    move = draw(st.sampled_from(moves))
    strands, word, ident = draw(braids(3 if move == "R3" else 2))
    p = draw(st.integers(0, len(word)))
    sign = draw(st.sampled_from((1, -1)))
    renamed = {}
    if move == "R1":
        # Markov stabilization: a new strand s+1 twisted once around strand
        # s.  The kink's loop is the new gap s+1; gap s, a single region
        # before and after, is keyed by the new letter afterwards.
        before, after = (strands, word), (strands + 1, word + [(ident, strands, sign)])
        renamed[(strands, ident)] = (strands, None)
    elif move == "R2":
        i = draw(st.integers(1, strands - 1))
        pair = [(ident, i, sign), (ident + 1, i, -sign)]
        before, after = (strands, word), (strands, word[:p] + pair + word[p:])
    else:
        # s_i s_{i+1} s_i -> s_{i+1} s_i s_{i+1}, one sign for all three; the
        # regions entering the disc keep the idents of the letters ending them
        i = draw(st.integers(1, strands - 2))
        x1, x2, x3 = (ident, i, sign), (ident + 1, i + 1, sign), (ident + 2, i, sign)
        y1, y2, y3 = (x2[0], i + 1, sign), (x1[0], i, sign), (ident + 3, i + 1, sign)
        before = (strands, word[:p] + [x1, x2, x3] + word[p:])
        after = (strands, word[:p] + [y1, y2, y3] + word[p:])
    d1, keys1 = closure(*after, flat)
    d2, keys2 = closure(*before, flat)
    where = {k: r for r, k in enumerate(keys2)}
    keys1 = [renamed.get(k, k) for k in keys1]
    return d1, d2, [(r, where[k]) for r, k in enumerate(keys1) if k in where]


@lru_cache(maxsize=None)
def algebra_and_cocycles(name, modulus, vname):
    X = load_algebra(name)
    return X, tuple(two_cocycles(X, modulus, NAMED_VARIANTS[vname]))


def check_invariance(d1, d2, pairs, name, modulus, vname):
    X, cocycles = algebra_and_cocycles(name, modulus, vname)
    rows = dict(invariant_report(
        d1, d2, X, variant=NAMED_VARIANTS[vname], correspondence=pairs, cocycles=cocycles
    ))
    assert rows["verdict"] == "consistent with invariance", (d1, d2, pairs)
    assert rows["classes.checked"] == str(len(colorings(d1, X)))
    assert all(rows["statesum.%d.equal" % i] == "yes" for i in range(len(cocycles)))


@pytest.mark.parametrize("name,modulus", [("z3linear.ktq", 3), ("z5affine.ktq", 5)])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(move=move_pairs(flat=False, moves=("R1", "R2", "R3")))
def test_classical_moves_keep_the_n_invariants(name, modulus, move):
    check_invariance(*move, name, modulus, "N")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(move=move_pairs(flat=True, moves=("R2", "R3")))
def test_flat_moves_keep_the_ni_invariants(move):
    check_invariance(*move, "z3linear.ktq", 3, "NI")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(move=move_pairs(flat=True, moves=("R1", "R2", "R3")))
def test_flat_moves_and_kinks_keep_the_nid_invariants(move):
    check_invariance(*move, "z3linear.ktq", 3, "NID")
