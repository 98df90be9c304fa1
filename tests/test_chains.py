from itertools import product

import pytest

from ktq import MathError
from ktq.chains import (
    Chain,
    all_tuples,
    boundary,
    boundary_tuple,
    d1_holds,
    d2_holds,
    face_l,
    face_r,
    i_relator,
    is_d_degenerate,
    relator_generators,
    reverse_chain,
    reverse_tuple,
    tuple_sub,
)
from ktq.algebra import classify, hat


def test_chain_arithmetic_and_zero_dropping():
    a = Chain.single((0, 1, 2))
    b = Chain.single((0, 1, 2), -1) + Chain.single((1, 1, 1), 2)
    s = a + b
    assert s.terms == {(1, 1, 1): 2}
    assert (s - s).terms == {}
    assert not (s - s)
    assert (3 * a).terms == {(0, 1, 2): 3}
    assert a - a == Chain(1)


def test_chain_degree_checks():
    with pytest.raises(ValueError):
        Chain(1, {(0, 1): 1})
    with pytest.raises(ValueError):
        Chain.single((0,)) + Chain.single((0, 0))


def test_all_tuples_counts():
    assert all_tuples(3, -2) == [()]
    assert len(all_tuples(3, 1)) == 27
    assert len(all_tuples(2, 3)) == 32


def test_face_maps_low_degree(z3linear):
    t = z3linear.t
    # d_0 drops the head; the last face only rewrites
    for x in all_tuples(3, 1):
        a, b, c = x
        assert face_l(z3linear, 0, x) == (b, c)
        assert face_l(z3linear, 1, x) == (t(a, b, c), c)
        assert face_r(z3linear, 0, x) == (a, t(a, b, c))
        assert face_r(z3linear, 1, x) == (a, b)


def face_l_coords(t, i, x):
    # coordinates k = 1..n+1, computed right to left:
    # x_k for k > i, else T(x_{k-1}, x_k, <coordinate k+1>)
    n = len(x) - 2
    out = [0] * (n + 1)
    nxt = None
    for k in range(n + 1, 0, -1):
        c = x[k] if k > i else t(x[k - 1], x[k], nxt)
        out[k - 1] = c
        nxt = c
    return tuple(out)


def face_r_coords(t, i, x):
    # coordinates k = 0..n, computed left to right
    def coord(k):
        if k <= i:
            return x[k]
        return t(coord(k - 1), x[k], x[k + 1])

    return tuple(coord(k) for k in range(len(x) - 1))


def test_face_maps_match_coordinate_recursions(samples):
    # the face maps rewrite tuples; the oracle builds each coordinate
    for X in samples:
        for Y in (X, classify(hat(X.t))):
            for n in (0, 1, 2, 3):
                for tup in all_tuples(Y.order, n):
                    for i in range(n + 1):
                        assert face_l(Y, i, tup) == face_l_coords(Y.t, i, tup)
                        assert face_r(Y, i, tup) == face_r_coords(Y.t, i, tup)


def test_boundary_squares_to_zero(z3linear, z2sum, z5affine):
    for X in (z3linear, z2sum, z5affine):
        for kind in ("L", "R", "full"):
            for n in (1, 2, 3):
                for tup in all_tuples(X.order, n):
                    bb = boundary(X, boundary_tuple(X, tup, kind), kind)
                    assert not bb, (X.order, kind, n, tup)


def test_boundary_of_degree_zero_and_below(z3linear):
    assert boundary_tuple(z3linear, (0, 1), "full").terms == {(1,): 1, (0,): -1}
    assert not boundary_tuple(z3linear, (2,), "full")


def test_boundary_accepts_bare_tuples(z3linear):
    assert boundary(z3linear, (0, 1, 2), "full") == boundary_tuple(
        z3linear, (0, 1, 2), "full"
    )


def test_reverse_lemmas(z3linear, z5affine, z2sum1):
    for X in (z3linear, z5affine, z2sum1):
        Xh = classify(hat(X.t))
        for n in (0, 1, 2, 3):
            for tup in all_tuples(X.order, n):
                for i in range(n + 1):
                    assert face_r(X, i, tup) == reverse_tuple(
                        face_l(Xh, n - i, reverse_tuple(tup))
                    )
                lhs = boundary_tuple(X, tup, "R")
                rhs = (-1) ** n * reverse_chain(
                    boundary_tuple(Xh, reverse_tuple(tup), "L")
                )
                assert lhs == rhs


def test_degeneracy_conditions_agree(z3linear, z5affine, z2sum, z2sum1):
    for X in (z3linear, z5affine, z2sum, z2sum1):
        for n in (1, 2, 3):
            for tup in all_tuples(X.order, n):
                flag, j = is_d_degenerate(X, tup)
                assert flag == d1_holds(X, tup) == d2_holds(X, tup)
                if flag:
                    assert X.t(tup[j - 1], tup[j], tup[j + 1]) == tup[j]


def test_i_relator_requires_iktq(z5affine):
    with pytest.raises(MathError):
        i_relator(z5affine, (0, 1, 2), 1)


def test_i_relator_doubles_on_fixed_points(z3linear):
    # T(0,1,2) = 0-1+2 = 1 mod 3: the middle entry is fixed
    assert i_relator(z3linear, (0, 1, 2), 1).terms == {(0, 1, 2): 2}
    assert i_relator(z3linear, (0, 0, 2), 1).terms == {(0, 0, 2): 1, (0, 2, 2): 1}


def test_tuple_sub(z3linear):
    assert tuple_sub(z3linear, (0, 0, 2), 1) == (0, 2, 2)


def test_relator_generator_counts(z3linear, z5affine):
    assert relator_generators(z3linear, 0, "D") == []
    assert len(relator_generators(z3linear, 1, "D")) == 9
    assert len(relator_generators(z3linear, 1, "I")) == 27
    assert len(relator_generators(z3linear, 1, "ID")) == 36
    assert len(relator_generators(z5affine, 1, "D")) == 25
    with pytest.raises(MathError):
        relator_generators(z5affine, 1, "I")


def test_relator_boundaries_stay_in_relator_span(z3linear):
    # degree-1 relators must be cycles (there is nothing below them)
    for variant in ("D", "I", "ID"):
        for g in relator_generators(z3linear, 1, variant):
            assert not boundary(z3linear, g, "full"), (variant, g)
