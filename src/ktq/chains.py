"""Tuples, sparse integer chains, face maps and differentials.

A degree-n generator is an (n+2)-tuple of elements, n >= -1; the degree -2
group is Z with the empty tuple () as its single generator.  Chains are
sparse maps from tuples to nonzero integer coefficients.
"""

from itertools import product

from .errors import MathError


class Chain:
    """A finitely supported integer combination of tuples of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        if degree < -2:
            raise ValueError("degree must be >= -2")
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for tup, c in items:
                if len(tup) != degree + 2:
                    raise ValueError(
                        "tuple %r has the wrong length for degree %d" % (tup, degree)
                    )
                acc[tup] = acc.get(tup, 0) + c
        self.degree = degree
        self.terms = {t: c for t, c in acc.items() if c}

    @classmethod
    def single(cls, tup, coeff=1):
        return cls(len(tup) - 2, {tup: coeff})

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        acc = dict(self.terms)
        for t, c in other.terms.items():
            acc[t] = acc.get(t, 0) + c
        return Chain(self.degree, acc)

    def __neg__(self):
        return Chain(self.degree, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        return Chain(self.degree, {t: k * c for t, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Chain(%d, 0)" % self.degree
        parts = [
            "%+d*%r" % (c, t) for t, c in sorted(self.terms.items())
        ]
        return "Chain(%d, %s)" % (self.degree, " ".join(parts))


def all_tuples(order, degree):
    """Degree-n generator tuples in lexicographic order."""
    if degree < -2:
        raise ValueError("degree must be >= -2")
    return list(product(range(order), repeat=degree + 2))


def _op(X):
    # accept a TernaryQuasigroup or a bare OpTable
    return X.t if hasattr(X, "t") else X


def _face_l_rewrite(t, i, x):
    # d_0 drops the head; d_i rewrites slot i to T(x_{i-1}, x_i, x_{i+1})
    # and recurses on d_{i-1}.
    while i > 0:
        x = x[:i] + (t(x[i - 1], x[i], x[i + 1]),) + x[i + 1:]
        i -= 1
    return x[1:]


def _face_r_scan(t, i, x):
    # keep x_0..x_i, then continue the z-recursion z_k = T(z_{k-1}, x_k, x_{k+1})
    n = len(x) - 2
    out = list(x[: i + 1])
    z = x[i]
    for k in range(i + 1, n + 1):
        z = t(z, x[k], x[k + 1])
        out.append(z)
    return tuple(out)


def face_l(X, i, tup):
    """The i-th left face of a degree-n tuple (degree drops by one)."""
    n = len(tup) - 2
    if n < 0 or not 0 <= i <= n:
        raise IndexError("face index %d out of range for degree %d" % (i, n))
    return _face_l_rewrite(_op(X), i, tup)


def face_r(X, i, tup):
    """The i-th right face of a degree-n tuple."""
    n = len(tup) - 2
    if n < 0 or not 0 <= i <= n:
        raise IndexError("face index %d out of range for degree %d" % (i, n))
    return _face_r_scan(_op(X), i, tup)


def boundary_tuple(X, tup, kind="full"):
    """The differential of a single tuple, as a Chain one degree down.

    kind 'L' gives the alternating sum of left faces, 'R' of right faces,
    'full' their difference.  Degree -1 tuples map to zero in degree -2.
    """
    if kind not in ("L", "R", "full"):
        raise ValueError("unknown differential kind %r" % (kind,))
    n = len(tup) - 2
    if n < 0:
        return Chain(n - 1)
    acc = {}

    def add(t2, c):
        acc[t2] = acc.get(t2, 0) + c

    if kind in ("L", "full"):
        for i in range(n + 1):
            add(face_l(X, i, tup), (-1) ** i)
    if kind in ("R", "full"):
        sign = -1 if kind == "full" else 1
        for i in range(n + 1):
            add(face_r(X, i, tup), sign * (-1) ** i)
    return Chain(n - 1, acc)


def boundary(X, chain, kind="full"):
    """Linear extension of boundary_tuple over a Chain (or a bare tuple)."""
    if isinstance(chain, tuple):
        return boundary_tuple(X, chain, kind)
    acc = {}
    for tup, c in chain.terms.items():
        for t2, c2 in boundary_tuple(X, tup, kind).terms.items():
            acc[t2] = acc.get(t2, 0) + c * c2
    return Chain(chain.degree - 1, acc)


def reverse_tuple(tup):
    return tup[::-1]


def reverse_chain(c):
    """Reverse every tuple in a chain, keeping coefficients."""
    return Chain(c.degree, {t[::-1]: k for t, k in c.terms.items()})


def is_d_degenerate(X, tup):
    """Degeneracy test: does some window satisfy T(x_{j-1}, x_j, x_{j+1}) = x_j?

    For a quasigroup this unified condition is equivalent to each of the two
    literal window forms (see d1_holds / d2_holds).  Returns (flag, j) with j
    the first witnessing middle position, or (False, None).  Tuples of degree
    < 1 are never degenerate.
    """
    t = _op(X)
    n = len(tup) - 2
    for j in range(1, n + 1):
        if t(tup[j - 1], tup[j], tup[j + 1]) == tup[j]:
            return True, j
    return False, None


def d1_holds(X, tup):
    """Literal first window form: (a, b, R(a, b, b)) on consecutive slots."""
    n = len(tup) - 2
    for j in range(1, n + 1):
        a, b, c = tup[j - 1], tup[j], tup[j + 1]
        if X.r(a, b, b) == c:
            return True
    return False


def d2_holds(X, tup):
    """Literal second window form: (L(b, b, a), b, a) on consecutive slots."""
    n = len(tup) - 2
    for j in range(1, n + 1):
        e, b, a = tup[j - 1], tup[j], tup[j + 1]
        if X.l(b, b, a) == e:
            return True
    return False


def tuple_sub(X, tup, j):
    """x[j]: replace slot j by T(x_{j-1}, x_j, x_{j+1})."""
    t = _op(X)
    n = len(tup) - 2
    if not 1 <= j <= n:
        raise IndexError("slot %d out of range for degree %d" % (j, n))
    return tup[:j] + (t(tup[j - 1], tup[j], tup[j + 1]),) + tup[j + 1:]


def i_relator(X, tup, j):
    """The relator x + x[j]; defined only for involutory algebras (T = M).

    When x[j] = x the two terms merge into 2*x.
    """
    if not getattr(X, "is_iktq", False):
        raise MathError("relators of this form require an involutory KTQ (T = M)")
    other = tuple_sub(X, tup, j)
    acc = {tup: 1}
    acc[other] = acc.get(other, 0) + 1
    return Chain(len(tup) - 2, acc)


def relator_generators(X, n, variant):
    """Generators of the degenerate subgroup of degree n.

    variant 'D': one generator per degenerate tuple; 'I': x + x[j] for every
    tuple and every valid j; 'ID': the D list followed by the I list.  Empty
    for n < 1.  Ordering is lexicographic (by tuple, then j).
    """
    if variant not in ("D", "I", "ID"):
        raise ValueError("unknown relator variant %r" % (variant,))
    if variant in ("I", "ID") and not X.is_iktq:
        raise MathError("relators of this form require an involutory KTQ (T = M)")
    if n < 1:
        return []
    gens = []
    if variant in ("D", "ID"):
        for tup in all_tuples(X.order, n):
            if is_d_degenerate(X, tup)[0]:
                gens.append(Chain.single(tup))
    if variant in ("I", "ID"):
        for tup in all_tuples(X.order, n):
            for j in range(1, n + 1):
                gens.append(i_relator(X, tup, j))
    return gens
