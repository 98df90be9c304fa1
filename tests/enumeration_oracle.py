"""The enumeration that forward checking replaced, kept as a brute-force
oracle: every Latin table, then A3 by the literal equations, the involution
through the derived division M, and the least of all n! relabelings."""

from itertools import permutations, product

from ktq.algebra import OpTable, derive_divisions


def latin_tables(n):
    """All tables whose three slot-maps are bijections, in lexicographic
    order of the flat value tuple."""
    total = n ** 3
    vals = [0] * total
    # one bitmask of used values per line in each of the three axes
    mask_jk = [0] * (n * n)  # varying i, fixed (j, k)
    mask_ik = [0] * (n * n)  # varying j
    mask_ij = [0] * (n * n)  # varying k

    def rec(pos):
        if pos == total:
            yield OpTable(n, vals)
            return
        k = pos % n
        j = (pos // n) % n
        i = pos // (n * n)
        a, b, c = j * n + k, i * n + k, i * n + j
        for v in range(n):
            bit = 1 << v
            if (mask_jk[a] | mask_ik[b] | mask_ij[c]) & bit:
                continue
            vals[pos] = v
            mask_jk[a] |= bit
            mask_ik[b] |= bit
            mask_ij[c] |= bit
            yield from rec(pos + 1)
            mask_jk[a] ^= bit
            mask_ik[b] ^= bit
            mask_ij[c] ^= bit

    yield from rec(0)


def check_a3(t):
    """(A3L holds, A3R holds, first A3L witness, first A3R witness), from
    the two equations written out literally."""
    wl = wr = None
    for a, b, c, d in product(range(t.order), repeat=4):
        bcd = t(b, c, d)
        abc = t(a, b, c)
        if wl is None and t(abc, c, d) != t(t(a, b, bcd), bcd, d):
            wl = (a, b, c, d)
        if wr is None and t(a, b, bcd) != t(a, abc, t(abc, c, d)):
            wr = (a, b, c, d)
        if wl is not None and wr is not None:
            break
    return wl is None, wr is None, wl, wr


def a3_reads(t, a, b, c, d):
    """For A3L and A3R at (a, b, c, d), written out literally: the set of
    entries (flat indices) the equation reads, and whether it holds."""
    n = t.order
    out = []
    for sides in (
        lambda T: (T(T(a, b, c), c, d), T(T(a, b, T(b, c, d)), T(b, c, d), d)),
        lambda T: (T(a, b, T(b, c, d)), T(a, T(a, b, c), T(T(a, b, c), c, d))),
    ):
        read = set()

        def T(x, y, z):
            read.add((x * n + y) * n + z)
            return t(x, y, z)

        lhs, rhs = sides(T)
        out.append((read, lhs == rhs))
    return out


def canonical_form(t):
    """Lexicographically least value tuple over all n! relabelings."""
    n = t.order
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cand = tuple(
            perm[t(inv[i], inv[j], inv[k])]
            for i, j, k in product(range(n), repeat=3)
        )
        if best is None or cand < best:
            best = cand
    return best


def enumerate_ktqs(n, filt, dedup):
    out = []
    for t in latin_tables(n):
        if filt != "all_quasigroups":
            a3l, a3r, _, _ = check_a3(t)
            if not (a3l and a3r):
                continue
            if filt == "iktq":
                _, m, _ = derive_divisions(t)
                if m.values != t.values:
                    continue
        if dedup and canonical_form(t) != t.values:
            continue
        out.append(t)
    return out
