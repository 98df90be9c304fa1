"""Rank over F_p of a sparse integer matrix, written independently of
ktq.intlinalg, for the tests that check integer results against mod-p
ranks."""


def rank_mod_p(rows, p):
    """Rank over F_p of sparse rows {column: coeff}: each row is reduced
    by the pivot rows kept so far, from its least column on, and kept,
    scaled to a leading 1, when its least column holds no pivot."""
    pivots = {}
    for row in rows:
        v = {c: a % p for c, a in row.items() if a % p}
        while v:
            c = min(v)
            h = pivots.get(c)
            if h is None:
                inv = pow(v[c], p - 2, p)
                pivots[c] = {k: a * inv % p for k, a in v.items()}
                break
            f = v[c]
            for k, a in h.items():
                x = (v.get(k, 0) - f * a) % p
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
    return len(pivots)
