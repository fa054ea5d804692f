"""Independent oracles for the exact-linalg and engine tests.

Everything here is deliberately written against plain nested lists,
fractions.Fraction and the configuration's plain fields, independent of the
production normal-form and engine code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]



def invariant_factors(rows: list[list[int]]) -> list[int]:
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix from
    its determinantal divisors: D_k is the gcd of the k x k minors, up to
    the rank, and d_k = D_k / D_(k-1).

    Exponential in the size; meant for matrices up to about 4x5.
    """
    ncols = len(rows[0]) if rows else 0
    factors, prev = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        divisor = 0
        for picked in combinations(rows, k):
            for cols in combinations(range(ncols), k):
                divisor = gcd(divisor, bareiss_det([[r[j] for j in cols] for r in picked]))
        if not divisor:
            break
        factors.append(divisor // prev)
        prev = divisor
    return factors


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_columns(rows: list[list[int]]) -> list[list[int]]:
    """Column Hermite normal form of the lattice spanned by the columns, as
    rows: pivot rows strictly increase, pivots are positive, and each
    earlier column's entry in a pivot row lies in [0, pivot).

    Row by row, the first open column takes the gcd of the row's entries by
    extended-gcd 2x2 column operations of determinant 1; its pivot then
    floor-reduces the columns already finished.  The form is unique, so it
    must equal the production basis entry for entry.
    """
    nrows = len(rows)
    cols = [list(c) for c in zip(*rows)]
    done = 0
    for row in range(nrows):
        if done == len(cols):
            break
        # Every column from `done` on is zero above `row`: each earlier row
        # either got a pivot, whose step zeroed the later columns there, or
        # was zero in all of them.  So only the entries from `row` down move.
        head = cols[done]
        for other in cols[done + 1:]:
            a, b = head[row], other[row]
            if b:
                g, x, y = _ext_gcd(a, b)
                h, o = head[row:], other[row:]
                head[row:] = [x * u + y * v for u, v in zip(h, o)]
                other[row:] = [(a // g) * v - (b // g) * u for u, v in zip(h, o)]
        if head[row] < 0:
            head[row:] = [-u for u in head[row:]]
        if head[row]:
            pivot, tail = head[row], head[row:]
            for c in cols[:done]:
                q = c[row] // pivot
                if q:
                    c[row:] = [u - q * v for u, v in zip(c[row:], tail)]
            done += 1
    return [[c[i] for c in cols[:done]] for i in range(nrows)]


def kernel_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Hermite basis of {x in Z^ncols : rows x = 0}, as ncols rows: the
    Hermite columns of [rows; I] whose pivot lies in the identity block,
    read on that block."""
    stack = [list(r) for r in rows] + [[int(i == j) for j in range(ncols)]
                                       for i in range(ncols)]
    h = hermite_columns(stack)
    top = h[:len(rows)]
    keep = [j for j in range(len(h[0]) if h else 0) if not any(r[j] for r in top)]
    return [[r[j] for j in keep] for r in h[len(rows):]]


def intersection_basis(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Hermite basis of the intersection of the column lattices of a and b
    (same number of rows): a x over the kernel of [a | -b]."""
    p = len(a[0]) if a else 0
    k = kernel_basis([ra + [-x for x in rb] for ra, rb in zip(a, b)],
                     p + (len(b[0]) if b else 0))
    return hermite_columns([[sum(x * kr[j] for x, kr in zip(ra, k[:p]))
                             for j in range(len(k[0]) if k else 0)] for ra in a])


def is_saturated(rows: list[list[int]]) -> bool:
    """Whether the columns are a basis of a saturated lattice, i.e. have an
    integer left inverse: their rows span all of Z^k."""
    k = len(rows[0]) if rows else 0
    return hermite_columns([list(c) for c in zip(*rows)]) == [
        [int(i == j) for j in range(k)] for i in range(k)]


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q by straightforward Gaussian elimination: each pivot row,
    scaled to a leading 1, is subtracted from the rows below it at its
    nonzero entries only, which keeps large sparse matrices cheap.  Entries
    stay integers until elimination reaches them."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        entries = [(c, Fraction(y) / a[r][col]) for c, y in enumerate(a[r]) if y]
        for row in a[r + 1:]:
            f = row[col]
            if f:
                for c, y in entries:
                    row[c] -= f * y
        r += 1
        if r == nrows:
            break
    return r


def rational_nullity(rows: list[list[int]], ncols: int) -> int:
    return ncols - rational_rank(rows)


def rational_solve(a: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """One solution of a x = b over Q, or None when inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row, col in enumerate(pivots):
        x[col] = aug[row][ncols]
    return x


def _poly_add(p, q):
    n = max(len(p), len(q))
    return tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_scale(p, c):
    return tuple(c * x for x in p)


def rational_divides(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """True iff p divides the nonzero q in Q[t], coefficients ascending, by
    long division over the rationals; a zero p divides nothing."""
    if not any(p) or len(p) > len(q):
        return False
    rem = [Fraction(c) for c in q]
    div = [Fraction(c) for c in p]
    for k in range(len(rem) - len(div), -1, -1):
        factor = rem[k + len(div) - 1] / div[-1]
        for i, d in enumerate(div):
            rem[k + i] -= factor * d
    return not any(rem)


def charpoly_cofactor(rows: list[list[int]]) -> tuple[int, ...]:
    """Coefficients (ascending) of det(t I - m) by cofactor expansion.

    Exponential in the size; meant for matrices up to about 6x6.
    """
    n = len(rows)
    # entries of t I - m as polynomials in t
    entries = [[((-rows[i][j], 1) if i == j else (-rows[i][j],)) for j in range(n)]
               for i in range(n)]

    def det(idx_rows, idx_cols):
        if not idx_rows:
            return (1,)
        i = idx_rows[0]
        acc = ()
        for pos, j in enumerate(idx_cols):
            minor = det(idx_rows[1:], idx_cols[:pos] + idx_cols[pos + 1:])
            term = _poly_mul(entries[i][j], minor)
            acc = _poly_add(acc, term if pos % 2 == 0 else _poly_scale(term, -1))
        return acc

    out = det(tuple(range(n)), tuple(range(n)))
    out = list(out)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _width(rows: list[list[int]]) -> int:
    return len(rows[0]) if rows else 0


def _minus_identity(data) -> list[list[int]]:
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(data)]


def _reference_blocks(cfg) -> tuple[tuple[list[list[int]], int], tuple[list[list[int]], int]]:
    """The invariant and point blocks of j, each as (rows, columns), in the
    layout README describes, on the configuration's plain fields.

    Columns: each component's invariant basis, kernel_basis of its stacked
    nu - I rows, in declaration order; then Z^fq_rank_low for each special
    point.  Rows: each branch's kernel basis, kernel_basis(nu - I), points
    then branches in declaration order.  An invariant column's coordinates
    in a branch kernel come from rational_solve, checked integral; the
    point block is -iota.  Raises ValueError when a component's invariants
    do not lie in the kernel of one of its branches.
    """
    invariants, first_col, upper = {}, {}, 0
    for c in cfg.components:
        stacked = [row for nu in c.loop_monodromies for row in _minus_identity(nu.data)]
        invariants[c.id] = kernel_basis(stacked, c.transversal_rank)
        first_col[c.id] = upper
        upper += _width(invariants[c.id])
    low = sum(q.fq_rank_low for q in cfg.special_points)
    invariant_rows, point_rows, low0 = [], [], 0
    for q in cfg.special_points:
        iota_rows = iter(q.iota.data)
        for b in q.branches:
            kern = kernel_basis(_minus_identity(b.monodromy.data), len(b.monodromy.data))
            coords = [rational_solve(kern, list(col)) for col in zip(*invariants[b.component_id])]
            if any(x is None or any(f.denominator != 1 for f in x) for x in coords):
                raise ValueError(f"invariants of {b.component_id!r} outside a branch "
                                 f"kernel at {q.id!r}")
            c0 = first_col[b.component_id]
            for i in range(_width(kern)):
                row = [0] * upper
                row[c0:c0 + len(coords)] = [int(x[i]) for x in coords]
                invariant_rows.append(row)
                row = [0] * low
                row[low0:low0 + q.fq_rank_low] = [-x for x in next(iota_rows)]
                point_rows.append(row)
        low0 += q.fq_rank_low
    return (invariant_rows, upper), (point_rows, low)


def reference(cfg) -> tuple[list[list[int]], int, int]:
    """The rows of the comparison map j (the invariant block, then the point
    block), the rank of the lowest vanishing group, which is the rational
    nullity of j, and the interaction rank: the rank of the intersection of
    the column lattices of j's invariant and point blocks."""
    (invariant_rows, upper), (point_rows, low) = _reference_blocks(cfg)
    rows = [a + b for a, b in zip(invariant_rows, point_rows)]
    return (rows, rational_nullity(rows, upper + low),
            _width(intersection_basis(invariant_rows, point_rows)))


def euler_direct(cfg) -> int:
    """Euler characteristic of the vanishing neighborhood from the README
    formula: (-1)^n [ sum over components (2 genus + branches - 1) mu
    + sum over special points (fq_rank_high - fq_rank_low) + sum of Milnor
    numbers ], on the configuration's plain fields."""
    branches: dict[str, int] = {}
    for q in cfg.special_points:
        for b in q.branches:
            branches[b.component_id] = branches.get(b.component_id, 0) + 1
    inner = sum((2 * c.genus + branches.get(c.id, 0) - 1) * c.transversal_rank
                for c in cfg.components)
    inner += sum(q.fq_rank_high - q.fq_rank_low for q in cfg.special_points)
    inner += sum(r.milnor_number for r in cfg.isolated_points)
    return (-1) ** cfg.n * inner
