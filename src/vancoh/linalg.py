"""Exact linear algebra over the integers.

Dense matrices of arbitrary-precision integers, built from row lists by
`matrix`, the one checked constructor; Smith and Hermite normal forms,
kernels, images, cokernels and lattice intersections.  One column echelon
elimination is the core, touching only the pivot column's nonzero entries,
and it takes columns only: `rank`, `is_unimodular` and `cokernel` pass the
rows of m, the columns of its transpose, and the Hermite callers the
columns of their matrix, read off its rows by `zip`, so no transposed
matrix is built.  Ranks and unimodularity read its pivots, and one
back-normalisation, which writes into none of its input, turns it into the
column Hermite normal form, the basis of `image(m)`.  Kernels and
intersections eliminate the stack [A B; I 0] and back-normalise only the
columns they return; the kernel of a zero map is the identity, with no
elimination.  A `Submodule` is nothing but its Hermite basis, so
`image`, `kernel` and `intersect` are the public ways to get one
(`engine._build_j` also finishes one from validation's iota echelons).
Smith forms alternate echelon passes over rows and columns
(Kannan-Bachem): `cokernel` stops after m's rows when every pivot is 1,
and `smith_normal_form` extends each row by its row of u and each column
by its column of v.  Everything is pure and exact: no floats, no modular
shortcuts, and every normal form is canonical, so equal inputs always
produce identical outputs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd, lcm

from .polynomial import IntPolynomial
from .record import CheckedRecord


class IntegerMatrix(CheckedRecord, namedtuple("IntegerMatrix", "rows cols data")):
    """Immutable dense integer matrix (row-major tuples of Python ints)."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, data: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match declared shape")
        return tuple.__new__(cls, (rows, cols, data))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntegerMatrix":
        return _from_columns(self.cols, self.data)

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    def shifted(self, c: int) -> "IntegerMatrix":
        """m + c I, for a square m."""
        if not self.is_square:
            raise ValueError("identity shift of a non-square matrix")
        return IntegerMatrix(self.rows, self.cols, tuple(
            r[:i] + (r[i] + c,) + r[i + 1:] for i, r in enumerate(self.data)))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = other.transpose().data
        return IntegerMatrix(self.rows, other.cols,
                             tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                                   for row in self.data))


def matrix(rows: Sequence[Sequence[int]]) -> IntegerMatrix:
    """The checked constructor from nested row lists.

    Entries must be exactly `int`; any other raises, never converts.  They
    are checked before the rows' lengths.
    """
    data = tuple(map(tuple, rows))
    for row in data:
        for x in row:
            if type(x) is not int:
                raise ValueError("matrix entries must be integers")
    width = len(data[0]) if data else 0
    if any(len(row) != width for row in data):
        raise ValueError("ragged rows in matrix literal")
    return IntegerMatrix(len(data), width, data)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SNFResult(namedtuple("SNFResult", "u d v")):
    """Smith form d = u * m * v of a matrix m, with u and v unimodular."""

    __slots__ = ()


def smith_normal_form(m: IntegerMatrix) -> SNFResult:
    """Diagonalize ``m`` as ``u * m * v = d`` by unimodular ``u``, ``v``.

    ``d`` is diagonal with nonnegative entries satisfying the divisibility
    chain d1 | d2 | ... .  Total on all integer matrices, including empty
    ones.  Echelon passes alternate over rows and columns, as in `cokernel`,
    each row extended by its row of u and each column by its column of v,
    until one leaves every pivot at its own index with nothing after it.  A
    diagonal entry that does not divide a later one gets that vector added,
    and the passes go on.
    """
    # vectors: m's current rows or columns, of length width, extended by
    # tracks, their rows of u or columns of v; other: the other transform
    width, by_rows = m.cols, True
    vectors, tracks = m.data, IntegerMatrix.identity(m.rows).data
    other = IntegerMatrix.identity(m.cols).data
    while True:
        # the tracks are independent, so no vector is dropped; those zero in m come last
        pivots = _echelon((*x, *t) for x, t in zip(vectors, tracks))
        vectors = [c[:width] for _, c in pivots]
        tracks = [c[width:] for _, c in pivots]
        r = sum(p < width for p, _ in pivots)
        # only the first pass can leave a pivot past its own index
        if all(p == k and not any(c[k + 1:width]) for k, (p, c) in enumerate(pivots[:r])):
            late = next(((i, j) for i in range(r) for j in range(i + 1, r)
                         if vectors[j][j] % vectors[i][i]), None)
            if late is None:
                break
            i, j = late
            vectors[i] = [x + y for x, y in zip(vectors[i], vectors[j])]
            tracks[i] = [x + y for x, y in zip(tracks[i], tracks[j])]
        width, by_rows = len(vectors), not by_rows
        vectors, tracks, other = list(zip(*vectors)), other, tracks
    u_rows, d_rows, v_columns = ((tracks, vectors, other) if by_rows
                                 else (other, list(zip(*vectors)), tracks))
    return SNFResult(IntegerMatrix(m.rows, m.rows, tuple(map(tuple, u_rows))),
                     IntegerMatrix(m.rows, m.cols, tuple(map(tuple, d_rows))),
                     _from_columns(m.cols, v_columns))


# ---------------------------------------------------------------------------
# Column-style Hermite normal form and submodules
# ---------------------------------------------------------------------------

def _echelon(columns: Iterable[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Column echelon form of the given columns as (pivot row, column) pairs.

    ``columns`` is any iterable of equal-length integer sequences; they are
    copied into fresh lists, which the elimination then owns.  Pivot rows
    strictly increase, pivots are positive, every column is zero above its
    pivot row, and zero columns are dropped.  The columns are obtained from
    the given ones by unimodular column operations, so they span the same
    lattice.
    """
    live = [list(c) for c in columns]
    pivots: list[tuple[int, list[int]]] = []
    for row in range(len(live[0]) if live else 0):
        if not live:
            break  # every column holds a pivot: no later row can add one
        # Euclid on the entries of this row until one active column is left.
        # The pivot is the first column of least |entry| (ties go to the
        # lowest original column), found by a plain loop: a key function
        # would cost a call per column.  Live columns are zero above this
        # row, so each column operation touches only the pivot column's
        # nonzero suffix entries, listed once per pivot choice.  Quotients
        # round to the nearest integer, which leaves remainders of at most
        # |p|/2 (Havas-Majewski-Matthews) and needs fewer rounds than floor
        # quotients.
        active = [c for c in live if c[row]]
        while len(active) > 1:
            pc = active[0]
            least = abs(pc[row])
            for c in active:
                if abs(c[row]) < least:
                    pc, least = c, abs(c[row])
            p = pc[row]
            half = p // 2 if p > 0 else -(-p // 2)
            nz = [i for i in range(row, len(pc)) if pc[i]]
            for c in active:
                if c is not pc:  # |c[row]| >= |p|, so the quotient is never 0
                    q = (c[row] + half) // p
                    for i in nz:
                        c[i] -= q * pc[i]
            active = [c for c in active if c[row]]
        if active:
            pc = active[0]
            if pc[row] < 0:
                pc[row:] = [-x for x in pc[row:]]
            pivots.append((row, pc))
            live = [c for c in live if c is not pc]
    return pivots


def _back_normalise(pivots: list[tuple[int, list[int]]]) -> list[list[int]]:
    """The Hermite columns of the echelon ``pivots``, which is left as it is.

    Brings each column's entries in the later pivot rows into [0, pivot),
    last column first, by columns already final, which keeps the entries
    small; a reduced column is copied once, at its first reduction, and
    updated in place after that, and an unreduced one is the given list.
    Column k reads only columns k+1..., so a suffix of an echelon comes out
    as the same columns as in the full Hermite form.
    """
    done: list[tuple[int, list[int]]] = []
    for pivot_row, given in reversed(pivots):
        c = given
        for row, pc in reversed(done):
            q = c[row] // pc[row]
            if q:
                if c is given:
                    c = c[:]
                c[row:] = [x - q * y for x, y in zip(c[row:], pc[row:])]
        done.append((pivot_row, c))
    return [c for _, c in reversed(done)]


def _from_columns(rows: int, columns: Sequence[Sequence[int]]) -> IntegerMatrix:
    return IntegerMatrix(rows, len(columns), tuple(zip(*columns)) if columns else ((),) * rows)


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals: the number of column-echelon pivots of the
    transpose, whose columns are the rows of ``m``, eliminated in order;
    the transpose itself is never built."""
    return len(_echelon(m.data))


def is_unimodular(m: IntegerMatrix) -> bool:
    """True iff ``m`` is square with determinant +-1.

    The column echelon form of the transpose (the rows of ``m``, as in
    `rank`) of a square matrix of full rank is triangular and reached by
    unimodular column operations, so |det m| = |det m^T| is the product of
    its positive pivots: all of them must be 1.
    """
    if not m.is_square:
        return False
    pivots = _echelon(m.data)
    return len(pivots) == m.rows and all(c[row] == 1 for row, c in pivots)


class Submodule(namedtuple("Submodule", "basis")):
    """Sublattice of Z^ambient_rank, held as its canonical column-HNF basis.

    Canonicality turns submodule equality into plain matrix equality.  In
    the library the basis comes from `image`, from the kernel and
    intersection routines, or from back-normalised echelons, so it is
    always in Hermite form.
    """

    __slots__ = ()

    @property
    def ambient_rank(self) -> int:
        return self.basis.rows

    @property
    def rank(self) -> int:
        return self.basis.cols


def _restricted_image(n: int, a_columns: Sequence[Sequence[int]],
                      b_columns: Iterable[Sequence[int]]) -> list[list[int]]:
    """The columns of the canonical column-HNF basis of {x : A x in B Z^q}.

    The one place that lays out the stack [A B; I 0]: its columns, built
    from those of A and B (of height ``n``, explicit as A may have none),
    go to the elimination one at a time.  Pivot rows increase, so the
    columns whose top block vanishes are the last ones, those with pivot
    rows in the bottom block, and their bottom blocks span the wanted
    lattice (Kannan-Bachem).  Only these are back-normalised; that reads
    only later pivots, so their bottom blocks are the trailing columns of
    the full column HNF, the Hermite basis: returned as bare columns, for
    `kernel` to wrap and `intersect` to map by A.
    """
    p = len(a_columns)
    zero = (0,) * p
    pivots = _echelon(chain(((*c, *zero[:i], 1, *zero[i + 1:]) for i, c in enumerate(a_columns)),
                            ((*c, *zero) for c in b_columns)))
    first = next((k for k, (row, _) in enumerate(pivots) if row >= n), len(pivots))
    return [c[n:] for c in _back_normalise(pivots[first:])]


def kernel(m: IntegerMatrix) -> Submodule:
    """Integer kernel {x : m x = 0} of Z^cols, automatically saturated.

    A zero map, m with no rows included, has all of Z^cols as its kernel,
    read off as the identity without elimination.  Any other m gives the
    restricted image with no B, read off [m; I], wrapped as the Submodule
    of its columns; m's columns are read straight off its rows, and no
    transpose is built.  Saturated: k x in the kernel with k != 0 puts x
    in it.
    """
    if not any(map(any, m.data)):
        return Submodule(IntegerMatrix.identity(m.cols))
    return Submodule(_from_columns(m.cols, _restricted_image(m.rows, tuple(zip(*m.data)), ())))


def image(m: IntegerMatrix) -> Submodule:
    """Column span of ``m`` as a canonical submodule of Z^rows.

    Its basis is the column-style Hermite normal form of ``m``: pivot rows
    strictly increase with the column index, pivots are positive, in each
    pivot row the entries of earlier columns lie in [0, pivot), and zero
    columns are dropped.  So it has exactly rank-many columns and is the
    unique canonical basis of the lattice spanned by the columns of ``m``.
    """
    return Submodule(_from_columns(m.rows, _back_normalise(_echelon(zip(*m.data)))))


class FinAbGroup(CheckedRecord, namedtuple("FinAbGroup", "free_rank torsion")):
    """Finitely generated abelian group: free rank plus invariant factors.

    ``torsion`` lists the invariant factors d1 | d2 | ... (each >= 2).
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion invariant below 2")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise ValueError("torsion invariants must form a divisibility chain")
        return tuple.__new__(cls, (free_rank, torsion))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def cokernel(m: IntegerMatrix) -> FinAbGroup:
    """Z^rows / (column span of m), from echelon passes alone.

    The echelon of m's rows, as in `rank`, gives the rank r.  If every pivot
    is 1, the minor on the pivot columns is unitriangular: the r x r minors
    have gcd 1 and there is no torsion.  Otherwise bare passes alternate
    over columns and rows until no vector holds an entry after its pivot,
    and gcd and lcm turn the pivots left into the divisibility chain.
    """
    pivots = _echelon(m.data)
    if any(c[p] > 1 for p, c in pivots):
        while any(any(c[p + 1:]) for p, c in pivots):
            pivots = _echelon(zip(*(c for _, c in pivots)))
    factors = [c[p] for p, c in pivots if c[p] > 1]
    for i in range(len(factors)):
        for k in range(i + 1, len(factors)):
            factors[i], factors[k] = gcd(factors[i], factors[k]), lcm(factors[i], factors[k])
    return FinAbGroup(m.rows - len(pivots), tuple(x for x in factors if x > 1))


def intersect(a: Submodule, b: Submodule) -> Submodule:
    """Lattice intersection A Z^p cap B Z^q, as the image under A of the
    coefficient lattice {x : A x in B Z^q}.

    A is the basis of smaller rank (the arguments swap if needed), so the
    stack [A B; I 0] has n + p rows; its restricted image, from the columns
    of A and B, is the Hermite basis X of the coefficient lattice, and A's
    columns are reused to form A X.  A and X are column-Hermite and A
    has full column rank, so column k of A X starts, with a positive
    entry, at A's pivot row for X's pivot row of column k.  These rows
    increase with k, so one back-normalisation gives the Hermite basis.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch in intersection")
    if a.rank > b.rank:
        a, b = b, a
    a_columns = tuple(zip(*a.basis.data))
    # A X column by column, skipping the zeros of X and of A
    a_entries = [[(i, v) for i, v in enumerate(ac) if v] for ac in a_columns]
    pivots = []
    for xc in _restricted_image(a.ambient_rank, a_columns, zip(*b.basis.data)):
        c = [0] * a.ambient_rank
        for entries, t in zip(a_entries, xc):
            if t:
                for i, v in entries:
                    c[i] += t * v
        pivots.append((next(i for i, v in enumerate(c) if v), c))
    return Submodule(_from_columns(a.ambient_rank, _back_normalise(pivots)))


def solve_in_basis(basis: IntegerMatrix, targets: IntegerMatrix) -> IntegerMatrix | None:
    """Integer coordinates of each target column in a column-HNF basis.

    Returns the coefficient matrix c with basis * c = targets, or None when
    some target is not an integral combination of the basis columns.
    """
    if basis.rows != targets.rows:
        raise ValueError("row mismatch between basis and targets")
    columns = tuple(zip(*basis.data)) if basis.rows else ((),) * basis.cols
    pivots = [next((i for i, x in enumerate(c) if x), None) for c in columns]
    if None in pivots or any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("basis is not in column Hermite normal form")
    out_cols = []
    for residual in map(list, zip(*targets.data) if targets.rows else ((),) * targets.cols):
        coeffs = []
        for c, prow in zip(columns, pivots):
            q, r = divmod(residual[prow], c[prow])
            if r:
                return None
            coeffs.append(q)
            if q:
                residual[prow:] = [x - q * y for x, y in zip(residual[prow:], c[prow:])]
        if any(residual):
            return None
        out_cols.append(coeffs)
    return _from_columns(basis.cols, out_cols)


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly(m: IntegerMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(t I - m), exact coefficients.

    Faddeev-LeVerrier recursion; every division is exact over the integers.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return IntPolynomial((1,))
    coeffs = [0] * (n + 1)
    coeffs[n] = 1  # leading coefficient of t^n
    mk = m
    c = -mk.trace()
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        mk = m * mk.shifted(c)
        c = -mk.trace() // k
        coeffs[n - k] = c
    return IntPolynomial(tuple(coeffs))
