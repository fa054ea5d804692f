import random
from copy import deepcopy

import pytest
from hypothesis import example, given, settings, strategies as st

from vancoh import linalg
from vancoh.linalg import (FinAbGroup, IntegerMatrix, char_poly, cokernel,
                           image, intersect, is_unimodular, kernel, matrix, rank,
                           smith_normal_form, solve_in_basis)

import oracles
from helpers import (diagonal_of, differential_cases, exact_inverse, hstack, rand_matrix,
                     rand_unimodular, record_echelons, scaled, sparse_cases, vstack)


def small_matrices(max_dim=5, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r, max_size=r)))


class TestLiteral:
    @pytest.mark.parametrize("entry", [1.5, 2.0, "4", True, None], ids=repr)
    def test_rejects_non_integer_entries(self, entry):
        for rows in ([[1, 2], [3, entry]], [[entry]],
                     [[1, 2], [entry]]):  # entries are checked before raggedness
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                matrix(rows)

    def test_builds_exact_integers(self):
        big = 2 ** 200
        assert matrix([[big, -big], [0, 1]]).data == ((big, -big), (0, 1))
        assert matrix([]) == IntegerMatrix.zeros(0, 0)
        assert matrix([[]]) == IntegerMatrix.zeros(1, 0)


class TestShape:
    @pytest.mark.parametrize("rows, cols", [(-1, 0), (0, -1)])
    def test_rejects_negative_dimension(self, rows, cols):
        with pytest.raises(ValueError, match="^negative matrix dimension$"):
            IntegerMatrix(rows, cols, ())

    @pytest.mark.parametrize("rows, cols, data", [
        (2, 1, ((1,),)), (1, 2, ((1,),)), (1, 1, ((1,), (2,))), (0, 0, ((),)),
    ], ids=["short-column", "short-row", "extra-row", "0x0-with-row"])
    def test_rejects_data_off_shape(self, rows, cols, data):
        with pytest.raises(ValueError, match="^matrix data does not match declared shape$"):
            IntegerMatrix(rows, cols, data)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError, match="^ragged rows in matrix literal$"):
            matrix([[1, 2], [3]])

    def test_trace_of_non_square_raises(self):
        with pytest.raises(ValueError, match="^trace of a non-square matrix$"):
            IntegerMatrix.zeros(2, 3).trace()

    def test_mismatched_product_raises(self):
        with pytest.raises(ValueError, match="^cannot multiply 2x3 by 2x3$"):
            IntegerMatrix.zeros(2, 3) * IntegerMatrix.zeros(2, 3)


def shaped_matrices(max_dim=5, bound=9):
    """Matrices of every shape up to max_dim, 0 x n and n x 0 included."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-bound, bound), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]).map(
                lambda rows: matrix(rows) if rows else IntegerMatrix.zeros(0, shape[1])))


class TestTranspose:
    @settings(max_examples=200, deadline=None)
    @given(shaped_matrices())
    @example(IntegerMatrix.zeros(0, 0))
    @example(IntegerMatrix.zeros(0, 3))
    @example(IntegerMatrix.zeros(3, 0))
    def test_involution_and_rank(self, m):
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert all(t.data[j][i] == x for i, row in enumerate(m.data) for j, x in enumerate(row))
        assert t.transpose() == m
        assert rank(m) == rank(t) == oracles.rational_rank(m.tolist())


class TestShifted:
    def test_identity_minus_identity_is_zero(self):
        assert IntegerMatrix.identity(3).shifted(-1) == IntegerMatrix.zeros(3, 3)

    def test_zero_shift_is_equal(self):
        m = matrix([[2, -1], [5, 7]])
        assert m.shifted(0) == m

    def test_big_entries_stay_exact(self):
        big = 2 ** 200
        shifted = matrix([[big, 1], [-big, big - 1]]).shifted(big)
        assert shifted.data == ((2 * big, 1), (-big, 2 * big - 1))
        assert all(type(x) is int for row in shifted.data for x in row)

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (0, 1), (1, 0)])
    def test_non_square_raises(self, rows, cols):
        with pytest.raises(ValueError):
            IntegerMatrix.zeros(rows, cols).shifted(1)


class TestSmithNormalForm:
    def test_identity(self):
        m = IntegerMatrix.identity(3)
        u, d, v = smith_normal_form(m)
        assert d == IntegerMatrix.identity(3)
        assert u * m * v == d

    def test_zero(self):
        m = IntegerMatrix.zeros(2, 3)
        _, d, _ = smith_normal_form(m)
        assert d == IntegerMatrix.zeros(2, 3)

    def test_diag_2_3(self):
        m = matrix([[2, 0], [0, 3]])
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert diagonal_of(d) == [1, 6]

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            m = IntegerMatrix.zeros(r, c)
            u, d, v = smith_normal_form(m)
            assert u * m * v == d

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
            assert smith_normal_form(m) == smith_normal_form(m)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_property_reconstruction(self, rows):
        m = matrix(rows)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert oracles.bareiss_det(u.tolist()) in (1, -1)
        assert oracles.bareiss_det(v.tolist()) in (1, -1)
        diag = diagonal_of(d)
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert len(nz) == len(diag) - diag.count(0)
        # off-diagonal must vanish
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.data[i][j] == 0


class TestKernelImage:
    def test_kernel_identity(self):
        assert kernel(IntegerMatrix.identity(4)) == image(IntegerMatrix.zeros(4, 0))

    def test_kernel_zero_row(self):
        assert kernel(matrix([[0, 0, 0]])) == image(IntegerMatrix.identity(3))

    def test_kernel_sum_functional(self):
        k = kernel(matrix([[1, 1, 1]]))
        assert k.rank == 2
        for col in zip(*k.basis.data):
            assert sum(col) == 0
        assert k.rank == 3 - oracles.rational_rank([[1, 1, 1]])

    def test_kernel_without_rows(self):
        # no rows to read columns from: the kernel is all of Z^n
        for n in range(4):
            assert kernel(IntegerMatrix.zeros(0, n)) == image(IntegerMatrix.identity(n))

    def test_image_full(self):
        assert image(IntegerMatrix.identity(3)).basis == IntegerMatrix.identity(3)

    def test_image_zero(self):
        assert image(IntegerMatrix.zeros(3, 2)).basis == IntegerMatrix.zeros(3, 0)

    def test_image_sum_zero_columns(self):
        m = matrix([[1, 0], [-1, 1], [0, -1]])
        im = image(m)
        assert im.rank == 2
        for col in zip(*im.basis.data):
            assert sum(col) == 0

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_property_rank_nullity_and_saturation(self, rows):
        m = matrix(rows)
        k = kernel(m)
        im = image(m)
        assert k.rank + im.rank == m.cols
        assert k.rank == oracles.rational_nullity(rows, m.cols)
        # every kernel basis column really maps to zero
        prod = m * k.basis
        assert prod == IntegerMatrix.zeros(m.rows, k.rank)
        # saturation: the basis extends to a basis of the ambient lattice,
        # i.e. its invariant factors are all 1
        if k.rank:
            assert all(x == 1 for x in diagonal_of(smith_normal_form(k.basis).d) if x) \
                and rank(k.basis) == k.rank
            assert [x for x in diagonal_of(smith_normal_form(k.basis).d) if x] \
                == [1] * k.rank


class TestCokernel:
    def test_zero_map(self):
        assert cokernel(IntegerMatrix.zeros(1, 1)) == FinAbGroup(1, ())

    def test_identity_1(self):
        assert cokernel(matrix([[1]])) == FinAbGroup(0, ())

    def test_minus_two(self):
        assert cokernel(matrix([[-2]])) == FinAbGroup(0, (2,))

    def test_unimodular_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 5)
            u = rand_unimodular(rng, m.rows)
            v = rand_unimodular(rng, m.cols)
            assert cokernel(u * m * v) == cokernel(m)

    def test_matches_determinantal_divisors(self, monkeypatch):
        # random matrices, products through a narrower middle, and stacked
        # nu - id blocks of unimodular monodromies and of -I, up to 4x5,
        # against the oracle's gcds of minors.  Both exits of cokernel are
        # taken: one echelon and no torsion when every pivot is 1, further
        # passes while some vector holds an entry after its pivot
        rng = random.Random(200)
        cases = []
        for _ in range(70):
            cases.append(rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), 9))
        for _ in range(70):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            middle = rng.randrange(min(rows, cols))
            cases.append(rand_matrix(rng, rows, middle, 4) * rand_matrix(rng, middle, cols, 4))
        for _ in range(60):
            n = rng.randint(1, 2)
            loops = [rng.choice((rand_unimodular(rng, n), scaled(IntegerMatrix.identity(n), -1)))
                     for _ in range(rng.randint(1, 4 // n))]
            cases.append(vstack([nu.shifted(-1) for nu in loops]))
        # entries settle only on the fourth pass; fewer passes misread these
        cases += [matrix([[-23, -2, -9], [-30, -16, -11], [-4, 12, 30], [13, -22, -18]]),
                  matrix([[-7, 2, -7], [-4, -4, 9], [-9, 9, 3]]),
                  matrix([[9, 30, 17], [-15, 23, -8], [-21, 13, 29]])]
        echelons = record_echelons(monkeypatch)
        units = alternating = 0
        for m in cases:
            factors = oracles.invariant_factors(m.tolist())
            start = len(echelons)
            group = cokernel(m)
            assert group == FinAbGroup(m.rows - len(factors),
                                       tuple(x for x in factors if x > 1)), m
            units += len(echelons) - start == 1 and not group.torsion
            alternating += len(echelons) - start > 1
            diag = diagonal_of(smith_normal_form(m).d)
            assert diag == factors + [0] * (len(diag) - len(factors)), m
        assert units >= 50 and alternating >= 50


class TestFinAbGroup:
    @pytest.mark.parametrize("free_rank, torsion, message", [
        (-1, (), "negative free rank"),
        (0, (1,), "torsion invariant below 2"),
        (1, (2, 0), "torsion invariant below 2"),
        (0, (-2,), "torsion invariant below 2"),
        (0, (2, 3), "torsion invariants must form a divisibility chain"),
        (2, (4, 2), "torsion invariants must form a divisibility chain"),
    ], ids=["negative-rank", "factor-1", "factor-0", "negative-factor", "2-3", "4-2"])
    def test_rejects_invalid_invariants(self, free_rank, torsion, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FinAbGroup(free_rank, torsion)


class TestIntersect:
    def test_with_full(self):
        s = image(matrix([[2, 0], [0, 0], [0, 3]]))
        assert intersect(image(IntegerMatrix.identity(3)), s) == s
        assert intersect(s, image(IntegerMatrix.identity(3))) == s

    def test_with_zero(self):
        s = image(matrix([[1], [1]]))
        zero = image(IntegerMatrix.zeros(2, 0))
        assert intersect(s, zero) == zero

    def test_transverse_lines(self):
        a = image(matrix([[1], [0]]))
        b = image(matrix([[1], [1]]))
        assert intersect(a, b) == image(IntegerMatrix.zeros(2, 0))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            intersect(image(IntegerMatrix.identity(2)), image(IntegerMatrix.identity(3)))

    def test_commutative_idempotent(self):
        for name, (ma, mb) in each(PAIR_SETS):
            a, b = image(ma), image(mb)
            got = intersect(a, b)
            assert got == intersect(b, a), (name, ma, mb)
            assert intersect(a, a) == a, (name, ma)
            zero = image(IntegerMatrix.zeros(ma.rows, 0))
            assert intersect(a, zero) == intersect(zero, a) == zero, (name, ma)
            for side in (a, b):
                assert solve_in_basis(side.basis, got.basis) is not None, (name, ma, mb)

    def test_index_two_overlap(self):
        # span{(2,0),(0,1)} and span{(1,1)} meet in the even multiples of (1,1)
        a = image(matrix([[2, 0], [0, 1]]))
        b = image(matrix([[1], [1]]))
        got = intersect(a, b)
        assert got == image(matrix([[2], [2]]))

    def test_eliminates_kernel_stack(self, monkeypatch):
        # one elimination of [A B; I 0] with A the side of smaller rank, in
        # either argument order: n + min(ra, rb) rows
        rng = random.Random(53)
        a, b = image(rand_matrix(rng, 6, 2, 9)), image(rand_matrix(rng, 6, 4, 9))
        assert (a.rank, b.rank) == (2, 4)
        stacks = record_echelons(monkeypatch)
        assert intersect(a, b) == intersect(b, a)
        assert [len(columns) for columns in stacks] == [2 + 4] * 2
        for columns in stacks:
            assert all(len(c) == 6 + 2 for c in columns)
            assert [c[:6] for c in columns] == list(zip(*hstack([a.basis, b.basis]).data))
            assert [c[6:] for c in columns] == [(1, 0), (0, 1)] + [(0, 0)] * 4

    def test_rank_against_rational_oracle(self):
        # rank(A cap B) = rk A + rk B - rk [A B]: any rational point of the
        # span intersection has an integer multiple in the lattice one
        for name, (ma, mb) in each(PAIR_SETS):
            ra, rb, rab = (oracles.rational_rank(m.tolist()) for m in (ma, mb, hstack([ma, mb])))
            assert intersect(image(ma), image(mb)).rank == ra + rb - rab, (name, ma, mb)


class TestHermite:
    def test_canonical_under_column_ops(self):
        for name, cases in MATRIX_SETS.items():
            rng = random.Random(48)
            for m in cases:
                v = rand_unimodular(rng, m.cols, bound=9)
                assert image(m * v).basis == image(m).basis, (name, m)

    def test_pivot_shape(self):
        # a pivot row with entries left of its pivot, reduced into [0, 5)
        assert image(matrix([[0, 2, 4], [1, 1, 1], [3, 0, 2]])).basis \
            == matrix([[2, 0, 0], [0, 1, 0], [2, 3, 5]])


def assert_column_hnf(h):
    """Pivot rows strictly increase, pivots are positive, and earlier
    columns lie in [0, pivot) in each pivot row."""
    last = -1
    for j, col in enumerate(zip(*h.data)):
        pivot_row = next(i for i, x in enumerate(col) if x)
        assert pivot_row > last
        last = pivot_row
        assert col[pivot_row] > 0
        for j2 in range(j):
            x = h.data[pivot_row][j2]
            assert 0 <= x < col[pivot_row]


def rounding_cases():
    """Matrices at the edges of the nearest-integer Euclid step: exact ties
    |c| = |p|/2 with even pivots of both signs, entries near 2^200, tall
    [m; I] stacks, and square matrices of determinant +-1 that are not
    triangular and of determinant +-2."""
    rng = random.Random(47)
    cases = []
    for p in (2, 4, 6, 10, -2, -4, -6, -10):
        h = abs(p) // 2
        for ties in ([p, 3 * h, -3 * h], [p, -p, 3 * h, 5 * h]):
            width = len(ties)
            for _ in range(3):
                cases.append(matrix([ties] + [[rng.randint(-9, 9) for _ in range(width)]
                                              for _ in range(rng.randint(1, 3))]))
    big = 2 ** 200
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.choice((-1, 1)) * (big - rng.randint(0, 2 ** 20)) if rng.random() < 0.7
                 else rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if r > 2 and rng.random() < 0.4:
            rows[-1] = [x - y for x, y in zip(rows[0], rows[1])]
        cases.append(matrix(rows))
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 8), 9)
        cases.append(vstack([m, IntegerMatrix.identity(m.cols)]))
    unimodular = []
    while len(unimodular) < 20:
        n = rng.randint(2, 6)
        m = rand_unimodular(rng, n, bound=9)
        if any(m.data[i][j] for i in range(n) for j in range(i)) and \
                any(m.data[i][j] for i in range(n) for j in range(i + 1, n)):
            unimodular.append(m)
    cases += unimodular
    for _ in range(20):
        n = rng.randint(1, 6)
        two = matrix([[(1 + (i == 0)) * (i == j) for j in range(n)] for i in range(n)])
        cases.append(rand_unimodular(rng, n, bound=9) * two * rand_unimodular(rng, n, bound=9))
    return cases


def random_cases():
    """60 seeded matrices up to 5x5 with entries up to 6, and one whose
    column HNF has a pivot row with entries left of its pivot."""
    rng = random.Random(5)
    return [rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 6)
            for _ in range(60)] + [matrix([[0, 2, 4], [1, 1, 1], [3, 0, 2]])]


def zero_block_cases():
    """All-zero matrices of shapes 0 x n, n x 0 and n x m, and 40 seeded
    matrices from 3x3 to 6x7 with entries up to 9 outside their zero rows
    and zero columns: one of each strictly inside, and any other one time
    in four.  Zero maps have their kernel read off without elimination;
    the others are eliminated with zero rows and columns among live ones."""
    cases = [IntegerMatrix.zeros(r, c)
             for r, c in [(0, 0), (0, 1), (0, 4), (1, 0), (5, 0), (1, 1), (2, 1), (3, 5), (6, 4)]]
    rng = random.Random(50)

    def live(n):
        inner = rng.randrange(1, n - 1)
        return [i != inner and rng.random() >= 0.25 for i in range(n)]

    for _ in range(40):
        r, c = rng.randint(3, 6), rng.randint(3, 7)
        rows, cols = live(r), live(c)
        cases.append(IntegerMatrix(r, c, tuple(
            tuple(rng.randint(-9, 9) if a and b else 0 for b in cols) for a in rows)))
    return cases


def huge_pairs():
    """12 pairs of matrices with entries up to 2^200; the second holds twice
    a combination of the first's columns, so most intersections are nonzero."""
    rng = random.Random(49)
    big = 2 ** 200
    pairs = []
    for _ in range(12):
        n = rng.randint(2, 6)
        ma = rand_matrix(rng, n, rng.randint(1, n), big)
        shared = scaled(ma * rand_matrix(rng, ma.cols, 1, 3), 2)
        pairs.append((ma, hstack([rand_matrix(rng, n, rng.randint(0, n - 1), big), shared])))
    return pairs


def split_pairs(cases):
    """Each matrix's columns split in two at a seeded point."""
    rng = random.Random(44)
    pairs = []
    for m in cases:
        split = rng.randint(0, m.cols)
        pairs.append((IntegerMatrix(m.rows, split, tuple(r[:split] for r in m.data)),
                      IntegerMatrix(m.rows, m.cols - split, tuple(r[split:] for r in m.data))))
    return pairs


def random_pairs():
    """40 seeded pairs in Z^1 to Z^4 of at most n columns, and 60 in Z^1 to
    Z^5 of at most n + 1, with entries up to 4."""
    pairs = []
    for seed, count, extra in ((11, 40, 0), (23, 60, 1)):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 4 + extra)
            pairs.append(tuple(rand_matrix(rng, n, rng.randint(0, n + extra), 4)
                               for _ in range(2)))
    return pairs


DIFFERENTIAL, HUGE, SPARSE = differential_cases(), huge_pairs(), sparse_cases()
ZERO_BLOCKS = zero_block_cases()
MATRIX_SETS = {"differential": DIFFERENTIAL, "rounding": rounding_cases(),
               "random": random_cases(), "huge": [m for pair in HUGE for m in pair],
               "sparse": SPARSE, "zero_blocks": ZERO_BLOCKS}
PAIR_SETS = {"split": split_pairs(DIFFERENTIAL), "random": random_pairs(), "huge": HUGE,
             "sparse": split_pairs(SPARSE), "zero_blocks": split_pairs(ZERO_BLOCKS)}


def each(sets):
    """Every case of every set, beside its set's name for failure messages."""
    return [(name, case) for name, cases in sets.items() for case in cases]


class TestSolveInBasis:
    def test_exact_coordinates(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            basis = image(rand_matrix(rng, n, rng.randint(1, n), 4)).basis
            if basis.cols == 0:
                continue
            coeffs = rand_matrix(rng, basis.cols, 2, 5)
            got = solve_in_basis(basis, basis * coeffs)
            assert got == coeffs

    def test_rejects_outside_vector(self):
        basis = image(matrix([[2], [0]])).basis
        assert solve_in_basis(basis, matrix([[1], [0]])) is None
        assert solve_in_basis(basis, matrix([[0], [1]])) is None

    @pytest.mark.parametrize("basis,targets", [
        (IntegerMatrix.identity(2), IntegerMatrix.zeros(3, 1)),
        (matrix([[0], [0]]), IntegerMatrix.zeros(2, 1)),        # a zero column has no pivot
        (matrix([[1, 0], [0, 0]]), IntegerMatrix.zeros(2, 1)),  # nor one after a pivot
        (matrix([[0, 1], [1, 0]]), IntegerMatrix.zeros(2, 1)),  # pivot rows decrease
        (IntegerMatrix.zeros(0, 1), IntegerMatrix.zeros(0, 1)),  # no rows, so no pivot
    ], ids=["row-mismatch", "zero-column", "zero-second-column", "decreasing-pivots", "0x1"])
    def test_rejects_bad_input(self, basis, targets):
        with pytest.raises(ValueError):
            solve_in_basis(basis, targets)

    def test_empty_shapes(self):
        assert solve_in_basis(IntegerMatrix.zeros(0, 0), IntegerMatrix.zeros(0, 3)) \
            == IntegerMatrix.zeros(0, 3)
        basis = image(matrix([[2], [1]])).basis
        assert solve_in_basis(basis, IntegerMatrix.zeros(2, 0)) == IntegerMatrix.zeros(1, 0)


def rank_by_snf(snf):
    """The rank read off the d of a Smith form."""
    return sum(1 for x in diagonal_of(snf.d) if x)


def snf_kernel(m):
    """The Smith route to the kernel: the columns of v beyond the rank."""
    snf = smith_normal_form(m)
    v, r = snf.v, rank_by_snf(snf)
    return image(IntegerMatrix(m.cols, m.cols - r, tuple(row[r:] for row in v.data)))


def snf_intersect(a, b):
    """Intersection through the Smith kernel of [A -B], mapped back by A."""
    if a.rank == 0 or b.rank == 0:
        return image(IntegerMatrix.zeros(a.ambient_rank, 0))
    k = snf_kernel(hstack([a.basis, scaled(b.basis, -1)])).basis
    coeffs = IntegerMatrix(a.rank, k.cols, k.data[:a.rank])
    return image(a.basis * coeffs)


def snf_image(m):
    """The Smith route to the image: the nonzero columns of m v."""
    snf = smith_normal_form(m)
    mv, r = m * snf.v, rank_by_snf(snf)
    return IntegerMatrix(m.rows, r, tuple(row[:r] for row in mv.data))


class TestDifferential:
    """Every reference on every case set of its kind: the Hermite, kernel
    and intersection oracles, the rational ranks and determinants, and the
    retired Smith route, which takes one Smith form per reference and
    gives the cokernel's torsion.  Each reference's test loops over every
    set; the image, rank, cokernel and unimodularity checks are
    parametrized over the sets."""

    @pytest.mark.parametrize("name", MATRIX_SETS)
    def test_image(self, name):
        for m in MATRIX_SETS[name]:
            h = image(m).basis
            assert (h.rows, h.cols) == (m.rows, oracles.rational_rank(m.tolist())), m
            assert_column_hnf(h)
            assert h * solve_in_basis(h, m) == m, m

    @pytest.mark.parametrize("name", MATRIX_SETS)
    def test_back_normalise_keeps_its_echelon(self, name):
        # the engine finishes validation's iota echelons as they are
        for m in MATRIX_SETS[name]:
            pivots = linalg._echelon(zip(*m.data))
            snapshot = deepcopy(pivots)
            finished = linalg._back_normalise(pivots)
            assert pivots == snapshot, m
            assert finished == [list(c) for c in zip(*image(m).basis.data)], m

    def test_image_matches_hermite_oracle(self):
        for name, m in each(MATRIX_SETS):
            assert image(m).basis.tolist() == oracles.hermite_columns(m.tolist()), (name, m)

    def test_image_matches_smith_route(self):
        for name, m in each(MATRIX_SETS):
            assert image(snf_image(m)).basis == image(m).basis, (name, m)

    def test_kernel_matches_oracle(self):
        for name, m in each(MATRIX_SETS):
            k = kernel(m).basis.tolist()
            assert k == oracles.kernel_basis(m.tolist(), m.cols), (name, m)
            assert oracles.is_saturated(k), (name, m)

    def test_kernel_matches_smith_route(self):
        for name, m in each(MATRIX_SETS):
            assert kernel(m) == snf_kernel(m), (name, m)

    @pytest.mark.parametrize("name", MATRIX_SETS)
    def test_rank(self, name):
        for m in MATRIX_SETS[name]:
            assert rank(m) == oracles.rational_rank(m.tolist()) \
                == rank_by_snf(smith_normal_form(m)), m

    @pytest.mark.parametrize("name", MATRIX_SETS)
    def test_cokernel(self, name):
        for m in MATRIX_SETS[name]:
            factors = [x for x in diagonal_of(smith_normal_form(m).d) if x]
            assert cokernel(m) == FinAbGroup(m.rows - oracles.rational_rank(m.tolist()),
                                             tuple(x for x in factors if x > 1)), m

    @pytest.mark.parametrize("name", MATRIX_SETS)
    def test_is_unimodular(self, name):
        dets = [oracles.bareiss_det(m.tolist()) if m.is_square else 0 for m in MATRIX_SETS[name]]
        for m, det in zip(MATRIX_SETS[name], dets):
            assert is_unimodular(m) == (det in (1, -1)), m
        if name == "differential":
            assert sum(det in (1, -1) for det in dets) >= 20
        if name == "rounding":
            assert sum(det in (2, -2) for det in dets) >= 10

    def test_intersect_matches_oracle(self):
        for name, (ma, mb) in each(PAIR_SETS):
            a, b = image(ma), image(mb)
            assert intersect(a, b).basis.tolist() == oracles.intersection_basis(
                a.basis.tolist(), b.basis.tolist()), (name, ma, mb)

    def test_intersect_matches_smith_route(self):
        for name, (ma, mb) in each(PAIR_SETS):
            a, b = image(ma), image(mb)
            assert intersect(a, b) == snf_intersect(a, b), (name, ma, mb)

    def test_intersect_huge_entries(self):
        # intersect swaps its operands by rank: the pairs with entries up to
        # 2^200 meet each order with a nonzero intersection
        orders = set()
        for ma, mb in PAIR_SETS["huge"]:
            a, b = image(ma), image(mb)
            if intersect(a, b).rank:
                orders.add((a.rank > b.rank) - (a.rank < b.rank))
        assert orders == {-1, 0, 1}

    def test_independent_oracles_on_worked_examples(self):
        assert oracles.hermite_columns([[2, 4], [1, 3]]) == [[2, 0], [0, 1]]
        assert oracles.hermite_columns([[0, 0], [-3, 6]]) == [[0], [3]]
        assert oracles.hermite_columns([[], []]) == [[], []]
        assert oracles.kernel_basis([[1, 1]], 2) == [[1], [-1]]
        assert oracles.kernel_basis([], 2) == [[1, 0], [0, 1]]
        assert oracles.intersection_basis([[2], [0]], [[3], [0]]) == [[6], [0]]
        assert oracles.intersection_basis([[1], [0]], [[0], [1]]) == [[], []]
        assert [oracles.is_saturated(c) for c in (
            [[2], [1]], [[1, 0], [0, 1], [0, 0]], [[], []],
            [[2], [0]], [[1, 1], [1, -1]], [[1, 2], [1, 2]])] == [True] * 3 + [False] * 3


class TestCharPoly:
    def test_identity(self):
        p = char_poly(IntegerMatrix.identity(2))
        assert p.coeffs == (1, -2, 1)
        assert char_poly(IntegerMatrix.identity(0)).coeffs == (1,)

    def test_minus_one(self):
        assert char_poly(matrix([[-1]])).coeffs == (1, 1)

    def test_swap(self):
        assert char_poly(matrix([[0, 1], [1, 0]])).coeffs == (-1, 0, 1)

    def test_non_square(self):
        with pytest.raises(ValueError):
            char_poly(IntegerMatrix.zeros(2, 3))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_property_matches_cofactor_oracle(self, rows):
        assert char_poly(matrix(rows)).coeffs == oracles.charpoly_cofactor(rows)

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n, 5)
            u = rand_unimodular(rng, n)
            assert char_poly(u * m * exact_inverse(u)) == char_poly(m)


def test_is_unimodular():
    assert is_unimodular(IntegerMatrix.identity(3))
    assert is_unimodular(matrix([[1, 5], [0, -1]]))
    assert not is_unimodular(matrix([[2]]))
    assert not is_unimodular(IntegerMatrix.zeros(2, 3))


def test_big_entry_stress():
    # intermediate entries blow up well past machine words; everything must
    # stay exact
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(4, 7)
        m = rand_matrix(rng, n, n, 10 ** 9)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert oracles.bareiss_det(u.tolist()) in (1, -1)
        assert oracles.bareiss_det(v.tolist()) in (1, -1)
        nz = [x for x in diagonal_of(d) if x]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        prod = 1
        for x in nz:
            prod *= x
        if len(nz) == n:
            assert prod == abs(oracles.bareiss_det(m.tolist()))
    # a fixed case with entries far beyond 64 bits
    big = 10 ** 40
    m = matrix([[big, big + 1], [big - 1, big]])
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert diagonal_of(d) == [1, 1]  # determinant is exactly 1
