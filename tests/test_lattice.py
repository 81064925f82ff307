import itertools
import random
import types
from fractions import Fraction

import pytest

from twistdual import lattice
from twistdual.lattice import (
    FGAbelianGroup,
    IntMatrix,
    LatticeHom,
    MalformedMatrixError,
    Sublattice,
    intersect,
    integral_inverse,
    kernel_mod,
    quotient_group,
    smith_normal_form,
)
from twistdual.rootdata import RootDatum

import kernel_oracle
from fraction_oracle import inverse_unimodular, solve_left_rational


def _saturation(s):
    """The smallest saturated sublattice containing s: the kernel of the
    kernel of its basis."""
    return kernel_mod(kernel_mod(s.basis).basis)


def snf_diag(m):
    return list(smith_normal_form(m))


def assert_snf_contract(m):
    """The invariant factors: one per diagonal entry, each >= 0, a
    divisibility chain, and equal to the diagonal of sympy's Smith form."""
    diag = smith_normal_form(m)
    assert type(diag) is tuple and len(diag) == min(m.rows, m.cols)
    assert all(type(x) is int and x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y % x == 0) if x else y == 0
    assert diag == kernel_oracle.invariant_factors(m)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        m = IntMatrix([[2, 0], [0, 3]])
        assert snf_diag(m) == [1, 6]
        assert_snf_contract(m)

    def test_identity(self):
        m = IntMatrix.identity(2)
        assert snf_diag(m) == [1, 1]

    def test_single_entry(self):
        assert snf_diag(IntMatrix([[2]])) == [2]

    def test_random_matrices(self):
        rng = random.Random(7)
        for _ in range(300):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-12, 12) for _ in range(cols)]
                           for _ in range(rows)])
            assert_snf_contract(m)

    def test_zero_matrix(self):
        assert snf_diag(IntMatrix.zero(3, 2)) == [0, 0]


class TestSmithOnDemand:
    """`smith_normal_form` returns the invariant factors alone; only
    `quotient_group` and `RootDatum.pi1` ask for them."""

    @staticmethod
    def _matrices(st):
        # up to 5 x 6, tall, wide and square, with zero rows and the zero
        # matrix coming up often
        def shaped(rc):
            rows, cols = rc
            row = st.one_of(st.just([0] * cols),
                            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
            return st.one_of(st.just(IntMatrix.zero(rows, cols)), st.lists(
                row, min_size=rows, max_size=rows).map(lambda a: IntMatrix(a, cols=cols)))
        return st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(shaped)

    def test_contract_on_random_matrices(self):
        hypothesis = pytest.importorskip("hypothesis")
        pytest.importorskip("sympy")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(self._matrices(hypothesis.strategies))
        def check(m):
            assert_snf_contract(m)
        check()

    def test_returns_invariant_factors_only(self):
        m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert smith_normal_form(m) == (2, 6, 12)
        assert smith_normal_form(IntMatrix([[0, 4], [0, 6], [0, 0]])) == (2, 0)
        assert not hasattr(lattice, "SmithForm")

    def test_quotient_group_and_pi1_read_d_only(self, monkeypatch):
        s = Sublattice.from_rows(3, [(2, 4, 4), (-6, 6, 12), (10, -4, -16)])
        assert quotient_group(s).invariant_factors == (2, 6, 12)
        assert quotient_group(Sublattice.from_rows(3, [(0, 2, 0)])).invariant_factors == (2, 0, 0)
        assert RootDatum(IntMatrix([[1]]), IntMatrix([[2]])).pi1().invariant_factors == (2,)
        # a kernel, and so the kernel of a kernel, is a Hermite reduction: no Smith form
        smith_calls = []
        smith = lattice.smith_normal_form
        monkeypatch.setattr(lattice, "smith_normal_form",
                            lambda m: smith_calls.append(m) or smith(m))
        assert kernel_mod(IntMatrix([[2, 4], [1, 2]]), None).basis.data == ((2, -1),)
        assert kernel_mod(IntMatrix([[2, 4], [1, 2]]), 6).basis.data == ((2, 2), (0, 3))
        assert _saturation(Sublattice.from_rows(2, [(2, 4)])).basis.data == ((1, 2),)
        assert smith_calls == []


class TestKernelMod:
    def test_two_mod_six(self):
        # brute force over residues mod 6: {x : 2x = 0 mod 6} = {0, 3}
        expected = sorted(x for x in range(6) if (2 * x) % 6 == 0)
        assert expected == [0, 3]
        k = kernel_mod(IntMatrix([[2]]), 6)
        assert k.basis.data == ((3,),)

    def test_zero_map(self):
        k = kernel_mod(IntMatrix.zero(2, 3), 5)
        assert k.basis == IntMatrix.identity(3)

    @pytest.mark.parametrize("modulus", [None, 1, 6])
    @pytest.mark.parametrize("rows", [0, 2])
    def test_zero_map_is_whole_lattice(self, rows, modulus):
        k = kernel_mod(IntMatrix.zero(rows, 3), modulus)
        assert k == Sublattice.full(3)

    def test_identity_mod_one(self):
        k = kernel_mod(IntMatrix.identity(2), 1)
        assert k.basis == IntMatrix.identity(2)

    def test_exact_kernel_saturated(self):
        m = IntMatrix([[1, 1, 0], [0, 2, 2]])
        k = kernel_mod(m, None)
        assert k.rank == 1
        for row in k.basis.data:
            assert m.mul_vec(row) == (0, 0)
        assert _saturation(k) == k

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            rows, cols = rng.randint(1, 2), rng.randint(1, 3)
            n = rng.randint(2, 8)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)]
                           for _ in range(rows)])
            k = kernel_mod(m, n)
            for row in k.basis.data:
                assert all(x % n == 0 for x in m.mul_vec(row))
            # membership of every residue-class solution
            import itertools
            for x in itertools.product(range(n), repeat=cols):
                sol = all(v % n == 0 for v in m.mul_vec(x))
                assert k.contains(x) == sol or not sol
                if sol:
                    assert k.contains(x)

    def test_nonmembers_fail(self):
        rng = random.Random(3)
        m = IntMatrix([[2]])
        k = kernel_mod(m, 6)
        for _ in range(20):
            x = rng.randint(-20, 20)
            if not k.contains((x,)):
                assert (2 * x) % 6 != 0


class TestHermiteKernel:
    """`kernel_mod` is one Hermite reduction of [m^T | I], modulo N when
    there is one; `_hermite_rows` pivots each column by extended gcd.  Each
    is checked against a route of `kernel_oracle`: residues, the Smith
    form, or the Hermite form by repeated sorting."""

    @staticmethod
    def _sized(props, rows, cols):
        return props.st.tuples(props.st.integers(*rows), props.st.integers(*cols)).flatmap(
            lambda rc: props.shaped(*rc))

    def test_modular_kernel_is_every_residue_solution(self, props):
        @props.settings
        @props.given(self._sized(props, (0, 3), (1, 3)), props.st.integers(1, 12))
        def check(m, modulus):
            k = kernel_mod(m, modulus)
            n = m.cols
            assert kernel_oracle.sorted_hermite_rows(k.basis.data, n) == k.basis.data
            # k holds N Z^n, so it is the set of its residues plus N Z^n
            assert all(k.contains(tuple(modulus * (i == j) for j in range(n)))
                       for i in range(n))
            residues = {x for x in itertools.product(range(modulus), repeat=n)
                        if k.contains(x)}
            assert residues == kernel_oracle.residue_kernel(m, modulus)
        check()

    def test_equals_the_smith_route(self, props):
        @props.settings
        @props.given(self._sized(props, (0, 7), (0, 7)),
                     props.st.sampled_from((None, 1, 2, 12, 720720)))
        def check(m, modulus):
            assert kernel_mod(m, modulus).basis.data == kernel_oracle.smith_kernel(m, modulus)
        check()

    def test_common_factor_of_matrix_and_modulus_keeps_the_kernel(self, props):
        # N | m x iff (N/g) | (m/g) x, so kernel_mod divides a common factor
        # out before its memo; scaling both by g must give the same basis,
        # exact kernels included, with the memo cleared and warm alike
        @props.settings
        @props.given(self._sized(props, (0, 5), (0, 5)),
                     props.st.sampled_from((None, 1, 2, 6, 12)), props.st.integers(1, 30))
        def check(m, modulus, g):
            scaled = IntMatrix([[g * x for x in row] for row in m.data], cols=m.cols)
            oracle = kernel_oracle.smith_kernel(m, modulus)
            lattice._kernel.cache_clear()
            assert kernel_mod(scaled, modulus and g * modulus).basis.data == oracle
            assert kernel_mod(m, modulus).basis.data == oracle
            assert kernel_mod(scaled, modulus and g * modulus).basis.data == oracle
        check()

    def test_exact_kernel_killed_of_corank_and_saturated(self, props):
        @props.settings
        @props.given(self._sized(props, (0, 6), (0, 7)))
        def check(m):
            k = kernel_mod(m, None)
            assert all(not any(m.mul_vec(row)) for row in k.basis.data)
            rank = props.sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row]).rank()
            assert k.rank == m.cols - rank
            assert _saturation(k) == k
        check()

    @pytest.mark.parametrize("rows,ncols", [
        ([], 3), ([[0, 0, 0], [0, 0, 0]], 3), ([[0, 0]], 2),
        ([[4, 6], [6, 9], [10, 15], [-2, -3], [14, 21]], 2),         # tall, rank 1
        ([[6, -4, 10, 0, 3], [9, -6, 15, 1, 0]], 5),                  # wide
        ([[-3, -5, -7], [-2, -4, -6], [-1, -1, -1]], 3),              # negative
        ([[0, -2, 3], [0, -4, 1]], 3),                                # negative pivots
        ([[0, -12, 18], [0, 8, -30], [0, 0, -7]], 3),                 # a zero column
    ])
    def test_hermite_rows_on_named_shapes(self, rows, ncols):
        assert lattice._hermite_rows(rows, ncols) == \
            kernel_oracle.sorted_hermite_rows(rows, ncols)

    def test_hermite_rows_match_sorting(self, props):
        @props.settings
        @props.given(self._sized(props, (0, 8), (0, 6)))
        def check(m):
            assert lattice._hermite_rows(m.data, m.cols) == \
                kernel_oracle.sorted_hermite_rows(m.data, m.cols)
        check()


class TestSaturation:
    def test_double_vector(self):
        s = Sublattice.from_rows(2, [(2, 0)])
        assert _saturation(s).basis.data == ((1, 0),)

    def test_full_lattice(self):
        s = Sublattice.full(3)
        assert _saturation(s) == s

    def test_primitive_diagonal(self):
        s = Sublattice.from_rows(2, [(2, 2)])
        assert _saturation(s).basis.data == ((1, 1),)

    def test_idempotent_and_contains(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 3)
            k = rng.randint(0, n)
            s = Sublattice.from_rows(
                n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
            sat = _saturation(s)
            assert _saturation(sat) == sat
            for row in s.basis.data:
                assert sat.contains(row)
            if s.rank:
                assert sat.rank == s.rank  # finite index


def _quotient_order_by_counting(s: Sublattice):
    # rank <= 2 oracle: count canonical residues in a box
    assert s.ambient_rank <= 2 and s.rank == s.ambient_rank
    d = abs(s.basis.det())
    import itertools
    residues = set()
    for x in itertools.product(range(2 * d), repeat=s.ambient_rank):
        v = list(x)
        for row, c in zip(s.basis.data, s._pivots()):
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        residues.add(tuple(v))
    return len(residues)


class TestQuotientGroup:
    def test_z6(self):
        s = Sublattice.from_rows(2, [(2, 0), (0, 3)])
        assert quotient_group(s).invariant_factors == (6,)

    def test_trivial(self):
        s = Sublattice.full(1)
        assert quotient_group(s).invariant_factors == ()

    def test_free_factor(self):
        s = Sublattice.from_rows(2, [(1, 0)])
        assert quotient_group(s).invariant_factors == (0,)

    def test_order_equals_point_count(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 2)
            while True:
                s = Sublattice.from_rows(
                    n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
                if s.rank == n:
                    break
            g = quotient_group(s)
            assert g.order() == _quotient_order_by_counting(s)
            assert g.order() == abs(s.basis.det())


class TestIntersect:
    def test_basic(self):
        a = Sublattice.from_rows(2, [(2, 0), (0, 1)])
        b = Sublattice.from_rows(2, [(1, 0), (0, 3)])
        c = intersect(a, b)
        assert c.contains((2, 0)) and c.contains((0, 3))
        assert not c.contains((1, 0))
        assert c.basis.data == ((2, 0), (0, 3))

    def test_random_containment(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 3)
            a = Sublattice.from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = Sublattice.from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            c = intersect(a, b)
            for row in c.basis.data:
                assert a.contains(row) and b.contains(row)

    def test_random_maximality(self):
        # with neither side all of Z^n, a vector of the box lies in both
        # sides exactly when it lies in the intersection
        rng = random.Random(17)
        pairs = hits = 0
        while pairs < 40:
            n = rng.randint(1, 4)
            a, b = (Sublattice.from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]
                                             for _ in range(rng.randint(1, n))])
                    for _ in range(2))
            if Sublattice.full(n) in (a, b):
                continue
            c = intersect(a, b)
            for v in itertools.product(range(-3, 4), repeat=n):
                both = a.contains(v) and b.contains(v)
                assert both == c.contains(v), (a, b, v)
                hits += both and any(v)
            pairs += 1
        assert hits > 100

    def test_whole_lattice_returns_other_side(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 3)
            a = Sublattice.from_rows(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            full = Sublattice.full(n)
            assert intersect(full, a) is a
            assert intersect(a, full) is (full if a == full else a)
            # Z^n given on a basis other than the identity is Z^n all the same
            if n > 1:
                unit = IntMatrix.identity(n).data
                other = Sublattice(n, IntMatrix([(1, rng.randint(1, 3)) + unit[0][2:],
                                                 *unit[1:]]))
                assert intersect(a, other) == a and intersect(other, a) == a
        # a unit diagonal alone is not Z^n: rows (1, 2), (2, 1) span index 3
        b = Sublattice(2, IntMatrix([[1, 2], [2, 1]]))
        a = Sublattice.from_rows(2, [(1, 0), (0, 2)])
        assert intersect(a, b) == intersect(a, Sublattice.from_rows(2, b.basis.data)) != a


class TestSublatticeConstructor:
    def test_basis_not_in_hermite_form_is_reduced(self):
        s = Sublattice(2, IntMatrix([[1, 0], [1, 2]]))
        assert s.contains((0, 2))
        assert s == Sublattice.from_rows(2, [(1, 0), (1, 2)])
        assert s.coefficients((1, 4)) == (1, 2)   # on the basis (1, 0), (0, 2)

    def test_any_basis_of_the_whole_lattice_equals_full(self):
        assert Sublattice(2, IntMatrix([[1, 1], [0, 1]])) == Sublattice.full(2)

    def test_random_bases_agree_with_from_rows(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                    for _ in range(rng.randint(0, n))]
            if IntMatrix(rows, cols=n).rank() != len(rows):
                continue   # a basis has independent rows
            reduced = Sublattice.from_rows(n, rows)
            given = Sublattice(n, IntMatrix(rows, cols=n))
            assert given == reduced
            assert given.basis.data == reduced.basis.data
            assert Sublattice(n, reduced.basis).basis == reduced.basis

    # Z^3 on a 2-wide row: contains((1, 0, 0)) zipped the row against
    # the first two entries and said True
    @pytest.mark.parametrize("ambient,rows,width", [
        (3, [[1, 0]], 2), (1, [[1, 0]], 2), (2, [], 3)])
    def test_basis_of_another_width_rejected(self, ambient, rows, width):
        with pytest.raises(ValueError, match=f"basis of width {width} in Z\\^{ambient}"):
            Sublattice(ambient, IntMatrix(rows, cols=width))

    def test_reduced_paths_skip_the_shape_check(self, monkeypatch):
        # full and zero build Hermite rows themselves and from_rows reduces
        # once; a basis from outside is reduced once, in the constructor
        rows = [(2, 4, 0), (0, 3, 1)]
        reduced = tuple(lattice._hermite_rows(rows, 3))
        calls = []
        inner = lattice._hermite_rows
        monkeypatch.setattr(lattice, "_hermite_rows",
                            lambda r, n: calls.append(r) or inner(r, n))
        built = [Sublattice.from_rows(3, rows)]
        assert len(calls) == 1
        built += [Sublattice.full(3), Sublattice.zero(3)]
        assert len(calls) == 1
        assert [s.basis.data for s in built] == [reduced, IntMatrix.identity(3).data, ()]
        assert Sublattice(3, IntMatrix(rows)).basis.data == reduced
        assert len(calls) == 2

    # True == 1 and 2.0 == 2 passed the width check: Sublattice(True, [[1]])
    # equalled Sublattice.full(1)
    @pytest.mark.parametrize("ambient", [True, False, 2.0, -1, "2", None])
    def test_ambient_rank_must_be_an_int(self, ambient):
        basis = IntMatrix([[1, 0]]) if ambient in (2.0, "2") else IntMatrix([[1]])
        for build in (lambda: Sublattice(ambient, basis), lambda: Sublattice.full(ambient),
                      lambda: Sublattice.zero(ambient),
                      lambda: Sublattice.from_rows(ambient, basis.data)):
            with pytest.raises(MalformedMatrixError):
                build()


class TestHelpers:
    def test_lattice_index(self):
        outer = Sublattice.full(2)
        inner = Sublattice.from_rows(2, [(2, 0), (0, 3)])
        assert kernel_oracle.lattice_index(outer, inner) == 6
        assert kernel_oracle.lattice_index(outer, Sublattice.from_rows(2, [(1, 0)])) is None

    def test_inverse_unimodular(self):
        m = IntMatrix([[2, 1], [1, 1]])
        inv = inverse_unimodular(m)
        assert (m @ inv) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            inverse_unimodular(IntMatrix([[2, 0], [0, 1]]))

    def test_solve_left_rational(self):
        rows = [(1, 2), (0, 3)]
        sol = solve_left_rational(rows, (2, 7))
        assert sol == (Fraction(2), Fraction(1))
        assert solve_left_rational([(1, 0)], (0, 1)) is None

    @pytest.mark.parametrize("entry", [2.5, Fraction(1, 2), "3", float("inf")])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ValueError):
            IntMatrix([[1, entry]])

    def test_integral_entries_of_other_types_accepted(self):
        assert IntMatrix([[2.0, Fraction(4, 2)]]).data == ((2, 2),)


@pytest.fixture
def props():
    """Hypothesis, sympy and random integer matrices up to 6x6, with entries
    in [-3, 3] (singular ones come up often) or up to 10^6 in size (the
    exact divisions of the elimination meet large minors)."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    def matrices(rows, cols):
        return st.sampled_from((3, 10**6)).flatmap(lambda bound: st.lists(
            st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))

    def shaped(rows, cols):
        # any shape, 0 x n and n x 0 included, with a zero row now and then
        return st.sampled_from((3, 10**6)).flatmap(lambda bound: st.lists(
            st.one_of(st.just([0] * cols), st.lists(
                st.integers(-bound, bound), min_size=cols, max_size=cols)),
            min_size=rows, max_size=rows).map(lambda a: IntMatrix(a, cols=cols)))

    return types.SimpleNamespace(
        given=hypothesis.given,
        settings=hypothesis.settings(max_examples=150, deadline=None),
        st=st,
        sympy=sympy,
        square=st.integers(1, 6).flatmap(lambda n: matrices(n, n)),
        rect=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda rc: matrices(*rc)),
        shaped=shaped,
        any_shape=st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
            lambda rc: shaped(*rc)),
    )


class TestEliminationProperties:
    """det, rank and integral_inverse share one fraction-free
    elimination; each is checked against sympy, the Fraction left solve of
    the test oracle against sympy too, and its unimodular inverse against
    the definition."""

    def test_det_matches_sympy(self, props):
        @props.settings
        @props.given(props.square)
        def check(a):
            assert IntMatrix(a).det() == props.sympy.Matrix(a).det()
        check()

    def test_rank_matches_sympy(self, props):
        @props.settings
        @props.given(props.rect)
        def check(a):
            assert IntMatrix(a).rank() == props.sympy.Matrix(a).rank()
        check()

    def test_inverse_or_singular(self, props):
        @props.settings
        @props.given(props.square)
        def check(a):
            n = len(a)
            det = props.sympy.Matrix(a).det()
            if det == 0:
                with pytest.raises(ValueError):
                    integral_inverse(a)
                return
            inv, den = integral_inverse(a)
            assert den == abs(det)
            # inv is den a^-1, so a (inv / den) = I
            prod = [[Fraction(sum(a[i][k] * inv[k][j] for k in range(n)), den)
                     for j in range(n)] for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
        check()

    def test_unimodular_inverse_or_rejection(self, props):
        st = props.st
        transvection = st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.integers(-10**6, 10**6))

        @props.settings
        @props.given(st.integers(1, 6), st.lists(transvection, max_size=8),
                     st.integers(-3, 3))
        def check(n, moves, scale):
            # a product of transvections is unimodular; scaling a row by
            # `scale` keeps it so only for scale = +-1
            m = IntMatrix.identity(n)
            for i, j, c in moves:
                t = [[int(a == b) for b in range(n)] for a in range(n)]
                if i % n != j % n:
                    t[i % n][j % n] = c
                m = m @ IntMatrix(t, cols=n)
            m = IntMatrix([[scale * x for x in m.row(0)], *m.data[1:]], cols=n)
            if abs(scale) != 1:
                with pytest.raises(ValueError):
                    inverse_unimodular(m)
                return
            assert m @ inverse_unimodular(m) == IntMatrix.identity(n)
        check()

    def test_left_solve_reproduces_target_or_is_inconsistent(self, props):
        st = props.st

        @props.settings
        @props.given(props.rect, st.data())
        def check(rows, data):
            cols = len(rows[0])
            if data.draw(st.booleans()):
                # a target in the row span, so consistent systems come up often
                coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                            max_size=len(rows)))
                target = [sum(c * row[j] for c, row in zip(coeffs, rows))
                          for j in range(cols)]
            else:
                target = data.draw(st.lists(st.integers(-3, 3), min_size=cols,
                                            max_size=cols))
            sol = solve_left_rational(rows, target)
            if sol is None:
                system = props.sympy.Matrix(rows).T
                assert system.rank() < system.row_join(props.sympy.Matrix(target)).rank()
            else:
                assert [sum(x * row[j] for x, row in zip(sol, rows))
                        for j in range(cols)] == target
        check()


def assert_exact(m):
    """m holds a tuple of tuples of exact ints, as the public constructor
    stores them, and equals and hashes like its checked copy."""
    assert type(m.data) is tuple and m.rows == len(m.data)
    assert all(type(row) is tuple and len(row) == m.cols for row in m.data)
    assert all(type(x) is int for row in m.data for x in row)
    checked = IntMatrix(m.data, cols=m.cols)
    assert m == checked and hash(m) == hash(checked)


class TestLatticeResults:
    """Lattice builds its own results without re-checking every entry; they
    must still be what the checked constructor would have stored."""

    def test_results_are_exact_int_tuples(self, props):
        st = props.st

        @props.settings
        @props.given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                     st.data(), st.integers(1, 12))
        def check(shape, data, modulus):
            r, k, c = shape
            a = data.draw(props.shaped(r, k))
            b = data.draw(props.shaped(k, c))
            prod = a @ b
            assert prod.data == tuple(
                tuple(sum(a.data[i][t] * b.data[t][j] for t in range(k)) for j in range(c))
                for i in range(r))
            s1, s2 = Sublattice.from_rows(c, b.data), Sublattice.from_rows(c, prod.data)
            assert all(type(x) is int for x in smith_normal_form(a))
            results = [prod, a.transpose(), IntMatrix.identity(k),
                       kernel_mod(a, None).basis, kernel_mod(a, modulus).basis,
                       _saturation(s1).basis, intersect(s1, s2).basis, s1.basis, s2.basis]
            for m in results:
                assert_exact(m)
        check()

    def test_smith_form_contract(self, props):
        @props.settings
        @props.given(props.any_shape)
        def check(m):
            assert_snf_contract(m)
        check()

    def test_empty_dimensions(self):
        assert IntMatrix([[], []], cols=0) @ IntMatrix([], cols=3) == IntMatrix.zero(2, 3)
        assert IntMatrix([], cols=3) @ IntMatrix.zero(3, 2) == IntMatrix([], cols=2)
        t = IntMatrix([], cols=3).transpose()
        assert (t.rows, t.cols, t.data) == (3, 0, ((), (), ()))
        assert IntMatrix.identity(0) == IntMatrix([], cols=0)

    @pytest.mark.parametrize("n", [-1, True, 2.0])
    def test_identity_size_checked(self, n):
        with pytest.raises(MalformedMatrixError):
            IntMatrix.identity(n)

    @pytest.mark.parametrize("n", [-1, True, 2.0], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("shape", [lambda n: (n, 2), lambda n: (2, n)],
                             ids=["rows", "cols"])
    def test_zero_size_checked(self, shape, n):
        # -1 rows gave a 0 x 2 matrix, True rows a 1 x 2 one, and 2.0 a TypeError
        with pytest.raises(MalformedMatrixError):
            IntMatrix.zero(*shape(n))

    def test_zero_is_shared_per_size(self):
        z = IntMatrix.zero(3, 2)
        assert (z.rows, z.cols, z.data) == (3, 2, ((0, 0),) * 3)
        assert IntMatrix.zero(3, 2).data is z.data
        assert IntMatrix.zero(0, 4) == IntMatrix([], cols=4)

    @pytest.mark.parametrize("rows", [[[1.5, 0]], [[True, 0]], [[1, 0], [1]]],
                             ids=["float", "bool", "ragged"])
    @pytest.mark.parametrize("build", [
        IntMatrix,
        lambda rows: IntMatrix(rows, cols=2),
        lambda rows: Sublattice(2, rows),
        lambda rows: Sublattice.from_rows(2, rows),
        lambda rows: RootDatum(rows, [[1, 0]] * len(rows)),
    ], ids=["IntMatrix", "IntMatrix-cols", "Sublattice", "from_rows", "RootDatum"])
    def test_malformed_rows_rejected(self, build, rows):
        with pytest.raises(MalformedMatrixError):
            build(rows)

    # The other entries of outside integer data keep their check too
    # (IntMatrix, RootDatum given lists and from_rows are pinned above);
    # rows the library computes itself skip it (`lattice._computed_matrix`)
    @pytest.mark.parametrize("bad", ["float", "bool", "ragged"])
    @pytest.mark.parametrize("build", [
        lambda rows: RootDatum.from_dict({"rank": 2, "simple_roots": rows,
                                          "simple_coroots": [[1, 0]] * len(rows)}),
        lambda rows: RootDatum([[2, 0]], [[1, 0]], rank=2)._vector(rows[-1]),
    ], ids=["RootDatum.from_dict", "_vector"])
    def test_other_integer_entries_still_checked(self, build, bad):
        rows = {"float": [[2, 0], [1.5, 0]], "bool": [[2, 0], [True, 0]],
                "ragged": [[2, 0], [1]]}[bad]
        with pytest.raises(ValueError):
            build(rows)

    def test_from_rows_checks_before_reducing(self):
        # the Hermite walk read the short row and raised a bare IndexError
        with pytest.raises(MalformedMatrixError, match="ragged"):
            Sublattice.from_rows(2, [(1, 0), (1,)])
        with pytest.raises(MalformedMatrixError, match="column count"):
            Sublattice.from_rows(2, [(1, 0, 0)])
        assert Sublattice.from_rows(2, [(2.0, 0)]).basis.data == ((2, 0),)

    @pytest.mark.parametrize("modulus", [True, False, 2.5, 6.0, "6", 0, -2])
    def test_kernel_mod_modulus_is_a_positive_int(self, modulus):
        with pytest.raises(ValueError, match="not a positive integer"):
            kernel_mod(IntMatrix([[2]]), modulus)

    def test_kernel_mod_none_is_exact(self):
        assert kernel_mod(IntMatrix([[2, 4]]), None).basis.data == ((2, -1),)


class TestFGAbelianGroup:
    def test_normalization(self):
        g = FGAbelianGroup.from_factors([1, 2, 6, 0])
        assert g.invariant_factors == (2, 6, 0)
        assert g.free_rank == 1
        assert g.order() is None

    def test_chain_violation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup.from_factors([2, 3])

    def test_elements_and_arithmetic(self):
        g = FGAbelianGroup.from_factors([2, 4])
        assert g.add((1, 3), (1, 2)) == (0, 1)

    def test_describe(self):
        assert FGAbelianGroup.from_factors([2, 0]).describe() == "Z/2 x Z"
        assert FGAbelianGroup(()).describe() == "1"


class TestLatticeHom:
    def test_call(self):
        target = FGAbelianGroup.from_factors([5])
        h = LatticeHom(2, target, ((2,), (3,)))
        assert h((1, 1)) == (0,)
        assert h((2, 0)) == (4,)

    def test_shape_errors(self):
        target = FGAbelianGroup.from_factors([5])
        with pytest.raises(ValueError):
            LatticeHom(2, target, ((2,),))
        with pytest.raises(ValueError):
            LatticeHom(1, target, ((2, 1),))
