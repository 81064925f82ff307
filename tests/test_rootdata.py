import ast
import functools
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistdual.dualgroup import fl_dual, isomorphic
from twistdual.lattice import IntMatrix, Sublattice, kernel_mod, quotient_group
from twistdual.rootdata import (
    RootDatum,
    RootDatumError,
    _cartan_system,
    _chamber_walk,
    dot,
    standard,
    vec_add,
)

import root_oracle
from fraction_oracle import inverse_unimodular, solve_left_rational


@functools.cache
def _bench_oracle():
    """perfbench/oracle.py, which imports nothing from the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    imports = [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not any("twistdual" in line for line in imports)
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStandard:
    def test_sl2_convention(self):
        rd = standard("SL2")
        assert rd.rank == 1
        assert rd.simple_roots.data == ((2,),)
        assert rd.simple_coroots.data == ((1,),)
        assert rd.cartan_matrix == ((2,),)

    def test_pgl2_convention(self):
        rd = standard("PGL2")
        assert rd.simple_roots.data == ((1,),)
        assert rd.simple_coroots.data == ((2,),)

    def test_gl2_convention(self):
        rd = standard("GL2")
        assert rd.rank == 2
        assert rd.simple_roots.data == ((1, -1),)
        assert rd.simple_coroots.data == ((1, -1),)

    def test_torus(self):
        rd = standard("torus3")
        assert rd.rank == 3 and rd.num_simple == 0

    def test_products(self):
        rd = standard("SL2xG2")
        assert rd.rank == 3
        assert rd.weyl_group().order == 2 * 12

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            standard("E8")

    @pytest.mark.parametrize("label, message", [
        ("SL1", "SL(n) needs n >= 2"), ("SL0", "SL(n) needs n >= 2"),
        ("PGL1", "PGL(n) needs n >= 2"), ("PGL0", "PGL(n) needs n >= 2"),
        ("GL0", "GL(n) needs n >= 1"), ("SL2xGL0", "GL(n) needs n >= 1"),
        ("E8", "unknown group label 'E8'"), ("SL", "unknown group label 'SL'"),
        ("SO4", "unknown group label 'SO4'"),
    ])
    def test_label_messages(self, label, message):
        with pytest.raises(ValueError) as info:
            standard(label)
        assert str(info.value) == message

    # the benchmark's oracle builds each label from its own table
    ORACLE_SINGLES = ([f"SL{n}" for n in range(2, 10)] + [f"PGL{n}" for n in range(2, 10)]
                      + [f"GL{n}" for n in range(1, 7)] + ["Sp4", "G2"]
                      + [f"T{r}" for r in range(4)])

    @pytest.mark.parametrize("label", ORACLE_SINGLES + [
        "x".join(p) for p in itertools.product(("SL2", "PGL3", "GL2", "Sp4", "G2", "T1"), repeat=2)
    ] + ["SL3xPGL2xT2", "Sp4xG2xPGL2xT1", "GL3xSL4xT0", "PGL4xGL1xG2"])
    def test_matches_the_benchmark_oracle(self, label):
        rd, d = standard(label), _bench_oracle().datum(label)
        assert rd.rank == d["rank"]
        assert rd.simple_roots.data == tuple(map(tuple, d["simple_roots"]))
        assert rd.simple_coroots.data == tuple(map(tuple, d["simple_coroots"]))

    @pytest.mark.parametrize("label", ["SL2xx", "xSL2", "SL2**PGL2", "SL2x x"])
    def test_empty_factor_rejected(self, label):
        with pytest.raises(ValueError, match="empty factor in group label"):
            standard(label)

    @pytest.mark.parametrize("label", ["", " ", "x"])
    def test_empty_label_rejected(self, label):
        with pytest.raises(ValueError, match="empty group label"):
            standard(label)


class TestValidation:
    def test_bad_diagonal(self):
        with pytest.raises(RootDatumError):
            RootDatum([[1]], [[1]], rank=1)

    def test_positive_off_diagonal(self):
        with pytest.raises(RootDatumError):
            RootDatum([[2, 1], [1, 2]], [[1, 0], [0, 1]], rank=2)

    def test_asymmetric_orthogonality(self):
        roots = [[2, 0], [-1, 2]]
        coroots = [[1, 0], [0, 1]]
        # <alpha_0, coroot_1> = 0 but <alpha_1, coroot_0> = -1
        with pytest.raises(RootDatumError):
            RootDatum(roots, coroots, rank=2)

    def test_infinite_type_hits_bound(self):
        # affine A1: the product of the two reflections has infinite order
        roots = [[2, -2], [-2, 2]]
        coroots = [[1, -1], [-1, 1]]
        with pytest.raises(RootDatumError):
            RootDatum(roots, coroots, rank=2)

    def test_dependent_roots(self):
        # the Cartan matrix [[2, 2], [2, 2]] fails its record's sign check,
        # and that failure leads to the rank check that names the dependence
        with pytest.raises(RootDatumError) as info:
            RootDatum([[2, 0], [2, 0]], [[1, 0], [1, 0]], rank=2)
        assert str(info.value) == "simple roots are linearly dependent"

    # Each datum below passes the Cartan-matrix checks and must be rejected
    # by the finite-type test, before any closure starts.
    @pytest.mark.parametrize("roots,coroots,reason", [
        # affine A1 in rank 3
        ([[2, -2, 0], [-2, 2, 1]], [[1, 0, 0], [0, 1, 0]], "not positive definite"),
        # hyperbolic rank 2: a_01 a_10 = 5 > 4
        ([[2, -1], [-5, 2]], [[1, 0], [0, 1]], "not positive definite"),
        # 3-cycle with a_01 a_12 a_20 = -1 but a_10 a_21 a_02 = -2
        ([[2, -1, -1, 1, 0, 0], [-2, 2, -1, 0, 1, 0], [-1, -1, 2, 0, 0, 1]],
         [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
         "not symmetrizable"),
    ], ids=["affine-A1", "hyperbolic", "non-symmetrizable"])
    def test_infinite_type_rejected_by_finite_type_test(self, roots, coroots, reason):
        with pytest.raises(RootDatumError, match=reason):
            RootDatum(roots, coroots)


def _reflection_closure_size(cartan, bound):
    """Order of the group generated by the simple reflections in simple-root
    coordinates, s_i(alpha_j) = alpha_j - a_ji alpha_i; None past `bound`."""
    s = len(cartan)
    ident = tuple(tuple(int(r == c) for c in range(s)) for r in range(s))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(s):
                # s_i m differs from m in row i alone
                row = tuple(m[i][c] - sum(cartan[j][i] * m[j][c] for j in range(s))
                            for c in range(s))
                prod = m[:i] + (row,) + m[i + 1:]
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
            if len(seen) > bound:
                return None
        frontier = nxt
    return len(seen)


def test_finite_type_test_matches_weyl_closure_exhaustively():
    """Every rank-2 and rank-3 generalized Cartan matrix with off-diagonal
    entries in {0,-1,-2,-3}, realised in rank 2s with roots (row_i(A), e_i)
    and coroots (e_i, 0): accepted iff its Weyl group stays within 100
    elements (the largest finite rank-3 one has 48)."""
    checked = accepted = 0
    for s in (2, 3):
        pairs = list(itertools.combinations(range(s), 2))
        entry_pairs = [(0, 0)] + [(a, b) for a in (-1, -2, -3) for b in (-1, -2, -3)]
        for choice in itertools.product(entry_pairs, repeat=len(pairs)):
            cartan = [[2 if i == j else 0 for j in range(s)] for i in range(s)]
            for (i, j), (a, b) in zip(pairs, choice):
                cartan[i][j], cartan[j][i] = a, b
            units = [[int(i == k) for k in range(s)] for i in range(s)]
            roots = [cartan[i] + units[i] for i in range(s)]
            coroots = [units[i] + [0] * s for i in range(s)]
            order = _reflection_closure_size(cartan, 100)
            checked += 1
            if order is None:
                with pytest.raises(RootDatumError, match="not of finite type"):
                    RootDatum(roots, coroots)
            else:
                rd = RootDatum(roots, coroots)
                assert rd.cartan_matrix == tuple(map(tuple, cartan))
                assert rd.weyl_group().order == order
                _assert_reduced(rd)
                # each component's least coroot K-length is 4h, a multiple
                # of 4, so the Killing record needs no divisibility check
                for comp, (k, _) in zip(rd.components, rd.killing):
                    assert min(dot(c, k.mul_vec(c)) for c in
                               (rd.simple_coroots.row(j) for j in comp)) % 4 == 0
                accepted += 1
    assert checked == 10 + 1000
    assert 0 < accepted < checked


class TestWeylGroup:
    @pytest.mark.parametrize("name,order", [
        ("SL2", 2), ("SL3", 6), ("SL4", 24), ("PGL3", 6),
        ("GL2", 2), ("Sp4", 8), ("G2", 12),
    ])
    def test_orders(self, name, order):
        assert standard(name).weyl_group().order == order

    def test_sl_n_matches_factorial(self):
        for n in (2, 3, 4, 5):
            assert standard(f"SL{n}").weyl_group().order == math.factorial(n)

    @pytest.mark.parametrize("name", [
        "SL2", "SL3", "SL4", "SL5", "SL6", "PGL3", "GL1", "GL3", "Sp4", "G2",
        "torus2", "Sp4xSp4", "SL3xSp4xSL2", "GL2xT2", "SL2xG2",
    ])
    def test_order_from_root_heights(self, name):
        rd = standard(name)
        assert rd.weyl_order() == rd.weyl_group().order

    def test_order_from_root_heights_is_lazy(self):
        rd = standard("SL9")
        assert rd.weyl_order() == math.factorial(9)
        assert "_weyl" not in rd.__dict__

    def test_closure_is_lazy(self):
        rd = standard("SL6")
        assert "_weyl" not in rd.__dict__
        assert rd.weyl_group().order == 720
        assert "_weyl" in rd.__dict__

    def test_reflections_are_involutions(self):
        rd = standard("G2")
        for i in range(2):
            s = rd.reflection_coweight(i)
            assert (s @ s) == IntMatrix.identity(2)

    def test_root_count(self):
        assert len(standard("SL3").root_pairs) == 6
        assert len(standard("Sp4").root_pairs) == 8
        assert len(standard("G2").root_pairs) == 12

    def test_pairs_pair_to_two(self):
        for name in ("SL3", "Sp4", "G2"):
            rd = standard(name)
            for beta, cobeta in rd.root_pairs:
                assert dot(beta, cobeta) == 2


class TestDominance:
    """`weight_leq` on each datum's weight side and, through `flip()`, on
    its coweight side."""

    DATA = [rd for name in ("SL3", "PGL2", "Sp4")
            for rd in (standard(name), standard(name).flip())]

    def test_sl2_zero_vs_coroot(self):
        rd = standard("SL2").flip()
        assert rd.weight_leq((0,), (1,))
        assert not rd.weight_leq((1,), (0,))

    def test_sl3_coroots_incomparable(self):
        rd = standard("SL3").flip()
        assert not rd.weight_leq((1, 0), (0, 1))
        assert not rd.weight_leq((0, 1), (1, 0))

    def test_reflexive(self):
        for rd in (standard("Sp4"), standard("Sp4").flip()):
            assert rd.weight_leq((3, 1), (3, 1))

    def test_partial_order_properties(self):
        rng = random.Random(19)
        for rd in self.DATA:
            pts = [tuple(rng.randint(-3, 3) for _ in range(rd.rank)) for _ in range(12)]
            for a in pts:
                for b in pts:
                    ab = rd.weight_leq(a, b)
                    ba = rd.weight_leq(b, a)
                    if ab and ba:
                        assert a == b  # antisymmetry
                    for c in pts:
                        if ab and rd.weight_leq(b, c):
                            assert rd.weight_leq(a, c)  # transitivity

    def test_integer_combination_required(self):
        pgl2 = standard("PGL2").flip()
        # difference 1 = (1/2) coroot: rational but not integral
        assert not pgl2.weight_leq((0,), (1,))
        assert pgl2.weight_leq((0,), (2,))
        # mu - lam must be a nonnegative integer combination of the simple
        # roots; a nonnegative rational one is not enough
        rational_only = set()
        for rd in self.DATA:
            rows = rd.simple_roots.data
            for d in itertools.product(range(-2, 3), repeat=rd.rank):
                sol = solve_left_rational(rows, d)
                cone = sol is not None and min(sol, default=0) >= 0
                integral = cone and all(x.denominator == 1 for x in sol)
                assert rd.weight_leq((0,) * rd.rank, d) == integral, (rd.name, d)
                assert rd.weight_leq(d, vec_add(d, d)) == integral, (rd.name, d)
                if cone and not integral:
                    rational_only.add(rd.name)
        assert rational_only == {"SL3", "flip(PGL2)", "Sp4"}


class TestVectorArguments:
    """The public methods read a vector as ints of length rank, or raise a
    ValueError: no truncation by zip, no bare IndexError."""

    SL2, SL3 = standard("SL2"), standard("SL3")

    @pytest.mark.parametrize("call", [
        lambda: TestVectorArguments.SL2.weight_leq((1,), (True,)),
    ], ids=["weight_leq"])
    def test_non_integers_rejected(self, call):
        with pytest.raises(ValueError, match="not an integer"):
            call()

    def test_integral_values_are_read_as_ints(self):
        coords = self.SL2.root_coordinates((2.0,))
        assert coords == (1,) and type(coords[0]) is int

    @pytest.mark.parametrize("call", [
        lambda: TestVectorArguments.SL3.weight_leq((1,), (1, 1)),
        lambda: TestVectorArguments.SL3.root_coordinates((2,)),
    ], ids=["weight_leq", "root_coordinates"])
    def test_wrong_lengths_rejected(self, call):
        with pytest.raises(ValueError, match="not the rank 2"):
            call()


def _transvections(n, moves):
    """The product U of the transvections (i, j, c) of Z^n, indices mod n;
    a move with i = j mod n is the identity."""
    u = IntMatrix.identity(n)
    for i, j, c in moves:
        t = [[int(a == b) for b in range(n)] for a in range(n)]
        t[i % n][j % n] += c if i % n != j % n else 0
        u = u @ IntMatrix(t, cols=n)
    return u


def _rebased(rd, moves):
    """rd in the basis U = _transvections(rank, moves): roots R U and
    coroots R' U^{-T}, so every pairing is kept."""
    n = rd.rank
    u = _transvections(n, moves)
    return RootDatum(rd.simple_roots @ u, rd.simple_coroots @ inverse_unimodular(u).transpose(),
                     rank=n)


class TestRootCoordinates:
    """root_coordinates against solve_left_rational, on the coweight side
    through flip()."""

    LABELS = ("SL3", "Sp4", "G2", "GL3", "SL2xT1")

    def test_matches_rational_solve(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        data = {name: standard(name) for name in self.LABELS}
        moves = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(-2, 2)), max_size=6)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.sampled_from(self.LABELS), moves, st.booleans(), st.data())
        def check(name, basis_moves, coroot_side, draw):
            rd = _rebased(data[name], basis_moves)
            rows = (rd.simple_coroots if coroot_side else rd.simple_roots).data
            kind = draw.draw(st.sampled_from(("span", "lattice", "fraction")))
            if kind == "span":
                # an integer combination of the rows
                coeffs = draw.draw(st.lists(st.integers(-4, 4), min_size=len(rows),
                                            max_size=len(rows)))
                v = tuple(sum(c * row[j] for c, row in zip(coeffs, rows))
                          for j in range(rd.rank))
            elif kind == "lattice":
                # any lattice point: often outside the span or non-integral
                v = tuple(draw.draw(st.lists(st.integers(-5, 5), min_size=rd.rank,
                                             max_size=rd.rank)))
            else:
                # a span point plus a small shift off the integer combinations
                coeffs = draw.draw(st.lists(st.integers(-4, 4), min_size=len(rows),
                                            max_size=len(rows)))
                shift = draw.draw(st.integers(0, rd.rank - 1))
                v = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) + (j == shift)
                          for j in range(rd.rank))
            sol = solve_left_rational(rows, v)
            expected = (None if sol is None or any(x.denominator != 1 for x in sol)
                        else tuple(int(x) for x in sol))
            got = (rd.flip() if coroot_side else rd).root_coordinates(v)
            assert got == expected

        check()

    def test_each_outcome_occurs(self):
        sp4 = standard("Sp4")
        assert sp4.root_coordinates((1, 1)) == (1, 1)
        assert sp4.root_coordinates((0, 1)) is None      # coefficients (0, 1/2)
        gl3 = standard("GL3")
        assert gl3.flip().root_coordinates((1, 0, -1)) == (1, 1)
        assert gl3.flip().root_coordinates((1, 0, 0)) is None  # outside the span
        assert standard("T2").root_coordinates((0, 0)) == ()
        assert standard("T2").root_coordinates((0, 1)) is None


def _cartan_rows(kind, n):
    """The Cartan matrix of A_n, D_n or E_n, nodes numbered as in Bourbaki
    from 0."""
    edges = {
        "A": [(i, i + 1) for i in range(n - 1)],
        "D": [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)],
        "E": [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)],
    }[kind]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


def _from_cartan_rows(kind, n, adjoint):
    """Simply connected: the roots are the Cartan rows and the coroots unit
    vectors; adjoint: the roots are unit vectors and the coroots the
    Cartan columns."""
    a = _cartan_rows(kind, n)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    if adjoint:
        return RootDatum(unit, [list(col) for col in zip(*a)], rank=n)
    return RootDatum(a, unit, rank=n)


def _assert_table_matches_oracle(rd):
    roots, coroots = rd.simple_roots.data, rd.simple_coroots.data
    pairs = root_oracle.root_pairs(roots, coroots)
    coords = {b: root_oracle.root_coordinates(roots, b) for b, _ in pairs}
    assert rd.root_pairs == pairs
    for beta, _ in pairs:
        assert coords[beta] == rd.root_coordinates(beta)
    # the record's positive pairs are the oracle's, in simple coordinates
    positive = root_oracle.positive_root_pairs(pairs, coords)
    assert sorted(rd._cartan.positive) == sorted(
        (coords[beta], root_oracle.root_coordinates(coroots, cobeta))
        for beta, cobeta in positive)
    assert rd.two_rho == tuple(sum(b[x] for b, _ in positive) for x in range(rd.rank))


def _assert_reduced(rd):
    """No root is 2 or 3 times another (Kac, Prop. 5.1): the evidence for
    `_cartan_system` keeping no test of it."""
    roots = {beta for beta, _ in rd.root_pairs}
    assert [(k, beta) for beta in roots for k in (2, 3)
            if tuple(k * x for x in beta) in roots] == []


class TestRootTable:
    """The height-raising walk in Cartan coordinates against the orbit of
    the simple pairs on full-length vectors (`root_oracle`)."""

    LABELS = ("SL2", "SL3", "SL4", "SL5", "SL6", "SL9", "PGL2", "PGL3", "PGL4",
              "GL1", "GL2", "GL3", "Sp4", "G2", "T2", "torus2", "torus3", "SL2xT1",
              "SL2xSL2", "SL3xSL2", "Sp4xT1", "SL2xG2", "GL2xT1", "GL2xT2",
              "GL3xT1", "GL2xGL2", "GL2xSp4", "SL3xSp4", "Sp4xG2", "Sp4xSp4",
              "G2xSp4xSL2", "SL3xSp4xSL2")

    @pytest.mark.parametrize("name", LABELS)
    def test_standard(self, name):
        rd = standard(name)
        _assert_table_matches_oracle(rd)
        order = math.factorial(9) if name == "SL9" else rd.weyl_group().order
        assert rd.weyl_order() == order

    @pytest.mark.parametrize("adjoint", [False, True], ids=["sc", "adj"])
    @pytest.mark.parametrize("kind,n,roots,order", [
        ("A", 7, 56, 40320),
        ("D", 6, 60, 23040),
        ("E", 6, 72, 51840),
        ("E", 7, 126, 2903040),
        ("E", 8, 240, 696729600),
    ])
    def test_from_cartan_rows(self, kind, n, roots, order, adjoint):
        rd = _from_cartan_rows(kind, n, adjoint)
        assert len(rd.root_pairs) == roots
        assert rd.weyl_order() == order
        _assert_table_matches_oracle(rd)
        _assert_reduced(rd)

    def test_rebased(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = ("SL3", "PGL3", "Sp4", "G2", "GL3", "SL2xT1", "SL2xG2")
        data = {name: standard(name) for name in labels}
        moves = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(-2, 2)), max_size=6)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.sampled_from(labels), moves)
        def check(name, basis_moves):
            rd = _rebased(data[name], basis_moves)
            _assert_table_matches_oracle(rd)
            assert rd.weyl_order() == data[name].weyl_group().order

        check()


class TestChamber:
    """The chamber walk against the W-orbit closed under the simple
    reflections (`root_oracle.orbit`)."""

    LABELS = ("SL2", "SL3", "SL4", "PGL3", "Sp4", "G2", "GL2", "SO4", "SL2xG2")

    @staticmethod
    def _datum(name):
        if name == "SO4":
            return RootDatum([[1, 1], [1, -1]], [[1, 1], [1, -1]], rank=2)
        return standard(name)

    def test_matches_orbit_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        data = {name: self._datum(name) for name in self.LABELS}
        moves = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(-2, 2)), max_size=6)
        seen = set()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.sampled_from(self.LABELS), moves, st.booleans(), st.data())
        def check(name, basis_moves, coweight, draw):
            rd = _rebased(data[name], basis_moves)
            v = tuple(draw.draw(st.lists(st.integers(-4, 4), min_size=rd.rank,
                                         max_size=rd.rank)))
            roots, coroots = rd.simple_roots.data, rd.simple_coroots.data
            simple, cosimple = (coroots, roots) if coweight else (roots, coroots)
            orbit = root_oracle.orbit(v, simple, cosimple)

            def labels(u):
                return tuple(dot(u, c) for c in cosimple)

            # a coweight's labels change by the rows of the transposed Cartan matrix
            cartan = tuple(zip(*rd.cartan_matrix)) if coweight else rd.cartan_matrix
            chamber = _chamber_walk(v, labels(v), simple, cartan)
            dominant = [u for u in orbit if min(labels(u), default=0) >= 0]
            assert dominant == [chamber.conjugate]
            assert chamber.labels == labels(chamber.conjugate)
            if 0 not in chamber.labels:
                seen.add("regular")
                assert chamber.sign == orbit[chamber.conjugate]
            else:
                seen.add("wall")
            # the antidominant member is minus the walk of -v
            minus = tuple(-x for x in v)
            antidominant = [u for u in orbit if max(labels(u), default=0) <= 0]
            assert antidominant == [tuple(-x for x in _chamber_walk(
                minus, labels(minus), simple, cartan).conjugate)]

        check()
        assert seen == {"regular", "wall"}

    def test_sign_of_the_longest_element(self):
        # -2 rho is regular and w_0 carries it to 2 rho, of length |Phi+|
        for name in self.LABELS:
            rd = self._datum(name)
            v = tuple(-x for x in rd.two_rho)
            chamber = _chamber_walk(v, rd.simple_coroots.mul_vec(v), rd.simple_roots.data,
                                    rd.cartan_matrix)
            assert chamber.conjugate == rd.two_rho
            assert chamber.labels == (2,) * rd.num_simple
            assert chamber.sign == (-1) ** (len(rd.root_pairs) // 2)


class TestPi1:
    def test_examples(self):
        assert standard("SL2").pi1().invariant_factors == ()
        assert standard("PGL2").pi1().invariant_factors == (2,)
        assert standard("GL2").pi1().invariant_factors == (0,)
        assert standard("SL3").pi1().invariant_factors == ()
        assert standard("PGL3").pi1().invariant_factors == (3,)

    def test_computed_once_per_datum(self):
        rd = standard("PGL3")
        assert rd.pi1() is rd.pi1()

    @pytest.mark.parametrize("name", TestRootTable.LABELS)
    def test_matches_quotient_by_coroot_lattice(self, name):
        rd = standard(name)
        assert rd.pi1() == quotient_group(Sublattice.from_rows(rd.rank, rd.simple_coroots.data))

    def test_rebased_matches_quotient_by_coroot_lattice(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = ("PGL3", "GL3", "SL2xT1", "GL2xT2", "Sp4xT1", "PGL2xPGL2")
        data = {name: standard(name) for name in labels}
        moves = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                   st.integers(-3, 3)), max_size=8)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.sampled_from(labels), moves)
        def check(name, basis_moves):
            rd = _rebased(data[name], basis_moves)
            coroots = Sublattice.from_rows(rd.rank, rd.simple_coroots.data)
            assert rd.pi1() == quotient_group(coroots)

        check()


class TestCartanMemo:
    """`_cartan_system` keeps one record per Cartan matrix; every datum
    maps it by its own simple roots and coroots, and an invalid matrix is
    rejected again on every construction."""

    SHARED = (("SL3", "PGL3"), ("SO4", "SL2xPGL2", "SL2xSL2"), ("GL2", "SL2xT1"))

    @staticmethod
    def _datum(name):
        if name == "SO4":
            # (SL2 x SL2) / diagonal mu_2, with the Cartan matrix of SL2xSL2
            return RootDatum([[1, 1], [1, -1]], [[1, 1], [1, -1]], rank=2)
        return standard(name)

    @pytest.mark.parametrize("names", SHARED, ids=["A2", "A1xA1", "A1"])
    def test_shared_matrix_matches_oracle(self, names):
        data = [self._datum(name) for name in names]
        assert len({rd.cartan_matrix for rd in data}) == 1
        # each is built again with the record filled, in both orders
        for order in (data, data[::-1]):
            for rd in order:
                hits = _cartan_system.cache_info().hits
                again = RootDatum(rd.simple_roots, rd.simple_coroots, rank=rd.rank)
                assert _cartan_system.cache_info().hits == hits + 1
                assert again._cartan is data[0]._cartan
                _assert_table_matches_oracle(again)
                assert again.root_pairs == rd.root_pairs
                assert (again.symmetrizer, again.components) == (
                    rd.symmetrizer, rd.components)

    def test_rebased_matches_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        names = [name for group in self.SHARED for name in group]
        data = {name: self._datum(name) for name in names}
        moves = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(-2, 2)), max_size=6)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.sampled_from(names), moves)
        def check(name, basis_moves):
            rd = _rebased(data[name], basis_moves)
            assert rd._cartan is data[name]._cartan
            _assert_table_matches_oracle(rd)

        check()

    # each fails on every construction with the same message, and leaves
    # nothing in the memo
    @pytest.mark.parametrize("roots,coroots,message", [
        ([[2, -2, 0], [-2, 2, 1]], [[1, 0, 0], [0, 1, 0]],
         "symmetrized Cartan matrix is not positive definite; "
         "datum is not of finite type"),
        ([[2, -1, -1, 1, 0, 0], [-2, 2, -1, 0, 1, 0], [-1, -1, 2, 0, 0, 1]],
         [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
         "Cartan matrix is not symmetrizable; datum is not of finite type"),
        # coroot_1 is orthogonal to alpha_0, but alpha_1 is not to coroot_0
        ([[2, 0], [-1, 2]], [[1, 0], [0, 1]],
         "asymmetric orthogonality between simples 0 and 1"),
        ([[2, 1], [1, 2]], [[1, 0], [0, 1]], "<alpha_0, coroot_1> = 1 > 0"),
        ([[2, 0], [-1, 1]], [[1, 0], [0, 1]], "<alpha_1, coroot_1> = 1, expected 2"),
        # the Cartan matrix of affine A1 on dependent roots (and coroots),
        # then on independent roots and dependent coroots
        ([[2], [-2]], [[1], [-1]], "simple roots are linearly dependent"),
        ([[1, 0], [0, 1]], [[2, -2], [-2, 2]], "simple coroots are linearly dependent"),
    ], ids=["affine-A1", "non-symmetrizable", "inconsistent-coroot", "positive-entry",
            "diagonal", "dependent-roots", "dependent-coroots"])
    def test_invalid_rejected_every_time(self, roots, coroots, message):
        size = _cartan_system.cache_info().currsize
        for _ in range(2):
            with pytest.raises(RootDatumError) as info:
                RootDatum(roots, coroots)
            assert str(info.value) == message
        assert _cartan_system.cache_info().currsize == size

    def test_memo_is_bounded(self):
        assert _cartan_system.cache_info().maxsize is not None

    def test_isomorphic_matches_uncached_fixed_weights(self, monkeypatch):
        # isomorphic frames a datum by its basis of X^W, kept on the datum
        # (GL2 and SL2xT1 here); the patched property computes the kernel
        # of the coroots afresh on every read
        data = [self._datum(name) for group in self.SHARED for name in group]
        pairs = list(itertools.product(data, repeat=2))
        cached = [isomorphic(a, b) for a, b in pairs]
        assert {r.status for r in cached} == {"iso", "none"}
        monkeypatch.setattr(RootDatum, "_fixed_weights", property(
            lambda rd: () if rd.num_simple == rd.rank
            else kernel_mod(rd.simple_coroots).basis.data))
        for (a, b), want in zip(pairs, cached):
            fresh = [RootDatum(d.simple_roots, d.simple_coroots, rank=d.rank)
                     for d in (a, b)]
            got = isomorphic(*fresh)
            assert (got.status, got.permutation) == (want.status, want.permutation)
            assert got.weight_map == want.weight_map
            assert all("_fixed_weights" not in d.__dict__ for d in fresh)


class TestOrbitDims:
    """<2 rho, lam> is the dimension of the orbit of a dominant coweight lam
    in the affine Grassmannian: the facts about 2 rho it rests on."""

    def test_two_rho_pairs_two_with_simple_coroots(self):
        for name in ("SL2", "PGL2", "SL3", "Sp4", "G2", "GL2"):
            rd = standard(name)
            for i in range(rd.num_simple):
                assert dot(rd.two_rho, rd.simple_coroots.row(i)) == 2

    def test_parity_constant_on_coroot_cosets(self):
        rng = random.Random(23)
        for name in ("SL2", "PGL2", "SL3", "Sp4", "G2"):
            rd = standard(name)
            for _ in range(100):
                lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                shift = [0] * rd.rank
                for i in range(rd.num_simple):
                    c = rng.randint(-3, 3)
                    shift = [s + c * x for s, x in
                             zip(shift, rd.simple_coroots.row(i))]
                mu = vec_add(lam, tuple(shift))
                assert dot(rd.two_rho, lam) % 2 == dot(rd.two_rho, mu) % 2


def _oracle_dual_coxeter(rd, comp):
    """The reference h of one component: 1 + <rho, theta^v> over the
    closure of its simple pairs (`root_oracle.dual_coxeter`)."""
    return root_oracle.dual_coxeter([rd.simple_roots.row(i) for i in comp],
                                    [rd.simple_coroots.row(i) for i in comp])


class TestCoxeterData:
    """The `killing` record: h is 1/4 of the least Killing length of a
    simple coroot, checked against the oracle's 1 + <rho, theta^v> from the
    highest root."""

    @pytest.mark.parametrize("name,h", [
        ("SL2", 2), ("PGL2", 2), ("SL3", 3), ("SL4", 4), ("Sp4", 3), ("G2", 4),
    ])
    def test_dual_coxeter_numbers(self, name, h):
        rd = standard(name)
        (_, got), = rd.killing
        assert got == h == _oracle_dual_coxeter(rd, rd.components[0])

    LABELS = TestRootTable.LABELS + ("SL2xSL3", "Sp4xG2xSL2", "G2xG2", "PGL3xSp4")

    @pytest.mark.parametrize("name", LABELS)
    def test_record_matches_oracle(self, name):
        rd = standard(name)
        self._check_record(rd)

    def test_record_matches_oracle_rebased(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = ("SL3", "PGL3", "Sp4", "G2", "SL2xSL3", "Sp4xG2xSL2", "G2xG2",
                  "PGL3xSp4", "GL2xT1")
        data = {name: standard(name) for name in labels}
        moves = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                   st.integers(-2, 2)), max_size=6)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.sampled_from(labels), moves)
        def check(name, basis_moves):
            rd = _rebased(data[name], basis_moves)
            self._check_record(rd)
            # h does not depend on the basis
            assert [h for _, h in rd.killing] == [h for _, h in data[name].killing]

        check()

    @staticmethod
    def _check_record(rd):
        assert len(rd.killing) == len(rd.components)
        for comp, (k, h) in zip(rd.components, rd.killing):
            assert h == _oracle_dual_coxeter(rd, comp)
            # K is the sum of beta beta^T over the component's roots
            members = [b for b, _ in root_oracle.root_pairs(
                [rd.simple_roots.row(j) for j in comp],
                [rd.simple_coroots.row(j) for j in comp])]
            assert k.data == tuple(tuple(sum(b[x] * b[y] for b in members)
                                         for y in range(rd.rank)) for x in range(rd.rank))
            # the least K-length of a simple coroot is 4h
            lengths = [dot(rd.simple_coroots.row(j), k.mul_vec(rd.simple_coroots.row(j)))
                       for j in comp]
            assert min(lengths) == 4 * h

    def test_sl2_iota_of_coroot_is_root(self):
        (k, h), = standard("SL2").killing
        # iota(coroot) = (1/4)(2*alpha + 2*alpha) = alpha = (2)
        assert [Fraction(x, 2 * h) for x in k.mul_vec((1,))] == [2]

    def test_computed_once_per_datum(self):
        rd = standard("G2")
        assert rd.killing is rd.killing
        # and its Gram in Cartan coordinates once per Cartan matrix
        assert standard("G2")._cartan.killing is rd._cartan.killing

    # the FL dual reads the one component's record, after its own
    # irreducibility check
    def test_reducible_rejected(self):
        rd = standard("SL2xSL2")
        with pytest.raises(ValueError, match="irreducible"):
            fl_dual(rd, 1, 2)
        assert len(rd.killing) == 2

    def test_torus_rejected(self):
        rd = standard("torus2")
        with pytest.raises(ValueError, match="irreducible"):
            fl_dual(rd, 1, 2)
        assert rd.killing == ()


class TestKillingGram:
    """`killing` reads G, h and the short coroot off the Cartan matrix and
    sets K = R^T G R: against the sum of beta beta^T over the oracle's own
    closure of each component, and, like `weyl_order()` and `two_rho`,
    without the datum's root pairs."""

    # Bourbaki's F4, B3 and C3, and E8 from `_cartan_rows`
    ROWS = {
        "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
        "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        "E8": _cartan_rows("E", 8),
    }

    @staticmethod
    def _check(rd):
        grams = [k.data for k, _ in rd.killing]
        assert rd.weyl_order() > 0 and len(rd.two_rho) == rd.rank
        assert "root_pairs" not in rd.__dict__
        assert grams == [root_oracle.killing_gram([rd.simple_roots.row(i) for i in comp],
                                                  [rd.simple_coroots.row(i) for i in comp])
                         for comp in rd.components]

    @pytest.mark.parametrize("name", TestCoxeterData.LABELS)
    def test_standard(self, name):
        self._check(standard(name))

    @pytest.mark.parametrize("adjoint", [False, True], ids=["sc", "adj"])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_bourbaki_rows(self, name, adjoint):
        a = self.ROWS[name]
        n = len(a)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        rd = (RootDatum(unit, [list(col) for col in zip(*a)], rank=n) if adjoint
              else RootDatum(a, unit, rank=n))
        self._check(rd)

    def test_rebased(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        labels = ("SL3", "PGL3", "Sp4", "G2", "GL3", "SL2xSL3", "Sp4xG2xSL2", "GL2xT1",
                  "PGL3xSp4")
        data = {name: standard(name) for name in labels}
        moves = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                   st.integers(-2, 2)), max_size=6)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.sampled_from(labels), moves)
        def check(name, basis_moves):
            self._check(_rebased(data[name], basis_moves))

        check()


class TestSerialization:
    def test_round_trip(self):
        for name in ("SL2", "GL2", "Sp4"):
            rd = standard(name)
            clone = RootDatum.from_dict(json.loads(json.dumps(rd.to_dict())))
            assert clone == rd

    def test_flip_involution(self):
        rd = standard("Sp4")
        assert rd.flip().flip().simple_roots == rd.simple_roots
