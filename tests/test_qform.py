import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from twistdual.lattice import IntMatrix, Sublattice, kernel_mod
from twistdual.qform import (
    CartanDatum,
    Exponent,
    InvarianceError,
    QForm,
    ShapeError,
    braiding_signs,
    cartan_qform,
    det_form,
    epsilon_defect,
    half_forms_qform,
    invariant_gram_basis,
    kernel,
    killing_matrix,
    killing_qform,
    minimal_even_gram,
    normalized_killing_gram,
    qform_from_gram,
    trivial_qform,
)
from twistdual.rootdata import RootDatum, dot, standard, vec_add
from test_rootdata import _rebased, _transvections

import form_oracle

SL2 = standard("SL2")
PGL2 = standard("PGL2")
GL2 = standard("GL2")
SL3 = standard("SL3")
SP4 = standard("Sp4")
G2 = standard("G2")


def random_invariant_form(rd, rng, with_tau=False, denom=6):
    basis = invariant_gram_basis(rd)

    def gram():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, denom))
                  for _ in basis]
        return [[sum(c * b[i][j] for c, b in zip(coeffs, basis))
                 for j in range(rd.rank)] for i in range(rd.rank)]

    return QForm(rd, gram(), gram() if with_tau else None)


class TestExponent:
    def test_normalization(self):
        e = Exponent.of(Fraction(7, 3))
        assert e.rational == Fraction(1, 3)

    def test_arithmetic(self):
        a = Exponent.of(Fraction(1, 2), Fraction(1, 3))
        b = Exponent.of(Fraction(3, 4))
        assert (a + b).rational == Fraction(1, 4)
        assert (a - a).is_zero()
        assert a.scaled(3) == Exponent.of(Fraction(1, 2), 1)

    def test_str(self):
        assert str(Exponent.of(Fraction(1, 3))) == "1/3"
        assert str(Exponent.of(Fraction(1, 2), Fraction(2, 5))) == "1/2+2/5*t"


class TestQFormConstruction:
    def test_pgl2_order3(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
        assert q.q((1,)) == Exponent.of(Fraction(1, 3))

    def test_trivial(self):
        q = trivial_qform(G2)
        assert q.q((1, 1)).is_zero()

    def test_tau_part_infinite_order(self):
        q = qform_from_gram(SL2, None, [[1]])
        assert q.q((1,)).tau != 0

    def test_symmetry_required(self):
        with pytest.raises(ShapeError):
            QForm(GL2, [[0, 1], [0, 0]])

    def test_invariance_error_names_generator(self):
        with pytest.raises(InvarianceError) as err:
            QForm(GL2, [[1, 0], [0, 0]])
        assert "reflection 0" in str(err.value)

    def test_quadratic_law_random(self):
        rng = random.Random(31)
        for rd in (SL2, PGL2, GL2, SL3, SP4):
            for _ in range(25):
                q = random_invariant_form(rd, rng, with_tau=True)
                lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                mu = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                assert q.q(vec_add(lam, mu)) == q.q(lam) + q.q(mu) + q.kappa(lam, mu)
                assert q.kappa(lam, mu) == q.kappa(mu, lam)

    def test_kappa_weyl_invariant(self):
        rng = random.Random(37)
        for rd in (SL3, SP4, G2):
            q = random_invariant_form(rd, rng)
            flipped = rd.flip()
            for _ in range(20):
                lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                mu = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                for i in range(rd.num_simple):
                    # s_i on coweights is s_i on the weights of the flip
                    wl = flipped.reflect_weight(i, lam)
                    wm = flipped.reflect_weight(i, mu)
                    assert q.kappa(wl, wm) == q.kappa(lam, mu)


class TestIntegerValues:
    """Q, kappa and the forms derived from a form are computed on integer
    numerators over the form's denominator, with no Fraction round trip."""

    @staticmethod
    def _numerator(n, lam, mu):
        return sum(lam[i] * n.data[i][j] * mu[j] for i in range(len(lam)) for j in range(len(mu)))

    def test_q_and_kappa_match_fraction_reference(self):
        rng = random.Random(53)
        signs = set()
        for rd in (SL2, PGL2, GL2, SL3, SP4, G2, standard("GL2xT1")):
            for k in range(20):
                q = random_invariant_form(rd, rng, with_tau=k % 2 == 0)
                for _ in range(6):
                    lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                    mu = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                    for value, (x, y), m in ((q.q(lam), (lam, lam), 2 * q.den),
                                             (q.kappa(lam, mu), (lam, mu), q.den)):
                        a, b = (self._numerator(n, x, y) for n in (q.n0, q.n1))
                        signs.update((z > 0) - (z < 0) for z in (a, b))
                        assert value == Exponent(Fraction(a, m), Fraction(b, m))
                        assert type(value.rational) is Fraction and 0 <= value.rational < 1
                        assert type(value.tau) is Fraction
        assert signs == {-1, 0, 1}

    def test_braiding_factor_matches_fraction_reference(self):
        rng = random.Random(61)
        for rd in (SL2, SL3, SP4, G2):
            q = random_invariant_form(rd, rng, with_tau=True)
            lam, mu = (tuple(rng.randint(-5, 5) for _ in range(rd.rank)) for _ in range(2))
            a, b = (self._numerator(n, lam, lam) + self._numerator(n, mu, mu)
                    for n in (q.n0, q.n1))
            m = 2 * q.den
            assert braiding_signs(q, lam, mu)[1] == Exponent(Fraction(a, m), Fraction(b, m))

    @pytest.mark.parametrize("zero", [None, [[0, 0], [0, 0]]], ids=["omitted", "given"])
    def test_zero_gram_does_not_excuse_the_other(self, zero):
        # GL2's reflection swaps the coordinates: diag(1, 0) is not invariant
        with pytest.raises(InvarianceError, match="transcendental Gram .* reflection 0"):
            QForm(GL2, zero, [[1, 0], [0, 0]])
        with pytest.raises(InvarianceError, match="rational Gram .* reflection 0"):
            QForm(GL2, [[1, 0], [0, 0]], zero)
        assert QForm(GL2, zero, [[1, 0], [0, 1]]) != QForm(GL2)
        assert QForm(GL2, zero, zero) == trivial_qform(GL2)

    @pytest.mark.parametrize("tau", [None, [[1, 0], [0, 1]]], ids=["zero", "tau"])
    def test_vector_lengths_checked_on_zero_grams(self, tau):
        # Q and kappa skip a zero Gram's product but still check the vectors
        q = QForm(GL2, None, tau)
        for call in (lambda: q.q((1, 2, 3)), lambda: q.q((1,)),
                     lambda: q.kappa((1, 2), (1, 2, 3)), lambda: q.kappa((1,), (1, 2))):
            with pytest.raises(ValueError, match="length mismatch"):
                call()

    def test_derived_forms_equal_fraction_built_ones(self, monkeypatch):
        import twistdual.qform as qform_module
        checks = []
        check = qform_module._reflection_invariant
        monkeypatch.setattr(qform_module, "_reflection_invariant",
                            lambda *args: checks.append(args) or check(*args))
        rng = random.Random(59)
        for rd in (SL2, PGL2, GL2, SL3, SP4, G2):
            for _ in range(8):
                a = Exponent.of(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                k = killing_matrix(rd, 0)
                del checks[:]
                form = killing_qform(rd, 0, a)
                # a nonzero derived form is checked for invariance like any form
                assert bool(checks) == (not a.is_zero())
                assert form == QForm(rd, *(
                    [[c * x for x in row] for row in k.data] for c in (a.rational, a.tau)))


def _conjugate(g, w):
    """w^T g w, the reference for QForm's rank-one invariance test."""
    n = w.rows
    wd = w.data
    return tuple(
        tuple(
            sum(wd[a][i] * g[a][b] * wd[b][j] for a in range(n) for b in range(n))
            for j in range(n))
        for i in range(n))


class TestInvarianceAgainstConjugation:
    LABELS = ("SL2", "SL3", "SL4", "PGL2", "PGL3", "PGL4", "GL1", "GL2", "GL3",
              "Sp4", "G2", "torus2", "SL2xG2", "GL2xSp4")

    @staticmethod
    def _grams(rd, rng):
        n = rd.rank

        def random_symmetric():
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            return tuple(map(tuple, g))

        even, _ = minimal_even_gram(rd)
        yield even
        for _ in range(6):
            g = random_symmetric()
            yield g
            # its Weyl average is invariant; nudging one entry usually breaks it
            conj = [_conjugate(g, w) for w in rd.weyl_group().elements]
            avg = [[sum(c[i][j] for c in conj) for j in range(n)] for i in range(n)]
            yield tuple(map(tuple, avg))
            i, j = rng.randrange(n), rng.randrange(n)
            avg[i][j] += 1
            avg[j][i] = avg[i][j]
            yield tuple(map(tuple, avg))

    @pytest.mark.parametrize("label", LABELS)
    def test_same_verdict_as_conjugation(self, label):
        rd = standard(label)
        rng = random.Random(f"invariance/{label}")
        reflections = [rd.reflection_coweight(i) for i in range(rd.num_simple)]
        verdicts = set()
        for g in self._grams(rd, rng):
            invariant = all(_conjugate(g, w) == g for w in reflections)
            verdicts.add(invariant)
            for slot in ({"gram_rational": g}, {"gram_transcendental": g}):
                if invariant:
                    QForm(rd, **slot)
                else:
                    with pytest.raises(InvarianceError):
                        QForm(rd, **slot)
        # on a torus or in rank one every symmetric Gram is invariant
        assert verdicts == ({True, False} if rd.num_simple and rd.rank > 1 else {True})


class TestKernel:
    def test_pgl2_order3(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
        assert kernel(q, "full").basis.data == ((3,),)

    def test_trivial_full_lattice(self):
        assert kernel(trivial_qform(SP4)).basis.data == ((1, 0), (0, 1))

    def test_pgl2_order8(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 8)]])
        assert kernel(q, "full").basis.data == ((4,),)

    def test_full_contained_in_coroot(self):
        # equality needs the coroot lattice to be the whole coweight lattice;
        # finite index is not enough (PGL2 with Gram [1/2] separates the two)
        rng = random.Random(41)
        for rd in (SL2, PGL2, GL2, SL3, SP4):
            for _ in range(10):
                q = random_invariant_form(rd, rng, with_tau=True)
                full = kernel(q, "full")
                cor = kernel(q, "coroot")
                for row in full.basis.data:
                    assert cor.contains(row)
                if rd.pi1().is_trivial():
                    assert full == cor

    def test_modes_differ_on_pgl2(self):
        q = qform_from_gram(PGL2, [[Fraction(1, 2)]])
        assert kernel(q, "full").basis.data == ((2,),)
        assert kernel(q, "coroot").basis.data == ((1,),)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            kernel(trivial_qform(SL2), "sideways")

    def test_matches_intersection_of_both_kernels(self):
        """`kernel` against the intersection of the modular kernel of the
        rational part and the exact kernel of the transcendental part,
        taken by `_intersect_by_kernel` even when one side is Z^n."""
        rng = random.Random(53)
        forms = []
        for label in ("SL2", "PGL2", "GL2", "SL3", "Sp4", "G2", "SL2xT1", "GL2xT1"):
            for _ in range(6):
                moves = tuple((rng.randrange(3), rng.randrange(3), rng.randint(-2, 2))
                              for _ in range(rng.randrange(5)))
                rd, _ = _rebased_with_basis(label, moves)
                forms.append(random_invariant_form(rd, rng, with_tau=rng.random() < 0.5))
        # GL2, also rebased, with a central transcendental part: it vanishes
        # on the coroot but not on the lattice, so the "coroot" kernel takes
        # the Z^n shortcut and the "full" one intersects two proper kernels
        central = [[1, 1], [1, 1]]
        for moves in ((), ((0, 1, 2),), ((1, 0, -1), (0, 1, 1))):
            u = _transvections(2, moves)
            g1 = (u.transpose() @ IntMatrix(central) @ u).data
            rd, _ = _rebased_with_basis("GL2", moves)
            q = QForm(rd, [[Fraction(x, 3) for x in row] for row in g1], g1)
            assert q.n1 != IntMatrix.zero(2, 2)
            assert rd.simple_coroots @ q.n1 == IntMatrix.zero(1, 2)
            forms.append(q)
        for q in forms:
            for mode in ("full", "coroot"):
                cov = q.rd.simple_coroots
                m0, m1 = (q.n0, q.n1) if mode == "full" else (cov @ q.n0, cov @ q.n1)
                expected = _intersect_by_kernel(kernel_mod(m0, q.den), kernel_mod(m1, None))
                assert kernel(q, mode) == expected


def _intersect_by_kernel(s1, s2):
    """The intersection of two sublattices from the exact kernel of the
    matrix whose columns are the basis of s1 and minus that of s2."""
    n = s1.ambient_rank
    if s1.rank == 0 or s2.rank == 0:
        return Sublattice.zero(n)
    stacked = IntMatrix([[row[i] for row in s1.basis.data]
                         + [-row[i] for row in s2.basis.data] for i in range(n)])
    return Sublattice.from_rows(n, [
        tuple(sum(c * row[i] for c, row in zip(w, s1.basis.data)) for i in range(n))
        for w in kernel_mod(stacked, None).basis.data])


@functools.lru_cache(maxsize=None)
def _rebased_with_basis(label, moves):
    """standard(label) rebased by the transvections `moves`, and its
    invariant Gram basis."""
    rd = _rebased(standard(label), moves)
    return rd, invariant_gram_basis(rd)


def _fraction_value(g, lam, mu, den):
    return sum(lam[a] * g[a][b] * mu[b]
               for a in range(len(lam)) for b in range(len(mu))) / den


class TestIntegerFormProperty:
    """The integer Grams over one denominator against the Fraction Grams
    passed to the constructor: values, kernels and round trips."""

    LABELS = ("SL2", "PGL2", "GL2", "SL3", "Sp4", "G2", "SL2xT1")
    BOX = 4

    def _check(self, rd, g0, g1, lam, mu):
        q = QForm(rd, g0, g1)
        n = rd.rank
        frac = lambda g: tuple(tuple(Fraction(x) for x in row) for row in g)
        f0, f1 = frac(g0), frac(g1)
        assert (q.g0, q.g1) == (f0, f1)
        assert q.den == math.lcm(*(x.denominator for row in f0 + f1 for x in row))
        back = QForm.from_dict(rd, q.to_dict())
        assert back == q and (back.g0, back.g1) == (f0, f1)
        assert q.q(lam) == Exponent(_fraction_value(f0, lam, lam, 2),
                                    _fraction_value(f1, lam, lam, 2))
        assert q.kappa(lam, mu) == Exponent(_fraction_value(f0, lam, mu, 1),
                                            _fraction_value(f1, lam, mu, 1))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        coroots = list(rd.simple_coroots.data)
        box = [()]
        for _ in range(n):
            box = [v + (x,) for v in box for x in range(-self.BOX, self.BOX + 1)]
        for mode, tests in (("full", units), ("coroot", coroots)):
            lattice = kernel(q, mode)
            # t^T g0 and t^T g1 for each vector t that v must pair with
            rows = [[[_fraction_value(f, t, e, 1) for e in units] for f in (f0, f1)]
                    for t in tests]
            for v in box:
                member = all(dot(r0, v).denominator == 1 and dot(r1, v) == 0
                             for r0, r1 in rows)
                assert lattice.contains(v) == member, (mode, v)

    def test_against_fraction_grams(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        moves = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                   st.integers(-2, 2)), max_size=4).map(tuple)
        ratios = st.tuples(st.integers(-3, 3), st.integers(1, 3))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.sampled_from(self.LABELS), moves, st.data())
        def check(label, basis_moves, data):
            rd, basis = _rebased_with_basis(label, basis_moves)

            def gram(nonzero):
                coeffs = data.draw(st.lists(ratios, min_size=len(basis),
                                            max_size=len(basis)))
                hypothesis.assume(not nonzero or any(a for a, _ in coeffs))
                return [[sum(Fraction(a, b) * g[i][j] for (a, b), g in zip(coeffs, basis))
                         for j in range(rd.rank)] for i in range(rd.rank)]

            point = st.lists(st.integers(-self.BOX, self.BOX), min_size=rd.rank,
                             max_size=rd.rank).map(tuple)
            g0, g1 = gram(False), gram(True)
            lam, mu = data.draw(point), data.draw(point)
            self._check(rd, g0, g1, lam, mu)
            # with no transcendental part the kernel is cut out by den alone
            self._check(rd, g0, [[0] * rd.rank for _ in range(rd.rank)], lam, mu)

        check()


class TestDetForm:
    def test_sl2_adjoint(self):
        df = det_form(SL2, [(2,), (0,), (-2,)])
        assert df.k((1,), (1,)) == 8
        assert df.r((1,)) == 4
        assert df.is_sf
        assert df.zeta == (Fraction(0),)

    def test_gl2_standard_parity_obstruction(self):
        df = det_form(GL2, [(1, 0), (0, 1)])
        assert df.k((1, 0), (1, 0)) == 1
        assert not df.is_sf

    def test_empty_multiset(self):
        df = det_form(SL3, [])
        assert df.is_sf
        assert df.k((1, 0), (0, 1)) == 0

    def test_warns_on_open_multiset(self):
        with pytest.warns(UserWarning):
            det_form(SL2, [(2,)])

    def test_adjoint_integrality(self):
        for rd in (SL2, SL3, SP4, G2):
            weights = [b for b, _ in rd.root_pairs] + [(0,) * rd.rank] * rd.rank
            df = det_form(rd, weights)
            assert df.is_sf
            assert df.zeta_is_integral()
            for i in range(rd.rank):
                e = tuple(1 if j == i else 0 for j in range(rd.rank))
                assert df.r(e).denominator == 1


class TestKilling:
    def test_sl2_order4_value(self):
        q = killing_qform(SL2, 0, Exponent.of(Fraction(1, 4)))
        # Q_0(coroot) = (1/2) sum over both roots of <beta, coroot>^2 = 4
        assert dot(killing_matrix(SL2, 0).mul_vec((1,)), (1,)) == 2 * 4
        assert q.q((1,)).is_zero()

    def test_trivial_coefficient(self):
        q = killing_qform(SL3, 0, Exponent.zero())
        assert q == QForm(SL3)

    def test_sl3_short_coroot_value(self):
        # (1/2) sum over all six roots of <beta, coroot_1>^2 = 6
        k = killing_matrix(SL3, 0)
        assert dot(k.mul_vec((1, 0)), (1, 0)) == 2 * 6
        q = killing_qform(SL3, 0, Exponent.of(Fraction(1, 3)))
        assert q.q((1, 0)).is_zero()


# The component index is checked at the library edge: an int, not a bool,
# in range(len(rd.components)); -1 no longer wraps to the last component.
@pytest.mark.parametrize("call", [
    lambda: killing_qform(SL3, -1, Exponent.of(Fraction(1, 3))),
    lambda: killing_matrix(standard("SL2xSL3"), True),
    lambda: killing_matrix(standard("SL2xSL3"), 2),
    lambda: killing_qform(SL2, 5, Exponent.of(Fraction(1, 4))),
    lambda: killing_qform(standard("T1"), 0, Exponent.of(Fraction(1, 4))),
], ids=["negative", "bool", "past-end", "past-end-rank1", "torus"])
def test_component_index_checked(call):
    with pytest.raises(ValueError, match="component index .* is not in range"):
        call()


class TestEpsilonDefect:
    def test_gram_forms_have_zero_defect(self):
        rng = random.Random(47)
        for rd in (SL2, PGL2, GL2, SL3, SP4, G2):
            for _ in range(10):
                q = random_invariant_form(rd, rng, with_tau=True)
                lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                for _, cobeta in rd.root_pairs:
                    assert epsilon_defect(q, cobeta, lam).is_zero()

    def test_trivial_form(self):
        assert epsilon_defect(trivial_qform(SL2), (1,), (3,)).is_zero()

    def test_pgl2_worked_example(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 5)]])
        assert q.kappa((2,), (1,)) == Exponent.of(Fraction(4, 5))
        assert q.q((2,)) == Exponent.of(Fraction(4, 5))
        assert epsilon_defect(q, (2,), (1,)).is_zero()

    def test_non_coroot_rejected(self):
        with pytest.raises(ValueError):
            epsilon_defect(trivial_qform(SL2), (3,), (1,))


class TestHalfForms:
    def test_sl2_even(self):
        q = half_forms_qform(SL2)
        assert q.q((1,)).is_zero()  # <2 rho, coroot> = 2

    def test_pgl2_odd(self):
        q = half_forms_qform(PGL2)
        assert q.q((1,)) == Exponent.of(Fraction(1, 2))

    def test_parity_formula_random(self):
        rng = random.Random(53)
        for rd in (SL3, SP4, G2, GL2):
            q = half_forms_qform(rd)
            for _ in range(30):
                lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                expected = Fraction(dot(rd.two_rho, lam), 2)
                assert q.q(lam) == Exponent(expected)

    @pytest.mark.parametrize("label", TestInvarianceAgainstConjugation.LABELS)
    def test_integer_route_matches_fraction_route(self, label):
        # K summed over every root pair, halved in Fractions, gives the form
        # that the integer Gram sum K over 2 gives; K is even, so den is 1
        rd = standard(label)
        n = rd.rank
        k = [[sum(beta[a] * beta[b] for beta, _ in rd.root_pairs) for b in range(n)]
             for a in range(n)]
        ref = QForm(rd, [[Fraction(x, 2) for x in row] for row in k])
        q = half_forms_qform(rd)
        assert (q.n0, q.n1, q.den) == (ref.n0, ref.n1, ref.den)
        assert q.den == 1

    def test_bilinear_form_trivial(self):
        rng = random.Random(59)
        for rd in (SL2, PGL2, SL3, SP4, G2, GL2):
            q = half_forms_qform(rd)
            for _ in range(20):
                lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                mu = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
                assert q.kappa(lam, mu).is_zero()


class TestBraiding:
    def test_pgl2_sign(self):
        q = trivial_qform(PGL2)
        sign, _ = braiding_signs(q, (1,), (1,))
        assert sign == -1

    def test_zero_coweight(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
        sign, factor = braiding_signs(q, (0,), (5,))
        assert sign == 1
        assert factor == q.q((5,))

    def test_sl2_coroot(self):
        sign, _ = braiding_signs(trivial_qform(SL2), (1,), (1,))
        assert sign == 1


def _bilinear_gram(cd):
    """The rational Gram B on coweights with coroot_i^T B coroot_j = i.j,
    from `CartanDatum._bilinear_numerators`."""
    num, den = cd._bilinear_numerators()
    return [[Fraction(x, den) for x in row] for row in num.data]


class TestCartanDatum:
    def test_standard_values(self):
        assert CartanDatum.standard(SL2).f == (1,)
        assert CartanDatum.standard(SL3).f == (1, 1)
        assert CartanDatum.standard(SP4).f == (2, 1)
        assert CartanDatum.standard(SP4, scale=2).f == (4, 2)

    @pytest.mark.parametrize("label,f", [
        ("G2", (3, 1)), ("PGL3", (1, 1)), ("GL2xT2", (1,)),
        ("SL2xG2", (1, 3, 1)), ("Sp4xG2xSL3", (2, 1, 3, 1, 1, 1)),
    ])
    def test_standard_values_more_labels(self, label, f):
        assert CartanDatum.standard(standard(label)).f == f

    @pytest.mark.parametrize("label", ["SL2xG2", "Sp4xG2", "G2xSp4xSL2"])
    def test_standard_follows_any_order_of_simple_roots(self, label):
        # f is least per component: listing the simple roots in another
        # order, across or within components, permutes f and nothing else
        rd = standard(label)
        f = CartanDatum.standard(rd).f
        for perm in itertools.permutations(range(rd.num_simple)):
            moved = RootDatum([rd.simple_roots.row(i) for i in perm],
                              [rd.simple_coroots.row(i) for i in perm], rank=rd.rank)
            assert CartanDatum.standard(moved).f == tuple(f[i] for i in perm)

    @pytest.mark.parametrize("label", ["SL2", "SL3", "SL4", "SL5", "PGL3", "Sp4", "G2",
                                       "SL2xG2"])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_bilinear_gram_gives_the_pairing(self, label, scale):
        # C B C^T = (i.j) for C the matrix of simple coroot rows
        rd = standard(label)
        cd = CartanDatum.standard(rd, scale)
        b = _bilinear_gram(cd)
        c = rd.simple_coroots.data
        n = rd.rank
        got = [[sum(c[i][a] * b[a][e] * c[j][e] for a in range(n) for e in range(n))
                for j in range(n)] for i in range(n)]
        assert got == [[cd.pairing(i, j) for j in range(n)] for i in range(n)]

    def test_diagonal_even_positive(self):
        for rd in (SL3, SP4, G2):
            cd = CartanDatum.standard(rd)
            for i in range(rd.num_simple):
                assert cd.pairing(i, i) == 2 * cd.f[i]
                assert cd.pairing(i, i) > 0

    def test_cartan_integer_recovered(self):
        for rd in (SL3, SP4, G2):
            cd = CartanDatum.standard(rd)
            for i in range(rd.num_simple):
                for j in range(rd.num_simple):
                    lhs = Fraction(2 * cd.pairing(i, j), cd.pairing(j, j))
                    assert lhs == rd.cartan_matrix[j][i]
                    if i != j:
                        assert lhs <= 0

    def test_bad_symmetrizer(self):
        with pytest.raises(ValueError):
            CartanDatum(SP4, (1, 1))

    def test_symmetrizer_is_checked_per_component(self):
        # f d is constant on each component, with its own constant: 2 * 1 =
        # 1 * 2 on Sp4 and 5 on SL2, so one check across all simples would
        # reject f = (2, 1, 5)
        rd = standard("Sp4xSL2")
        assert CartanDatum(rd, (2, 1, 5)).f == (2, 1, 5)
        with pytest.raises(ValueError) as info:
            CartanDatum(rd, (1, 1, 1))
        assert str(info.value) == "f does not symmetrize the Cartan matrix on simples (0, 1)"

    @pytest.mark.parametrize("label", ["SL2", "SL3", "PGL3", "Sp4", "G2", "SL2xG2", "SL4"])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_cartan_qform_in_integers(self, label, scale):
        # the integer route stores what the Gram of Fractions over the order
        # gives, in lowest terms
        cd = CartanDatum.standard(standard(label), scale)
        for order in (1, 2, 3, 5, 12, 60):
            q = cartan_qform(cd, order)
            expected = QForm(cd.rd, [[x / order for x in row] for row in _bilinear_gram(cd)])
            assert (q.n0, q.n1, q.den) == (expected.n0, expected.n1, expected.den)
            assert q == expected != QForm(cd.rd)

    def test_cartan_qform_orders(self):
        import math
        cd = CartanDatum.standard(SP4)
        for order in (2, 3, 12):
            q = cartan_qform(cd, order)
            for i in range(2):
                cor = SP4.simple_coroots.row(i)
                assert q.q(cor) == Exponent.of(Fraction(cd.f[i], order))
                assert q.q(cor).rational.denominator == order // math.gcd(order, cd.f[i])


class TestGramHelpers:
    def test_normalized_killing_short_coroots(self):
        # each component's shortest simple coroot has squared length 2, and on
        # an irreducible datum the Gram is K / 2h, in rebased bases too
        rng = random.Random(29)
        for label, b in itertools.product(
                ("SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL4", "SL2xSL3",
                 "Sp4xG2xSL2", "G2xG2", "PGL3xSp4", "GL2xT1"), range(3)):
            rd = standard(label) if b == 0 else _rebased(
                standard(label), [(rng.randrange(6), rng.randrange(6), rng.randint(-2, 2))
                                  for _ in range(5)])
            g = normalized_killing_gram(rd)
            for comp in rd.components:
                lengths = [sum(g[x][y] * c[x] * c[y] for x in range(rd.rank)
                               for y in range(rd.rank))
                           for c in map(rd.simple_coroots.row, comp)]
                assert min(lengths) == 2
            if rd.is_irreducible():
                (k, h), = rd.killing
                assert g == tuple(tuple(Fraction(x, 2 * h) for x in r) for r in k.data)

    @pytest.mark.parametrize("label", ["SL2xG2", "SL3xSp4", "GL3"])
    def test_component_killing_sums_to_half_forms(self, label):
        # both are sums of beta beta^T, over all roots once split by component
        rd = standard(label)
        total = [[0] * rd.rank for _ in range(rd.rank)]
        for ci in range(len(rd.components)):
            k = killing_matrix(rd, ci)
            for a in range(rd.rank):
                for b in range(rd.rank):
                    total[a][b] += k.data[a][b]
        g0 = half_forms_qform(rd).g0
        assert total == [[2 * x for x in row] for row in g0]

    def test_minimal_even_gram_pgl2(self):
        g, m = minimal_even_gram(PGL2)
        assert g == ((Fraction(2),),)
        assert m == 4

    def test_invariant_basis_dimensions(self):
        assert len(invariant_gram_basis(SL2)) == 1
        assert len(invariant_gram_basis(GL2)) == 2
        assert len(invariant_gram_basis(SL3)) == 1
        assert len(invariant_gram_basis(standard("torus2"))) == 3


@pytest.mark.parametrize("label", TestInvarianceAgainstConjugation.LABELS
                         + ("SL2xT1", "Sp4xSL2", "PGL2xPGL2", "SL3xSL3"))
def test_invariant_basis_matches_conjugation_oracle(label):
    # the same Hermite basis from the equations 2 g cov = (cov^T g cov)
    # alpha as from conjugating by each simple reflection, in the standard
    # basis and in random ones
    rd = standard(label)
    assert invariant_gram_basis(rd) == form_oracle.invariant_gram_basis(rd)
    rng = random.Random(f"gram-basis/{label}")
    for _ in range(4):
        moves = [(rng.randrange(8), rng.randrange(8), rng.randint(-2, 2)) for _ in range(5)]
        moved = _rebased(rd, moves)
        assert invariant_gram_basis(moved) == form_oracle.invariant_gram_basis(moved), moves


# Vector arguments follow the one integrality rule of IntMatrix: a
# non-integer or a bool is rejected, not truncated.
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call,expected", [
    (lambda x: det_form(SL2, [(x,), (-1,)]).k_matrix.data, ((2,),)),
    (lambda x: epsilon_defect(trivial_qform(SL2), (x,), (1,)).is_zero(), True),
    (lambda x: CartanDatum(SL2, (x,)).f, (1,)),
], ids=["det_form", "epsilon_defect", "CartanDatum"])
def test_integer_arguments(call, expected, bad):
    with pytest.raises(ValueError, match="not an integer"):
        call(bad)
    assert call(1) == expected


# A form's Gram data keeps its check where it enters, although the integer
# Grams made from it are stored unchecked (`lattice._computed_matrix`): a
# Gram holds rationals, so 1.5 is 3/2, but a bool and a wrong shape are
# rejected, and a form dict takes only [numerator, denominator] int pairs.
@pytest.mark.parametrize("bad,error", [
    ([[True]], TypeError), ([[1], [0]], ShapeError), ([[1, 0]], ShapeError)],
    ids=["bool", "ragged-rows", "ragged-cols"])
def test_gram_parse_still_checked(bad, error):
    assert QForm(SL2, [[1.5]]).g0 == ((Fraction(3, 2),),)
    with pytest.raises(error):
        QForm(SL2, bad)
    with pytest.raises(error):
        QForm(SL2, None, bad)


@pytest.mark.parametrize("bad,error", [
    ([[[1.5, 1]]], TypeError), ([[[True, 1]]], TypeError), ([[[1, 1]], [[0, 1]]], ShapeError)],
    ids=["float", "bool", "ragged"])
def test_form_dict_still_checked(bad, error):
    for d in ({"gram_rational": bad, "gram_transcendental": [[[0, 1]]]},
              {"gram_rational": [[[0, 1]]], "gram_transcendental": bad}):
        with pytest.raises(error):
            QForm.from_dict(SL2, d)
