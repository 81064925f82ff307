import random
from fractions import Fraction

import pytest

from replay_oracle import (
    DivisorLedger,
    Partition,
    ledger_for_components,
    restrict,
    verify_bilinearity,
    verify_quadratic,
)
from twistdual.qform import (
    Exponent,
    QForm,
    invariant_gram_basis,
    qform_from_gram,
    trivial_qform,
)
from twistdual.rootdata import standard

SL2 = standard("SL2")
PGL2 = standard("PGL2")
GL2 = standard("GL2")


def random_form(rd, rng, with_tau=True):
    basis = invariant_gram_basis(rd)

    def gram():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in basis]
        return [[sum(c * b[i][j] for c, b in zip(coeffs, basis))
                 for j in range(rd.rank)] for i in range(rd.rank)]

    return QForm(rd, gram(), gram() if with_tau else None)


class TestPartition:
    def test_canonical_form(self):
        p = Partition.of(3, [(2,), (0, 1)])
        assert p.parts == ((0, 1), (2,))
        assert str(p) == "{1,2}|{3}"

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            Partition.of(3, [(0, 1)])
        with pytest.raises(ValueError):
            Partition.of(2, [(0,), (0, 1)])


class TestLedger:
    def test_two_point_ledger(self):
        q = QForm(PGL2, [[Fraction(2, 3)]])
        lam, mu = (1,), (2,)
        led = ledger_for_components(q, [lam, mu])
        assert led.pairwise_map()[frozenset((0, 1))] == q.kappa(lam, mu)
        assert led.tangent_map() == {0: q.q(lam), 1: q.q(mu)}

    def test_trivial_form_all_zero(self):
        led = ledger_for_components(trivial_qform(GL2), [(1, 0), (0, 1), (2, 2)])
        assert all(e.is_zero() for _, e in led.pairwise)
        assert all(e.is_zero() for _, e in led.tangents)

    def test_three_point_pairwise(self):
        q = QForm(PGL2, [[Fraction(2, 5)]])
        lam, mu, nu = (1,), (2,), (3,)
        led = ledger_for_components(q, [lam, mu, nu])
        pw = led.pairwise_map()
        assert pw[frozenset((0, 1))] == q.kappa(lam, mu)
        assert pw[frozenset((0, 2))] == q.kappa(lam, nu)
        assert pw[frozenset((1, 2))] == q.kappa(mu, nu)


class TestRestrict:
    def test_two_point_merge(self):
        a, b, c = (Exponent.of(Fraction(1, 3)), Exponent.of(Fraction(1, 4)),
                   Exponent.of(Fraction(1, 5)))
        led = DivisorLedger.build(2, {frozenset((0, 1)): a}, {0: b, 1: c})
        merged = restrict(led, 0, 1)
        assert merged.tangent_map() == {0: a + b + c}
        assert merged.pairwise == ()

    def test_zero_ledger(self):
        led = ledger_for_components(trivial_qform(SL2), [(1,), (2,), (3,)])
        merged = restrict(led, 0, 1)
        assert all(e.is_zero() for _, e in merged.pairwise)
        assert all(e.is_zero() for _, e in merged.tangents)

    def test_third_coordinate_exponents_add(self):
        q = QForm(PGL2, [[Fraction(2, 7)]])
        lam, mu, nu = (1,), (2,), (3,)
        led = ledger_for_components(q, [lam, mu, nu])
        merged = restrict(led, 0, 1)
        got = merged.pairwise_map()[frozenset((0, 2))]
        assert got == q.kappa(lam, nu) + q.kappa(mu, nu)

    def test_dead_coordinate_rejected(self):
        led = ledger_for_components(trivial_qform(SL2), [(1,), (2,), (3,)])
        merged = restrict(led, 0, 1)
        with pytest.raises(ValueError):
            restrict(merged, 0, 1)

    def test_mass_preserved(self):
        rng = random.Random(61)
        for _ in range(20):
            q = random_form(PGL2, rng)
            cws = [(rng.randint(-4, 4),) for _ in range(4)]
            led = ledger_for_components(q, cws)
            merged = restrict(led, 1, 3)
            mass = [sum((e for _, e in ledger.pairwise + ledger.tangents), Exponent.zero())
                    for ledger in (merged, led)]
            assert mass[0] == mass[1]

    def test_merge_order_confluence(self):
        rng = random.Random(67)
        for _ in range(20):
            q = random_form(GL2, rng)
            cws = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            led = ledger_for_components(q, cws)
            ab = restrict(restrict(led, 0, 1), 2, 3)
            ba = restrict(restrict(led, 2, 3), 0, 1)
            assert ab == ba


class TestVerification:
    @pytest.mark.parametrize("rd", [SL2, PGL2, GL2], ids=lambda r: r.name)
    def test_laws_hold_for_gram_forms(self, rd):
        rng = random.Random(71)
        for _ in range(30):
            q = random_form(rd, rng)
            pick = lambda: tuple(rng.randint(-5, 5) for _ in range(rd.rank))
            assert verify_bilinearity(q, pick(), pick(), pick())
            assert verify_quadratic(q, pick(), pick())

    def test_trivial_form(self):
        assert verify_bilinearity(trivial_qform(SL2), (1,), (2,), (3,))
        assert verify_quadratic(trivial_qform(SL2), (1,), (2,))

    def test_tampered_ledger_detected(self):
        q = QForm(PGL2, [[Fraction(2, 3)]])
        lam, mu, nu = (1,), (2,), (3,)
        led = ledger_for_components(q, [lam, mu, nu])
        bump = Exponent.of(Fraction(1, 2))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            bad = led.with_pairwise(i, j, led.pairwise_map()[frozenset((i, j))] + bump)
            assert not verify_bilinearity(q, lam, mu, nu, bad)
        led4 = ledger_for_components(q, [lam, mu, lam, mu])
        bad4 = led4.with_pairwise(0, 3, led4.pairwise_map()[frozenset((0, 3))] + bump)
        assert not verify_quadratic(q, lam, mu, bad4)


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_ledger_rejects_non_integer_coweights(bad):
    q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
    with pytest.raises(ValueError, match="not an integer"):
        ledger_for_components(q, [(bad,), (2,)])
    third = Exponent.of(Fraction(1, 3))
    led = ledger_for_components(q, [(1,), (2,)])
    assert led.pairwise_map() == {frozenset((0, 1)): third}
    assert led.tangent_map() == {0: third, 1: third}
