import itertools
import math
import random
from fractions import Fraction

import pytest

import glued_oracle
import kernel_oracle
import root_oracle
from fraction_oracle import solve_left_rational
from test_rootdata import _rebased, _transvections
from twistdual import dualgroup, lattice, rootdata
from twistdual.lattice import IntMatrix, Sublattice, kernel_mod
from twistdual.qform import (
    CartanDatum,
    InvarianceError,
    QForm,
    ShapeError,
    cartan_qform,
    half_forms_qform,
    invariant_gram_basis,
    kernel,
    killing_matrix,
    minimal_even_gram,
    normalized_killing_gram,
    qform_from_gram,
    trivial_qform,
)
from twistdual.dualgroup import (
    PaperContractViolation,
    fl_dual,
    isomorphic,
    langlands_dual,
    lusztig_dual,
    quantum_dual_pair,
    rank1_table,
    twisted_dual,
)
from twistdual.rootdata import RootDatum, dot, standard, vec_scale

SL2 = standard("SL2")
PGL2 = standard("PGL2")
GL2 = standard("GL2")
SL3 = standard("SL3")
SP4 = standard("Sp4")
G2 = standard("G2")
ALL_SIX = (SL2, PGL2, GL2, SL3, SP4, G2)


def _simple(d):
    return d.simple_roots.data, d.simple_coroots.data


def _root_in_source(td, i):
    """Dual simple root i of a `TwistedDual` in the source coweights."""
    return kernel_oracle.member(td.weight_sublattice, td.datum.simple_roots.row(i))


def _assert_pair(pair):
    """An "ok" quantum pair whose `iso` is unimodular and, read as a map of
    columns, carries every (root, coroot) pair of the left dual onto the
    right one, by the oracle's own root closure."""
    assert pair.ok
    assert pair.iso.is_unimodular()
    assert root_oracle.carries_root_data(pair.iso.transpose().data,
                                         _simple(pair.left.datum), _simple(pair.right.datum))


class TestTwistedDual:
    def test_pgl2_order_three(self):
        td = twisted_dual(PGL2, qform_from_gram(PGL2, [[Fraction(2, 3)]]))
        assert td.weight_sublattice.basis.data == ((3,),)
        assert td.multipliers == (3,)
        # 3 * coroot = 6 = 2 * basis vector, functional alpha/3 = 1 on basis
        assert td.datum.simple_roots.data == ((2,),)
        assert td.datum.simple_coroots.data == ((1,),)
        assert td.datum.pi1().is_trivial()  # simply connected A1

    def test_trivial_form_is_langlands(self):
        for rd in ALL_SIX:
            td = twisted_dual(rd, trivial_qform(rd))
            assert td.multipliers == (1,) * rd.num_simple
            assert td.datum.simple_roots == rd.simple_coroots
            assert td.datum.simple_coroots == rd.simple_roots

    def test_langlands_dual_is_the_flip(self, monkeypatch):
        # the zero form's dual over the whole lattice with multipliers 1 is
        # the flip itself: it shares the source's matrices, and reads no
        # coordinates, Hermite form, kernel or value of Q
        counts = {}

        def counted(owner, attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            key = f"{owner.__name__}.{attr}"
            counts[key] = 0
            monkeypatch.setattr(owner, attr, wrapper)

        for label in ("SL3", "PGL3", "Sp4", "G2", "GL3", "SL2xG2", "T2"):
            rd = RootDatum.from_dict(standard(label).to_dict())
            for owner, attr in ((Sublattice, "coefficients"), (lattice, "_hermite_rows"),
                                (dualgroup, "_hermite_rows"), (QForm, "_numerators"),
                                (dualgroup, "kernel")):
                counted(owner, attr)
            td = langlands_dual(rd)
            monkeypatch.undo()
            assert counts == dict.fromkeys(counts, 0), label
            assert td.datum.simple_roots is rd.simple_coroots
            assert td.datum.simple_coroots is rd.simple_roots
            assert td.datum.cartan_matrix == tuple(zip(*rd.cartan_matrix))
            assert td.datum.name == f"dual({label})"
            assert td.multipliers == (1,) * rd.num_simple
            assert td.weight_sublattice == Sublattice.full(rd.rank)
            # the zero form reads no kernel, but its mode is still checked
            with pytest.raises(ValueError, match="^unknown kernel mode 'sideways'$"):
                twisted_dual(rd, trivial_qform(rd), "sideways")

    def test_sl2_with_even_gram(self):
        # Q(n) = e^(2 pi i n^2) is valued 1; the dual is the adjoint form
        td = twisted_dual(SL2, qform_from_gram(SL2, [[2]]))
        assert td.weight_sublattice.basis.data == ((1,),)
        assert td.multipliers == (1,)
        assert td.datum.simple_roots.data == ((1,),)
        assert td.datum.simple_coroots.data == ((2,),)

    def test_infinite_order_drops_coroot(self):
        td = twisted_dual(SL2, qform_from_gram(SL2, None, [[1]]))
        assert td.multipliers == (None,)
        assert td.dropped == (0,)
        assert td.datum.rank == 0

    def test_one_of_two_coroots_dropped(self):
        # Q = diag(2/3, tau) on SL2 x SL2: order 3 on the first coroot,
        # infinite order on the second
        rd = standard("SL2xSL2")
        td = twisted_dual(rd, QForm(rd, [[Fraction(2, 3), 0], [0, 0]], [[0, 0], [0, 1]]))
        assert td.dropped == (1,)
        assert td.to_dict() == {
            "rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]],
            "name": "dual(SL2xSL2)", "weight_sublattice": [[3, 0]],
            "multipliers": [3, None], "dropped": [1]}
        assert _root_in_source(td, 0) == (3, 0)

    def test_multipliers_constant_on_weyl_orbits(self):
        rng = random.Random(97)
        for rd in (SL3, SP4, G2):
            basis = invariant_gram_basis(rd)
            for _ in range(10):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6))
                          for _ in basis]
                g0 = [[sum(c * b[i][j] for c, b in zip(coeffs, basis))
                       for j in range(rd.rank)] for i in range(rd.rank)]
                q = QForm(rd, g0)
                orders = {cb: q.q(cb).rational.denominator for _, cb in rd.root_pairs}
                flipped = rd.flip()
                for beta, cobeta in rd.root_pairs:
                    for i in range(rd.num_simple):
                        image = flipped.reflect_weight(i, cobeta)
                        assert orders[image] == orders[cobeta]

    def test_integer_multipliers_are_orders_of_q(self):
        # each multiplier, read off the integer numerators of Q(coroot), is
        # the order of the value Q(coroot) (the denominator of its rational
        # part, infinite with a tau part), on forms with tau parts, in the
        # standard basis and in others
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        data = {rd.name: rd for rd in (SL2, PGL2, GL2, SL3, SP4, G2, standard("SL2xSL2"),
                                       standard("SL2xT1"), standard("G2xSL2"))}
        ratios = st.tuples(st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 4, 6)))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(data)),
                          TestIsomorphicUnderRebasing._moves(st, 3),
                          st.sampled_from(("full", "coroot")), st.data())
        def check(label, moves, mode, draw):
            rd = _rebased(data[label], moves)
            basis = invariant_gram_basis(rd)
            n = rd.rank

            def gram():
                coeffs = draw.draw(st.lists(ratios, min_size=len(basis), max_size=len(basis)))
                return [[sum(Fraction(a, b) * g[i][j] for (a, b), g in zip(coeffs, basis))
                         for j in range(n)] for i in range(n)]

            q = QForm(rd, gram(), gram())
            values = [q.q(c) for c in rd.simple_coroots.data]
            assert twisted_dual(rd, q, mode).multipliers == tuple(
                None if e.tau else e.rational.denominator for e in values)

        check()

    def test_contract_violation_on_inconsistent_form(self):
        class Doctored(QForm):
            def _numerators(self, lam, mu):
                # claims Q(coroot) = 3/6, of order 2, while the Gram says 4/6,
                # of order 3
                if lam == mu == (2,):
                    return 3, 0
                return super()._numerators(lam, mu)

        bad = Doctored(PGL2, [[Fraction(2, 3)]])
        assert bad.q((2,)).rational == Fraction(1, 2) and bad.n0.data == ((2,),) and bad.den == 3
        with pytest.raises(PaperContractViolation):
            twisted_dual(PGL2, bad)

    @pytest.mark.parametrize("label,gram", [
        ("SL2", [[1]]), ("SL2", None), ("PGL3", None), ("Sp4", None), ("G2", None),
        ("GL2xT1", None), ("SL2xSL3", None)])
    def test_whole_lattice_assembles_without_coordinates(self, label, gram, monkeypatch):
        # an integral form (Langlands: the zero form) has the whole lattice
        # as its kernel; the roots are r_i coroot_i as they stand and the
        # pairing rows are the simple roots, with no coordinate solve
        rd = standard(label)
        solves = []
        coefficients = lattice.Sublattice.coefficients
        monkeypatch.setattr(lattice.Sublattice, "coefficients",
                            lambda self, v: solves.append(v) or coefficients(self, v))
        td = twisted_dual(rd, qform_from_gram(rd, gram))
        assert solves == []
        monkeypatch.undo()
        lat = td.weight_sublattice
        assert lat == lattice.Sublattice.full(rd.rank)
        pairs = [(r, a, c) for r, a, c in zip(td.multipliers, rd.simple_roots.data,
                                              rd.simple_coroots.data) if r is not None]
        assert td.datum.simple_roots.data == tuple(
            lat.coefficients(vec_scale(r, c)) for r, _, c in pairs)
        assert td.datum.simple_coroots.data == tuple(
            tuple(dot(a, w) // r for w in lat.basis.data) for r, a, _ in pairs)
        if gram is not None:
            assert td.multipliers == (2,)

    def test_whole_lattice_keeps_the_divisibility_check(self):
        # an integral form on PGL2 has the whole lattice as its kernel; a
        # doctored odd Q numerator makes the multiplier 2, and alpha / 2 is
        # not integral, so the assembly still refuses it
        class Doctored(QForm):
            def _numerators(self, lam, mu):
                return 1, 0

        bad = Doctored(PGL2, [[1]])
        assert bad.den == 1 and kernel(bad) == lattice.Sublattice.full(1)
        with pytest.raises(PaperContractViolation, match="alpha_0/2 is not integral"):
            twisted_dual(PGL2, bad)


class TestDualMemo:
    """twisted_dual keeps the dual of a form over its own datum, per mode."""

    THIRD = [[Fraction(1, 3), 0], [0, Fraction(1, 3)]]   # kernels differ by mode

    def test_same_form_same_dual(self):
        q = qform_from_gram(GL2, self.THIRD)
        for mode in ("full", "coroot"):
            assert twisted_dual(GL2, q, mode) is twisted_dual(GL2, q, mode)

    def test_modes_do_not_collide(self):
        q = qform_from_gram(GL2, self.THIRD)
        full, coroot = twisted_dual(GL2, q, "full"), twisted_dual(GL2, q, "coroot")
        assert full.weight_sublattice.basis != coroot.weight_sublattice.basis
        # asked in the other order, a fresh form gives the same two duals
        fresh = qform_from_gram(GL2, self.THIRD)
        assert twisted_dual(GL2, fresh, "coroot") == coroot
        assert twisted_dual(GL2, fresh, "full") == full

    def test_other_datum_is_not_served(self):
        q = qform_from_gram(SL2, [[Fraction(2, 5)]])
        memo = twisted_dual(SL2, q)
        # an equal datum under another name gets its own label
        renamed = RootDatum(SL2.simple_roots, SL2.simple_coroots, name="A1")
        td = twisted_dual(renamed, q)
        assert td is not memo and td.source is renamed
        assert td.datum.name == "dual(A1)"
        td = twisted_dual(PGL2, q)
        assert td.source is PGL2 and td != memo
        assert twisted_dual(SL2, q) is memo

    def test_form_over_another_datum_is_read_on_it(self):
        # the kernel and the multipliers both come from the datum's coroots:
        # SL2's form on PGL2 in coroot mode once took the kernel from SL2's
        # coroot and gave lattice 2Z, roots [[1]] and coroots [[2]]
        half = [[Fraction(1, 2)]]
        td = twisted_dual(PGL2, qform_from_gram(SL2, half), "coroot")
        assert td.to_dict() == twisted_dual(PGL2, qform_from_gram(PGL2, half), "coroot").to_dict()
        assert td.weight_sublattice.basis.data == ((1,),)
        assert td.datum.simple_roots.data == ((2,),) and td.datum.simple_coroots.data == ((1,),)
        # a Gram the datum does not keep, and a form of another rank
        other = QForm(standard("SL2xSL2"), [[Fraction(1, 3), 0], [0, Fraction(1, 5)]])
        with pytest.raises(InvarianceError):
            twisted_dual(SL3, other)
        with pytest.raises(ShapeError, match="^the form is over rank 1, not the datum's rank 2$"):
            twisted_dual(SL3, qform_from_gram(SL2, [[1]]))

    def test_quantum_pair_sides_unchanged(self):
        b = [[x / 2 for x in row] for row in normalized_killing_gram(SL3)]
        pair = quantum_dual_pair(SL3, b)
        _assert_pair(pair)
        assert pair.iso.data == ((2, -1), (-1, 1))
        assert pair.left.to_dict() == {
            "rank": 2, "simple_roots": [[1, 0], [0, 1]],
            "simple_coroots": [[2, -1], [-1, 2]], "name": "dual(SL3)",
            "weight_sublattice": [[2, 0], [0, 2]], "multipliers": [2, 2],
            "dropped": []}
        assert pair.right.to_dict() == {
            "rank": 2, "simple_roots": [[2, -1], [-1, 1]],
            "simple_coroots": [[1, 0], [1, 3]], "name": "dual(flip(SL3))",
            "weight_sublattice": [[1, 1], [0, 3]], "multipliers": [1, 1],
            "dropped": []}


class TestSharedConstructions:
    """Kernels are memoised by their reduced congruence (`lattice._kernel`)
    and each datum keeps the duals it assembled (`_assemble_dual`), so the
    second of two agreeing constructions is a lookup; neither memo may
    change an answer or a name."""

    LABELS = ("SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL4")
    LEVELS = range(1, 13)

    @staticmethod
    def _constructions(rd, level):
        """Every dual construction at one level: the FL dual and the twisted
        dual of its form, Lusztig's and the twisted dual of the Cartan
        form, both sides of a quantum pair and the Langlands dual."""
        j = normalized_killing_gram(rd)
        out = []
        for d in (1, 2, 3):
            g0 = [[x * Fraction(d, level) for x in row] for row in j]
            out += [(f"fl{d}", lambda rd, d=d: fl_dual(rd, d, level)),
                    (f"fl{d}-twisted", lambda rd, g0=g0: twisted_dual(rd, QForm(rd, g0)))]
        for scale in (1, 2):
            def cartan(rd, scale=scale):
                return CartanDatum(rd, [scale * x for x in CartanDatum.standard(rd).f])
            out += [(f"lusztig{scale}", lambda rd, c=cartan: lusztig_dual(c(rd), level)),
                    (f"lusztig{scale}-twisted",
                     lambda rd, c=cartan: twisted_dual(rd, cartan_qform(c(rd), level), "coroot"))]
        b = [[x / level for x in row] for row in j]
        out += [("quantum-left", lambda rd: quantum_dual_pair(rd, b).left),
                ("quantum-right", lambda rd: quantum_dual_pair(rd, b).right),
                ("langlands", langlands_dual)]
        return out

    def test_warm_duals_equal_cold_ones(self):
        # per label, the standard basis and two rebases; cold builds each
        # dual on a fresh datum with the kernel memo cleared, warm runs every
        # construction twice on one datum, so that all but the first of each
        # agreeing group are served by a memo
        rng = random.Random(30)
        for label in self.LABELS:
            base = standard(label)
            for moves in ([], *([(rng.randrange(base.rank), rng.randrange(base.rank),
                                  rng.choice((-1, 1))) for _ in range(3)] for _ in range(2))):
                data = _rebased(base, moves).to_dict()
                for level in self.LEVELS:
                    cold = {}
                    for name, build in self._constructions(RootDatum.from_dict(data), level):
                        lattice._kernel.cache_clear()
                        cold[name] = build(RootDatum.from_dict(data)).to_dict()
                    rd = RootDatum.from_dict(data)
                    for _ in range(2):
                        warm = {name: build(rd).to_dict()
                                for name, build in self._constructions(rd, level)}
                        assert warm == cold, (label, moves, level)
                    assert len(rd._assembled) <= dualgroup.DUAL_MEMO_SIZE

    def test_memo_served_dual_keeps_its_name(self, monkeypatch):
        rd = standard("G2")
        g0 = [[x * Fraction(2, 5) for x in row] for row in normalized_killing_gram(rd)]
        built = []
        validated = dualgroup._validated_dual
        monkeypatch.setattr(dualgroup, "_validated_dual",
                            lambda *args: built.append(args[3]) or validated(*args))
        fl = fl_dual(rd, 2, 5)
        tw = twisted_dual(rd, QForm(rd, g0))
        again = fl_dual(rd, 2, 5)
        assert built == ["fl(G2,2,5)"]
        monkeypatch.undo()
        assert (fl.datum.name, tw.datum.name, again.datum.name) == \
            ("fl(G2,2,5)", "dual(G2)", "fl(G2,2,5)")
        assert tw.source is rd and tw.weight_sublattice == fl.weight_sublattice
        lattice._kernel.cache_clear()
        fresh_rd = standard("G2")
        fresh = twisted_dual(fresh_rd, QForm(fresh_rd, g0))
        assert tw.datum == fresh.datum and tw.to_dict() == fresh.to_dict()
        res = isomorphic(fl.datum, tw.datum)
        assert res.status == "iso"
        assert res.weight_map == IntMatrix.identity(2) and res.permutation == (0, 1)
        # a renamed copy starts a memo of its own
        assert tw.datum._assembled is not fl.datum._assembled

    def test_failed_assembly_is_not_kept(self):
        rd = standard("PGL2")
        lat = kernel_mod(IntMatrix([[2]]), 3)
        for _ in range(2):
            with pytest.raises(PaperContractViolation):
                dualgroup._assemble_dual(rd, lat, (2,))
        assert rd._assembled == {}
        assert dualgroup._assemble_dual(rd, lat, (3,)).multipliers == (3,)


class TestDualCartanMatrix:
    """Every dual is built by `RootDatum._trusted` with its Cartan matrix in
    closed form, r_i a_ji / r_j over the kept indices, and every flip with
    the transpose; both must be R V^T of the rows it is given."""

    # every one-factor standard label of rank <= 4, and products of rank
    # <= 4 that mix types, centres and tori
    LABELS = ("SL2", "SL3", "SL4", "SL5", "PGL2", "PGL3", "PGL4", "PGL5",
              "GL1", "GL2", "GL3", "GL4", "Sp4", "G2", "T1", "T2", "T3", "T4",
              "SL2xG2", "Sp4xSL2", "PGL2xSL3", "SL3xSL2", "PGL3xG2", "Sp4xSp4", "G2xSp4",
              "SL2xSL2xSL2", "GL2xGL2", "GL2xT1", "G2xT2", "SL2xT3")
    LEVELS = range(1, 13)

    @staticmethod
    def _check(datum, where):
        roots, coroots = datum.simple_roots.data, datum.simple_coroots.data
        product = tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in coroots) for r in roots)
        assert datum.cartan_matrix == product, where
        assert datum._cartan is rootdata._cartan_system(product), where

    @staticmethod
    def _duals(rd, level):
        """(name, datum) for every dual of rd at one level: the twisted dual
        in both modes (of a rational form, of the zero form and of a form
        that drops a component), FL, Lusztig, both sides of a quantum pair,
        the Langlands dual, double duals and flips."""
        j = normalized_killing_gram(rd)
        g0 = [[x / level for x in row] for row in j]
        g1 = killing_matrix(rd, 0).data if rd.components else None
        forms = {"killing": QForm(rd, g0), "zero": trivial_qform(rd),
                 "double": QForm(rd, [[2 * x for x in row] for row in g0]),
                 "dropping": QForm(rd, g0, g1)}
        semisimple = rd.num_simple == rd.rank
        if semisimple:
            forms["cartan"] = cartan_qform(CartanDatum.standard(rd), level)
        out = [(f"{name}-{mode}", twisted_dual(rd, q, mode).datum)
               for name, q in forms.items() for mode in ("full", "coroot")]
        if rd.is_irreducible():
            out += [(f"fl{d}", fl_dual(rd, d, level).datum) for d in (1, 2)]
        out += [(f"lusztig{scale}", lusztig_dual(CartanDatum.standard(rd, scale), level).datum)
                for scale in (1, 2)]
        if semisimple:
            pair = quantum_dual_pair(rd, g0)
            out += [("quantum-left", pair.left.datum), ("quantum-right", pair.right.datum)]
        first = twisted_dual(rd, forms["killing"]).datum
        out += [("langlands", langlands_dual(rd).datum),
                ("double-langlands", langlands_dual(first).datum),
                ("double-killing", twisted_dual(
                    first, QForm(first, [[x / level for x in row]
                                         for row in normalized_killing_gram(first)])).datum),
                ("flip", rd.flip()), ("dual-flip", first.flip())]
        return out

    def test_every_dual_on_the_grid(self):
        rng = random.Random(40)
        for label in self.LABELS:
            base = standard(label)
            for moves in ([], *([(rng.randrange(base.rank), rng.randrange(base.rank),
                                  rng.choice((-1, 1))) for _ in range(3)] for _ in range(2))):
                rd = _rebased(base, moves)
                for level in self.LEVELS:
                    for name, datum in self._duals(rd, level):
                        self._check(datum, (label, moves, level, name))

    def test_g2_at_one_third(self):
        # multipliers [1, 3] separate the closed form from both of its
        # halves: without r_i / r_j the matrix is G2's transpose, and
        # without the transpose it is [2, -1; -9, 2], of no finite type
        td = twisted_dual(G2, QForm(G2, [[x / 3 for x in row]
                                         for row in minimal_even_gram(G2)[0]]))
        assert td.multipliers == (1, 3)
        assert td.datum.cartan_matrix == ((2, -1), (-3, 2))
        self._check(td.datum, "G2")
        assert G2.flip().cartan_matrix == ((2, -3), (-1, 2))


class TestRank1Table:
    def test_odd_example(self):
        t = rank1_table(3)
        assert t.adjoint_kernel.basis.data == ((3,),)
        assert t.simply_connected_kernel.basis.data == ((6,),)
        assert t.case == "odd"

    def test_trivial_order(self):
        t = rank1_table(1)
        assert t.adjoint_kernel.basis.data == ((1,),)
        assert t.simply_connected_kernel.basis.data == ((2,),)

    def test_ord2_two(self):
        t = rank1_table(12)
        assert t.adjoint_kernel.basis.data == ((6,),)
        assert t.simply_connected_kernel.basis.data == ((6,),)
        assert t.case == "ord2=2"

    def test_case_split_against_brute_force(self):
        for r0 in range(1, 33):
            for p in range(1, r0 + 1):
                import math
                if math.gcd(p, r0) != 1:
                    continue
                t = rank1_table(r0, p)
                adj = min(n for n in range(1, 2 * r0 + 1)
                          if (2 * p * n) % r0 == 0)
                sc = 2 * min(n for n in range(1, 8 * r0 + 1)
                             if (8 * p * n) % r0 == 0)
                assert t.adjoint_kernel.basis.data == ((adj,),)
                assert t.simply_connected_kernel.basis.data == ((sc,),)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            rank1_table(6, 2)


# d, N, the orders and r0 are ints >= 1 and p is an int, none of them a
# bool; anything else is a ValueError naming the parameter.
@pytest.mark.parametrize("call,name", [
    (lambda: cartan_qform(CartanDatum.standard(SL2), 0), "the order"),
    (lambda: fl_dual(SL2, 1.5, 2), "d"),
    (lambda: lusztig_dual(CartanDatum.standard(SL2), 2.0), "the order"),
    (lambda: rank1_table(2.0), "r0"),
    (lambda: rank1_table(4, 3.0), "p"),
    (lambda: fl_dual(SL2, 1, 2.0), "N"),
    (lambda: fl_dual(SL2, True, 2), "d"),
    (lambda: lusztig_dual(CartanDatum.standard(SL2), True), "the order"),
], ids=["cartan_qform-zero", "fl-float-d", "lusztig-float", "rank1-float-r0",
        "rank1-float-p", "fl-float-N", "fl-bool-d", "lusztig-bool"])
def test_integer_parameters_checked(call, name):
    with pytest.raises(ValueError, match=f"^{name} .* is not (a positive|an) integer$"):
        call()


class TestFLDual:
    def test_sl2_level_three(self):
        td = fl_dual(SL2, 1, 3)
        assert td.weight_sublattice.basis.data == ((3,),)
        assert td.multipliers == (3,)
        assert _root_in_source(td, 0) == (3,)

    def test_sl2_level_one_langlands(self):
        td = fl_dual(SL2, 1, 1)
        assert td.multipliers == (1,)
        assert isomorphic(td.datum, langlands_dual(SL2).datum).agrees()

    def test_sl3_level_two(self):
        td = fl_dual(SL3, 1, 2)
        assert td.multipliers == (2, 2)
        for i in range(2):
            assert _root_in_source(td, i) == tuple(
                2 * x for x in SL3.simple_coroots.row(i))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            fl_dual(standard("SL2xSL2"), 1, 2)

    @pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
    def test_agrees_with_twisted(self, name):
        rd = standard(name)
        j = normalized_killing_gram(rd)
        for d in (1, 2):
            for big_n in (1, 2, 3, 5, 8, 12):
                fl = fl_dual(rd, d, big_n)
                g0 = [[x * Fraction(d, big_n) for x in row] for row in j]
                tw = twisted_dual(rd, QForm(rd, g0), "full")
                assert isomorphic(fl.datum, tw.datum).agrees()

    @pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL4",
                                      "PGL4"])
    def test_equals_twisted_of_scaled_iota(self, name):
        # not only isomorphic: the same sublattice and the same multipliers
        rd = standard(name)
        j = normalized_killing_gram(rd)
        for d in (1, 2, 3):
            for big_n in range(1, 13):
                fl = fl_dual(rd, d, big_n)
                g0 = [[x * Fraction(d, big_n) for x in row] for row in j]
                tw = twisted_dual(rd, QForm(rd, g0), "full")
                assert fl.weight_sublattice == tw.weight_sublattice
                assert fl.multipliers == tw.multipliers


class TestLusztigDual:
    def test_a1_order_five(self):
        cd = CartanDatum.standard(SL2)
        td = lusztig_dual(cd, 5)
        assert td.weight_sublattice.basis.data == ((5,),)
        assert td.multipliers == (5,)
        assert _root_in_source(td, 0) == (5,)

    def test_order_one_langlands(self):
        for rd in (SL2, SL3, SP4):
            td = lusztig_dual(CartanDatum.standard(rd), 1)
            assert td.multipliers == (1,) * rd.num_simple

    @pytest.mark.parametrize("name", ["T1", "T2", "GL2xT1"])
    def test_centre_is_unconstrained(self, name):
        # with f = 1 a weight is dual iff it pairs with each simple root in
        # lZ, so a torus keeps its whole lattice
        rd = standard(name)
        box = list(itertools.product(range(-3, 4), repeat=rd.rank))
        for order in (1, 2, 3, 6):
            td = lusztig_dual(CartanDatum.standard(rd), order)
            assert td.multipliers == (order,) * rd.num_simple
            assert [td.weight_sublattice.contains(x) for x in box] == [
                all(dot(a, x) % order == 0 for a in rd.simple_roots.data) for x in box]

    def test_a2_order_three_lattice(self):
        cd = CartanDatum.standard(SL3)
        td = lusztig_dual(cd, 3)
        lat = td.weight_sublattice
        for lam in [(1, 0), (0, 1), (1, 1)]:
            assert not lat.contains(lam)
        for i in range(2):
            basis_rows = lat.basis.data
            for row in basis_rows:
                from twistdual.rootdata import dot
                assert dot(SL3.simple_roots.row(i), row) % 3 == 0

    @pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_agrees_with_twisted_coroot_mode(self, name, scale):
        rd = standard(name)
        cd = CartanDatum.standard(rd, scale)
        for order in range(1, 13):
            lz = lusztig_dual(cd, order)
            tw = twisted_dual(rd, cartan_qform(cd, order), "coroot")
            assert isomorphic(lz.datum, tw.datum).agrees()

    @pytest.mark.parametrize("factors", [("SL2", "G2"), ("G2", "SL2"), ("Sp4", "SL3"),
                                         ("Sp4", "G2", "SL3")])
    def test_product_multipliers_concatenate(self, factors):
        # the standard symmetrizer of a product is that of each factor
        rd = standard("x".join(factors))
        for order in range(1, 13):
            parts = (lusztig_dual(CartanDatum.standard(standard(f)), order).multipliers
                     for f in factors)
            assert lusztig_dual(CartanDatum.standard(rd), order).multipliers == sum(parts, ())


class TestQuantumPair:
    def test_sl2_two_thirds(self):
        pair = quantum_dual_pair(SL2, [[Fraction(2, 3)]])
        _assert_pair(pair)
        assert pair.left.weight_sublattice.basis.data == ((3,),)
        assert pair.left.multipliers == (3,)
        # both sides adjoint A1
        assert pair.left.datum.pi1().invariant_factors == (2,)
        assert pair.right.datum.pi1().invariant_factors == (2,)
        assert pair.right.weight_sublattice.basis.data == ((2,),)

    def test_even_integral_gram_gives_langlands(self):
        pair = quantum_dual_pair(SL2, [[2]])
        _assert_pair(pair)
        assert pair.left.multipliers == (1,)
        assert pair.right.multipliers == (1,)

    def test_sl3_half_killing(self):
        b = [[x / 2 for x in row] for row in normalized_killing_gram(SL3)]
        _assert_pair(quantum_dual_pair(SL3, b))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            quantum_dual_pair(GL2, [[1, 1], [1, 1]])

    def test_map_outside_the_right_lattice_raises(self, monkeypatch):
        # b = 1 on SL2 gives whole lattices on both sides, so the only
        # coordinates read are the map's; with none found, the pair raises
        monkeypatch.setattr(Sublattice, "coefficients", lambda self, v: None)
        with pytest.raises(PaperContractViolation, match="outside the right weight lattice"):
            quantum_dual_pair(SL2, [[1]])

    def test_map_that_is_not_unimodular_raises(self, monkeypatch):
        monkeypatch.setattr(IntMatrix, "is_unimodular", lambda self: False)
        with pytest.raises(PaperContractViolation, match="onto the right ones"):
            quantum_dual_pair(SL3, [[x / 2 for x in row] for row in normalized_killing_gram(SL3)])

    @pytest.mark.parametrize("label", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL4",
                                       "GL1", "GL2", "GL3", "SL2xG2", "GL2xSp4", "T2"])
    def test_right_form_matches_fraction_route(self, label, monkeypatch):
        # the right form, den n0^-1 over det in integers, is the form of
        # b^-1 found by a Fraction Gauss-Jordan solve, row by row
        rd = standard(label)
        basis = invariant_gram_basis(rd)
        rng = random.Random(label)
        forms, real = [], dualgroup.twisted_dual
        monkeypatch.setattr(dualgroup, "twisted_dual",
                            lambda r, q, mode="full": forms.append(q) or real(r, q, mode))
        checked = 0
        while checked < 3:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in basis]
            b = [[sum(c * g[i][j] for c, g in zip(coeffs, basis)) for j in range(rd.rank)]
                 for i in range(rd.rank)]
            inv = [solve_left_rational(b, [int(i == j) for i in range(rd.rank)])
                   for j in range(rd.rank)]
            if None in inv:
                continue
            quantum_dual_pair(rd, b)
            right, ref = forms[-1], QForm(rd.flip(), inv)
            assert right.rd.simple_roots == rd.simple_coroots
            assert (right.n0, right.n1, right.den) == (ref.n0, ref.n1, ref.den)
            checked += 1

    @pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3"])
    def test_killing_over_n(self, name):
        rd = standard(name)
        nk = normalized_killing_gram(rd)
        for level in range(1, 9):
            b = [[x / level for x in row] for row in nk]
            _assert_pair(quantum_dual_pair(rd, b))

    @pytest.mark.parametrize("name, signs", [
        ("SL2", (-1,)), ("SL3", (-1,)), ("Sp4", (-1,)), ("G2", (-1,)),
        ("SL2xSL3", (-1, 1)), ("SL2xSL3", (1, -1)), ("SL2xSL3", (-1, -1))])
    def test_negative_killing_over_n(self, name, signs):
        # b negative on a component sends its simple roots to minus the
        # right ones, the sign case of `quantum_dual_pair`'s argument
        rd = standard(name)
        for level in range(1, 9):
            pair = quantum_dual_pair(rd, _signed_killing(rd, signs, level))
            _assert_pair(pair)
            images = [pair.iso.transpose().mul_vec(r) for r in pair.left.datum.simple_roots.data]
            negated = {i for comp, sign in zip(rd.components, signs) if sign < 0 for i in comp}
            assert images == [vec_scale(-1 if i in negated else 1, r)
                              for i, r in enumerate(pair.right.datum.simple_roots.data)]


def _signed_killing(rd, signs, level):
    """sign_c (normalized Killing form of component c) / level, summed over
    the components c of rd."""
    n = rd.rank
    total = [[Fraction(0)] * n for _ in range(n)]
    for ci, (comp, sign) in enumerate(zip(rd.components, signs)):
        k = killing_matrix(rd, ci)
        shortest = min(dot(k.mul_vec(rd.simple_coroots.row(i)), rd.simple_coroots.row(i))
                       for i in comp)
        for a in range(n):
            for b in range(n):
                total[a][b] += Fraction(2 * sign * k.data[a][b], shortest * level)
    return total


class TestIsomorphic:
    def test_identity(self):
        r = isomorphic(SL2, SL2)
        assert r.agrees()
        assert r.weight_map == IntMatrix.identity(1)

    def test_sl2_vs_pgl2(self):
        assert isomorphic(SL2, PGL2).status == "none"

    def test_lusztig_vs_twisted_example(self):
        cd = CartanDatum.standard(SL2)
        lz = lusztig_dual(cd, 5)
        tw = twisted_dual(SL2, qform_from_gram(SL2, [[Fraction(2, 5)]]), "coroot")
        assert isomorphic(lz.datum, tw.datum).agrees()

    def test_gl2_self(self):
        r = isomorphic(GL2, GL2)
        assert r.agrees()

    def test_tori(self):
        assert isomorphic(standard("torus3"), standard("torus3")).agrees()
        assert isomorphic(standard("torus3"), standard("torus2")).status == "none"

    def test_double_dual(self):
        for rd in ALL_SIX:
            dd = langlands_dual(langlands_dual(rd).datum)
            assert isomorphic(dd.datum, rd).agrees()

    def test_half_forms_dual_is_langlands(self):
        for rd in ALL_SIX:
            td = twisted_dual(rd, half_forms_qform(rd))
            assert td.multipliers == (1,) * rd.num_simple
            assert isomorphic(td.datum, langlands_dual(rd).datum).agrees()

    @pytest.mark.parametrize("label", ["SL3", "G2", "GL2", "GL2xT1", "GL2xT2", "T2"])
    def test_equal_data_answer_by_equality(self, label, monkeypatch):
        # equal data, the same object or not, get the identity witness
        # before any frame inverse, kernel or Smith form
        rd = standard(label)
        copy = RootDatum(rd.simple_roots, rd.simple_coroots, rank=rd.rank)
        calls = []
        for name, modules in (("integral_inverse", (lattice, rootdata, dualgroup)),
                              ("kernel_mod", (lattice, rootdata, dualgroup)),
                              ("smith_normal_form", (lattice,))):
            for module in modules:
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *args, real=real: calls.append(args) or real(*args))
        results = [isomorphic(rd, d2) for d2 in (rd, copy)]
        assert calls == []
        monkeypatch.undo()
        for res in results:
            assert res.weight_map == IntMatrix.identity(rd.rank)
            assert res.permutation == tuple(range(rd.num_simple))
            _assert_witness(res, rd, copy)

    def test_different_weyl_types(self):
        assert isomorphic(SP4, standard("SL3")).status == "none"

    def test_a_map_must_carry_the_coroots_too(self):
        # equal roots, coroots differing by a shear of the coweights
        d1 = RootDatum([[2, 0]], [[1, 0]], rank=2)
        d2 = RootDatum([[2, 0]], [[1, 1]], rank=2)
        assert not root_oracle.carries_root_data(IntMatrix.identity(2).data,
                                                 _simple(d1), _simple(d2))
        assert root_oracle.carries_root_data(((1, -1), (0, 1)), _simple(d1), _simple(d2))
        _assert_witness(isomorphic(d1, d2), d1, d2)

    def test_witness_walks_no_roots(self):
        # the simple pairs decide a witness: neither root table is built
        d1, d2 = (_rebased(standard("Sp4xT1"), moves) for moves in ([(0, 2, 1)], [(2, 1, -2)]))
        res = isomorphic(d1, d2)
        assert "root_pairs" not in d1.__dict__ and "root_pairs" not in d2.__dict__
        _assert_witness(res, d1, d2)
        pair = quantum_dual_pair(SL3, [[x / 2 for x in row] for row in normalized_killing_gram(SL3)])
        assert all("root_pairs" not in td.datum.__dict__ for td in (pair.left, pair.right))

    def test_iso_at_the_first_matching_reads_no_pi1(self):
        # pi1 needs the invariant factors of d1's coroots; an "iso" found at
        # the first matching never asks for them
        d1, d2 = (_rebased(standard("SL3"), moves) for moves in ([(0, 1, 2)], [(1, 0, -1)]))
        res = isomorphic(d1, d2)
        assert res.permutation == (0, 1)
        assert "_pi1" not in d1.__dict__
        _assert_witness(res, d1, d2)

    @pytest.mark.parametrize("label", ["GL3", "GL2xT1"])
    def test_frame_is_one_elimination_per_datum(self, label, monkeypatch):
        # a centred datum's frame [simple roots; X^W basis] is inverted once,
        # when first read, and shared by root coordinates, the dominance
        # order, the frame index and isomorphic on either side; a repeated
        # isomorphic eliminates no frame
        d1 = standard(label)
        d2 = _rebased(d1, [(0, d1.rank - 1, 1), (1, 0, -2)])
        frames = {d1.simple_roots.data + d1._fixed_weights: "d1",
                  d2.simple_roots.data + d2._fixed_weights: "d2"}
        runs = []
        eliminate = lattice._eliminate

        def counted(rows, width):
            runs.append(frames.get(tuple(tuple(row[:width]) for row in rows)))
            return eliminate(rows, width)

        monkeypatch.setattr(lattice, "_eliminate", counted)
        for d in (d1, d2):
            assert d.root_coordinates(d.simple_roots.row(0))[0] == 1
            assert d.weight_leq((0,) * d.rank, d.two_rho)
            assert d._frame_index > 1
        results = [isomorphic(d1, d2), isomorphic(d2, d1)]
        assert sorted(filter(None, runs)) == ["d1", "d2"]
        runs.clear()
        again = isomorphic(d1, d2)
        assert not any(runs)
        assert (again.weight_map, again.permutation) == (results[0].weight_map,
                                                         results[0].permutation)
        for res, (a, b) in zip(results, ((d1, d2), (d2, d1))):
            _assert_witness(res, a, b)

    @pytest.mark.parametrize("order", ["one-then-two", "two-then-one"])
    def test_differing_pi1_answer_after_one_closed_form(self, order, monkeypatch):
        # A1^4 modulo <1111> and modulo <1100, 0011>: equal Cartan matrices
        # and gcd pairs, pi1 Z/2 against Z/2 x Z/2
        d1, d2 = _a1_power_mod(4, [[1, 1, 1, 1]]), _a1_power_mod(4, [[1, 1, 0, 0], [0, 0, 1, 1]])
        assert d1.cartan_matrix == d2.cartan_matrix and d1.pi1() != d2.pi1()
        if order == "two-then-one":
            d1, d2 = d2, d1
        consumed = []
        matchings = dualgroup._matchings

        def counted(*args):
            for perm in matchings(*args):
                consumed.append(perm)
                yield perm

        monkeypatch.setattr(dualgroup, "_matchings", counted)
        assert isomorphic(_rebased(d1, [(0, 3, 1)]), d2).status == "none"
        assert len(consumed) <= 1

    def test_differing_pi1_exit_after_one_matching(self, monkeypatch):
        # SL4xSL4 over the weights with c1 = c2 mod 4, and over those with
        # both classes even, for c(x) = x1 + 2 x2 + 3 x3 on each factor:
        # equal Cartan matrices, gcd pairs and frame indices (4), so only
        # pi1, Z/4 against Z/2 x Z/2, ends the search before every matching
        sl4 = standard("SL4xSL4")
        d1 = _sublattice_datum(sl4, kernel_mod(IntMatrix([[1, 2, 3, -1, -2, -3]]), 4))
        d2 = _sublattice_datum(sl4, kernel_mod(IntMatrix([[1, 2, 3, 0, 0, 0],
                                                          [0, 0, 0, 1, 2, 3]]), 2))
        assert d1.cartan_matrix == d2.cartan_matrix
        assert d1._frame_index == d2._frame_index == 4
        assert d1.pi1() != d2.pi1()
        consumed = []
        matchings = dualgroup._matchings

        def counted(*args):
            for perm in matchings(*args):
                consumed.append(perm)
                yield perm

        monkeypatch.setattr(dualgroup, "_matchings", counted)
        assert isomorphic(d1, d2).status == "none"
        assert len(consumed) == 1


class TestUnimodularLift:
    def test_lift_keeps_the_residue_and_has_unit_determinant(self):
        # a = U D mod e plus e R for U in SL_k(Z) and D = diag(1, .., +-1):
        # every matrix of determinant +-1 mod e has that form
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.integers(2, 5), st.integers(2, 60), st.booleans(), st.data())
        def check(k, e, flip, data):
            moves = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                                 st.integers(-9, 9)), max_size=16))
            u = _transvections(k, moves).data
            noise = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                                       min_size=k, max_size=k))
            a = [[(x * (-1 if flip and c == k - 1 else 1)) % e + e * z
                  for c, (x, z) in enumerate(zip(row, zs))] for row, zs in zip(u, noise)]
            lift = dualgroup._unimodular_lift(a, e)
            assert abs(IntMatrix(lift).det()) == 1
            assert all((x - y) % e == 0 for r1, r2 in zip(lift, a) for x, y in zip(r1, r2))
        check()


def _a1_power_mod(n, gens):
    """SL2^n modulo the subgroup of its centre (Z/2)^n spanned by `gens`
    (vectors mod 2): the weights are the x in Z^n with x . g even for each
    g, written in their Hermite basis."""
    weights = kernel_mod(IntMatrix(gens, cols=n), 2)
    roots = [weights.coefficients([2 * (i == j) for j in range(n)]) for i in range(n)]
    coroots = [[b[i] for b in weights.basis.data] for i in range(n)]
    return RootDatum(roots, coroots, rank=n)


def _sublattice_datum(rd, weights):
    """rd's roots and coroots over a full-rank sublattice of its weights
    that holds the roots, written in the sublattice's Hermite basis."""
    basis = weights.basis.data
    roots = [weights.coefficients(a) for a in rd.simple_roots.data]
    coroots = [[dot(c, b) for b in basis] for c in rd.simple_coroots.data]
    return RootDatum(roots, coroots, rank=rd.rank)


def _so4_power(k):
    """SO4^k, SO4 = (SL2 x SL2) / diagonal mu_2 with roots = coroots =
    (1, 1), (1, -1) in each block."""
    rows = [[0] * (2 * b) + r + [0] * (2 * (k - b - 1))
            for b in range(k) for r in ([1, 1], [1, -1])]
    return RootDatum(rows, rows, rank=2 * k)


def _glued_gl2_pair(j):
    """GL2 x GL2 x T_j on Z^(4+j), and its glued copy on X = Z^(4+j) + Z v
    for v = 1/2 (1, 1, 1, -1, 0, ...), written in X's basis v, e_1, e_2,
    ...: both have the roots e_0 - e_1 and e_2 - e_3 and those coroots,
    and <v, e_2 - e_3> = 1 glues the two factors' centres."""
    pad = [0] * j
    plain = RootDatum([[1, -1, 0, 0] + pad, [0, 0, 1, -1] + pad],
                      [[1, -1, 0, 0] + pad, [0, 0, 1, -1] + pad], rank=4 + j)
    glued = RootDatum([[2, -2, -1, 1] + pad, [0, 0, 1, -1] + pad],
                      [[0, -1, 0, 0] + pad, [1, 0, 1, -1] + pad], rank=4 + j)
    return plain, glued


def _assert_witness(res, d1, d2):
    """An "iso" answer whose map is unimodular (by sympy), carries the
    simple roots and coroots by its permutation, and carries every (root,
    coroot) pair, by the oracle's own root closure."""
    sympy = pytest.importorskip("sympy")
    assert res.status == "iso"
    p, perm = res.weight_map, res.permutation
    assert abs(sympy.Matrix(p.data).det()) == 1
    for i in range(d1.num_simple):
        assert p.mul_vec(d1.simple_roots.row(i)) == d2.simple_roots.row(perm[i])
        assert p.transpose().mul_vec(d2.simple_coroots.row(perm[i])) == \
            d1.simple_coroots.row(i)
    assert root_oracle.carries_root_data(p.data, _simple(d1), _simple(d2))


class TestIsomorphicUnderRebasing:
    """isomorphic on data and duals written in other bases of Z^rank: GL_n(Z)
    changes of basis by up to 12 transvections with |c| <= 3."""

    # semisimple (k = 0): SL3, G2, SO4xSO4; k = 1: SL2xT1, Sp4xT1, GL2,
    # PGL3xT1; k = 2 with index 1: PGL2xT2; glued: GL2xT2, GL2xGL2, GL3xT1
    ISO = {"GL2xT2": standard("GL2xT2"), "SL2xT1": standard("SL2xT1"),
           "Sp4xT1": standard("Sp4xT1"), "GL2xGL2": standard("GL2xGL2"),
           "GL3xT1": standard("GL3xT1"), "SO4xSO4": _so4_power(2),
           "SL3": SL3, "G2": G2, "GL2": GL2, "PGL3xT1": standard("PGL3xT1"),
           "PGL2xT2": standard("PGL2xT2")}
    NONE = [(standard(f"SL{n}"), standard(f"PGL{n}")) for n in (2, 3, 4)] + [
        (_so4_power(k), standard("x".join(["SL2xPGL2"] * k))) for k in (1, 2, 3)]

    @staticmethod
    def _moves(st, indices=8):
        return st.lists(st.tuples(st.integers(0, indices - 1), st.integers(0, indices - 1),
                                  st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=12)

    def test_rebased_datum_is_isomorphic(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=120, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(self.ISO)), self._moves(st), self._moves(st))
        def check(label, moves1, moves2):
            d1, d2 = (_rebased(self.ISO[label], m) for m in (moves1, moves2))
            _assert_witness(isomorphic(d1, d2), d1, d2)

        check()

    def test_frame_index_is_a_rebasing_invariant(self):
        # [X : Z Delta + X^W] is kept by every isomorphism; the coroots map
        # X onto a sublattice of index |torsion of pi1| in Z^s, and Z Delta
        # onto one of index |det Cartan|, with kernel X^W
        rng = random.Random(29)
        for label, rd in sorted(self.ISO.items()):
            torsion = math.prod(f for f in rd.pi1().invariant_factors if f)
            index = abs(IntMatrix(rd.cartan_matrix).det()) // torsion
            assert rd._frame_index == index, label
            for _ in range(6):
                moves = [(rng.randrange(8), rng.randrange(8), rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(12)]
                assert _rebased(rd, moves)._frame_index == index, label

    @pytest.mark.parametrize("label", ["SL3", "G2", "SO4xSO4"])
    def test_semisimple_pair_builds_no_smith_form(self, label, monkeypatch):
        # a semisimple frame is the simple roots: an "iso" at the first
        # matching needs neither datum's pi1, nor any other Smith form
        d1, d2 = (_rebased(self.ISO[label], moves)
                  for moves in ([(0, 1, 2), (1, 0, -1)], [(1, 0, 3), (0, 1, -2)]))
        calls = []
        smith = lattice.smith_normal_form
        monkeypatch.setattr(lattice, "smith_normal_form", lambda m: calls.append(m) or smith(m))
        res = isomorphic(d1, d2)
        assert calls == []
        assert "_pi1" not in d1.__dict__ and "_pi1" not in d2.__dict__
        _assert_witness(res, d1, d2)

    def test_rebased_non_isomorphic_pairs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.integers(0, len(self.NONE) - 1), self._moves(st),
                          self._moves(st))
        def check(index, moves1, moves2):
            a, b = self.NONE[index]
            assert isomorphic(_rebased(a, moves1), _rebased(b, moves2)).status == "none"

        check()

    def test_twisted_dual_of_rebased_form(self):
        # (datum, form) in the basis U: coweights lam U^-T, so Grams U^T g U
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        data = {rd.name: (rd, invariant_gram_basis(rd))
                for rd in (SL2, PGL2, GL2, SL3, SP4, G2, standard("SL2xT1"))}
        ratios = st.tuples(st.integers(-3, 3), st.integers(1, 4))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(data)), self._moves(st, 2),
                          st.sampled_from(("full", "coroot")), st.data())
        def check(label, moves, mode, draw):
            rd, basis = data[label]
            n = rd.rank

            def gram():
                coeffs = draw.draw(st.lists(ratios, min_size=len(basis), max_size=len(basis)))
                return [[sum(Fraction(a, b) * g[i][j] for (a, b), g in zip(coeffs, basis))
                         for j in range(n)] for i in range(n)]

            g0, g1 = gram(), (gram() if draw.draw(st.booleans()) else None)
            u = _transvections(n, moves).data
            move = lambda g: g and [[sum(u[a][i] * g[a][b] * u[b][j] for a in range(n)
                                         for b in range(n)) for j in range(n)]
                                    for i in range(n)]
            rebased = _rebased(rd, moves)
            first = twisted_dual(rd, QForm(rd, g0, g1), mode).datum
            second = twisted_dual(rebased, QForm(rebased, move(g0), move(g1)), mode).datum
            _assert_witness(isomorphic(first, second), first, second)

        check()

    def test_quantum_pair_of_rebased_form(self):
        # (datum, b) in the basis U: b becomes U^T b U, and the pair still
        # connects its two sides by a unimodular map
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        data = {rd.name: (rd, normalized_killing_gram(rd)) for rd in (SL2, PGL2, SL3, SP4, G2)}

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.sampled_from(sorted(data)), self._moves(st, 2),
                          st.integers(1, 8))
        def check(label, moves, level):
            rd, nk = data[label]
            n = rd.rank
            u = _transvections(n, moves).data
            b = [[sum(u[a][i] * nk[a][c] * u[c][j] for a in range(n) for c in range(n))
                  / level for j in range(n)] for i in range(n)]
            _assert_pair(quantum_dual_pair(_rebased(rd, moves), b))

        check()

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_glued_copy_is_not_isomorphic(self, j, monkeypatch):
        # k = 2 + j and the same frame index 4, so both orders take the
        # glued route; [Q Delta meet X : Z Delta], an invariant the glued
        # test does not read, is 1 against 2
        plain, glued = _glued_gl2_pair(j)
        assert plain._frame_index == glued._frame_index == 4
        roots = [Sublattice.from_rows(rd.rank, rd.simple_roots.data) for rd in (plain, glued)]
        # Q Delta meet X is the kernel of the kernel of the roots
        assert [kernel_oracle.lattice_index(kernel_mod(kernel_mod(r.basis).basis), r)
                for r in roots] == [1, 2]
        moves = [(0, 2, 1), (3, 1, -2), (1, 0, 3)]
        pairs = [(plain, glued), (glued, plain), (glued, _rebased(glued, moves)),
                 (plain, _rebased(plain, moves))]
        kernels = []
        monkeypatch.setattr(dualgroup, "kernel_mod",
                            lambda *args: kernels.append(args) or kernel_mod(*args))
        results, counts = [], []
        for d1, d2 in pairs:
            kernels.clear()
            results.append(isomorphic(d1, d2))
            counts.append(len(kernels))
        monkeypatch.undo()
        # W, then one congruence per matching tried: both of A1 x A1's two
        # before a "none", the first before an "iso"
        assert counts == [3, 3, 2, 2]
        assert [res.status for res in results[:2]] == ["none", "none"]
        for res, (d1, d2) in zip(results[2:], pairs[2:]):
            _assert_witness(res, d1, d2)

    def test_closed_forms_never_search(self, monkeypatch):
        # k = 1 for each: N = +-1 is pinned, so the glued test never runs
        def glued(*args):
            raise AssertionError("a closed form took the glued route")

        monkeypatch.setattr(dualgroup, "_glued_witness", glued)
        rng = random.Random(23)
        for label in ("GL2", "SL2xT1", "Sp4xT1"):
            rd = standard(label)
            for _ in range(8):
                moves = [(rng.randrange(rd.rank), rng.randrange(rd.rank),
                          rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(12)]
                rebased = _rebased(rd, moves)
                _assert_witness(isomorphic(rd, rebased), rd, rebased)

    def test_congruence_agrees_with_the_closed_forms(self):
        # where both apply, k = 1 with index > 1 and k >= 2 with index 1,
        # the congruence forced over every matching finds its first witness
        # at the matching the closed form finds its own at, and for k = 1
        # the same one.  GL3 (index 3) needs N = -1 at the first matching
        # of some rebasings; at index 2 both signs are automorphisms
        rng = random.Random(31)
        for label in ("SL2xT1", "Sp4xT1", "GL2", "GL3", "PGL2xT2", "PGL3xT2"):
            rd = standard(label)
            for _ in range(6):
                d1, d2 = (_rebased(rd, [(rng.randrange(rd.rank), rng.randrange(rd.rank),
                                         rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(8)])
                          for _ in range(2))
                res, forced = isomorphic(d1, d2), _forced_congruence(d1, d2)
                assert (forced.status, forced.permutation) == (res.status, res.permutation)
                if rd.rank - rd.num_simple == 1:
                    assert forced.weight_map == res.weight_map
                _assert_witness(forced, d1, d2)


def _forced_congruence(d1, d2):
    """`isomorphic`'s loop with every candidate N taken from the congruence
    of `_glued_witness`, whatever k >= 1 and the frame index: G = e F1^-T
    for the exponent e, and P = F2pi(N)^T G / e at the first matching
    whose congruence gives an N."""
    n = d1.rank
    inverse, den = lattice.integral_inverse(d1.simple_roots.data + d1._fixed_weights)
    g = math.gcd(den, *(x for row in inverse for x in row))
    e, big_g = den // g, IntMatrix([[x // g for x in col] for col in zip(*inverse)], cols=n)
    candidates = dualgroup._glued_witness(d2, big_g, e)
    gcds = [[(math.gcd(*a), math.gcd(*c)) for a, c in zip(d.simple_roots.data,
                                                         d.simple_coroots.data)]
            for d in (d1, d2)]
    for perm in dualgroup._matchings(d1, d2, *gcds):
        roots = [d2.simple_roots.data[j] for j in perm]
        for big_n in candidates(roots):
            fixed = (big_n @ IntMatrix(d2._fixed_weights, cols=n)).data
            p = (IntMatrix(roots + list(fixed), cols=n).transpose() @ big_g).data
            # the congruence promises an integral P
            assert not any(x % e for row in p for x in row)
            return dualgroup.IsoResult("iso", IntMatrix([[x // e for x in row] for row in p]),
                                       perm)
    return dualgroup.IsoResult("none", None, None)


def _overlattice(rd, vectors, q):
    """rd on X + sum Z w / q for the w in `vectors`, each with <w, coroot>
    = 0 mod q for every coroot, written in the Hermite basis of q Z^n +
    sum Z w: a root a has the coordinates of q a, and a coroot pairs with
    basis vector v as <v, coroot> / q."""
    n = rd.rank
    over = Sublattice.from_rows(n, [*vectors, *([q * (i == j) for j in range(n)]
                                                for i in range(n))])
    basis = over.basis.data
    roots = [over.coefficients([q * x for x in a]) for a in rd.simple_roots.data]
    coroots = [[dot(v, c) // q for v in basis] for c in rd.simple_coroots.data]
    return RootDatum(roots, coroots, rank=n)


class TestGluedCentres:
    """`isomorphic` on glued centres (X^W of rank >= 2 and frame index >
    1) against the residue walk of `glued_oracle`, on products of GL_n and
    tori and on their overlattices X + Z w / q, rebased.  Their exponents
    e are 2, 3, 4 and 6, whose units are +-1 alone, so there test (ii) of
    `isomorphic` follows from (i); A4 x A4 glued to a rank-2 torus by a
    map of determinant a b mod 5 (e = 5) has two isomorphism classes, det
    +-1 and det +-2, which (ii) alone tells apart."""

    LABELS = ("GL2xT1", "GL2xT2", "GL2xT3", "GL3xT1", "GL3xT2", "GL4xT1", "GL2xGL3", "A4xA4")
    A4xA4 = standard("PGL5xT1xPGL5xT1")

    @classmethod
    def _side(cls, label, q, coeffs):
        if label == "A4xA4":
            # omega_1 of A4 is (4, 3, 2, 1) / 5 in root coordinates
            a, b = ((1, 2, 3, 4)[c % 4] for c in coeffs[:2])
            return _overlattice(cls.A4xA4, [[4, 3, 2, 1, a] + [0] * 5,
                                            [0] * 5 + [4, 3, 2, 1, b]], 5)
        rd = standard(label)
        solutions = kernel_mod(rd.simple_coroots, q).basis.data
        w = [sum(c * row[j] for c, row in zip(coeffs, solutions)) for j in range(rd.rank)]
        return _overlattice(rd, [w], q)

    def test_agrees_with_the_walk(self):
        hypothesis = pytest.importorskip("hypothesis")
        pytest.importorskip("sympy")
        st = hypothesis.strategies
        side = st.tuples(st.sampled_from((1, 2, 3, 4, 6, 8, 12)),
                         st.lists(st.integers(0, 11), min_size=8, max_size=8))
        moves = TestIsomorphicUnderRebasing._moves(st, 10)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.sampled_from(self.LABELS), side, side, moves, moves)
        # GL3xT1 against an overlattice of it: a solution, but (i) fails
        @hypothesis.example("GL3xT1", (1, [0] * 8), (3, [1] + [0] * 7), [(0, 3, 2)], [])
        # determinants 1 against 2: not isomorphic, by (ii) alone
        @hypothesis.example("A4xA4", (5, [0] * 8), (5, [0, 1] + [0] * 6), [(0, 9, 1)], [])
        # 2 against 2, by the swap of the factors
        @hypothesis.example("A4xA4", (5, [0, 1] + [0] * 6), (5, [1, 0] + [0] * 6), [], [(9, 0, -1)])
        def check(label, side1, side2, moves1, moves2):
            d1, d2 = (_rebased(self._side(label, *side), m)
                      for side, m in ((side1, moves1), (side2, moves2)))
            res = isomorphic(d1, d2)
            if res.status == "iso":
                _assert_witness(res, d1, d2)
            if d1._frame_index == d2._frame_index > 1 and d1.rank - d1.num_simple >= 2:
                assert glued_oracle.walk(d1, d2) in (res.status, None)

        check()
