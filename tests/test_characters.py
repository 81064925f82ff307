import dataclasses
import gc
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from twistdual.characters import (
    CharacterError,
    fiber_dim,
    irreducible_character,
    satake_prediction,
    tensor_decompose,
    weyl_dim,
    weyl_multiplicity,
)
from twistdual.qform import (
    Exponent,
    QForm,
    braiding_signs,
    killing_qform,
    qform_from_gram,
    trivial_qform,
)
from twistdual.lattice import Sublattice
from twistdual.rootdata import RootDatum, dot, standard, vec_add

import character_oracle
import root_oracle
from fraction_oracle import inverse_unimodular, solve_left_rational
from test_rootdata import _rebased, _transvections
from twistdual import characters
from twistdual.dualgroup import twisted_dual

SL2 = standard("SL2")
SL3 = standard("SL3")
SP4 = standard("Sp4")
PGL2 = standard("PGL2")
# SO4 = (SL2 x SL2) / diagonal mu_2, with roots = coroots = (1, 1), (1, -1)
SO4 = RootDatum([[1, 1], [1, -1]], [[1, 1], [1, -1]], rank=2, name="SO4")

RANK_ONE = ("SL2", "PGL2", "GL1", "T1")
RANK_AT_MOST_TWO = (RANK_ONE + ("SL3", "PGL3", "GL2", "Sp4", "G2", "T2")
                    + tuple(f"{a}x{b}" for i, a in enumerate(RANK_ONE)
                            for b in RANK_ONE[i:]))


def _small_dominant(rd):
    """The dominant weights with entries in [-1, 2] of Weyl dimension <= 15."""
    return [h for h in itertools.product(range(-1, 3), repeat=rd.rank)
            if min(rd.simple_coroots.mul_vec(h), default=0) >= 0 and weyl_dim(rd, h) <= 15]


def _dynkin(n, *bonds, chain=None):
    """The Cartan matrix of rank n whose diagram is the chain 0 - 1 - ...
    - (chain - 1), chain = n by default, with each (i, j, a) of `bonds`
    setting a_ij = a and a_ji = -1."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    links = [(i, i + 1, -1) for i in range((n if chain is None else chain) - 1)]
    for i, j, x in links + list(bonds):
        a[i][j], a[j][i] = x, -1
    return tuple(map(tuple, a))


class TestIrreducibleCharacter:
    def test_sl2_adjoint(self):
        c = irreducible_character(SL2, (2,))
        assert dict(c.multiplicities) == {(2,): 1, (0,): 1, (-2,): 1}

    def test_trivial(self):
        c = irreducible_character(SP4, (0, 0))
        assert dict(c.multiplicities) == {(0, 0): 1}

    def test_sl3_adjoint_zero_weight(self):
        pairs = SL3.root_pairs
        theta, _ = root_oracle.highest_root(
            SL3.simple_coroots.data, pairs, {b: SL3.root_coordinates(b) for b, _ in pairs})
        c = irreducible_character(SL3, theta)
        assert dict(c.multiplicities)[(0, 0)] == 2
        assert character_oracle.dim(c) == 8

    def test_non_dominant_rejected(self):
        # weyl_multiplicity read the labels unchecked: -1 on SL2 at (-3,),
        # and 1 on SL3 at (-3, 0)
        for rd, highest, weight in ((SL2, (-1,), (-1,)), (SL2, (-3,), (-1,)),
                                    (SL3, (-3, 0), (0, 0))):
            for build in (irreducible_character, weyl_dim):
                with pytest.raises(CharacterError):
                    build(rd, highest)
            with pytest.raises(CharacterError):
                weyl_multiplicity(rd, highest, weight)

    @pytest.mark.parametrize("rd,hw,dim", [
        (SL2, (3,), 4),
        (SL3, (1, 0), 3),
        (SL3, (1, 1), 8),
        (SL3, (2, 1), 15),
        (SP4, (1, 0), 4),
        (SP4, (1, 1), 5),
        (SP4, (2, 0), 10),
        (SP4, (2, 1), 16),
        (SP4, (2, 2), 14),
    ])
    def test_dim_matches_weyl_formula(self, rd, hw, dim):
        c = irreducible_character(rd, hw)
        assert character_oracle.dim(c) == weyl_dim(rd, hw) == dim

    def test_demazure_matches_weyl_sum(self):
        for rd, hw in [(SL3, (2, 2)), (SP4, (2, 1)), (standard("G2"), (1, 0))]:
            c = irreducible_character(rd, hw)
            for w, m in c.multiplicities:
                assert weyl_multiplicity(rd, hw, w) == m

    @pytest.mark.parametrize("name", RANK_AT_MOST_TWO)
    def test_demazure_matches_weyl_sum_low_rank(self, name):
        # every dominant highest weight with entries in [-3, 3]; equal
        # multiplicities on the support and equal dimensions leave no
        # weight out
        rd = standard(name)
        for hw in itertools.product(range(-3, 4), repeat=rd.rank):
            if min(rd.simple_coroots.mul_vec(hw), default=0) < 0:
                continue
            c = irreducible_character(rd, hw)
            for w, m in c.multiplicities:
                assert weyl_multiplicity(rd, hw, w) == m, (name, hw, w)
            assert character_oracle.dim(c) == weyl_dim(rd, hw)

    @pytest.mark.parametrize("name", ["SL4", "GL3", "Sp4xSL2"])
    def test_demazure_matches_weyl_sum_rank_three(self, name):
        # the tables are checked against the Weyl sum with at most two
        # simple roots only; above that, this test compares the two
        rd = standard(name)
        for hw in itertools.product(range(-2, 3), repeat=rd.rank):
            if min(rd.simple_coroots.mul_vec(hw), default=0) < 0:
                continue
            c = irreducible_character(rd, hw)
            for w, m in c.multiplicities:
                assert weyl_multiplicity(rd, hw, w) == m, (name, hw, w)

    @pytest.mark.parametrize("name", ["SL4", "GL3", "PGL4", "SL3xSL2"])
    def test_demazure_matches_weyl_dim_rank_three(self, name):
        rd = standard(name)
        for hw in itertools.product(range(-2, 3), repeat=rd.rank):
            if min(rd.simple_coroots.mul_vec(hw), default=0) >= 0:
                c = irreducible_character(rd, hw)
                assert character_oracle.dim(c) == weyl_dim(rd, hw), hw

    def test_sl5_two_rho(self):
        rd = standard("SL5")
        c = irreducible_character(rd, rd.two_rho)
        assert character_oracle.dim(c) == weyl_dim(rd, rd.two_rho) == 3 ** 10
        assert dict(c.multiplicities)[(0, 0, 0, 0)] == 219

    def test_invariants_enforced(self, monkeypatch):
        # a table that is not closed under the simple reflections is
        # rejected, and not kept
        table = characters._character_table
        table.cache_clear()
        monkeypatch.setattr(characters, "_demazure_multiplicities",
                            lambda cartan, labels: {(0,): 1, (1,): 1})
        with pytest.raises(CharacterError, match="not Weyl-invariant"):
            irreducible_character(SL2, (2,))
        assert table.cache_info().currsize == 0

    @pytest.mark.parametrize("name,hw,change,error", [
        # SL4's adjoint with the zero weight at 4, not 3: closed under the
        # simple reflections, but it adds up to 16
        ("SL4", (1, 0, 1), {(1, 1, 1): 4}, "add up to 16, not Weyl's dimension 15"),
        ("SL2", (0,), {(0,): 2}, "highest weight does not have multiplicity 1"),
        ("SL2", (2,), {(1,): 0}, "non-positive multiplicity 0 at depth"),
    ], ids=["total", "top", "positive"])
    def test_table_checked_at_every_rank(self, monkeypatch, name, hw, change, error):
        # a table closed under the simple reflections is rejected when a
        # multiplicity is <= 0, the top's is not 1 or the total is not
        # Weyl's dimension, at three simple roots too, and is not kept
        rd = standard(name)
        labels = rd.simple_coroots.mul_vec(hw)
        wrong = character_oracle.depth_multiplicities(rd.cartan_matrix, labels)
        assert set(change) <= set(wrong)
        wrong.update(change)
        table = characters._character_table
        table.cache_clear()
        monkeypatch.setattr(characters, "_demazure_multiplicities",
                            lambda cartan, labels: dict(wrong))
        with pytest.raises(CharacterError, match=error):
            irreducible_character(rd, hw)
        assert table.cache_info().currsize == 0

    def test_demazure_matches_freudenthal(self):
        # every connected Cartan type of rank <= 4 and one product, from
        # Bourbaki's rows, on random dominant labels whose sum is bounded
        # so that Freudenthal's recursion stays fast
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        types = [(_dynkin(n), 6 - n) for n in (1, 2, 3, 4)] + [
            (_dynkin(2, (0, 1, -2)), 4),                          # B2
            (_dynkin(2, (0, 1, -3)), 4),                          # G2
            (_dynkin(2, (1, 0, -3)), 4),                          # G2, transposed
            (_dynkin(3, (1, 2, -2)), 3),                          # B3
            (_dynkin(3, (2, 1, -2)), 3),                          # C3
            (_dynkin(4, (2, 3, -2)), 2),                          # B4
            (_dynkin(4, (3, 2, -2)), 2),                          # C4
            (_dynkin(4, (1, 3, -1), chain=3), 2),                 # D4
            (_dynkin(4, (1, 2, -2)), 1),                          # F4
            (_dynkin(3, (1, 2, -2), chain=0), 3),                 # A1 x B2
        ]

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.sampled_from(types), st.data())
        def check(kind, draw):
            cartan, bound = kind
            picks = draw.draw(st.lists(st.integers(0, len(cartan) - 1), max_size=bound))
            labels = tuple(picks.count(i) for i in range(len(cartan)))
            assert (characters._demazure_multiplicities(cartan, labels)
                    == character_oracle.depth_multiplicities(cartan, labels)), (cartan, labels)

        check()


class TestCharacterMemo:
    def test_repeat_call_shares_the_table(self):
        rd = standard("SL3")
        c = irreducible_character(rd, (2, 1))
        again = irreducible_character(rd, [2, 1])
        assert again == c and again.depths is c.depths
        fresh = RootDatum.from_dict(rd.to_dict())
        assert fresh == rd
        other = irreducible_character(fresh, (2, 1))
        assert other.rd is fresh and other.depths is c.depths
        assert other.multiplicities == c.multiplicities

    def test_equal_coordinates_on_other_data_are_not_shared(self):
        sl2, pgl2 = standard("SL2"), standard("PGL2")
        a = irreducible_character(sl2, (1,))
        b = irreducible_character(pgl2, (1,))
        assert a.rd is sl2 and b.rd is pgl2
        assert dict(a.multiplicities) == {(1,): 1, (-1,): 1}
        assert dict(b.multiplicities) == {(1,): 1, (0,): 1, (-1,): 1}

    def test_table_is_shared_by_one_cartan_matrix_and_labels(self):
        # (1, 1) has the labels (1, 1) on SL3 and on PGL3, whose Cartan
        # matrices agree; the weights are each datum's own
        sl3, pgl3 = standard("SL3"), standard("PGL3")
        assert sl3.cartan_matrix == pgl3.cartan_matrix
        table = characters._character_table
        table.cache_clear()
        a = irreducible_character(sl3, (1, 1))
        hits = table.cache_info().hits
        b = irreducible_character(pgl3, (1, 1))
        assert table.cache_info().hits == hits + 1
        assert a.depths is b.depths
        a, b = dict(a.multiplicities), dict(b.multiplicities)
        assert a[(0, 0)] == b[(0, 0)] == 2
        assert (-1, 2) in a and (-1, 2) not in b
        assert (0, 1) in b and (0, 1) not in a

    def test_weyl_check_runs_once_per_table(self, monkeypatch):
        calls = []
        inner = characters._weyl_sum

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(characters, "_weyl_sum", counting)
        characters._character_table.cache_clear()
        rd = standard("Sp4")
        c = irreducible_character(rd, (2, 1))
        assert len(calls) == len(c.depths) > 1
        # a repeat call, and an equal datum, read the checked table
        assert irreducible_character(rd, (2, 1)).depths is c.depths
        irreducible_character(RootDatum.from_dict(rd.to_dict()), (2, 1))
        assert len(calls) == len(c.depths)
        # never with three simple roots
        assert character_oracle.dim(irreducible_character(standard("SL4"), (1, 0, 1))) == 15
        assert len(calls) == len(c.depths)

    def test_failed_crosscheck_is_not_kept(self, monkeypatch):
        rd = standard("SL2")
        table = characters._character_table
        table.cache_clear()
        c = irreducible_character(rd, (3,))
        table.cache_clear()
        monkeypatch.setattr(characters, "_weyl_sum", lambda *args: 0)
        with pytest.raises(CharacterError, match="disagree"):
            irreducible_character(rd, (3,))
        assert table.cache_info().currsize == 0
        monkeypatch.undo()
        again = irreducible_character(rd, (3,))
        assert again.depths is not c.depths and again == c

    def test_non_dominant_raises_on_every_call(self):
        rd = standard("SL3")
        irreducible_character(rd, (1, 0))
        table = characters._character_table
        size = table.cache_info().currsize
        for _ in range(3):
            with pytest.raises(CharacterError, match="not dominant"):
                irreducible_character(rd, (-1, 2))
            assert table.cache_info().currsize == size

    def test_memo_is_bounded(self):
        table = characters._character_table
        bound = table.cache_info().maxsize
        table.cache_clear()
        rd = standard("SL2")
        for n in range(bound + 10):
            irreducible_character(rd, (n,))
            assert table.cache_info().currsize <= bound
        assert table.cache_info().currsize == bound
        # the most recent ones are kept, the first ones were dropped
        hits, misses = table.cache_info().hits, table.cache_info().misses
        irreducible_character(rd, (bound + 9,))
        assert table.cache_info().hits == hits + 1
        irreducible_character(rd, (0,))
        assert table.cache_info().misses == misses + 1

    def test_datum_is_freed_after_del(self):
        # the table is keyed by the Cartan matrix and labels, and holds no datum
        rd = standard("G2")
        c = irreducible_character(rd, (1, 0))
        ref = weakref.ref(rd)
        del rd, c
        gc.collect()
        assert ref() is None

    def test_memoised_equals_fresh_on_the_satake_grid(self):
        # the duals and dominant coweights of acceptance criterion 9
        setups = [
            trivial_qform(SL2),
            qform_from_gram(SL2, [[Fraction(2, 5)]]),
            qform_from_gram(PGL2, [[Fraction(2, 3)]]),
            trivial_qform(SL3),
            trivial_qform(SP4),
        ]
        for q in setups:
            rd = q.rd
            dual = twisted_dual(rd, q, "full")
            for lam in itertools.product(range(13), repeat=rd.rank):
                if (min(rd.simple_roots.mul_vec(lam), default=0) < 0
                        or not dual.weight_sublattice.contains(lam)
                        or dot(rd.two_rho, lam) > 16):
                    continue
                lam_c = dual.weight_sublattice.coefficients(lam)
                kept = irreducible_character(dual.datum, lam_c)
                assert irreducible_character(dual.datum, lam_c).depths is kept.depths
                labels = dual.datum.simple_coroots.mul_vec(lam_c)
                built = characters._character_table.__wrapped__(
                    dual.datum.cartan_matrix, labels)
                assert built == kept.depths
                fresh = irreducible_character(
                    RootDatum.from_dict(dual.datum.to_dict()), lam_c)
                assert kept.multiplicities == fresh.multiplicities
                assert kept.highest == fresh.highest


class TestKostant:
    """The Kostant counter takes root coordinates c >= 0."""

    def test_zero(self):
        assert characters._kostant_count(SL3.cartan_matrix)((0, 0), 0) == 1

    def test_simple_root(self):
        assert characters._kostant_count(SL3.cartan_matrix)((1, 0), 0) == 1

    def test_sum_of_simples(self):
        # theta = alpha_1 + alpha_2 is theta itself or the sum of the simples
        assert characters._kostant_count(SL3.cartan_matrix)((1, 1), 0) == 2

    def test_outside_cone(self):
        # the Weyl sum counts no weight whose depth below the highest
        # weight is not a nonnegative integer combination of simple roots
        for weight in ((3, 0), (0, 1), (2, 2)):
            assert weyl_multiplicity(SL3, (1, 1), weight) == 0

    def test_counts_do_not_hold_the_datum(self):
        # the counter is built from the Cartan matrix and holds no datum
        rd = standard("G2")
        depth = rd.root_coordinates(rd.two_rho)
        assert characters._kostant_count(rd.cartan_matrix)(depth, 0) > 0
        ref = weakref.ref(rd)
        del rd
        gc.collect()
        assert ref() is None

    def test_memo_does_not_outlive_its_question(self):
        # a memo kept per Cartan matrix held 0.24 MB after this call
        rd = standard("SL5")
        assert weyl_multiplicity(rd, (0,) * 4, (0,) * 4) == 1
        tracemalloc.start()
        try:
            assert weyl_multiplicity(rd, (2,) * 4, (0,) * 4) == 219
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 50_000

    def test_counter_is_freed_without_a_collection(self):
        # nothing in a counter refers back to it, so its memo goes with it
        count = characters._kostant_count(SL3.cartan_matrix)
        assert count((2, 2), 0) == 3
        ref = weakref.ref(count)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del count
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestTensor:
    def test_sl2_square(self):
        c1 = irreducible_character(SL2, (1,))
        assert tensor_decompose(c1, c1.highest) == {(2,): 1, (0,): 1}

    def test_unit_law(self):
        c = irreducible_character(SP4, (1, 1))
        one = irreducible_character(SP4, (0, 0))
        assert tensor_decompose(c, one.highest) == {(1, 1): 1}

    def test_sl3_three_times_dual(self):
        v = irreducible_character(SL3, (1, 0))
        w = irreducible_character(SL3, (0, 1))
        assert tensor_decompose(v, w.highest) == {(1, 1): 1, (0, 0): 1}

    def test_commutative_associative(self):
        rng = random.Random(101)
        hws = [(1, 0), (0, 1), (1, 1)]
        chars = [irreducible_character(SL3, h) for h in hws]
        for a in chars:
            for b in chars:
                assert tensor_decompose(a, b.highest) == tensor_decompose(b, a.highest)

        def full(decomp):
            total = {}
            for hw, mult in decomp.items():
                for w, m in irreducible_character(SL3, hw).multiplicities:
                    total[w] = total.get(w, 0) + mult * m
            return total

        a, b, c = chars
        ab = full(tensor_decompose(a, b.highest))
        bc = full(tensor_decompose(b, c.highest))
        lhs = {}
        for w1, m1 in ab.items():
            for w2, m2 in c.multiplicities:
                w = vec_add(w1, w2)
                lhs[w] = lhs.get(w, 0) + m1 * m2
        rhs = {}
        for w1, m1 in a.multiplicities:
            for w2, m2 in bc.items():
                w = vec_add(w1, w2)
                rhs[w] = rhs.get(w, 0) + m1 * m2
        assert lhs == rhs

    def test_dimension_multiplicative(self):
        rng = random.Random(103)
        for _ in range(5):
            a1, b1 = rng.randint(0, 1), rng.randint(0, 1)
            a2, b2 = rng.randint(0, 1), rng.randint(0, 1)
            h1 = (a1 + b1, b1)
            h2 = (a2 + b2, b2)
            c1 = irreducible_character(SP4, h1)
            c2 = irreducible_character(SP4, h2)
            pieces = tensor_decompose(c1, c2.highest)
            assert sum(m * weyl_dim(SP4, hw) for hw, m in pieces.items()) \
                == character_oracle.dim(c1) * character_oracle.dim(c2)

    @pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2",
                                      "GL3", "SO4", "SL2xG2"])
    def test_brauer_klimyk_matches_extraction(self, name):
        # every ordered pair of small dominant weights; the grid must reach
        # a wall term, where w + lam + rho is fixed by a reflection, except
        # on PGL2, where rho is not a weight and <w + lam + rho, coroot> is
        # odd
        rd = SO4 if name == "SO4" else standard(name)
        hws = _small_dominant(rd)
        chars = [irreducible_character(rd, h) for h in hws]
        walls = 0
        for c in chars:
            for mu in hws:
                assert tensor_decompose(c, mu) == character_oracle.tensor_decompose(
                    c, irreducible_character(rd, mu)), (name, c.highest, mu)
                shift = tuple(2 * h + r for h, r in zip(mu, rd.two_rho))
                # a wall of a coroot is one of its negative too
                walls += sum(any(dot(vec_add(vec_add(w, w), shift), cobeta) == 0
                                 for _, cobeta in rd.root_pairs)
                             for w, _ in c.multiplicities)
        if name == "PGL2":
            assert rd.two_rho == (1,) and not walls
        else:
            assert walls

    def test_non_dominant_highest_rejected(self):
        with pytest.raises(CharacterError):
            tensor_decompose(irreducible_character(SL3, (1, 0)), (-1, 1))

    # the twisted duals of the benchmark's satake forms, and two data of
    # their own
    TABLE_DATA = {
        "SL2": lambda: twisted_dual(SL2, trivial_qform(SL2), "full").datum,
        "SL2-2/5": lambda: twisted_dual(SL2, qform_from_gram(SL2, [[Fraction(2, 5)]]),
                                        "full").datum,
        "PGL2-2/3": lambda: twisted_dual(PGL2, qform_from_gram(PGL2, [[Fraction(2, 3)]]),
                                         "full").datum,
        "SL3": lambda: twisted_dual(SL3, trivial_qform(SL3), "full").datum,
        "Sp4": lambda: twisted_dual(SP4, trivial_qform(SP4), "full").datum,
        "G2": lambda: twisted_dual(standard("G2"), trivial_qform(standard("G2")), "full").datum,
        "SL2xG2": lambda: standard("SL2xG2"),
        "GL3": lambda: standard("GL3"),
    }

    @pytest.mark.parametrize("label", sorted(TABLE_DATA))
    def test_tensor_table_cold_warm_and_oracle(self, label):
        # a table built cold, read warm and read in the other order gives
        # the extraction oracle's constituents, from one entry
        rd = self.TABLE_DATA[label]()
        hws = _small_dominant(rd)
        assert len(hws) > 1
        table = characters._tensor_table
        for a in hws:
            c = irreducible_character(rd, a)
            for b in hws:
                table.cache_clear()
                cold = tensor_decompose(c, b)
                assert table.cache_info().currsize == 1
                warm = tensor_decompose(c, b)
                assert table.cache_info().hits == 1
                want = character_oracle.tensor_decompose(c, irreducible_character(rd, b))
                assert cold == warm == want, (label, a, b)
                assert tensor_decompose(irreducible_character(rd, b), a) == want
                assert table.cache_info().currsize == 1 and table.cache_info().hits == 2

    def test_tensor_table_expands_the_smaller_factor(self, monkeypatch):
        # the labels (0, 2) of the larger factor sort first
        big, small = (irreducible_character(SL3, hw) for hw in ((0, 2), (1, 0)))
        asked = []
        inner = characters._character_table
        monkeypatch.setattr(characters, "_character_table",
                            lambda cartan, labels: asked.append(labels) or inner(cartan, labels))
        for c, other in ((big, small), (small, big)):
            characters._tensor_table.cache_clear()
            assert tensor_decompose(c, other.highest) == {(1, 2): 1, (0, 1): 1}
        assert asked == [SL3.simple_coroots.mul_vec((1, 0))] * 2

    @pytest.mark.parametrize("corrupt, error", [
        # the expanded factor's table without its top depth: the top
        # constituent is lost, and the dimensions fall short
        (lambda table: tuple((d, m) for d, m in table if any(d)), "do not add up"),
        # a stray weight below the table, which walks to the other side
        # of a wall with a sign of -1
        (lambda table: table + (((3, 0), 1),), "negative multiplicity"),
    ], ids=["missing-depth", "stray-depth"])
    def test_failed_tensor_table_is_not_kept(self, monkeypatch, corrupt, error):
        rd = standard("G2")
        c = irreducible_character(rd, (1, 0))
        table = characters._tensor_table
        table.cache_clear()
        inner = characters._character_table
        monkeypatch.setattr(characters, "_character_table",
                            lambda cartan, labels: corrupt(inner(cartan, labels)))
        for _ in range(2):
            with pytest.raises(CharacterError, match=error):
                tensor_decompose(c, (0, 1))
            assert table.cache_info().currsize == 0
        monkeypatch.undo()
        assert tensor_decompose(c, (0, 1)) == {(1, 0): 1, (1, 1): 1, (2, 0): 1}
        assert table.cache_info().currsize == 1

    @pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "GL2", "SO4", "SL2xG2"])
    def test_rebased_basis_gives_the_image(self, name):
        # weights transform as row vectors: lam -> lam U for the basis U
        # that carries the roots to R U
        rd = SO4 if name == "SO4" else standard(name)
        hws = _small_dominant(rd)
        rng = random.Random(113)
        for _ in range(3):
            moves = [(rng.randrange(3), rng.randrange(3), rng.randint(-2, 2))
                     for _ in range(4)]
            u = _transvections(rd.rank, moves)
            moved = _rebased(rd, moves)

            def image(v):
                return tuple(dot(v, col) for col in zip(*u.data))

            for a in hws:
                c = irreducible_character(rd, a)
                c2 = irreducible_character(moved, image(a))
                for b in hws:
                    want = {image(nu): m for nu, m in tensor_decompose(c, b).items()}
                    assert tensor_decompose(c2, image(b)) == want, (name, moves, a, b)


LABELLED = ("SL2", "SL3", "SL4", "PGL3", "Sp4", "G2", "GL2", "GL3", "SO4",
            "SL2xG2", "SL2xT1", "T1", "T2")


@pytest.mark.parametrize("name", LABELLED)
def test_weyl_dim_matches_fraction_product(name):
    # every dominant weight whose labels <lam, coroot_i> are at most 3, up
    # to the centre: a box of coordinates that holds one weight per label
    # vector whenever the datum is semisimple
    rd = SO4 if name == "SO4" else standard(name)
    roots, coroots = rd.simple_roots.data, rd.simple_coroots.data
    found = set()
    for lam in itertools.product(range(-6, 7), repeat=rd.rank):
        labels = tuple(dot(lam, c) for c in coroots)
        if not all(0 <= x <= 3 for x in labels):
            continue
        found.add(labels)
        want = root_oracle.weyl_dim(roots, coroots, lam)
        assert want.denominator == 1
        assert weyl_dim(rd, lam) == want, (name, lam)
    if rd.rank == rd.num_simple:
        # the label vectors that some integral weight has
        cols = list(zip(*coroots))
        reachable = set()
        for labels in itertools.product(range(4), repeat=rd.num_simple):
            sol = solve_left_rational(cols, labels)
            if sol is not None and all(x.denominator == 1 for x in sol):
                reachable.add(labels)
        assert found == reachable
    else:
        assert found == set(itertools.product(range(4), repeat=rd.num_simple))


class TestFiberDim:
    def test_equal_weights_zero(self):
        assert fiber_dim(SL2, (1,), (1,), (2,)) == 0

    def test_sl2_zero_target(self):
        assert fiber_dim(SL2, (1,), (1,), (0,)) == 2

    def test_telescoping(self):
        rng = random.Random(107)
        for rd in (SL3, SP4):
            for _ in range(10):
                lam = tuple(rng.randint(0, 3) for _ in range(rd.rank))
                mu = tuple(rng.randint(0, 3) for _ in range(rd.rank))
                assert fiber_dim(rd, lam, mu, vec_add(lam, mu)) == 0

    def test_can_be_fractional(self):
        assert fiber_dim(PGL2, (1,), (0,), (0,)) == Fraction(1, 2)


def _satake_forms():
    """Eight fresh forms for the Satake comparisons, with scaled
    multipliers, unequal ones (Sp4, G2) and a centre (GL2); the last two
    are SL2xSL2 forms whose tau part drops coroot 1, then 0."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    forms = [
        qform_from_gram(SL2, [[Fraction(2, 5)]]),
        qform_from_gram(PGL2, [[2 * third]]),
        trivial_qform(SL3),
        killing_qform(SP4, 0, Exponent.of(Fraction(1, 8))),
        killing_qform(standard("G2"), 0, Exponent.of(third)),
        qform_from_gram(standard("GL2"), [[half, 0], [0, half]]),
        qform_from_gram(standard("SL2xSL2"), [[2 * third, 0], [0, 0]], [[0, 0], [0, 1]]),
        qform_from_gram(standard("SL2xSL2"), [[0, 0], [0, 2 * third]], [[1, 0], [0, 0]]),
    ]
    assert [twisted_dual(q.rd, q).dropped for q in forms[-2:]] == [(1,), (0,)]
    return forms


def _lowest_coweights(q):
    """The six lowest dominant coweights of q's dual weight lattice in a
    box, by <2 rho, lam> and then lexicographically."""
    rd, lattice = q.rd, twisted_dual(q.rd, q).weight_sublattice
    return sorted((lam for lam in itertools.product(range(-2, 26), repeat=rd.rank)
                   if min(rd.simple_roots.mul_vec(lam)) >= 0 and lattice.contains(lam)),
                  key=lambda lam: (dot(rd.two_rho, lam), lam))[:6]


class TestSatakePrediction:
    def test_highest_multiplicity_one(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
        rep = satake_prediction(q, (3,), (6,))
        assert rep.highest_multiplicity == 1
        assert rep.all_below_highest
        assert rep.ok

    def test_zero_weight_gives_other(self):
        q = trivial_qform(SL3)
        rep = satake_prediction(q, (0, 0), (1, 1))
        assert rep.decomposition == (((1, 1), 1),)

    def test_sl2_fundamental_square(self):
        rep = satake_prediction(trivial_qform(SL2), (1,), (1,))
        decomp = dict(rep.decomposition)
        assert decomp[(2,)] == 1
        assert rep.ok

    def test_outside_lattice_rejected(self):
        q = qform_from_gram(PGL2, [[Fraction(2, 3)]])
        with pytest.raises(CharacterError):
            satake_prediction(q, (1,), (3,))

    def test_non_dominant_rejected(self):
        with pytest.raises(CharacterError):
            satake_prediction(trivial_qform(SL2), (-1,), (1,))

    def test_fiber_dims_integral_when_present(self):
        q = trivial_qform(SP4)
        rep = satake_prediction(q, (1, 0), (1, 1))
        for _, f in rep.fiber_dims:
            assert f.denominator == 1 and f >= 0

    @pytest.mark.parametrize("label", ["SL3", "Sp4-1/8", "G2-1/3", "GL2-1/2"])
    def test_rebased_form_gives_the_image(self, label):
        # (datum, form) in the basis U: coweights U^-1 lam and Grams U^T g U,
        # so the report in the new basis is the image of the old one
        q = {
            "SL3": lambda: trivial_qform(SL3),
            "Sp4-1/8": lambda: killing_qform(SP4, 0, Exponent.of(Fraction(1, 8))),
            "G2-1/3": lambda: killing_qform(standard("G2"), 0, Exponent.of(Fraction(1, 3))),
            "GL2-1/2": lambda: qform_from_gram(standard("GL2"), [[Fraction(1, 2), 0],
                                                                 [0, Fraction(1, 2)]]),
        }[label]()
        rd, n = q.rd, q.rd.rank
        lattice = twisted_dual(rd, q, "full").weight_sublattice
        # the five lowest dominant coweights of the dual weight lattice in a box
        coweights = sorted((lam for lam in itertools.product(range(-2, 10), repeat=n)
                            if min(rd.simple_roots.mul_vec(lam)) >= 0 and lattice.contains(lam)),
                           key=lambda lam: (dot(rd.two_rho, lam), lam))[:5]
        assert len(coweights) == 5
        rng = random.Random(127)
        for _ in range(3):
            moves = [(rng.randrange(3), rng.randrange(3), rng.randint(-2, 2))
                     for _ in range(4)]
            u = _transvections(n, moves)
            inv = inverse_unimodular(u).data

            def move(g):
                return [[sum(u.data[a][i] * g[a][b] * u.data[b][j]
                             for a in range(n) for b in range(n)) for j in range(n)]
                        for i in range(n)]

            def image(v):
                return tuple(dot(row, v) for row in inv)

            moved = QForm(_rebased(rd, moves), move(q.g0), move(q.g1))
            for lam in coweights:
                for mu in coweights:
                    rep = satake_prediction(q, lam, mu)
                    got = satake_prediction(moved, image(lam), image(mu))
                    assert dict(got.decomposition) == {
                        image(nu): m for nu, m in rep.decomposition}, (label, moves, lam, mu)
                    assert dict(got.fiber_dims) == {image(nu): f for nu, f in rep.fiber_dims}
                    assert (got.geometric_sign, got.twisted_factor) == (
                        rep.geometric_sign, rep.twisted_factor)
                    assert (got.highest_multiplicity, got.all_below_highest, got.ok) == (
                        rep.highest_multiplicity, rep.all_below_highest, rep.ok)

    def test_labels_computed_once(self, monkeypatch):
        # lam's dual labels are read once, by irreducible_character, and
        # mu's come from the dominance test's pairings divided by r_i: on a
        # scaled multiplier (PGL2 at 2/3, r = 3) and on a dropped coroot
        third = Fraction(1, 3)
        cases = [
            (qform_from_gram(PGL2, [[2 * third]]), (3,), (6,)),
            (trivial_qform(SP4), (1, 0), (1, 1)),
            (qform_from_gram(standard("SL2xSL2"), [[2 * third, 0], [0, 0]],
                             [[0, 0], [0, 1]]), (3, 0), (6, 0)),
        ]
        want = [character_oracle.satake_reference(*case) for case in cases]
        calls = []
        labels = characters._labels
        monkeypatch.setattr(characters, "_labels",
                            lambda rd, v: calls.append(v) or labels(rd, v))
        for case, ref in zip(cases, want):
            del calls[:]
            rep = satake_prediction(*case)
            assert rep.ok and len(calls) == 1
            assert rep == ref

    def test_matches_the_dual_lattice_route(self):
        # every report field, tuple order included, equals the route that
        # maps each constituent back from the dual lattice; on rebased forms
        # and on two SL2xSL2 forms whose tau part drops coroot 1, then 0
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        forms = _satake_forms()
        coweights = [_lowest_coweights(q) for q in forms]
        moves = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2)),
                         max_size=4)
        fields = [f.name for f in dataclasses.fields(characters.SatakeReport)]

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.integers(0, len(forms) - 1), moves, st.data())
        def check(k, moves, draw):
            q, n = forms[k], forms[k].rd.rank
            u = _transvections(n, moves)
            inv = inverse_unimodular(u).data

            def move(g):
                return [[sum(u.data[a][i] * g[a][b] * u.data[b][j]
                             for a in range(n) for b in range(n)) for j in range(n)]
                        for i in range(n)]

            def image(v):
                return tuple(dot(row, v) for row in inv)

            moved = QForm(_rebased(q.rd, moves), move(q.g0), move(q.g1))
            lam, mu = (image(draw.draw(st.sampled_from(coweights[k]))) for _ in range(2))
            got = satake_prediction(moved, lam, mu)
            want = character_oracle.satake_reference(moved, lam, mu)
            assert got.ok
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

        check()

    def test_warm_memos_match_the_dual_lattice_route(self):
        # one form object per form, so every sweep after the first pair reads
        # the memos its dual keeps: each ordered pair of the six lowest
        # coweights, twice, field for field and tuple order included
        fields = [f.name for f in dataclasses.fields(characters.SatakeReport)]
        for q in _satake_forms():
            low = _lowest_coweights(q)
            assert len(low) == 6
            for _ in range(2):
                for lam in low:
                    for mu in low:
                        got = satake_prediction(q, lam, mu)
                        want = character_oracle.satake_reference(q, lam, mu)
                        assert [getattr(got, f) for f in fields] == [
                            getattr(want, f) for f in fields], (q, lam, mu)

    def test_memos_solve_each_coweight_and_build_each_plan_once(self, monkeypatch):
        # over a sweep each distinct coweight is solved once and each sorted
        # label pair's plan is built once, while every prediction still makes
        # one public irreducible_character call and one twisted_dual call
        forms = _satake_forms()
        sweeps = []
        for q in forms:
            dual = twisted_dual(q.rd, q)
            low = _lowest_coweights(q)
            labels = {lam: irreducible_character(
                dual.datum, dual.weight_sublattice.coefficients(lam)).labels for lam in low}
            pairs = {tuple(sorted((labels[lam], labels[mu]))) for lam in low for mu in low}
            sweeps.append((q, low, pairs))
        solved, tables, chars, duals = [], [], [], []
        coefficients = Sublattice.coefficients
        monkeypatch.setattr(Sublattice, "coefficients",
                            lambda self, v: solved.append(tuple(v)) or coefficients(self, v))
        table = characters._tensor_table
        monkeypatch.setattr(characters, "_tensor_table",
                            lambda cartan, a, b: tables.append((a, b)) or table(cartan, a, b))
        character = characters.irreducible_character
        monkeypatch.setattr(characters, "irreducible_character",
                            lambda rd, v: chars.append(v) or character(rd, v))
        dual_of = characters.twisted_dual
        monkeypatch.setattr(characters, "twisted_dual",
                            lambda rd, q, mode: duals.append(q) or dual_of(rd, q, mode))
        for q, low, pairs in sweeps:
            del solved[:], tables[:]
            for _ in range(2):
                for lam in low:
                    for mu in low:
                        del chars[:], duals[:]
                        assert satake_prediction(q, lam, mu).ok
                        assert (len(chars), duals) == (1, [q])
            assert sorted(solved) == sorted(low)
            assert sorted(tables) == sorted(pairs)

    def test_failed_inputs_leave_nothing_in_the_memos(self):
        # a CharacterError raises again on the next call, and the memos still
        # answer the next valid pair as the reference does
        q = killing_qform(standard("G2"), 0, Exponent.of(Fraction(1, 3)))
        rd, lattice = q.rd, twisted_dual(q.rd, q).weight_sublattice
        low = _lowest_coweights(q)
        outside = next(v for v in itertools.product(range(4), repeat=2)
                       if min(rd.simple_roots.mul_vec(v)) >= 0 and not lattice.contains(v))
        below = tuple(-x for x in low[1])
        assert lattice.contains(below)
        for lam in low:
            satake_prediction(q, lam, low[1])
        for lam, mu, match in ((low[1], outside, "outside"), (below, low[1], "not dominant"),
                               (low[1], below, "not dominant")):
            for _ in range(2):
                with pytest.raises(CharacterError, match=match):
                    satake_prediction(q, lam, mu)
            assert satake_prediction(q, low[2], low[1]) == character_oracle.satake_reference(
                q, low[2], low[1])

    def test_memos_are_freed_with_the_form(self):
        q = killing_qform(SP4, 0, Exponent.of(Fraction(1, 8)))
        low = _lowest_coweights(q)
        for lam in low:
            satake_prediction(q, lam, low[-1])
        ref = weakref.ref(twisted_dual(q.rd, q))
        assert ref()._satake[0] and ref()._satake[1]
        del q
        gc.collect()
        assert ref() is None


class TestBraidingWellDefined:
    def test_factor_is_the_sum_of_the_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        forms = [
            qform_from_gram(SL2, [[Fraction(2, 5)]]),
            qform_from_gram(PGL2, [[Fraction(2, 3)]]),
            killing_qform(SL3, 0, Exponent.of(Fraction(1, 7))),
            killing_qform(SP4, 0, Exponent.of(Fraction(3, 4), Fraction(1, 3))),
            killing_qform(standard("G2"), 0, Exponent.of(0, Fraction(-2, 5))),
            qform_from_gram(standard("GL2"), [[Fraction(1, 3), 0], [0, Fraction(1, 3)]],
                            [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]),
        ]

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.sampled_from(forms), st.data())
        def check(q, draw):
            vec = st.lists(st.integers(-6, 6), min_size=q.rd.rank, max_size=q.rd.rank)
            lam, mu = tuple(draw.draw(vec)), tuple(draw.draw(vec))
            assert braiding_signs(q, lam, mu)[1] == q.q(lam) + q.q(mu)

        check()

    def test_sign_depends_only_on_pi1_class(self):
        rng = random.Random(109)
        for rd in (SL2, PGL2, SL3, SP4):
            q = trivial_qform(rd)
            for _ in range(50):
                lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                mu = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
                shift = [0] * rd.rank
                for i in range(rd.num_simple):
                    c = rng.randint(-2, 2)
                    shift = [s + c * x for s, x in
                             zip(shift, rd.simple_coroots.row(i))]
                lam2 = vec_add(lam, tuple(shift))
                s1, _ = braiding_signs(q, lam, mu)
                s2, _ = braiding_signs(q, lam2, mu)
                assert s1 == s2


# Vector arguments follow the one integrality rule of IntMatrix: a
# non-integer or a bool is rejected, not truncated.
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call,expected", [
    (lambda x: irreducible_character(SL2, (x,)).multiplicities,
     (((-1,), 1), ((1,), 1))),
    (lambda x: weyl_multiplicity(SL3, (x, 1), (0, 0)), 2),
    (lambda x: weyl_multiplicity(SL3, (1, 1), (x, 1)), 1),
    (lambda x: weyl_dim(SL3, (x, 1)), 8),
    (lambda x: tensor_decompose(irreducible_character(SL2, (1,)), (x,)),
     {(0,): 1, (2,): 1}),
    (lambda x: satake_prediction(trivial_qform(SL2), (x,), (1,)).decomposition,
     (((0,), 1), ((1,), 1), ((2,), 1))),
    (lambda x: satake_prediction(trivial_qform(SL2), (1,), (x,)).decomposition,
     (((0,), 1), ((1,), 1), ((2,), 1))),
    (lambda x: braiding_signs(qform_from_gram(SL2, [[Fraction(2, 5)]]), (x,), (1,)),
     (1, Exponent.of(Fraction(2, 5)))),
    (lambda x: fiber_dim(SL2, (x,), (1,), (1,)), 1),
], ids=["irreducible_character", "weyl_multiplicity-highest",
        "weyl_multiplicity-weight", "weyl_dim", "tensor_decompose",
        "satake_prediction-lam",
        "satake_prediction-mu", "braiding_signs", "fiber_dim"])
def test_integer_arguments(call, expected, bad):
    with pytest.raises(ValueError, match="not an integer"):
        call(bad)
    assert call(1) == expected


@pytest.mark.parametrize("call", [
    lambda: weyl_multiplicity(SL3, (1, 1), (0, 0, 5)),
    lambda: weyl_multiplicity(SL3, (1,), (0, 0)),
    lambda: irreducible_character(SL3, (1, 1, 0)),
    lambda: weyl_dim(SL3, (1,)),
    lambda: tensor_decompose(irreducible_character(SL3, (1, 0)), (1, 0, 0)),
], ids=["weyl_multiplicity-weight", "weyl_multiplicity-highest",
        "irreducible_character", "weyl_dim", "tensor_decompose"])
def test_wrong_lengths_rejected(call):
    with pytest.raises(ValueError, match="not the rank 2"):
        call()


def test_integral_floats_are_read_as_ints():
    # an integral value of another type is accepted, and the answer is an int
    for got, want in ((weyl_dim(SL3, (1.0, 1)), 8),
                      (weyl_multiplicity(SL3, (1, 1), (0.0, 0)), 2),
                      (fiber_dim(SL2, (1.0,), (1,), (0,)), Fraction(2))):
        assert got == want and type(got) is type(want)
