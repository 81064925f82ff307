import random

import pytest

from replay_oracle import (
    ComponentIndex,
    LatticeHom,
    Partition,
    add,
    factorizable_function,
    incident,
    is_factorizable,
    reconstruct_homomorphism,
)
from twistdual.lattice import FGAbelianGroup


def idx(*scalars):
    return ComponentIndex.of([(x,) for x in scalars])


def _refines(fine, coarse):
    """Whether every part of `fine` sits inside a part of `coarse`."""
    where = {x: k for k, part in enumerate(coarse.parts) for x in part}
    return all(len({where[x] for x in part}) == 1 for part in fine.parts)


class TestIncident:
    def test_divisor_example(self):
        # components (0,4,-1) and (2,2,-1) meet where the first two
        # coordinates collide
        p = incident(idx(0, 4, -1), idx(2, 2, -1))
        assert p == Partition.of(3, [(0, 1), (2,)])
        assert str(p) == "{1,2}|{3}"

    def test_full_diagonal_example(self):
        p = incident(idx(1, 1, 1), idx(0, 4, -1))
        assert p == Partition.full(3)

    def test_equal_components_discrete(self):
        a = idx(3, -1, 2)
        assert incident(a, a) == Partition.of(3, [(0,), (1,), (2,)])

    def test_disjoint(self):
        assert incident(idx(0, 0), idx(1, 0)) is None

    def test_symmetric(self):
        rng = random.Random(73)
        for _ in range(50):
            n = rng.randint(1, 5)
            a = idx(*[rng.randint(-3, 3) for _ in range(n)])
            b = idx(*[rng.randint(-3, 3) for _ in range(n)])
            assert incident(a, b) == incident(b, a)

    def test_result_is_valid_and_criterion_monotone(self):
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(2, 4)
            a = idx(*[rng.randint(-2, 2) for _ in range(n)])
            b = idx(*[rng.randint(-2, 2) for _ in range(n)])
            p = incident(a, b)
            if p is None:
                assert not _meet_over(a, b, Partition.full(n))
                continue
            assert _meet_over(a, b, p)
            # meeting over p implies meeting over every coarsening
            for parts in _all_partitions(n):
                q = Partition.of(n, parts)
                if _refines(p, q):
                    assert _meet_over(a, b, q)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="different n"):
            incident(idx(1), idx(1, 2))

    # zip cut the longer coweights short: incident said {1}|{2}
    def test_incident_rejects_indices_of_different_rank(self):
        a, b = ComponentIndex.of([(1,), (2,)]), ComponentIndex.of([(1, 5), (2, 7)])
        with pytest.raises(ValueError, match="different rank"):
            incident(a, b)

    # whether two components meet over a diagonal is read off incident, so
    # the rank check must hold with the longer coweights first as well
    def test_meets_over_rejects_indices_of_different_rank(self):
        a, b = ComponentIndex.of([(1, 5), (2, 7)]), ComponentIndex.of([(1,), (2,)])
        with pytest.raises(ValueError, match="different rank"):
            incident(a, b)


def _meet_over(a, b, p):
    """Whether components a and b meet over the diagonal of p: every part
    has equal coordinate sums."""
    return all(a.part_sum(part) == b.part_sum(part) for part in p.parts)


def _all_partitions(n):
    if n == 1:
        yield [(0,)]
        return
    for smaller in _all_partitions(n - 1):
        for k in range(len(smaller)):
            yield smaller[:k] + [tuple(sorted(smaller[k] + (n - 1,)))] + smaller[k + 1:]
        yield smaller + [(n - 1,)]


class TestFactorizableFunctions:
    def test_identity_hom_passes(self):
        target = FGAbelianGroup((0,))
        h = LatticeHom(1, target, ((1,),))
        f = factorizable_function(h, 2)
        assert f(ComponentIndex.of([(2,), (3,)])) == (5,)
        assert is_factorizable(f, 2, 1, target, bound=4)

    def test_constant_one_mapping(self):
        target = FGAbelianGroup.from_factors([5])
        assert is_factorizable(lambda i: (0,), 2, 1, target, bound=4)

    def test_sum_of_squares_fails(self):
        target = FGAbelianGroup.from_factors([5])

        def m(i):
            lam, mu = i.coweights[0][0], i.coweights[1][0]
            return ((lam * lam + mu * mu) % 5,)

        assert not is_factorizable(m, 2, 1, target, bound=3)

    def test_every_hom_passes(self):
        rng = random.Random(83)
        for _ in range(20):
            mod = rng.randint(2, 12)
            target = FGAbelianGroup.from_factors([mod])
            rank = rng.randint(1, 2)
            h = LatticeHom(rank, target,
                           tuple((rng.randrange(mod),) for _ in range(rank)))
            n = rng.randint(2, 3)
            f = factorizable_function(h, n)
            assert is_factorizable(f, n, rank, target, bound=3)
            back = reconstruct_homomorphism(f, n, rank, target, bound=3)
            assert back is not None
            assert back.images == h.images

    def test_passing_mappings_reconstruct(self):
        # every mapping that passes the bounded check is a homomorphism there
        rng = random.Random(89)
        target = FGAbelianGroup.from_factors([6])
        tried = passed = 0
        while passed < 5 and tried < 2000:
            tried += 1
            table = {s: (rng.randrange(6),) for s in range(-12, 13)}

            def m(i, table=table):
                return table[sum(v[0] for v in i.coweights)]

            if is_factorizable(m, 2, 1, target, bound=6):
                passed += 1
                back = reconstruct_homomorphism(m, 2, 1, target, bound=6)
                assert back is not None
        # random tables essentially never pass; seed a genuine hom too
        h = LatticeHom(1, target, ((4,),))
        f = factorizable_function(h, 2)
        assert is_factorizable(f, 2, 1, target, bound=6)
        assert reconstruct_homomorphism(f, 2, 1, target, bound=6) is not None

    def test_non_factorizable_has_no_reconstruction(self):
        target = FGAbelianGroup.from_factors([5])

        def m(i):
            lam, mu = i.coweights[0][0], i.coweights[1][0]
            return ((lam * lam + mu * mu) % 5,)

        assert reconstruct_homomorphism(m, 2, 1, target, bound=3) is None


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_component_index_rejects_non_integer_coweights(bad):
    with pytest.raises(ValueError, match="not an integer"):
        ComponentIndex.of([(bad,), (0,)])
    assert ComponentIndex.of([(1,), (0,)]).coweights == ((1,), (0,))


# accepted, after which total() raised a bare IndexError
def test_component_index_rejects_coweights_of_unequal_rank():
    with pytest.raises(ValueError, match="unequal rank"):
        ComponentIndex.of([(1, 0), (2,)])


# the public constructor took them, and total() raised a bare IndexError
@pytest.mark.parametrize("coweights", [((1, 0), (2,)), ((1,), (2, 0)), ((), (0,))])
def test_component_index_constructor_rejects_coweights_of_unequal_rank(coweights):
    with pytest.raises(ValueError, match="unequal rank"):
        ComponentIndex(coweights)
    assert ComponentIndex(((1, 0), (2, 3))).total() == (3, 3)


class TestFGAbelianGroup:
    def test_elements_and_arithmetic(self):
        g = FGAbelianGroup.from_factors([2, 4])
        assert add(g, (1, 3), (1, 2)) == (0, 1)


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
