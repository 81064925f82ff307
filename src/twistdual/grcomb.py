"""Combinatorics of the torus factorizable grassmannian.

Components over X^n are indexed by n-tuples of coweights; two components
meet over a diagonal exactly when the per-part coordinate sums agree.
Locally constant factorizable functions on this component space are the
same thing as homomorphisms out of the coweight lattice, and this module
checks that equivalence in both directions on bounded samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .divisor_calc import Partition
from .lattice import FGAbelianGroup, LatticeHom, _int_row


@dataclass(frozen=True)
class ComponentIndex:
    """A component of the grassmannian over X^n: one coweight per point."""

    coweights: tuple

    def __post_init__(self):
        # every route in checks the ranks: sums over a part read each coweight
        # up to the first one's length
        if len({len(v) for v in self.coweights}) > 1:
            raise ValueError(
                f"coweights of unequal rank: {[len(v) for v in self.coweights]}")

    @classmethod
    def of(cls, coweights):
        """The index on coweights read as integer vectors."""
        return cls(tuple(_int_row(v) for v in coweights))

    @property
    def n(self):
        return len(self.coweights)

    @property
    def rank(self):
        return len(self.coweights[0]) if self.coweights else 0

    def part_sum(self, part):
        rank = self.rank
        return tuple(sum(self.coweights[i][j] for i in part) for j in range(rank))

    def total(self):
        return self.part_sum(range(self.n))


def _check_same_shape(a: ComponentIndex, b: ComponentIndex):
    if a.n != b.n:
        raise ValueError("component indices have different n")
    if a.rank != b.rank:
        raise ValueError("component indices have different rank")


def incident(a: ComponentIndex, b: ComponentIndex):
    """The canonical finest partition over whose diagonal the components
    meet, or None when even the full diagonal fails.

    Scanning left to right, a group of coordinates is closed as soon as its
    running difference of coweight sums cancels; while the difference is
    nonzero the cumulative constraint forces the group to keep growing.
    """
    _check_same_shape(a, b)
    rank = a.rank
    zero = (0,) * rank
    parts = []
    current = []
    acc = zero
    for i in range(a.n):
        current.append(i)
        acc = tuple(x + y - z for x, y, z in
                    zip(acc, a.coweights[i], b.coweights[i]))
        if acc == zero:
            parts.append(tuple(current))
            current = []
    if current:
        return None
    return Partition.of(a.n, parts)


def factorizable_function(h: LatticeHom, n):
    """The component-indexed function built from a homomorphism: the value
    on a component is h applied to the total coweight."""
    def f(idx: ComponentIndex):
        if idx.n != n:
            raise ValueError("component index has wrong n")
        return h(idx.total())
    return f


def _sample_coweights(rank, bound):
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))


def is_factorizable(mapping, n, rank, target: FGAbelianGroup, bound=3) -> bool:
    """Check a component-indexed mapping for factorizability on the box of
    coweights with coordinates bounded by `bound`.

    Two conditions: incident components (equal sums) receive equal values,
    and across two-part partitions the value is additive in the group of
    values (the product rule, written additively).
    """
    if n < 2:
        raise ValueError("factorizability needs n >= 2")
    box = _sample_coweights(rank, bound)
    zero = (0,) * rank
    padding = [zero] * (n - 2)

    # local constancy: the value may only depend on the total sum
    by_sum = {}
    for lam in box:
        for mu in box:
            s = tuple(x + y for x, y in zip(lam, mu))
            v = target.reduce_element(
                mapping(ComponentIndex.of([lam, mu] + padding)))
            if by_sum.setdefault(s, v) != v:
                return False

    # product rule across the two-part partition {first | rest}
    for lam in box:
        for mu in box:
            s = tuple(x + y for x, y in zip(lam, mu))
            if target.add(by_sum[lam], by_sum[mu]) != by_sum[s]:
                return False
    return True


def reconstruct_homomorphism(mapping, n, rank, target: FGAbelianGroup, bound=3):
    """Rebuild the homomorphism behind a factorizable mapping, or None.

    The candidate sends e_i to the value on (e_i, 0, ..., 0); it is then
    checked against the mapping on the whole sampled box.
    """
    zero = (0,) * rank
    padding = [zero] * (n - 1)
    images = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        images.append(target.reduce_element(
            mapping(ComponentIndex.of([e] + padding))))
    hom = LatticeHom(rank, target, tuple(images))
    f = factorizable_function(hom, n)
    for lam in _sample_coweights(rank, bound):
        idx = ComponentIndex.of([lam] + padding)
        if target.reduce_element(mapping(idx)) != f(idx):
            return None
    return hom

