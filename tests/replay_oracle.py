"""Replays, by exponent bookkeeping, what a `QForm` already is: a test
oracle for the form laws and for factorizable functions.

The divisor ledger records, for a tuple of coweights, the exponent
attached to each pairwise diagonal and a tangent exponent per coordinate.
Restricting to a diagonal merges two coordinates, moving the pairwise
exponent into the merged tangent slot; this replays the derivations that
make the associated forms bilinear and quadratic.

The component combinatorics of the torus factorizable grassmannian index
components over X^n by n-tuples of coweights; two components meet over a
diagonal exactly when the per-part coordinate sums agree.  Locally
constant factorizable functions on this component space are the same
thing as homomorphisms out of the coweight lattice, and the checks below
test that equivalence in both directions on bounded samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from twistdual.lattice import FGAbelianGroup, _int_row
from twistdual.qform import Exponent, QForm
from twistdual.rootdata import vec_add


# -- group arithmetic ----------------------------------------------------------


def reduce_element(group: FGAbelianGroup, v):
    """The coordinates of v reduced modulo the group's invariant factors."""
    if len(v) != len(group.invariant_factors):
        raise ValueError("element length mismatch")
    return tuple(x % f if f else x for x, f in zip(v, group.invariant_factors))


def add(group: FGAbelianGroup, v, w):
    return reduce_element(group, [a + b for a, b in zip(v, w)])


@dataclass(frozen=True)
class LatticeHom:
    """Homomorphism Z^domain_rank -> target, by images of the unit vectors."""

    domain_rank: int
    target: FGAbelianGroup
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.domain_rank:
            raise ValueError("need one image per basis vector")
        for im in self.images:
            if len(im) != len(self.target.invariant_factors):
                raise ValueError("image has wrong length for target group")

    def __call__(self, v):
        if len(v) != self.domain_rank:
            raise ValueError("vector length mismatch")
        acc = [0] * len(self.target.invariant_factors)
        for x, im in zip(v, self.images):
            for k in range(len(acc)):
                acc[k] += x * im[k]
        return reduce_element(self.target, acc)


# -- the divisor ledger --------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Partition of {0..n-1} into disjoint parts, canonically ordered."""

    n: int
    parts: tuple

    @classmethod
    def of(cls, n, parts):
        norm = tuple(sorted(tuple(sorted(p)) for p in parts))
        seen = [x for p in norm for x in p]
        if sorted(seen) != list(range(n)):
            raise ValueError(f"parts {parts} do not partition 0..{n - 1}")
        return cls(n, norm)

    @classmethod
    def full(cls, n):
        return cls.of(n, [tuple(range(n))])

    def __str__(self):
        return "|".join("{" + ",".join(str(i + 1) for i in p) + "}"
                        for p in self.parts)


@dataclass(frozen=True)
class DivisorLedger:
    """Exponents on the pairwise diagonals and tangent exponents per live
    coordinate of a component of X^n."""

    n: int
    pairwise: tuple  # ((frozenset({i,j}), Exponent), ...) sorted
    tangents: tuple  # ((i, Exponent), ...) sorted

    @classmethod
    def build(cls, n, pairwise, tangents):
        pw = tuple(sorted(pairwise.items(), key=lambda kv: sorted(kv[0])))
        tg = tuple(sorted(tangents.items()))
        return cls(n, pw, tg)

    def pairwise_map(self):
        return dict(self.pairwise)

    def tangent_map(self):
        return dict(self.tangents)

    def live(self):
        return tuple(i for i, _ in self.tangents)

    def with_pairwise(self, i, j, exponent):
        """Copy with one pairwise entry replaced (test hook for tampering)."""
        pw = self.pairwise_map()
        pw[frozenset((i, j))] = exponent
        return DivisorLedger.build(self.n, pw, self.tangent_map())


def ledger_for_components(q: QForm, coweights) -> DivisorLedger:
    """The exponent ledger of the component indexed by the given coweights:
    kappa on each pairwise diagonal and Q on each tangent slot."""
    cws = [_int_row(v) for v in coweights]
    n = len(cws)
    pairwise = {
        frozenset((i, j)): q.kappa(cws[i], cws[j])
        for i in range(n) for j in range(i + 1, n)
    }
    tangents = {i: q.q(cws[i]) for i in range(n)}
    return DivisorLedger.build(n, pairwise, tangents)


def restrict(ledger: DivisorLedger, i, j) -> DivisorLedger:
    """Merge coordinates i and j (restriction to their diagonal).

    The diagonal exponent moves into the merged tangent; exponents toward
    any third coordinate add up.
    """
    live = set(ledger.live())
    if i not in live or j not in live:
        raise ValueError(f"coordinates {i},{j} are not both live")
    if i == j:
        raise ValueError("cannot merge a coordinate with itself")
    keep, gone = min(i, j), max(i, j)
    pw = ledger.pairwise_map()
    tg = ledger.tangent_map()
    merged = pw.pop(frozenset((i, j)))
    new_tg = {}
    for c, e in tg.items():
        if c == keep:
            new_tg[c] = tg[keep] + tg[gone] + merged
        elif c != gone:
            new_tg[c] = e
    new_pw = {}
    for key, e in pw.items():
        a, b = sorted(key)
        a2 = keep if a == gone else a
        b2 = keep if b == gone else b
        k2 = frozenset((a2, b2))
        new_pw[k2] = new_pw.get(k2, Exponent.zero()) + e
    return DivisorLedger.build(ledger.n, new_pw, new_tg)


def verify_bilinearity(q: QForm, lam, mu, nu, ledger: DivisorLedger | None = None):
    """Replay the three-coordinate restriction: merging the first two
    coordinates must reproduce the ledger of (lam + mu, nu) slot by slot,
    the surviving diagonal carrying kappa(lam + mu, nu)."""
    if ledger is None:
        ledger = ledger_for_components(q, [lam, mu, nu])
    merged = restrict(ledger, 0, 1)
    s = vec_add(lam, mu)
    pw_ok = merged.pairwise_map()[frozenset((0, 2))] == q.kappa(s, nu)
    tg = merged.tangent_map()
    return pw_ok and tg[0] == q.q(s) and tg[2] == q.q(nu)


def verify_quadratic(q: QForm, lam, mu, ledger: DivisorLedger | None = None):
    """Replay the four-coordinate restriction for (lam, mu, lam, mu).

    Merging {1,2} and then {3,4} must reproduce the two-coordinate ledger
    of (lam + mu, lam + mu); the tangent slots carry
    Q(lam) Q(mu) kappa(lam, mu), so equality is the quadratic law.
    """
    if ledger is None:
        ledger = ledger_for_components(q, [lam, mu, lam, mu])
    merged = restrict(restrict(ledger, 0, 1), 2, 3)
    got = merged.pairwise_map()[frozenset((0, 2))]
    s = vec_add(lam, mu)
    defect = q.q(s) - (q.q(lam) + q.q(mu) + q.kappa(lam, mu))
    tg = merged.tangent_map()
    return (got == q.kappa(s, s) and tg[0] == q.q(s) and tg[2] == q.q(s)
            and defect.is_zero())


# -- component combinatorics ---------------------------------------------------


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
            v = reduce_element(target, mapping(ComponentIndex.of([lam, mu] + padding)))
            if by_sum.setdefault(s, v) != v:
                return False

    # product rule across the two-part partition {first | rest}
    for lam in box:
        for mu in box:
            s = tuple(x + y for x, y in zip(lam, mu))
            if add(target, by_sum[lam], by_sum[mu]) != by_sum[s]:
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
        images.append(reduce_element(target, mapping(ComponentIndex.of([e] + padding))))
    hom = LatticeHom(rank, target, tuple(images))
    f = factorizable_function(hom, n)
    for lam in _sample_coweights(rank, bound):
        idx = ComponentIndex.of([lam] + padding)
        if reduce_element(target, mapping(idx)) != f(idx):
            return None
    return hom
