"""Symbolic ledger of divisor exponents on component spaces X^n.

A ledger records, for a tuple of coweights, the exponent attached to each
pairwise diagonal and a tangent exponent per coordinate.  Restricting to a
diagonal merges two coordinates, moving the pairwise exponent into the
merged tangent slot; this replays, purely as exponent bookkeeping, the
derivations that make the associated forms bilinear and quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import _int_row
from .qform import Exponent, QForm
from .rootdata import vec_add


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
