"""Root data of complex reductive groups.

A root datum is realized concretely: weights and coweights both live in
Z^rank with the standard dot pairing, and the datum is the pair of simple
root / simple coroot matrices R and V.  Each axiom is decided once, where
it is cheapest.  A datum has two constructors with one body, `_set`.
The checked `__init__`, the route of all input from outside, computes
the Cartan matrix R V^T off the rows.  The trusted `_trusted` takes
matrices the library built from checked data together with their Cartan
matrix in closed form: `flip` passes the transpose, and
`dualgroup._validated_dual` the source's, transposed and rescaled.
Either way the matrix is looked up in its record, `_cartan_system`,
which decides everything about it once per matrix,
memoised for the process in a bounded LRU cache: the record checks the
signs, then finite type, exactly and before any walk starts, then walks
the positive roots once in Cartan coordinates.  A finite-type Cartan
matrix is nondegenerate, so R and V then have independent rows; their
ranks are computed only when the matrix fails `__init__`, to name the
dependence.  A failure is never cached.  The record also
holds what the positive roots give, each computed when first asked: the
per-component Killing record (its Gram in Cartan coordinates and the dual
Coxeter number), |W| from the heights and 2 rho in Cartan coordinates.
A datum carries these by its own R: its K is that Gram carried by R and
its 2 rho one product; only `root_pairs` maps the positive pairs
themselves, by R and V.
pi1 is Z^rank modulo the coroots, `quotient_group` of V, kept on the
datum.  A datum with a centre (fewer simple roots than its rank) has a
basis of X^W, the weights every coroot kills: the Hermite basis of the
kernel of V, one `kernel_mod`.  Its frame F = [simple roots; that basis]
(a semisimple datum's is its simple roots) is inverted once, when first
read, into the record `_frame`: G = e F^-T for the exponent e of
X / (Z Delta + X^W), and the index |det F| = [X : Z Delta + X^W].
`root_coordinates`, `weight_leq` and `isomorphic` all read it.  The Weyl
group is enumerated only on demand.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul, neg
from typing import NamedTuple

from .lattice import (
    FGAbelianGroup,
    IntMatrix,
    Sublattice,
    _computed_matrix,
    _identity_rows,
    _int_row,
    integral_inverse,
    kernel_mod,
    outer_sum,
    quotient_group,
)


# the most Weyl-group elements `weyl_group()` enumerates
WEYL_BOUND = 1_000_000


class RootDatumError(ValueError):
    """A root datum axiom failed."""


def dot(x, y):
    if len(x) != len(y):
        raise ValueError("length mismatch in pairing")
    return sum(map(mul, x, y))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


class Chamber(NamedTuple):
    """A vector's dominant W-conjugate, the sign (-1)^length of a Weyl
    element w carrying it there, and the conjugate's Dynkin labels: its
    pairings with the simple coroots (for a weight) or the simple roots
    (for a coweight).  The walls the conjugate lies on are its zero labels;
    on no wall, w is unique."""

    conjugate: tuple
    sign: int
    labels: tuple


def _chamber_walk(v, labels, simple, cartan_rows) -> Chamber:
    """Walk v to its dominant conjugate by simple reflections.  `labels`
    are v's pairings with the simple vectors of the other side, s_j maps v
    to v - l_j simple[j], and it changes label i by -l_j cartan_rows[j][i],
    so no pairing is recomputed.  A reflection at a negative label
    shortens the Weyl element still to apply, so the walk ends after at
    most |Phi+| steps."""
    labels = list(labels)
    steps = [0] * len(labels)   # what has been subtracted of each simple vector
    sign = 1
    while True:
        for j, lj in enumerate(labels):
            if lj < 0:
                break
        else:
            break
        steps[j] += lj
        labels = [x - lj * a for x, a in zip(labels, cartan_rows[j])]
        sign = -sign
    for c, row in zip(steps, simple):
        if c:
            v = tuple(x - c * a for x, a in zip(v, row))
    return Chamber(v, sign, tuple(labels))


class _Frame(NamedTuple):
    """A datum's frame F = [simple roots; a basis of X^W], inverted once:
    G = e F^-T over the least e >= 1 that makes it integral, the exponent
    of X / (Z Delta + X^W), and the index |det F| = [X : Z Delta + X^W];
    the sum is direct, as the Cartan matrix is nondegenerate."""

    inverse: IntMatrix
    exponent: int
    index: int


@dataclass(frozen=True)
class WeylGroup:
    """Finite Weyl group as matrices acting on the coweight lattice."""

    elements: tuple

    @property
    def order(self):
        return len(self.elements)


class RootDatum:
    def __init__(self, simple_roots, simple_coroots, rank=None, name=None):
        if not isinstance(simple_roots, IntMatrix):
            simple_roots = IntMatrix(simple_roots, cols=rank)
        if not isinstance(simple_coroots, IntMatrix):
            simple_coroots = IntMatrix(simple_coroots, cols=rank)
        if simple_roots.rows != simple_coroots.rows:
            raise RootDatumError("simple roots and coroots must come in pairs")
        if simple_roots.cols != simple_coroots.cols:
            raise RootDatumError("simple roots and coroots live in dual lattices of equal rank")
        # entry [i][j] = <alpha_i, coroot_j>: each root row dotted with
        # every coroot row
        coroots = simple_coroots.data
        cartan = tuple(tuple(sum(map(mul, r, c)) for c in coroots)
                       for r in simple_roots.data)
        try:
            self._set(simple_roots, simple_coroots, cartan, name)
        except RootDatumError:
            # a finite-type Cartan matrix R V^T is nondegenerate, so R and V
            # have full row rank: only a failing matrix needs the ranks
            for side, rows in (("roots", simple_roots), ("coroots", simple_coroots)):
                if rows.rank() != self.num_simple:
                    raise RootDatumError(f"simple {side} are linearly dependent") from None
            raise

    @classmethod
    def _trusted(cls, simple_roots, simple_coroots, cartan, name):
        """The datum on matrices the library built from checked data, with
        their Cartan matrix R V^T given, not computed: the caller proves it
        (`flip`, `dualgroup._validated_dual`).  Input from outside goes
        through `__init__`."""
        out = object.__new__(cls)
        out._set(simple_roots, simple_coroots, cartan, name)
        return out

    def _set(self, simple_roots, simple_coroots, cartan, name):
        """The one body of both constructors: store the matrices and look
        the Cartan matrix up in its record, which raises unless its signs
        hold and it is of finite type."""
        self.simple_roots = simple_roots
        self.simple_coroots = simple_coroots
        self.rank = simple_roots.cols
        self.name = name
        # (weight-lattice basis, multipliers) -> dual datum, kept and
        # bounded by dualgroup._assemble_dual
        self._assembled = {}
        self._cartan = _cartan_system(cartan)

    # -- basic structure ---------------------------------------------------

    @property
    def num_simple(self):
        return self.simple_roots.rows

    @property
    def cartan_matrix(self):
        """Entry [i][j] = <alpha_i, coroot_j>, the rows of R V^T, as the
        Cartan record keeps them."""
        return self._cartan.cartan

    @property
    def symmetrizer(self):
        """Positive integers d with (a_ij d_j) symmetric, the least such on
        each component of the Cartan graph."""
        return self._cartan.symmetrizer

    def reflection_coweight(self, i):
        """Matrix of s_i on the coweight lattice: x -> x - <alpha_i, x> coroot_i."""
        alpha = self.simple_roots.row(i)
        cov = self.simple_coroots.row(i)
        n = self.rank
        return IntMatrix(
            [[(1 if a == b else 0) - cov[a] * alpha[b] for b in range(n)]
             for a in range(n)],
            cols=n,
        )

    def reflect_weight(self, i, v):
        return vec_sub(v, vec_scale(dot(v, self.simple_coroots.row(i)),
                                    self.simple_roots.row(i)))

    @cached_property
    def _weyl(self):
        # Built on demand only; WEYL_BOUND caps the enumeration.
        gens = [self.reflection_coweight(i) for i in range(self.num_simple)]
        ident = IntMatrix.identity(self.rank)
        seen = {ident.data: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = g @ m
                    if prod.data not in seen:
                        seen[prod.data] = prod
                        nxt.append(prod)
            if len(seen) > WEYL_BOUND:
                raise RootDatumError(
                    f"Weyl group has more than {WEYL_BOUND} elements, too many "
                    "to enumerate; weyl_order() gives its order")
            frontier = nxt
        return WeylGroup(tuple(sorted(seen.values(), key=lambda m: m.data)))

    def weyl_group(self) -> WeylGroup:
        return self._weyl

    def weyl_order(self):
        """|W| from the root heights, without enumerating W (see
        `_CartanSystem.weyl_order`)."""
        return self._cartan.weyl_order

    @cached_property
    def root_pairs(self):
        """All (root, coroot) pairs, sorted by root: each positive pair
        (c, c') of the Cartan matrix's walk, mapped to beta = sum_i c_i
        alpha_i and beta^v = sum_i c'_i coroot_i, and its negative."""
        root_cols = tuple(zip(*self.simple_roots.data))
        coroot_cols = tuple(zip(*self.simple_coroots.data))
        pairs = []
        for c, cv in self._cartan.positive:
            beta = tuple(sum(map(mul, c, col)) for col in root_cols)
            cobeta = tuple(sum(map(mul, cv, col)) for col in coroot_cols)
            pairs += ((beta, cobeta), (tuple(map(neg, beta)), tuple(map(neg, cobeta))))
        return tuple(sorted(pairs))

    @cached_property
    def two_rho(self):
        """Sum of the positive roots: R^T times their sum in Cartan
        coordinates."""
        return self.simple_roots.transpose().mul_vec(self._cartan.two_rho)

    def pi1(self) -> FGAbelianGroup:
        """Component group of the grassmannian: coweights modulo coroots."""
        return self._pi1

    @cached_property
    def _fixed_weights(self):
        """A basis of X^W = ker V, as rows: the Hermite basis of the kernel
        of the simple coroots.  A semisimple datum has none."""
        s = self.num_simple
        return () if s == self.rank else kernel_mod(self.simple_coroots).basis.data

    @cached_property
    def _frame(self) -> _Frame:
        """The frame [simple roots; `_fixed_weights`], inverted by one
        `integral_inverse`: den F^-1 by rows, whose columns are the rows of
        den F^-T for den = |det F|, divided by their gcd with den."""
        inverse, index = integral_inverse(self.simple_roots.data + self._fixed_weights)
        g = math.gcd(index, *(x for row in inverse for x in row))
        big_g = [[x // g for x in col] for col in zip(*inverse)]
        return _Frame(_computed_matrix(big_g, self.rank), index // g, index)

    @property
    def _frame_index(self):
        """[X : Z Delta + X^W], an isomorphism invariant (see `isomorphic`)."""
        return self._frame.index

    @cached_property
    def _pi1(self):
        return quotient_group(Sublattice(self.rank, self.simple_coroots))

    # -- integer coordinates and dominance ------------------------------------

    def _vector(self, v):
        """v as a tuple of ints of length rank, else a ValueError: the check
        of every public vector argument.  The library's own callers, whose
        vectors are checked already, go around it."""
        v = _int_row(v)
        if len(v) != self.rank:
            raise ValueError(f"vector {v} has length {len(v)}, not the rank {self.rank}")
        return v

    def root_coordinates(self, v):
        """Integer coefficients of v in the simple roots, or None when v is
        outside their span or the coefficients are not integers.

        v = x F for the frame F, with e x_r = v . G_r (`_frame`): v is in
        the span of the simple roots when x vanishes on the rows of X^W, and
        then an integer sum of them when e divides its first s entries."""
        v = self._vector(v)
        big_g, e, _ = self._frame
        s = self.num_simple
        ex = [sum(map(mul, v, row)) for row in big_g.data]
        if any(ex[s:]) or any(c % e for c in ex[:s]):
            return None
        return tuple(c // e for c in ex[:s])

    def weight_leq(self, lam, mu):
        """lam <= mu iff mu - lam is a nonnegative integer sum of simple
        roots; on coweights, against the simple coroots, it is the order of
        `flip()`."""
        coeffs = self.root_coordinates(vec_sub(self._vector(mu), self._vector(lam)))
        return coeffs is not None and min(coeffs, default=0) >= 0

    # -- components and Coxeter data ----------------------------------------

    @property
    def components(self):
        """Connected components of the Cartan graph, as index tuples."""
        return self._cartan.components

    def is_irreducible(self):
        return len(self.components) == 1

    @cached_property
    def killing(self):
        """(K, h) per component, in `components` order: K = sum of beta
        beta^T over the component's roots, and h the dual Coxeter number,
        a quarter of the least K-length of the component's simple coroots,
        since sum_beta <beta, a^v>^2 = 4h for a short coroot a^v (Kac,
        *Infinite-dimensional Lie algebras*, Ch. 6).

        A root is R^T c for its Cartan coordinates c, so K = R^T G R with G
        the sum of c c^T over the component's roots, and the K-length of
        coroot j is col_j^T G col_j for column j of the Cartan matrix: G and
        h come from the Cartan record (`_CartanSystem.killing`), and the
        datum pays one product for K, without its root pairs."""
        r = self.simple_roots
        r_t = r.transpose()
        return tuple((r_t @ g @ r, h) for g, h in self._cartan.killing)

    # -- plumbing -------------------------------------------------------------

    def flip(self):
        """Exchange the weight and coweight sides (roots <-> coroots)."""
        return self._flipped(f"flip({self.name})" if self.name else None)

    def _flipped(self, name):
        """The flip under `name`, by the trusted route: it shares this
        datum's matrices, and its Cartan matrix V R^T is the transpose."""
        return RootDatum._trusted(self.simple_coroots, self.simple_roots,
                                  tuple(zip(*self.cartan_matrix)), name)

    def _renamed(self, name):
        """This datum under another name, without a second validation: the
        copy shares the checked matrices and every fact already cached,
        all of which read the roots and coroots alone, but starts its own
        dual memo."""
        out = object.__new__(RootDatum)
        out.__dict__.update(self.__dict__, name=name, _assembled={})
        return out

    def to_dict(self):
        return {
            "rank": self.rank,
            "simple_roots": [list(r) for r in self.simple_roots.data],
            "simple_coroots": [list(r) for r in self.simple_coroots.data],
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            IntMatrix(d["simple_roots"], cols=d["rank"]),
            IntMatrix(d["simple_coroots"], cols=d["rank"]),
            rank=d["rank"],
            name=d.get("name"),
        )

    def __eq__(self, other):
        return (
            isinstance(other, RootDatum)
            and self.rank == other.rank
            and self.simple_roots == other.simple_roots
            and self.simple_coroots == other.simple_coroots
        )

    def __hash__(self):
        return hash((self.rank, self.simple_roots, self.simple_coroots))

    def __repr__(self):
        label = self.name or f"rank-{self.rank} datum"
        return f"RootDatum({label})"


@dataclass(frozen=True, eq=False)
class _CartanSystem:
    """What a root datum owes to its Cartan matrix alone: the fields, built
    and checked by `_cartan_system`, and what the positive roots give, each
    computed when first asked."""

    cartan: tuple
    symmetrizer: tuple
    components: tuple
    # (c, c'): each positive root and its coroot, in simple coordinates
    positive: tuple

    @cached_property
    def killing(self):
        """(G, h) per component, in `components` order: G the s x s sum of
        c c^T over the component's roots c in simple coordinates, each
        positive root with its negative, and h a quarter of the least
        length col_j^T G col_j over the component's columns j of the Cartan
        matrix."""
        cols = tuple(zip(*self.cartan))
        records = []
        for comp in self.components:
            g = outer_sum((v for c, _ in self.positive if any(c[i] for i in comp)
                           for v in (c, tuple(map(neg, c)))), len(self.cartan))
            records.append((g, min(dot(cols[j], g.mul_vec(cols[j])) for j in comp) // 4))
        return tuple(records)

    @cached_property
    def weyl_order(self):
        """|W| from the heights of the positive roots.

        |W| is the product of (e + 1) over the exponents e, and by Kostant
        the number of exponents >= k is the number of positive roots of
        height k; both hold component by component, so for any datum.
        """
        heights = Counter(sum(c) for c, _ in self.positive)
        order = 1
        for k, n in heights.items():
            order *= (k + 1) ** (n - heights[k + 1])
        return order

    @cached_property
    def two_rho(self):
        """Sum of the positive roots, in simple coordinates."""
        return tuple(map(sum, zip(*(c for c, _ in self.positive))))


@lru_cache(maxsize=128)
def _cartan_system(cartan) -> _CartanSystem:
    """The record of a Cartan matrix, raising `RootDatumError` unless its
    signs hold (2 on the diagonal, nonpositive entries off it, symmetric
    zeros) and it is of finite type.  Memoised by the matrix, as a tuple of
    rows: a sweep over the forms of one group, or over its changes of
    basis, meets few Cartan matrices.  A failure is not cached.

    The roots are reduced, with no test: the walk yields W Pi, the orbit
    of the simple roots, and every root of a finite-type matrix is real,
    so its only multiples that are roots are itself and its negative
    (Kac, *Infinite-dimensional Lie algebras*, Prop. 5.1).  That holds for
    every datum of the matrix, as c -> sum_i c_i alpha_i is linear and
    injective (a finite-type matrix makes the simple roots independent)."""
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise RootDatumError(f"<alpha_{i}, coroot_{i}> = {row[i]}, expected 2")
    for i, row in enumerate(cartan):
        for j, a in enumerate(row):
            if a > 0 and j != i:
                raise RootDatumError(f"<alpha_{i}, coroot_{j}> = {a} > 0")
            if (a == 0) != (cartan[j][i] == 0):
                raise RootDatumError(
                    f"asymmetric orthogonality between simples {i} and {j}")
    d, comps = _symmetrize(cartan)
    # the finite-type test bounds the root walk that follows, so an
    # infinite-type Cartan matrix never starts it
    _check_finite_type(cartan, d)
    return _CartanSystem(cartan, d, comps, tuple(_positive_walk(cartan).items()))


def _symmetrize(cartan):
    """(d, components): one walk of the Cartan graph gives its components
    and the symmetrizer."""
    # d solves d_j a_ij = d_i a_ji along each edge, and a cycle that forces
    # two values of some d_j makes the Cartan matrix non-symmetrizable,
    # hence not of finite type.  Each component's d is then scaled to its
    # least positive integers.
    s = len(cartan)
    d = [None] * s
    comps = []
    for start in range(s):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(s):
                if j == i or cartan[i][j] == 0:
                    continue
                dj = d[i] * cartan[j][i] / cartan[i][j]
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise RootDatumError(
                        "Cartan matrix is not symmetrizable; "
                        "datum is not of finite type")
        lcd = math.lcm(*(d[i].denominator for i in comp))
        for i in comp:
            d[i] = int(d[i] * lcd)
        comps.append(tuple(sorted(comp)))
    return tuple(d), tuple(comps)


def _positive_walk(a):
    """The positive roots of a finite-type Cartan matrix a, as a dict c -> c'
    from the Cartan coordinates of a root to those of its coroot.

    s_j changes only entry j, by -<beta, coroot_j> = -sum_i c_i a_ij on the
    root side and by -<alpha_j, beta^v> = -sum_i c'_i a_ji on the coroot
    side.  From the simple roots s_j is applied only where it raises the
    height; every positive root that is not simple has a simple reflection
    that lowers its height (Humphreys, *Introduction to Lie Algebras*,
    10.2), so the walk reaches them all.  Each coroot is the one its first
    path gives: a symmetrizer d makes (x, y) = sum_ij x_i a_ij d_j y_j a
    W-invariant form with c'_i = 2 c_i d_i / (beta, beta), so every path
    gives the same coroot, and <beta, coroot_j> and <alpha_j, beta^v>
    vanish together.
    """
    a_cols = tuple(zip(*a))
    s = len(a)
    simple = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    coroot_of = dict(zip(simple, simple))
    frontier = simple
    while frontier:
        nxt = []
        for c in frontier:
            cv = coroot_of[c]
            for j in range(s):
                p = sum(map(mul, c, a_cols[j]))
                up = c[:j] + (c[j] - p,) + c[j + 1:]
                if p < 0 and up not in coroot_of:
                    q = sum(map(mul, cv, a[j]))
                    coroot_of[up] = cv[:j] + (cv[j] - q,) + cv[j + 1:]
                    nxt.append(up)
        frontier = nxt
    return coroot_of


def _check_finite_type(cartan, d):
    """Raise unless the Cartan matrix, with symmetrizer d, is of finite type.

    A generalized Cartan matrix is of finite type iff it is symmetrizable
    and its symmetrization (a_ij d_j) is positive definite (Kac,
    *Infinite-dimensional Lie algebras*, Ch. 4).  Definiteness is read off
    the leading principal minors (Sylvester's criterion), each an integer
    determinant, since d is integral.
    """
    m = [[a * x for a, x in zip(row, d)] for row in cartan]
    for k in range(1, len(m) + 1):
        if IntMatrix([row[:k] for row in m[:k]], cols=k).det() <= 0:
            raise RootDatumError(
                "symmetrized Cartan matrix is not positive definite; "
                "datum is not of finite type")


# -- standard groups ----------------------------------------------------------


def _a_rows(r):
    """The Cartan rows of A_r: 2 on the diagonal, -1 beside it."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)]
            for i in range(r)]


def _standard_single(token):
    """(roots, coroots, rank) of one label token."""
    m = re.fullmatch(r"(SL|PGL|GL)(\d+)", token)
    if m:
        kind, n = m.group(1), int(m.group(2))
        least = 1 if kind == "GL" else 2
        if n < least:
            raise ValueError(f"{kind}(n) needs n >= {least}")
        if kind == "GL":
            roots = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(n)]
                     for i in range(n - 1)]
            return roots, roots, n
        rows, unit = _a_rows(n - 1), _identity_rows(n - 1)
        return (rows, unit, n - 1) if kind == "SL" else (unit, rows, n - 1)
    if token == "Sp4":
        # on the weights of the standard representation
        return [[1, -1], [0, 2]], [[1, -1], [0, 1]], 2
    if token == "G2":
        # the short root first: <alpha_1, coroot_0> = -3
        return [[2, -1], [-3, 2]], _identity_rows(2), 2
    m = re.fullmatch(r"(?:torus|T)(\d+)", token)
    if m:
        return [], [], int(m.group(1))
    raise ValueError(f"unknown group label {token!r}")


def standard(name) -> RootDatum:
    """Standard root data: SL(n), PGL(n), GL(n), Sp4, G2, torus(r), and
    products of these joined by 'x' or '*'.  SL(n) and G2 are their Cartan
    rows over unit coroots, and PGL(n) is SL(n)'s flip; GL(n), Sp4 (on its
    standard representation's weights) and tori are explicit rows."""
    tokens = [t.strip() for t in re.split(r"[x*]", name)]
    if not any(tokens):
        raise ValueError("empty group label")
    if not all(tokens):
        raise ValueError(f"empty factor in group label {name!r}")
    blocks = [_standard_single(t) for t in tokens]
    total = sum(b[2] for b in blocks)
    roots, coroots, offset = [], [], 0
    for broots, bcoroots, brank in blocks:
        pad = [0] * (total - offset - brank)
        roots += [[0] * offset + list(row) + pad for row in broots]
        coroots += [[0] * offset + list(row) + pad for row in bcoroots]
        offset += brank
    return RootDatum(IntMatrix(roots, cols=total), IntMatrix(coroots, cols=total),
                     rank=total, name=name)
