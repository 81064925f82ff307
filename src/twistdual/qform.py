"""Invariant quadratic forms on coweight lattices with root-of-unity values.

Values live in the group Q/Z + Q*tau for a fixed formal irrational tau,
written additively as exponents: the element (a, b) denotes the number
e^{2 pi i (a + b tau)}.  A form is given by a pair of symmetric rational
Gram matrices (G0, G1) with the convention

    Q(lam)       = (1/2) lam^T (G0 + tau G1) lam
    kappa(lam,mu) =       lam^T (G0 + tau G1) mu

so kappa is automatically the bilinear form defined by Q.  It is stored
as integer Grams over one denominator, G0 = N0 / den and G1 = N1 / den
with den the least common denominator of both, so that invariance, the
values and the kernel are all computed on integers.  A value Q(lam) is
the Exponent (lam^T N0 lam + tau lam^T N1 lam) / 2den, reduced as it is
built; Killing and Cartan forms are made from integer Grams over their
denominator.  A zero Gram is invariant, so only a nonzero one is checked.
The Gram parse checks the given data (its shape, symmetry and that no
entry is a bool); the integer Grams made from it, or by the library's own
arithmetic, are stored through `lattice._computed_matrix` without a
second entry check, and an absent Gram is the zero matrix that
`IntMatrix.zero` shares per size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    IntMatrix,
    Sublattice,
    _check_int,
    _computed_matrix,
    _int_row,
    integral_inverse,
    intersect,
    kernel_mod,
    outer_sum,
)
from .rootdata import RootDatum, dot


class ShapeError(ValueError):
    """Gram data has the wrong shape or fails symmetry."""


class InvarianceError(ValueError):
    """A form is not invariant under some simple reflection."""


@dataclass(frozen=True)
class Exponent:
    """Element of Q/Z + Q*tau, the exponent of e^{2 pi i (a + b tau)}."""

    rational: Fraction = Fraction(0)
    tau: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rational", Fraction(self.rational) % 1)
        object.__setattr__(self, "tau", Fraction(self.tau))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _from_ints(cls, a, b, m):
        """The exponent (a + b tau) / m for ints a, b and m >= 1, built
        reduced (rational part a % m over m) without `__post_init__`."""
        out = object.__new__(cls)
        out.__dict__.update(rational=Fraction(a % m, m), tau=Fraction(b, m))
        return out

    @classmethod
    def of(cls, rational, tau=0):
        return cls(Fraction(rational), Fraction(tau))

    def __add__(self, other):
        return Exponent(self.rational + other.rational, self.tau + other.tau)

    def __sub__(self, other):
        return Exponent(self.rational - other.rational, self.tau - other.tau)

    def __neg__(self):
        return Exponent(-self.rational, -self.tau)

    def scaled(self, k):
        k = Fraction(k)
        return Exponent(self.rational * k, self.tau * k)

    def is_zero(self):
        return self.rational == 0 and self.tau == 0

    def __str__(self):
        if self.tau == 0:
            return str(self.rational)
        if self.rational == 0:
            return f"{self.tau}*t"
        return f"{self.rational}+{self.tau}*t"


def _as_gram(rows, rank, what):
    """A symmetric rational Gram as integer numerators over their lcd; None
    and 1 for no Gram.  TypeError for a bool entry: a Gram holds numbers.
    An int or a Fraction is read by its numerator and denominator as it
    stands; only another numeric type goes through `Fraction(x)`."""
    if rows is None:
        return None, 1
    rows = [list(row) for row in rows]
    if any(type(x) is bool for row in rows for x in row):
        raise TypeError(f"{what} has a boolean entry, not a number")
    mat = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in rows]
    if len(mat) != rank or any(len(r) != rank for r in mat):
        raise ShapeError(f"{what} must be {rank}x{rank}")
    den = math.lcm(*(x.denominator for row in mat for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in mat]
    for i in range(rank):
        for j in range(i + 1, rank):
            if nums[i][j] != nums[j][i]:
                raise ShapeError(f"{what} is not symmetric at ({i},{j})")
    return nums, den


def decode_gram(rows):
    """A Gram given as [numerator, denominator] pairs of integers, as
    Fractions; TypeError on any other entry, booleans included."""
    try:
        if any(type(x) is bool for row in rows for pair in row for x in pair):
            raise TypeError("a boolean is not an integer")
        return [[Fraction(n, den) for n, den in row] for row in rows]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise TypeError(
            f"Gram entries must be [numerator, denominator] pairs: {exc}") from None


def _over(n, den):
    return tuple(tuple(Fraction(x, den) for x in row) for row in n.data)


class QForm:
    """A W-invariant quadratic form: integer Grams n0, n1 over one positive
    denominator den, so that G0 = n0 / den and G1 = n1 / den, in lowest
    terms (den and the entries of n0 and n1 have no common factor)."""

    # read-only views: G0 and G1 as rows of Fractions
    g0 = property(lambda self: _over(self.n0, self.den))
    g1 = property(lambda self: _over(self.n1, self.den))

    def __init__(self, rd: RootDatum, gram_rational=None, gram_transcendental=None):
        n0, d0 = _as_gram(gram_rational, rd.rank, "gram_rational")
        n1, d1 = _as_gram(gram_transcendental, rd.rank, "gram_transcendental")
        # each Gram is over its own lcd, so over their lcm the data are in lowest terms
        den = math.lcm(d0, d1)
        n0, n1 = (n if n is None or d == den else [[x * (den // d) for x in row] for row in n]
                  for n, d in ((n0, d0), (n1, d1)))
        self._set(rd, n0, n1, den)

    @classmethod
    def _integral(cls, rd, n0, n1, den):
        """The form with Grams n0 / den and n1 / den, for rows of ints (None
        for a zero Gram) and an int den >= 1, built without a Fraction:
        reduced to lowest terms and checked for invariance as `__init__`
        checks."""
        g = math.gcd(den, *(x for n in (n0, n1) if n is not None for row in n for x in row))
        if g > 1:
            n0, n1 = (n if n is None else [[x // g for x in row] for row in n] for n in (n0, n1))
            den //= g
        out = object.__new__(cls)
        out._set(rd, n0, n1, den)
        return out

    def _set(self, rd, n0, n1, den):
        """Store integer Grams n0, n1 over den, given in lowest terms as rows
        of ints (None for a zero Gram, which is shared per size), and check
        that each nonzero one is invariant under every simple reflection (a
        zero Gram is invariant, so its check decides nothing)."""
        self.rd, self.den = rd, den
        self.n0, self.n1 = (IntMatrix.zero(rd.rank, rd.rank) if n is None
                            else _computed_matrix(n, rd.rank) for n in (n0, n1))
        self._duals = {}   # mode -> TwistedDual over rd, kept by dualgroup.twisted_dual
        self._nonzero = tuple(any(map(any, n.data)) for n in (self.n0, self.n1))
        grams = [(n, label) for n, label, nonzero in zip(
            (self.n0, self.n1), ("rational", "transcendental"), self._nonzero) if nonzero]
        for i, (alpha, cov) in enumerate(zip(rd.simple_roots.data, rd.simple_coroots.data)):
            for n, label in grams:
                if not _reflection_invariant(n, alpha, cov):
                    raise InvarianceError(
                        f"{label} Gram is not invariant under simple reflection {i}")

    def _numerators(self, lam, mu):
        """lam^T n0 mu and lam^T n1 mu: kappa(lam, mu) times den, in integers.
        The n0 product always runs, as it checks both vectors' lengths; a
        zero n1 gives 0 without one."""
        return (dot(lam, self.n0.mul_vec(mu)),
                dot(lam, self.n1.mul_vec(mu)) if self._nonzero[1] else 0)

    def q(self, lam):
        """Q(lam) as an Exponent."""
        return Exponent._from_ints(*self._numerators(lam, lam), 2 * self.den)

    def kappa(self, lam, mu):
        """kappa(lam, mu) as an Exponent."""
        return Exponent._from_ints(*self._numerators(lam, mu), self.den)

    def to_dict(self):
        enc = lambda g: [[[x.numerator, x.denominator] for x in row] for row in g]
        return {"gram_rational": enc(self.g0), "gram_transcendental": enc(self.g1)}

    @classmethod
    def from_dict(cls, rd, d):
        """Inverse of `to_dict`; TypeError when a Gram entry is not a
        [numerator, denominator] pair of integers."""
        grams = (d["gram_rational"], d["gram_transcendental"])
        return cls(rd, *map(decode_gram, grams))

    def __eq__(self, other):
        return (isinstance(other, QForm) and self.rd == other.rd
                and (self.n0, self.n1, self.den) == (other.n0, other.n1, other.den))

    def __repr__(self):
        return f"QForm({self.rd!r}, g0={self.g0}, g1={self.g1})"


def _reflection_invariant(n, alpha, cov):
    """Whether s^T n s = n for the reflection s = 1 - cov alpha^T.

    Expanding, s^T n s = n - alpha u^T - u alpha^T + q alpha alpha^T with
    u = n cov and q = cov^T n cov; applying the difference to cov, where
    <alpha, cov> = 2, shows it vanishes iff 2 u = q alpha.
    """
    u = n.mul_vec(cov)
    q = dot(cov, u)
    return all(2 * x == q * a for x, a in zip(u, alpha))


def qform_from_gram(rd, gram_rational=None, gram_transcendental=None) -> QForm:
    return QForm(rd, gram_rational, gram_transcendental)


def trivial_qform(rd) -> QForm:
    return QForm(rd)


def _check_mode(mode):
    """Raise a ValueError unless `mode` is a kernel mode of `kernel`."""
    if mode not in ("full", "coroot"):
        raise ValueError(f"unknown kernel mode {mode!r}")


def kernel(q: QForm, mode="full") -> Sublattice:
    """Kernel of kappa: coweights pairing trivially with the whole lattice
    ("full") or with every coroot ("coroot")."""
    _check_mode(mode)
    if mode == "full":
        m0, m1 = q.n0, q.n1
    else:
        m0, m1 = q.rd.simple_coroots @ q.n0, q.rd.simple_coroots @ q.n1
    return intersect(kernel_mod(m0, q.den), kernel_mod(m1, None))


# -- determinant forms --------------------------------------------------------


@dataclass(frozen=True)
class DetForm:
    """Pairing data of the determinant bundle of a weight multiset."""

    k_matrix: IntMatrix
    is_sf: bool
    zeta: tuple  # half of the weight sum, as Fractions

    def k(self, mu, nu):
        return dot(self.k_matrix.mul_vec(mu), nu)

    def r(self, mu):
        """R(mu) = (1/2) sum <lam, mu>^2; a half-integer in general."""
        return Fraction(self.k(mu, mu), 2)

    def zeta_is_integral(self):
        return all(z.denominator == 1 for z in self.zeta)


def det_form(rd: RootDatum, weights) -> DetForm:
    """The pairing K, evaluator R, parity criterion, and half-weight zeta
    attached to a multiset of weight vectors."""
    weights = [_int_row(w) for w in weights]
    for i in range(rd.num_simple):
        reflected = sorted(rd.reflect_weight(i, w) for w in weights)
        if reflected != sorted(weights):
            warnings.warn(
                f"weight multiset is not closed under simple reflection {i}",
                stacklevel=2)
            break
    k = outer_sum(weights, rd.rank)
    is_sf = all(x % 2 == 0 for row in k.data for x in row)
    zeta = tuple(Fraction(sum(w[j] for w in weights), 2) for j in range(rd.rank))
    return DetForm(k, is_sf, zeta)


def killing_matrix(rd: RootDatum, component_index) -> IntMatrix:
    """Gram of the component's Killing-type form: sum of beta beta^T over
    the roots beta of one irreducible component; ValueError unless the
    index is an int, not a bool, in range(len(rd.components))."""
    n = len(rd.components)
    if type(component_index) is not int or not 0 <= component_index < n:
        raise ValueError(f"component index {component_index!r} is not in range({n})")
    return rd.killing[component_index][0]


def killing_qform(rd: RootDatum, component_index, a: Exponent) -> QForm:
    """The form Q(lam) = a^{Q_i(lam)} with Q_i(lam) = (1/2) sum <beta,lam>^2
    over one irreducible component's roots."""
    k = killing_matrix(rd, component_index)
    den = math.lcm(a.rational.denominator, a.tau.denominator)
    scales = (c.numerator * (den // c.denominator) for c in (a.rational, a.tau))
    return QForm._integral(rd, *([[c * x for x in row] for row in k.data] for c in scales), den)


# -- defect, half-forms, braiding ---------------------------------------------


def epsilon_defect(q: QForm, coroot, lam) -> Exponent:
    """kappa(coroot, lam) - <alpha, lam> Q(coroot), the reflection defect.

    Always 2-torsion for a W-invariant form; identically zero for forms
    represented by Gram matrices.
    """
    coroot = _int_row(coroot)
    pairs = dict((cb, b) for b, cb in q.rd.root_pairs)
    if coroot not in pairs:
        raise ValueError(f"{coroot} is not a coroot of this datum")
    alpha = pairs[coroot]
    return q.kappa(coroot, lam) - q.q(coroot).scaled(dot(alpha, lam))


def half_forms_qform(rd: RootDatum) -> QForm:
    """The parity form Q(lam) = (-1)^{<2 rho, lam>}, realized by half the
    adjoint Killing Gram, the sum of the components' K over 2; its bilinear
    form is trivial.  Each entry of K sums beta_a beta_b over beta and
    -beta, which add the same term, so K is even and K / 2 is an integer
    Gram: kappa is integral, and `QForm._integral` reduces den to 1."""
    n = [[sum(k.data[a][b] for k, _ in rd.killing) for b in range(rd.rank)]
         for a in range(rd.rank)]
    return QForm._integral(rd, n, None, 2)


def braiding_signs(q: QForm, lam, mu):
    """Geometric commutativity sign and the twisted correction factor
    Q(lam) + Q(mu), built as one Exponent over 2 den."""
    two_rho = q.rd.two_rho
    lam, mu = _int_row(lam), _int_row(mu)
    return _braiding(q.den, dot(two_rho, lam), dot(two_rho, mu),
                     q._numerators(lam, lam), q._numerators(mu, mu))


def _braiding(den, lam_height, mu_height, lam_q, mu_q):
    """`braiding_signs` from <2 rho, v> and Q's numerators (a, b) on v, for
    v = lam and v = mu: the sign is -1 iff both heights are odd, and the
    factor is (a_lam + a_mu + (b_lam + b_mu) tau) / 2 den."""
    sign = -1 if (lam_height * mu_height) % 2 else 1
    return sign, Exponent._from_ints(lam_q[0] + mu_q[0], lam_q[1] + mu_q[1], 2 * den)


# -- Cartan data ----------------------------------------------------------------


@dataclass(frozen=True)
class CartanDatum:
    """A base together with a positive integer symmetrizer f on the simple
    coroots (the lattice the attached form Q = q^f lives on); the symmetric
    pairing is i.j = f(i) <alpha_i, coroot_j>, so 2(i.j)/(j.j) is the
    Cartan integer <alpha_j, coroot_i>.

    f_i a_ij = f_j a_ji holds exactly when f_i d_i is constant on each
    component, for the datum's symmetrizer d, because (a_ij d_j) is
    symmetric."""

    rd: RootDatum
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "f", _int_row(self.f))
        if len(self.f) != self.rd.num_simple:
            raise ValueError("need one f value per simple root")
        if any(x <= 0 for x in self.f):
            raise ValueError("f must be positive")
        d = self.rd.symmetrizer
        for comp in self.rd.components:
            if len({self.f[i] * d[i] for i in comp}) > 1:
                raise ValueError(
                    f"f does not symmetrize the Cartan matrix on simples {comp}")

    def pairing(self, i, j):
        """i.j = f(i) <alpha_i, coroot_j>; diagonal is 2 f(i)."""
        return self.f[i] * self.rd.cartan_matrix[i][j]

    @classmethod
    def standard(cls, rd: RootDatum, scale=1):
        """The least positive symmetrizer of each component, times an
        overall integer scale.

        f_i c_ij = f_j c_ji makes f proportional to 1/d on each component,
        for d the datum's integer symmetrizer, so the least such f is
        f_i = lcm(d over i's component) / d_i, whatever the order of the
        simple roots and whatever the other components."""
        d = rd.symmetrizer
        f = [0] * rd.num_simple
        for comp in rd.components:
            top = math.lcm(*(d[i] for i in comp))
            for i in comp:
                f[i] = top // d[i] * scale
        return cls(rd, tuple(f))

    def _bilinear_numerators(self):
        """(B den^2, den^2) for the rational Gram B on coweights with
        coroot_i^T B coroot_j = i.j, as an integer matrix over a positive
        integer; needs the coroots to span, i.e. a semisimple datum.

        For C the matrix of coroot rows, B = C^-1 T C^-T with T the pairing
        matrix; the elimination gives den C^-1 as an integer matrix, so B
        den^2 is one integer product."""
        rd = self.rd
        if rd.num_simple != rd.rank:
            raise ValueError("Cartan-datum Gram needs a semisimple root datum")
        n = rd.rank
        m, den = integral_inverse(rd.simple_coroots.data)
        m = _computed_matrix(m, n)  # den C^-1
        t = _computed_matrix([[self.pairing(i, j) for j in range(n)] for i in range(n)], n)
        return m @ t @ m.transpose(), den * den


def cartan_qform(cd: CartanDatum, order) -> QForm:
    """The form q^f for q a primitive `order`-th root of unity: the Gram of
    f divided by the order, B den^2 over den^2 order from
    `CartanDatum._bilinear_numerators`, reduced and checked for invariance
    by `QForm._integral` with no Fraction built."""
    _check_int(order, "the order")
    n0, den = cd._bilinear_numerators()
    return QForm._integral(cd.rd, n0.data, None, den * order)


# -- standard Gram helpers -----------------------------------------------------


def normalized_killing_gram(rd: RootDatum):
    """W-invariant rational Gram, the sum of K / 2h over the `rd.killing`
    records (K, h), so that each component's short coroots have squared
    length 2: Finkelberg-Lysenko's iota on an irreducible datum."""
    grams = [(Fraction(1, 2 * h), k.data) for k, h in rd.killing]
    return tuple(tuple(sum((s * g[a][b] for s, g in grams), Fraction(0))
                       for b in range(rd.rank)) for a in range(rd.rank))


def invariant_gram_basis(rd: RootDatum):
    """Basis of the space of W-invariant symmetric rational Grams on the
    coweight lattice, as integer symmetric matrices.

    g is s_i-invariant iff 2 g cov = (cov^T g cov) alpha for the simple
    pair (alpha, cov) (`_reflection_invariant`): n linear equations in the
    entries g_ij, i <= j, per simple root."""
    n = rd.rank
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = []
    for alpha, cov in zip(rd.simple_roots.data, rd.simple_coroots.data):
        # cov^T g cov, the off-diagonal entries counted twice
        quad = [cov[i] * cov[j] * (1 if i == j else 2) for i, j in pairs]
        for a in range(n):
            # 2 (g cov)_a = 2 sum_b g_ab cov_b
            rows.append([2 * ((cov[j] if i == a else 0) + (cov[i] if j == a != i else 0))
                         - alpha[a] * x for (i, j), x in zip(pairs, quad)])
    if not rows:
        rows = [[0] * len(pairs)]
    basis = kernel_mod(_computed_matrix(rows, len(pairs)), None)
    out = []
    for vec in basis.basis.data:
        g = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, vec):
            g[i][j] = g[j][i] = x
        out.append(tuple(tuple(Fraction(x) for x in row) for row in g))
    return out


def minimal_even_gram(rd: RootDatum):
    """Smallest positive integer multiple of the normalized Killing Gram
    that is integral with even diagonal (so (1/2) lam^T G lam is an
    integer-valued form)."""
    g = normalized_killing_gram(rd)
    m = math.lcm(*(x.denominator for row in g for x in row),
                 *((g[a][a] / 2).denominator for a in range(rd.rank)))
    return tuple(tuple(x * m for x in row) for row in g), m
