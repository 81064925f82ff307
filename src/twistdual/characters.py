"""Character-level oracle for dual groups.

Weight multiplicities by Freudenthal's recursion, run in integers: doubled
vectors 2 mu + 2 rho against the integer Gram of the coroots, and each
weight's root coordinates below the highest weight carried from layer to
layer so that root strings end without a dominance test (cross-checked
against a Weyl alternating-sum brute force in small rank).  Tensor
decomposition by the Brauer-Klimyk rule, which needs the weights of one
factor and only the highest weight of the other, and the numeric
predictions for convolution: highest-weight multiplicity one, the
dominance bound, and fiber-dimension arithmetic.

The weight-side work runs on Dynkin labels <v, coroot_i>.  Brauer-Klimyk
walks each weight to the dominant chamber with `RootDatum`'s one chamber
walk, which keeps the labels current through a Cartan row per reflection;
`weyl_dim` tests dominance on the labels and takes Weyl's product over the
positive coroots' coordinates, which depend on the Cartan matrix alone, so
each constituent's dimension comes from the labels its walk ended with.

`irreducible_character` keeps a small least-recently-used memo of
validated characters on each `RootDatum`, keyed by highest weight, so a
sweep of predictions over one twisted dual runs Freudenthal once per
character.  A failure is never kept, the dominance check runs on every
call, and the memo is dropped with its datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .dualgroup import TwistedDual, twisted_dual
from .lattice import _int_row, outer_sum
from .qform import QForm, braiding_signs
from .rootdata import RootDatum, dot, vec_add, vec_sub


class CharacterError(ValueError):
    pass


# characters kept per datum by `irreducible_character`
_CHARACTERS_KEPT = 64


@dataclass(frozen=True)
class Character:
    """Finite W-invariant weight multiplicity mapping with a highest weight."""

    rd: RootDatum
    multiplicities: tuple  # sorted ((weight, mult), ...)
    highest: tuple | None

    @classmethod
    def build(cls, rd, mults, highest=None):
        items = tuple(sorted((tuple(w), int(m)) for w, m in mults.items() if m))
        char = cls(rd, items, tuple(highest) if highest is not None else None)
        char._check_invariants()
        return char

    def _check_invariants(self):
        mults = dict(self.multiplicities)
        for i in range(self.rd.num_simple):
            for w, m in self.multiplicities:
                if mults.get(self.rd.reflect_weight(i, w), 0) != m:
                    raise CharacterError(
                        f"support is not Weyl-invariant at {w} (reflection {i})")
        if self.highest is not None:
            for w, _ in self.multiplicities:
                if not self.rd.weight_leq(w, self.highest):
                    raise CharacterError(
                        f"weight {w} is not below the highest weight {self.highest}")

    def as_dict(self):
        return dict(self.multiplicities)

    def dim(self):
        return sum(m for _, m in self.multiplicities)

    def table(self):
        """Sorted 'weight: multiplicity' lines for golden-file output."""
        return "\n".join(f"{','.join(str(x) for x in w)}: {m}"
                         for w, m in self.multiplicities)


def irreducible_character(rd: RootDatum, highest, crosscheck=None) -> Character:
    """Weight multiplicities of the irreducible with the given highest
    weight, by Freudenthal's recursion in integers.

    For data with at most two simple roots the result is checked against
    the Weyl alternating-sum brute force (pass crosscheck=False to skip).

    Each datum keeps its last few validated characters by highest weight,
    so a repeated call returns the same object without running Freudenthal
    again.  The dominance check runs on every call, and a kept character
    that was built without the crosscheck gets it when a later call asks.
    The memo belongs to `rd` alone: an equal datum builds its own.
    """
    highest = _int_row(highest)
    if not rd.is_dominant_weight(highest):
        raise CharacterError(f"{highest} is not dominant")
    if crosscheck is None:
        crosscheck = rd.num_simple <= 2
    memo = rd._characters
    # taken out while it is checked, so that a failure is never kept
    char, checked = memo.pop(highest, (None, False))
    if char is None:
        char = _freudenthal(rd, highest)
    if crosscheck and not checked:
        for w, m in char.multiplicities:
            bm = weyl_multiplicity(rd, highest, w)
            if bm != m:
                raise CharacterError(
                    f"Freudenthal ({m}) and Weyl sum ({bm}) disagree at {w}")
        checked = True
    if len(memo) >= _CHARACTERS_KEPT:
        del memo[next(iter(memo))]    # least recently used
    memo[highest] = (char, checked)
    return char


def _freudenthal(rd: RootDatum, highest) -> Character:
    """The checked character of the irreducible with the dominant highest
    weight `highest`, built afresh."""
    # W-invariant inner product on the weight side, the sum over coroots of
    # the squared pairing: positive definite on the root span, which is all
    # Freudenthal needs; the normalization drops out of the recursion.
    g = outer_sum((cobeta for _, cobeta in rd.root_pairs), rd.rank)
    # per positive root: beta, its root coordinates, g beta and |beta|^2
    roots = []
    for beta, _, coords in rd.positive_root_table:
        g_beta = g.mul_vec(beta)
        roots.append((beta, coords, g_beta, dot(beta, g_beta)))
    simple = [rd.simple_roots.row(i) for i in range(rd.num_simple)]
    two_rho = rd.two_rho

    def norm(mu):
        # |2 mu + 2 rho|^2 in g
        v = tuple(2 * m + r for m, r in zip(mu, two_rho))
        return dot(v, g.mul_vec(v))

    norm_top = norm(highest)
    # (|lam + rho|^2 - |mu + rho|^2) m(mu)
    #     = 2 sum_{beta > 0, k >= 1} m(mu + k beta) (mu + k beta, beta),
    # times 4 on both sides to stay in integers.  A weight's depth is the
    # root coordinates of highest - mu, so mu + k beta lies below the
    # highest weight while depth - k * coordinates(beta) stays >= 0.
    mults = {highest: 1}
    layer = {highest: (0,) * rd.num_simple}
    while layer:
        candidates = {}
        for mu, depth in layer.items():
            for i, alpha in enumerate(simple):
                candidates[vec_sub(mu, alpha)] = depth[:i] + (depth[i] + 1,) + depth[i + 1:]
        next_layer = {}
        for mu, depth in candidates.items():
            rhs = 0
            for beta, coords, g_beta, beta_sq in roots:
                steps = min(d // c for d, c in zip(depth, coords) if c)
                mu_beta = dot(mu, g_beta)
                for k in range(1, steps + 1):
                    m_up = mults.get(tuple(m + k * b for m, b in zip(mu, beta)))
                    if m_up:
                        rhs += m_up * (mu_beta + k * beta_sq)
            if rhs == 0:
                continue
            denom = norm_top - norm(mu)
            if denom == 0:
                raise CharacterError(f"vanishing Freudenthal denominator at {mu}")
            m, r = divmod(8 * rhs, denom)
            if r:
                raise CharacterError(
                    f"non-integral multiplicity {Fraction(8 * rhs, denom)} at {mu}")
            if m < 0:
                raise CharacterError(f"negative multiplicity {m} at {mu}")
            if m:
                mults[mu] = m
                next_layer[mu] = depth
        layer = next_layer

    return Character.build(rd, mults, highest=highest)


def kostant_partition(rd: RootDatum, v) -> int:
    """Number of ways to write v as a nonnegative integer sum of positive
    roots (the independent counting oracle behind the Weyl sum)."""
    target = rd.root_coordinates(v)
    if target is None or any(c < 0 for c in target):
        return 0
    return rd._partition_count(target)


def weyl_multiplicity(rd: RootDatum, highest, weight) -> int:
    """Multiplicity by the Weyl character formula's alternating sum over
    the Weyl group of Kostant partition counts."""
    highest = _int_row(highest)
    weight = _int_row(weight)
    two_rho = rd.two_rho
    two_lam_rho = tuple(2 * x + r for x, r in zip(highest, two_rho))
    total = 0
    for w in rd.weyl_group().elements:
        # 2 (w(lam + rho) - rho - weight); w acts on weights by its transpose
        arg = tuple(sum(w.data[b][a] * two_lam_rho[b] for b in range(rd.rank))
                    - two_rho[a] - 2 * weight[a] for a in range(rd.rank))
        if any(x % 2 for x in arg):
            continue
        count = kostant_partition(rd, tuple(x // 2 for x in arg))
        if count:
            total += w.det() * count
    return total


def weyl_dim(rd: RootDatum, highest) -> int:
    """Weyl dimension formula, exact."""
    return _dimension(rd, _doubled_labels(rd, _int_row(highest)))


def _doubled_labels(rd, highest):
    """The labels <2 (highest + rho), coroot_i> = 2 l_i + 2 of a dominant
    weight; CharacterError when a label l_i is negative."""
    labels = rd.simple_coroots.mul_vec(highest)
    if any(x < 0 for x in labels):
        raise CharacterError(f"{highest} is not dominant")
    return tuple(2 * x + 2 for x in labels)


def _dimension(rd, doubled):
    """Weyl's product prod <lam + rho, beta^v> / prod <rho, beta^v>, both
    doubled, from the labels <2 (lam + rho), coroot_i> of a dominant lam:
    <2 (lam + rho), beta^v> is sum_i c'_i times label i for the coroot
    coordinates c' of beta^v."""
    coords, den = rd._dimension_data
    num = 1
    for cv in coords:
        num *= sum(map(mul, cv, doubled))
    out, rem = divmod(num, den)
    if rem:
        raise CharacterError(f"Weyl dimension {num}/{den} is not an integer")
    return out


def tensor_decompose(c: Character, highest):
    """Constituents of c tensor V(highest), as a dict highest weight ->
    multiplicity, by the Brauer-Klimyk rule (Klimyk 1968; Humphreys,
    *Introduction to Lie Algebras*, 24 ex. 9): each weight w of c adds its
    multiplicity, with the sign of the Weyl element, at the weight whose
    shift by rho is the dominant conjugate of w + highest + rho, and
    nothing when that conjugate lies on a wall.

    The walk runs in doubled coordinates 2 (w + highest) + 2 rho, since
    rho need not be a weight (PGL2), so the conjugate's labels are those
    that `_dimension` reads.  Only the weights of c are needed: the other
    factor enters through its highest weight alone.
    """
    rd = c.rd
    highest = _int_row(highest)
    top = _doubled_labels(rd, highest)
    two_rho = rd.two_rho
    shift = tuple(2 * h + r for h, r in zip(highest, two_rho))
    out = {}
    doubled = {}    # constituent -> its labels <2 (nu + rho), coroot_i>
    for w, m in c.multiplicities:
        v, sign, labels = rd._weight_chamber(tuple(2 * x + s for x, s in zip(w, shift)))
        if 0 in labels:
            continue   # fixed by a reflection: the alternating sum cancels
        nu = tuple((x - r) // 2 for x, r in zip(v, two_rho))
        out[nu] = out.get(nu, 0) + sign * m
        doubled[nu] = labels
    out = {nu: m for nu, m in out.items() if m}
    for nu, m in out.items():
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {nu}")
    # the constituents must account for the whole product
    if (sum(m * _dimension(rd, doubled[nu]) for nu, m in out.items())
            != c.dim() * _dimension(rd, top)):
        raise CharacterError("constituent dimensions do not add up to the product")
    return out


def fiber_dim(rd: RootDatum, lam, mu, nu) -> Fraction:
    """Half of <2 rho, lam> + <2 rho, mu> - <2 rho, nu>: the dimension
    bound for convolution fibers over the nu-orbit."""
    lam, mu, nu = map(_int_row, (lam, mu, nu))
    return Fraction(dot(rd.two_rho, lam) + dot(rd.two_rho, mu)
                    - dot(rd.two_rho, nu), 2)


@dataclass(frozen=True)
class SatakeReport:
    """Numeric predictions for one convolution of twisted-dual simples."""

    dual: TwistedDual
    lam: tuple
    mu: tuple
    decomposition: tuple     # ((source coweight, multiplicity), ...) sorted
    highest_multiplicity: int
    all_below_highest: bool
    fiber_dims: tuple        # ((source coweight, Fraction), ...) aligned
    geometric_sign: int
    twisted_factor: object   # Exponent
    ok: bool = field(default=False)


def satake_prediction(q: QForm, lam, mu) -> SatakeReport:
    """Decompose the product of the twisted-dual simples indexed by two
    dominant coweights in the dual weight lattice and check the
    convolution predictions."""
    rd = q.rd
    lam = _int_row(lam)
    mu = _int_row(mu)
    dual = twisted_dual(rd, q, "full")
    coeffs = []
    for v in (lam, mu):
        # one solve decides membership and gives the coefficients
        v_c = dual.weight_sublattice.coefficients(v)
        if v_c is None:
            raise CharacterError(
                f"{v} is outside the dual weight lattice")
        if not rd.is_dominant_coweight(v):
            raise CharacterError(f"{v} is not dominant")
        coeffs.append(v_c)
    lam_c, mu_c = coeffs
    # the weights of the smaller factor, the highest weight of the other
    small, large = sorted(coeffs, key=lambda v: weyl_dim(dual.datum, v))
    pieces = tensor_decompose(
        irreducible_character(dual.datum, small, crosscheck=False), large)
    top_c = vec_add(lam_c, mu_c)
    top_mult = pieces.get(tuple(top_c), 0)
    all_below = all(dual.datum.weight_leq(nu_c, top_c) for nu_c in pieces)
    two_rho = rd.two_rho
    # twice the fiber dimension over nu is this less <2 rho, nu>
    top_height = dot(two_rho, lam) + dot(two_rho, mu)
    decomposition = []
    fibers = []
    for nu_c, m in sorted(pieces.items()):
        nu = dual.weight_sublattice.member_from_coefficients(nu_c)
        decomposition.append((nu, m))
        fibers.append((nu, Fraction(top_height - dot(two_rho, nu), 2)))
    sign, factor = braiding_signs(q, lam, mu)
    ok = top_mult == 1 and all_below and all(
        f.denominator == 1 and f >= 0 for _, f in fibers)
    return SatakeReport(
        dual=dual,
        lam=lam,
        mu=mu,
        decomposition=tuple(decomposition),
        highest_multiplicity=top_mult,
        all_below_highest=all_below,
        fiber_dims=tuple(fibers),
        geometric_sign=sign,
        twisted_factor=factor,
        ok=ok,
    )
