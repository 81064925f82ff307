"""Character-level oracle for dual groups.

The multiplicities of an irreducible depend on the Cartan matrix and the
highest weight's Dynkin labels l_i = <lam, coroot_i> alone, so they are
kept as one table of depths c (the weight lam - sum_i c_i alpha_i) per
(Cartan matrix, labels), in a bounded LRU cache beside
`rootdata._cartan_system`; a failure is never cached.  A table comes from
Demazure's character formula, a product of operators D_i over a reduced
word of w0 applied to e^lam, in integers.  It is checked for positive
multiplicities, multiplicity 1 at the top, a total equal to Weyl's
dimension and closure under the simple reflections, and with at most two
simple roots against the Weyl alternating sum of Kostant partition counts
over the orbit of the labels of lam + rho.  The tests compare the tables
with Freudenthal's recursion, kept as their reference in
`tests/character_oracle.py`.  A `Character` keeps the labels its table
was read under, computed once by `irreducible_character`, and reads its
weights off its datum's simple roots only when they are asked for.  The
constituents of V(a) tensor V(b), as depths below the top weight, are a
table per (Cartan matrix, unordered pair of labels) in a second LRU
cache, built by the Brauer-Klimyk rule over the smaller factor and
checked once; also the numeric predictions for convolution:
highest-weight multiplicity one, the dominance bound, and
fiber-dimension arithmetic, read off that table's depths in the source's
coweights, as a depth d is the constituent lam + mu - sum_i d_i r_i
coroot_i over the coroots the dual keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import mul, sub

from .dualgroup import TwistedDual, twisted_dual
from .qform import QForm, braiding_signs
from .rootdata import RootDatum, _cartan_system, _chamber_walk, dot, vec_add


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class Character:
    """The irreducible character of `rd` with a dominant highest weight, as
    its table of depths: ((c, multiplicity), ...), c the coordinates of
    highest - weight in the simple roots, and the highest weight's Dynkin
    labels, which the table is a function of."""

    rd: RootDatum
    highest: tuple
    depths: tuple
    labels: tuple = field(compare=False)

    @cached_property
    def multiplicities(self):
        """Sorted ((weight, multiplicity), ...)."""
        return tuple(sorted((_lower(self.rd, self.highest, c), m) for c, m in self.depths))

    def table(self):
        """Sorted 'weight: multiplicity' lines for golden-file output."""
        return "\n".join(f"{','.join(str(x) for x in w)}: {m}"
                         for w, m in self.multiplicities)


def _lower(rd, top, depth):
    """top - sum_i depth_i alpha_i."""
    for c, row in zip(depth, rd.simple_roots.data):
        if c:
            top = tuple(x - c * a for x, a in zip(top, row))
    return top


def _labels(rd, highest):
    """The Dynkin labels <highest, coroot_i>; CharacterError unless they
    are all >= 0."""
    labels = rd.simple_coroots.mul_vec(highest)
    if min(labels, default=0) < 0:
        raise CharacterError(f"{highest} is not dominant")
    return labels


def irreducible_character(rd: RootDatum, highest) -> Character:
    """Weight multiplicities of the irreducible with the given highest
    weight, from the checked table of its Cartan matrix and labels.  The
    dominance check runs on every call."""
    highest = rd._vector(highest)
    labels = _labels(rd, highest)
    return Character(rd, highest, _character_table(rd.cartan_matrix, labels), labels)


@lru_cache(maxsize=128)
def _character_table(cartan, labels):
    """((depth, multiplicity), ...) of the irreducible with the dominant
    labels `labels`, from Demazure's product.  Checked at every rank: each
    multiplicity is positive, they are invariant under the simple
    reflections, the highest weight's is 1 and they add up to Weyl's
    dimension; with at most two simple roots each is also checked against
    the Weyl sum."""
    mults = _demazure_multiplicities(cartan, labels)
    cols = tuple(zip(*cartan))
    for c, m in mults.items():
        if m <= 0:
            raise CharacterError(f"non-positive multiplicity {m} at depth {c}")
        for i, col in enumerate(cols):
            # s_i moves the weight by <mu, coroot_i> alpha_i
            li = labels[i] - sum(map(mul, c, col))
            if li and mults.get(c[:i] + (c[i] + li,) + c[i + 1:]) != m:
                raise CharacterError(
                    f"multiplicities are not Weyl-invariant at depth {c} (reflection {i})")
    if mults.get((0,) * len(cartan)) != 1:
        raise CharacterError("the highest weight does not have multiplicity 1")
    total = sum(mults.values())
    dim = _dimension(_cartan_system(cartan), [x + 1 for x in labels])
    if total != dim:
        raise CharacterError(f"multiplicities add up to {total}, not Weyl's dimension {dim}")
    if len(cartan) <= 2:
        orbit = _weyl_orbit(cartan, tuple(x + 1 for x in labels))
        count = _kostant_count(cartan)
        for c, m in mults.items():
            bm = _weyl_sum(count, orbit, c)
            if bm != m:
                raise CharacterError(
                    f"Demazure ({m}) and Weyl sum ({bm}) disagree at depth {c}")
    return tuple(mults.items())


def _demazure_multiplicities(cartan, labels):
    """Demazure's character formula on depths: ch V(lam) is the product of
    the operators D_i over a reduced word of w0 applied to e^lam (Demazure,
    Ann. Sci. ENS 1974; Kumar, Kac-Moody Groups, 2002, 8.2).  The word is
    read off the walk from rho to -rho in Dynkin labels, which reflects at
    a positive label until none is left.  With k = <mu, coroot_i>, D_i
    sends e^mu to e^mu + e^(mu - alpha_i) + ... + e^(s_i mu) when k >= 0,
    to 0 when k = -1, and to -(e^(mu + alpha_i) + ... + e^(s_i mu - alpha_i))
    when k <= -2; alpha_i adds e_i to a depth."""
    s = len(cartan)
    word, walk = [], [1] * s
    while (top := max(walk, default=0)) > 0:
        word.append(walk.index(top))
        walk = [x - top * a for x, a in zip(walk, cartan[word[-1]])]
    cols = tuple(zip(*cartan))
    mults = {(0,) * s: 1}
    for i in word:
        out = {}
        for c, m in mults.items():
            k = labels[i] - sum(map(mul, c, cols[i]))
            head, ci, tail = c[:i], c[i], c[i + 1:]
            if k >= 0:
                steps = range(ci, ci + k + 1)
            else:
                steps, m = range(ci + k + 1, ci), -m
            for j in steps:
                d = head + (j,) + tail
                out[d] = out.get(d, 0) + m
        mults = {c: m for c, m in out.items() if m}
    return mults


def _weyl_orbit(cartan, shifted):
    """(det w, t) for each w in W, t the root coordinates of v - w v for the
    v with labels `shifted`; empty when v is on a wall, where the sum over W
    cancels.  s_j subtracts l_j alpha_j and l_j times Cartan row j from the
    labels; off the walls w v determines w, so a path's parity is w's."""
    s = len(cartan)
    seen = {shifted: (1, (0,) * s)}
    frontier = [shifted]
    while frontier:
        nxt = []
        for labels in frontier:
            sign, t = seen[labels]
            for j, lj in enumerate(labels):
                if lj == 0:
                    return ()
                up = tuple(x - lj * a for x, a in zip(labels, cartan[j]))
                if up not in seen:
                    seen[up] = (-sign, t[:j] + (t[j] + lj,) + t[j + 1:])
                    nxt.append(up)
        frontier = nxt
    return tuple(seen.values())


def _weyl_sum(count, orbit, depth):
    """The Weyl character formula's alternating sum at depth `depth` below
    lam: sum_w det(w) P(w (lam + rho) - (mu + rho)), the argument having
    root coordinates depth - t for each (det w, t) of `orbit`, P read from
    the Kostant counter `count`."""
    total = 0
    for sign, t in orbit:
        rest = tuple(map(sub, depth, t))
        if min(rest, default=0) >= 0:
            total += sign * count(rest, 0)
    return total


def _kostant_count(cartan):
    """Kostant's partition function: count(c, 0) ways to write root
    coordinates c >= 0 as a sum of positive roots, one memo per counter,
    which is freed with the counter: nothing in it refers back to it."""
    # Only the roots of height >= 2 are enumerated: what they leave, if
    # nonnegative, is a sum of simple roots in exactly one way.
    pos = sorted((c for c, _ in _cartan_system(cartan).positive if sum(c) > 1),
                 reverse=True)
    return partial(_count, pos, {})


def _count(pos, memo, remaining, idx):
    """Partitions of `remaining` into pos[idx:] and simple roots."""
    if idx == len(pos):
        return 1
    key = remaining, idx
    if key not in memo:
        total, cur = 0, remaining
        while min(cur) >= 0:
            total += _count(pos, memo, cur, idx + 1)
            cur = tuple(map(sub, cur, pos[idx]))
        memo[key] = total
    return memo[key]


def weyl_multiplicity(rd: RootDatum, highest, weight) -> int:
    """Multiplicity by the Weyl character formula's alternating sum over
    the Weyl group of Kostant partition counts, walked as the orbit of the
    labels of highest + rho; CharacterError unless highest is dominant."""
    highest, weight = rd._vector(highest), rd._vector(weight)
    labels = _labels(rd, highest)
    depth = rd.root_coordinates(tuple(map(sub, highest, weight)))
    if depth is None:
        return 0
    shifted = tuple(x + 1 for x in labels)
    cartan = rd.cartan_matrix
    return _weyl_sum(_kostant_count(cartan), _weyl_orbit(cartan, shifted), depth)


def weyl_dim(rd: RootDatum, highest) -> int:
    """Weyl dimension formula, exact."""
    return _dimension(rd._cartan, [x + 1 for x in _labels(rd, rd._vector(highest))])


def _dimension(system, shifted):
    """Weyl's product prod <lam + rho, beta^v> / prod <rho, beta^v> from the
    labels <lam + rho, coroot_i> of a dominant lam: <lam + rho, beta^v> is
    sum_i c'_i times label i for the coroot coordinates c' of beta^v, and
    <rho, beta^v> is their sum; `system` is the Cartan record."""
    num = den = 1
    for _, cv in system.positive:
        num *= sum(map(mul, cv, shifted))
        den *= sum(cv)
    out, rem = divmod(num, den)
    if rem:
        raise CharacterError(f"Weyl dimension {num}/{den} is not an integer")
    return out


def tensor_decompose(c: Character, highest):
    """Constituents of c tensor V(highest), as a dict highest weight ->
    multiplicity, from the table of the Cartan matrix and both labels,
    read under the sorted pair."""
    rd = c.rd
    highest = rd._vector(highest)
    top = vec_add(c.highest, highest)
    table = _tensor_table(rd.cartan_matrix, *sorted((c.labels, _labels(rd, highest))))
    return {_lower(rd, top, depth): m for depth, m in table}


@lru_cache(maxsize=128)
def _tensor_table(cartan, a, b):
    """((depth, multiplicity), ...) of V(a) tensor V(b) for dominant labels
    a and b (callers sort them: the product is symmetric), the depths below
    the top weight, by the Brauer-Klimyk rule (Klimyk 1968; Humphreys,
    *Introduction to Lie Algebras*, 24 ex. 9): each weight w of the factor
    of smaller Weyl dimension adds its multiplicity, with the sign of the
    Weyl element, at the weight whose shift by rho is the dominant
    conjugate of w + (the other highest weight) + rho, and nothing when
    that conjugate lies on a wall.

    The walk runs on the labels of that sum, integers although rho need not
    be a weight (PGL2), and on w's depth, alpha_j being -e_j.  No
    multiplicity may be negative and the constituents' dimensions must add
    up to the product; a failure is never cached.
    """
    system = _cartan_system(cartan)
    dims = [_dimension(system, [x + 1 for x in v]) for v in (a, b)]
    if dims[1] < dims[0]:
        a, b = b, a
    cols = tuple(zip(*cartan))
    shift = tuple(x + y + 1 for x, y in zip(a, b))
    minus = [tuple(-int(i == j) for j in range(len(cartan))) for i in range(len(cartan))]
    net = {}
    final = {}      # constituent depth -> its labels <nu + rho, coroot_i>
    for depth, m in _character_table(cartan, a):
        nu, sign, ends = _chamber_walk(
            depth, [x - sum(map(mul, depth, col)) for x, col in zip(shift, cols)], minus, cartan)
        if 0 in ends:
            continue   # fixed by a reflection: the alternating sum cancels
        net[nu] = net.get(nu, 0) + sign * m
        final[nu] = ends
    total = 0
    for depth, m in net.items():
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at depth {depth}")
        total += m * _dimension(system, final[depth])
    # the constituents must account for the whole product
    if total != dims[0] * dims[1]:
        raise CharacterError("constituent dimensions do not add up to the product")
    return tuple((depth, m) for depth, m in net.items() if m)


def fiber_dim(rd: RootDatum, lam, mu, nu) -> Fraction:
    """Half of <2 rho, lam> + <2 rho, mu> - <2 rho, nu>: the dimension
    bound for convolution fibers over the nu-orbit."""
    lam, mu, nu = map(rd._vector, (lam, mu, nu))
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
    convolution predictions.

    After the membership solve and the dominance test, each constituent,
    its dominance bound and its fiber come from the tensor table of the
    dual's Cartan matrix and the two label vectors, in the source's
    coweights.  No coordinate solve runs, and nothing is mapped back from
    the dual lattice.  Let b_k be the Hermite basis rows of the dual
    weight lattice, so lam = sum_k lam_c[k] b_k, and likewise mu.

    - The dual simple roots in the source are beta_i = r_i coroot_i, over
      the kept indices in order (`TwistedDual._source_roots`).
      `_validated_dual` makes dual root i the coordinates of r_i coroot_i
      in the b_k, and c -> sum_k c_k b_k takes them back.
    - A table entry (d, m) is the constituent nu = lam + mu - sum_i d_i
      beta_i.  In the dual it is lam_c + mu_c - sum_i d_i (dual root i),
      and the linear map c -> sum_k c_k b_k takes lam_c, mu_c and dual
      root i to lam, mu and beta_i.
    - nu lies below lam + mu in the dual's root order iff every d_i >= 0.
      The order asks for integers x_i >= 0 with lam_c + mu_c - nu_c =
      sum_i x_i (dual root i).  The dual roots are linearly independent,
      so x = d is the only solution.  For the same reason d = 0 is the
      only depth at lam + mu, so the highest multiplicity is its entry.
    - Sorting by nu sorts by nu_c.  The b_k are in Hermite form: the
      pivot column p_k of b_k lies past those of the rows above it, and
      its entry is positive.  If c and c' first differ at k, the images
      agree before column p_k and differ at p_k by (c_k - c'_k) times
      that entry, so the images compare as c and c' do.

    mu_c's labels are <mu, alpha_i> / r_i over the kept i, read off the
    dominance test's pairings: dual coroot i pairs with b_k as alpha_i / r_i
    does, and `_validated_dual` checked that r_i divides those pairings.

    The fiber over nu is (<2 rho, lam + mu> - <2 rho, nu>) / 2, which is
    sum_i r_i d_i as <2 rho, coroot_i> = 2; it is still computed from
    2 rho and checked to be a nonnegative integer."""
    rd = q.rd
    lam, mu = rd._vector(lam), rd._vector(mu)
    dual = twisted_dual(rd, q, "full")
    found = []
    for v in (lam, mu):
        # one solve decides membership and gives the coefficients
        v_c = dual.weight_sublattice.coefficients(v)
        if v_c is None:
            raise CharacterError(f"{v} is outside the dual weight lattice")
        # the vectors here are checked or built by the library, so the
        # dominance test goes around the public checks
        pairings = rd.simple_roots.mul_vec(v)
        if min(pairings, default=0) < 0:
            raise CharacterError(f"{v} is not dominant")
        found.append((v_c, pairings))
    (lam_c, _), (_, mu_pairings) = found
    mu_labels = tuple(p // r for p, r in zip(mu_pairings, dual.multipliers) if r is not None)
    c = irreducible_character(dual.datum, lam_c)
    table = _tensor_table(dual.datum.cartan_matrix, *sorted((c.labels, mu_labels)))
    top = vec_add(lam, mu)
    pieces = []
    for depth, m in table:
        nu = top
        for d, beta in zip(depth, dual._source_roots):
            if d:
                nu = tuple(x - d * b for x, b in zip(nu, beta))
        pieces.append((nu, m))
    pieces.sort()
    top_mult = next((m for depth, m in table if not any(depth)), 0)
    all_below = all(min(depth, default=0) >= 0 for depth, _ in table)
    two_rho = rd.two_rho
    # twice the fiber dimension over nu is this less <2 rho, nu>
    top_height = dot(two_rho, lam) + dot(two_rho, mu)
    fibers = tuple((nu, Fraction(top_height - dot(two_rho, nu), 2)) for nu, _ in pieces)
    sign, factor = braiding_signs(q, lam, mu)
    ok = top_mult == 1 and all_below and all(
        f.denominator == 1 and f >= 0 for _, f in fibers)
    return SatakeReport(
        dual=dual,
        lam=lam,
        mu=mu,
        decomposition=tuple(pieces),
        highest_multiplicity=top_mult,
        all_below_highest=all_below,
        fiber_dims=fibers,
        geometric_sign=sign,
        twisted_factor=factor,
        ok=ok,
    )
