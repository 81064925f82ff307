"""Dual root-datum constructions and the isomorphism checker.

Four ways to build a dual: the twisted dual of an invariant form (weight
lattice = kernel of the bilinear form, roots = order-scaled coroots), the
Finkelberg-Lysenko normalization, Lusztig's quantum-group datum, and the
quantum-Langlands pairing of a nondegenerate form with its inverse on the
Langlands dual side.  The twisted dual's multipliers are read off the
integer numerators of Q on each coroot, by the gcd rule `fl_dual` uses,
with no `Exponent` built.  Each construction's weight lattice is a
kernel, one Hermite reduction (`lattice.kernel_mod`), so building a dual
takes no Smith form; the zero form's is the whole lattice, taken as it
is.  On the whole lattice (every integral form) the dual roots are the
scaled coroots as they stand and the pairings are the simple roots, so
no coordinates are solved for either.  Every dual datum is made by the
trusted `RootDatum._trusted`, with its Cartan matrix in closed form, r_i
a_ji / r_j over the kept indices (proved at `_validated_dual`), not
recomputed from its rows.  Over the whole lattice with every multiplier
1 it is the source's flip under the caller's name: so the dual of the
zero form, the Langlands dual, computes no kernel and no value of Q.  The
constructions agree, so an agreement check builds one dual twice from
one datum: the kernel memo of `kernel_mod` (keyed by
the congruence reduced by its gcd with the modulus) serves the second
kernel, and `_assemble_dual` keeps on each datum the validated dual data
of its last DUAL_MEMO_SIZE (weight-lattice basis, multipliers) pairs,
everything the assembly reads, so the second assembly is a lookup that
returns the dual under the caller's own name.

`isomorphic` certifies agreement between any two root data.  Equal data,
which two constructions that reduce to one Hermite basis give, are
answered at once with the identity; otherwise each datum is framed by
its simple roots and a basis of X^W, the weights every coroot kills,
and the frame's index [X : Z Delta + X^W], an invariant, is compared
first.  Then one loop runs over the matchings of simple indices that
keep the Cartan matrix, and each matching's candidates N for the X^W
block give one map each, one product with the inverse of the first
frame, computed once and kept on that datum (`RootDatum._frame`, which
also gives both indices): N = I when the datum is semisimple or the
index is 1, N = +-1 when X^W has rank 1, and for a glued centre (X^W of
rank k >= 2 and index > 1) the one N, or none, that a linear congruence
modulo the exponent e of X / (Z Delta + X^W) gives, one `kernel_mod`
per matching and one more per pair: a solution of unit determinant mod
e, lifted to GL_k(Z), whose existence is a Hermite form and a
determinant, so the witness is built, not searched for.  An integral
map from a unimodular N is a witness, as it conjugates the Weyl groups.
The pi1 of both data, Z^rank modulo each datum's coroots, is compared
only once a matching has failed to give a witness, before a "none": an
isomorphism found at the first matching reads no pi1, and a semisimple
pair that is isomorphic at the first matching computes no Smith form
at all.

Every matrix `isomorphic` and the dual constructions build from checked
data goes through `lattice._computed_matrix`, not through the entry check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .lattice import (
    IntMatrix,
    Sublattice,
    _check_int,
    _computed_matrix,
    _hermite_rows,
    _identity_rows,
    integral_inverse,
    kernel_mod,
)
from .qform import CartanDatum, QForm, ShapeError, _check_mode, kernel, trivial_qform
from .rootdata import RootDatum, dot, vec_scale


class PaperContractViolation(RuntimeError):
    """An integrality guarantee of a dual construction, or of the quantum
    pair's map, failed; this must not happen for valid invariant forms."""


@dataclass(frozen=True)
class TwistedDual:
    """A dual root datum with its embedding data into the source lattice."""

    source: RootDatum
    weight_sublattice: Sublattice   # the dual weights, on its Hermite basis
    multipliers: tuple              # per source simple coroot; None encodes infinity
    datum: RootDatum                # the induced (validated) root datum, in basis coordinates

    @property
    def dropped(self):
        """Indices with infinite multiplier."""
        return tuple(i for i, r in enumerate(self.multipliers) if r is None)

    @cached_property
    def _source_roots(self):
        """The dual simple roots in the source coweights, beta_i = r_i
        coroot_i over the kept indices in order, built when first read:
        `_validated_dual` makes root i of `datum` the coordinates of that
        vector in the weight lattice's basis."""
        return tuple(vec_scale(r, c) for r, c in zip(self.multipliers,
                                                     self.source.simple_coroots.data)
                     if r is not None)

    @cached_property
    def _satake(self):
        """The two memos of `characters.satake_prediction` over this dual,
        (coweight -> its record, sorted label pair -> its plan), empty until
        first read.  The form's dual memo keeps the dual, so both are freed
        with the form."""
        return {}, {}

    def to_dict(self):
        d = self.datum.to_dict()
        d["weight_sublattice"] = [list(r) for r in self.weight_sublattice.basis.data]
        d["multipliers"] = list(self.multipliers)
        d["dropped"] = list(self.dropped)
        return d


# the most duals `_assemble_dual` keeps per source datum
DUAL_MEMO_SIZE = 8


def _assemble_dual(rd: RootDatum, weight_lattice: Sublattice, multipliers,
                   name=None) -> TwistedDual:
    """Common assembly: scale the surviving coroots into the weight lattice
    and the corresponding roots into its dual, then validate.

    The assembly reads rd, the lattice's Hermite basis and the multipliers
    and nothing else, so its validated datum is kept on rd under that pair,
    for at most DUAL_MEMO_SIZE pairs (the oldest goes first), and a second
    construction of the same dual over rd, as each agreement check makes,
    is a lookup.  A hit returns that datum under the caller's name; every
    `PaperContractViolation` check ran on the same input when the entry was
    made, and a failed assembly is not kept."""
    multipliers = tuple(multipliers)
    key = (weight_lattice.basis.data, multipliers)
    memo = rd._assembled
    datum = memo.get(key)
    if datum is None:
        datum = memo[key] = _validated_dual(rd, weight_lattice, multipliers, name)
        if len(memo) > DUAL_MEMO_SIZE:
            del memo[next(iter(memo))]
    elif datum.name != name:
        datum = datum._renamed(name)
    return TwistedDual(rd, weight_lattice, multipliers, datum)


def _validated_dual(rd, weight_lattice, multipliers, name) -> RootDatum:
    """The dual datum of `_assemble_dual`, built and validated, and made by
    `RootDatum._trusted` with its Cartan matrix in closed form.

    Over the kept indices, dual root i is r_i coroot_i and dual coroot j
    is alpha_j / r_j, both read on the weight lattice, so its Cartan entry
    is <r_i coroot_i, alpha_j / r_j> = r_i a_ji / r_j for the source's
    a_ji = <alpha_j, coroot_i>: the source's Cartan matrix, transposed and
    rescaled.  The two checks below make both vectors integral on the
    lattice, so r_j divides r_i a_ji.

    On the whole lattice (basis the identity: the zero form, Langlands
    duals, every integral form) a vector is its own coordinates and
    alpha_i pairs with the basis as alpha_i itself, so neither a
    coordinate solve nor a product is made; the divisibility check runs
    all the same.  With every multiplier 1 as well, both checks hold (a
    coroot is its own coordinates and 1 divides every pairing), and the
    dual is rd's flip under the caller's name."""
    whole = weight_lattice.basis.data == _identity_rows(rd.rank)
    if whole and all(r == 1 for r in multipliers):
        return rd._flipped(name)
    k = weight_lattice.rank
    # row i: alpha_i paired with each basis weight
    pairing_rows = (rd.simple_roots.data if whole
                    else (rd.simple_roots @ weight_lattice.basis.transpose()).data)
    kept = [(i, r) for i, r in enumerate(multipliers) if r is not None]
    new_roots = []
    new_coroots = []
    for i, r in kept:
        scaled = vec_scale(r, rd.simple_coroots.row(i))
        coords = scaled if whole else weight_lattice.coefficients(scaled)
        if coords is None:
            raise PaperContractViolation(
                f"{r} * coroot_{i} = {scaled} does not lie in the dual weight lattice")
        new_roots.append(coords)
        pairings = pairing_rows[i]
        if any(x % r for x in pairings):
            raise PaperContractViolation(
                f"alpha_{i}/{r} is not integral on the dual weight lattice")
        new_coroots.append([x // r for x in pairings])
    a = rd.cartan_matrix
    cartan = tuple(tuple(ri * a[j][i] // rj for j, rj in kept) for i, ri in kept)
    return RootDatum._trusted(_computed_matrix(new_roots, k), _computed_matrix(new_coroots, k),
                              cartan, name)


def twisted_dual(rd: RootDatum, q: QForm, mode="full") -> TwistedDual:
    """The twisted dual of an invariant form: weights are the kernel of
    kappa, the root for a coroot is (order of Q on it) times the coroot,
    coroots with a value of infinite order are dropped.

    Q(c) = (a + b tau) / 2den for the integer numerators (a, b) of q on a
    coroot c, so the multiplier is 2den / gcd(a, 2den) when b = 0, and
    None otherwise, as tau is never reduced.

    The dual of q over its own datum is computed once per mode and kept on
    q.  Another datum, even an equal one under another name, is never
    served from that memo: q's integer Grams are re-read on rd, so that
    the kernel and the multipliers both come from rd's coroots, with a
    ShapeError when the ranks differ and an InvarianceError when rd does
    not keep them."""
    if rd is not q.rd:
        if q.rd.rank != rd.rank:
            raise ShapeError(f"the form is over rank {q.rd.rank}, not the datum's rank {rd.rank}")
        # q's Grams re-read on rd, which must keep them: the kernel and the
        # multipliers then both come from rd's coroots
        return _twisted_dual(rd, QForm._integral(rd, q.n0.data, q.n1.data, q.den), mode)
    if mode not in q._duals:
        q._duals[mode] = _twisted_dual(rd, q, mode)
    return q._duals[mode]


def _twisted_dual(rd: RootDatum, q: QForm, mode) -> TwistedDual:
    label = f"dual({rd.name})" if rd.name else None
    if not any(q._nonzero):
        # Q = 0 kills every coweight and has value 0, of order 1, on every
        # coroot: the dual is the flip, with no kernel and no value read
        _check_mode(mode)
        return _assemble_dual(rd, Sublattice.full(rd.rank), (1,) * rd.num_simple, name=label)
    lattice = kernel(q, mode)
    m = 2 * q.den
    multipliers = [None if b else m // math.gcd(a, m)
                   for a, b in (q._numerators(c, c) for c in rd.simple_coroots.data)]
    return _assemble_dual(rd, lattice, multipliers, name=label)


def langlands_dual(rd: RootDatum) -> TwistedDual:
    """The twisted dual of the trivial form: weights and coweights swap."""
    return twisted_dual(rd, trivial_qform(rd), "full")


@dataclass(frozen=True)
class Rank1Table:
    """Kernels of the rank-1 form q0^(2mn) over the adjoint lattice Z and
    over the simply connected lattice 2Z, both in adjoint coordinates."""

    r0: int
    p: int
    adjoint_kernel: Sublattice         # inside Z
    simply_connected_kernel: Sublattice  # inside 2Z, adjoint coordinates
    case: str


def rank1_table(r0: int, p: int = 1) -> Rank1Table:
    _check_int(r0, "r0")
    _check_int(p, "p", positive=False)
    if math.gcd(p, r0) != 1:
        raise ValueError(f"p = {p} is not a unit modulo {r0}")
    adjoint = kernel_mod(_computed_matrix([[2 * p]], 1), r0)
    # on the index-two lattice the form becomes q0^(8 m n) in its own units
    sc_units = kernel_mod(_computed_matrix([[8 * p]], 1), r0)
    sc = Sublattice.from_rows(1, [(2 * x[0],) for x in sc_units.basis.data])
    if r0 % 2:
        case = "odd"
    elif r0 % 4:
        case = "ord2=1"
    elif r0 % 8:
        case = "ord2=2"
    else:
        case = "ord2>=3"
    return Rank1Table(r0, p, adjoint, sc, case)


def fl_dual(rd: RootDatum, d: int, big_n: int) -> TwistedDual:
    """The Finkelberg-Lysenko dual: weights are the coweights lam with
    d * iota(lam) divisible by N in the weight lattice; the multiplier of a
    coroot is the denominator of d (coroot, coroot) / 2N.

    With iota = K / 2h for the integer Killing Gram K, the lattice is the
    kernel of d K modulo 2hN, and the multiplier of coroot c is the
    denominator of d c^T K c / 4hN."""
    if not rd.is_irreducible():
        raise ValueError("this comparison is defined for irreducible root systems")
    _check_int(d, "d")
    _check_int(big_n, "N")
    (k, h), = rd.killing
    m = 4 * h * big_n
    lattice = kernel_mod(_computed_matrix([[d * x for x in row] for row in k.data], rd.rank),
                         m // 2)
    multipliers = [m // math.gcd(d * dot(c, k.mul_vec(c)), m) for c in rd.simple_coroots.data]
    label = f"fl({rd.name},{d},{big_n})" if rd.name else None
    return _assemble_dual(rd, lattice, multipliers, name=label)


def lusztig_dual(cd: CartanDatum, order: int) -> TwistedDual:
    """Lusztig's dual datum at a root of unity of the given order: weights
    pair with each simple root in l_i Z where l_i = l / gcd(l, f(i))."""
    _check_int(order, "the order")
    rd = cd.rd
    l_i = [order // math.gcd(order, fi) for fi in cd.f]
    # on a torus L = lcm() = 1 and the kernel of no rows is the whole lattice
    big_l = math.lcm(*l_i)
    rows = [vec_scale(big_l // li, root) for li, root in zip(l_i, rd.simple_roots.data)]
    lattice = kernel_mod(_computed_matrix(rows, rd.rank), big_l)
    label = f"lusztig({rd.name},{order})" if rd.name else None
    return _assemble_dual(rd, lattice, l_i, name=label)


@dataclass(frozen=True)
class QuantumPair:
    """Twisted duals of a nondegenerate form and of its inverse form on the
    Langlands dual, with the connecting lattice map."""

    left: TwistedDual
    right: TwistedDual
    iso: IntMatrix   # basis coordinates, left weights -> right weights
    ok: bool         # always True: a map that fails its checks raises


def quantum_dual_pair(rd: RootDatum, b) -> QuantumPair:
    """Build both sides of the quantum-Langlands comparison for a
    nondegenerate W-invariant rational Gram b and verify the isomorphism
    lam -> b(lam, .) between their root data.

    With b = n0 / den as its `QForm` stores it, the right form is b^-1 =
    den n0^-1, from one integer inverse of n0.  `iso` (row i the image of
    basis weight i) must be integral and unimodular, and then carries the
    root data: for a simple pair (a, a^v), W-invariance of b gives
    b(a^v, .) = (b(a^v, a^v) / 2) a; with b(a^v, a^v) = 2p/r in lowest
    terms (p != 0: b is nondegenerate), the left pair (r a^v, a/r) goes to
    sign(p) times the right pair (|p| a, a^v/|p|), the coroot by pullback.
    As s_-a = s_a, `isomorphic`'s argument applies.

    Neither check can fail for a nondegenerate invariant b: the left
    weights are the lam in X^v with b lam in X, the right ones the mu in X
    with b^-1 mu in X^v, so lam -> b lam maps one onto the other.  A
    failure is therefore a `PaperContractViolation`, as in the dual's
    assembly, and `ok` is always True."""
    left_form = QForm(rd, b)                       # validates shape and W-invariance
    n0, den = left_form.n0, left_form.den
    try:
        inv, det = integral_inverse(n0.data)           # det n0^-1, for det = |det n0|
    except ValueError:
        raise ValueError("the Gram form is degenerate") from None
    l_rd = rd.flip()
    right_form = QForm._integral(l_rd, [[den * x for x in row] for row in inv], None, det)
    left = twisted_dual(rd, left_form, "full")
    right = twisted_dual(l_rd, right_form, "full")
    rows = []
    for u in left.weight_sublattice.basis.data:
        img = n0.mul_vec(u)                        # den times b u
        coords = (None if any(x % den for x in img)
                  else right.weight_sublattice.coefficients([x // den for x in img]))
        if coords is None:
            raise PaperContractViolation(
                f"b maps the left weight {u} outside the right weight lattice")
        rows.append(coords)
    iso = _computed_matrix(rows, right.weight_sublattice.rank)
    if not iso.is_unimodular():
        raise PaperContractViolation("b does not map the left weights onto the right ones")
    return QuantumPair(left, right, iso, True)


# -- isomorphism search ---------------------------------------------------------

@dataclass(frozen=True)
class IsoResult:
    status: str                    # "iso" | "none"
    weight_map: IntMatrix | None   # columns act on weight vectors of d1
    permutation: tuple | None      # simple index i of d1 -> permutation[i] of d2

    def agrees(self):
        return self.status == "iso"


def _matchings(d1, d2, gcds1, gcds2):
    """The permutations pi of the simple indices that keep the Cartan
    matrix and each index's pair of gcds."""
    s = d1.num_simple
    c1, c2 = d1.cartan_matrix, d2.cartan_matrix
    for perm in itertools.permutations(range(s)):
        if all(gcds1[i] == gcds2[perm[i]]
               and all(c1[i][j] == c2[perm[i]][perm[j]] for j in range(s)) for i in range(s)):
            yield perm


def isomorphic(d1: RootDatum, d2: RootDatum) -> IsoResult:
    """Decide whether two root data are isomorphic (Springer, *Linear
    Algebraic Groups*, 7.4).

    Equal data (equal rank, simple roots and coroots) get the identity map
    and permutation before any gcd, frame index, frame inverse or kernel:
    the identity carries each simple pair to itself.  Data that
    differ are decided as follows.

    An isomorphism P of weight lattices can be taken to map a base to a
    base, so it is sought per matching pi of simple indices that keeps the
    Cartan matrix and each index's pair of gcds (of the root's and of the
    coroot's entries, which a unimodular map keeps): P alpha1_i =
    alpha2_pi(i), P^T coroot2_pi(i) = coroot1_i.

    Each datum has a frame F = [simple roots; K], for K a basis of X^W,
    the weights every coroot kills (`RootDatum._fixed_weights`); Z Delta
    and X^W meet in 0, as the Cartan matrix is nondegenerate, so |det F| =
    [X : Z Delta + X^W], the index.  An isomorphism carries Z Delta onto
    Z Delta' and, as <P x, coroot2_pi(i)> = <x, coroot1_i>, X^W onto X'^W;
    so it carries the one sum onto the other, and the index is an
    invariant, compared before any matching (each read off its datum's
    `_frame`, the one inverse of its frame, from which the loop below
    also reads d1's G and e).  As P restricts to an isomorphism of the
    X^W, a witness at pi has P K1^T = K2^T N^T for an N in GL_k(Z), k =
    rank - #simple: P F1^T = F2pi(N)^T for F2pi(N) = [alpha2_pi(i); N
    K2], so P = F2pi(N)^T F1^-T.  Conversely
    such a P takes alpha1_i to alpha2_pi(i), and P^T coroot2_pi(i) pairs
    with F1's rows as coroot1_i does: with alpha1_j by the Cartan
    matrices, which agree under pi, and with K1 by 0, as N K2 lies in
    X2^W.  det P = +-det N det F2 / det F1, so with equal indices |det P| =
    |det N|: P is a witness exactly when it is integral and N unimodular.

    One loop decides every pair.  Per matching pi it tries the candidates
    N in turn: a unimodular one gives e P = F2pi(N)^T G for G = e F1^-T,
    integral for e the exponent of X / (Z Delta + X^W), the least e >= 1
    that makes it so; that is one product, and a witness when e divides
    every entry.  N = I serves when k = 0 or the index is 1 (F1 is then
    unimodular, so e = 1 and every P is integral), and N = +-1 are all
    there is when k = 1; the answer is exact in each case.

    A glued centre (k >= 2, index > 1) takes one candidate per matching,
    or none, from `_glued_witness`.  Let G_top and G_bot be G's first s
    and last k rows; P is integral exactly when R_pi^T G_top + K2^T M
    G_bot = 0 mod e, for M = N^T and R_pi the rows alpha2_pi(i).  That
    is a linear congruence in (1, M), whose n^2 x (1 + k^2) matrix [c |
    L] (c the entries of R_pi^T G_top, L the coefficients of M) has one
    `kernel_mod(., e)`: a solution exists exactly when its Hermite basis
    starts with a row (1, M0), so with none pi has no witness.  K2 spans a
    saturated lattice, so K2^T has an integral left inverse and K2^T D
    G_bot = 0 exactly when D G_bot = 0 mod e: the solutions are M0 + D for
    the D whose rows lie in W = {w : w G_bot = 0 mod e}, one `kernel_mod`
    per pair of data, and det is constant mod g, the gcd of W's entries.
    As integrality reads N mod e only and |det P| = |det N|, pi has a
    witness exactly when a solution has det = +-1 mod e, and that lifts to
    an N in GL_k(Z) with N^T = M mod e (`_unimodular_lift`; SL_k(Z) ->
    SL_k(Z/e) is onto), whose P is one.  Such a solution exists exactly
    when (i) the rows of M0 and W span Z^k and (ii) det M0 = +-1 mod g.
    They are needed: a solution invertible mod every prime p | e has rows
    that span Z^k mod each p, inside the span of M0's rows and W, which
    holds e Z^k, so that span is Z^k; and det M0 = det M mod g.  They
    suffice (`_unit_residue`), one prime power q = p^a of e at a time.  A
    row of M0 in the span mod p of the rows before it takes a row of W
    outside that span; if W lay inside it, M0's rows and W would span
    fewer than k dimensions mod p, against (i).  Now M is invertible mod
    p.  For b in W with gcd(q, b) = gcd(q, g) (W's basis has one) and u =
    det(M with row i replaced by b), row i += c b adds c u to det; b adj
    M has b's content mod q, as adj M is invertible mod p, so some i has
    gcd(u, q) = gcd(q, g), and c u reaches every multiple of gcd(q, g),
    which by (ii) sets det = the sign mod q.  The Chinese remainder
    theorem joins the prime powers.  The closed form is the same
    congruence where it is trivial: modulo e = 1 every N solves it, and
    when k = 1 the units +-1 are all the N there are.

    A witness carries every root.  s2_pi(i) P = P s_i for s_i x = x -
    <x, coroot1_i> alpha1_i, so P W1 P^-1 = W2; every root is W-conjugate
    to a simple one (Bourbaki, Lie VI 1.5), so P carries each (root,
    coroot) pair of d1 to one of d2.

    pi1 (coweights modulo coroots) is an invariant, so data whose pi1
    differ have no witness at any matching.  It is compared only when a
    matching gives no witness, before a "none"; so an "iso" at the first
    matching reads no invariant factors of d1's coroots, and differing pi1
    give "none" after at most one matching."""
    # two tori of one rank are equal data
    if d1 == d2:
        return IsoResult("iso", IntMatrix.identity(d1.rank), tuple(range(d1.num_simple)))
    if d1.rank != d2.rank or d1.num_simple != d2.num_simple:
        return IsoResult("none", None, None)
    n, s = d1.rank, d1.num_simple
    k = n - s
    gcds1, gcds2 = ([(math.gcd(*a), math.gcd(*c)) for a, c in
                     zip(d.simple_roots.data, d.simple_coroots.data)] for d in (d1, d2))
    if sorted(gcds1) != sorted(gcds2):
        return IsoResult("none", None, None)
    big_g, e, index = d1._frame
    if d2._frame_index != index:
        return IsoResult("none", None, None)
    if k >= 2 and index > 1:
        candidates = _glued_witness(d2, big_g, e)
    else:
        units = tuple(_computed_matrix([[u * (r == c) for c in range(k)] for r in range(k)], k)
                      for u in ((1,) if k == 0 or index == 1 else (1, -1)))
        candidates = lambda roots: units
    fixed2 = _computed_matrix(d2._fixed_weights, n)
    for perm in _matchings(d1, d2, gcds1, gcds2):
        roots = tuple(d2.simple_roots.data[j] for j in perm)
        for big_n in candidates(roots):
            # |det P| = |det N|, as the indices agree
            if not big_n.is_unimodular():
                continue
            # e P = F2pi(N)^T G
            p = (_computed_matrix(roots + (big_n @ fixed2).data, n).transpose() @ big_g).data
            if not any(x % e for row in p for x in row):
                return IsoResult("iso", _computed_matrix([[x // e for x in row] for row in p], n),
                                 perm)
        # this matching has no witness; differing pi1 rule out every other
        if d1.pi1() != d2.pi1():
            return IsoResult("none", None, None)
    return IsoResult("none", None, None)


def _glued_witness(d2: RootDatum, big_g: IntMatrix, e):
    """The candidates of `isomorphic` for a glued centre, k = rank -
    #simple >= 2 and equal indices [X : Z Delta + X^W] > 1, with G = e
    F1^-T for the exponent e: a function of the rows R_pi that returns
    (N,) for the one N the congruence of pi gives, or ().  The
    congruence's coefficients and W are built once per pair of data; the
    proof is in `isomorphic`'s docstring."""
    n, s = d2.rank, d2.num_simple
    k = n - s
    rows = big_g.data
    fixed2 = d2._fixed_weights
    # row (a, b): the coefficients of M = N^T in (K2^T M G_bot)_ab
    lin = [[fixed2[i][a] * rows[s + j][b] for i in range(k) for j in range(k)]
           for a in range(n) for b in range(n)]
    # W: the rows w with w G_bot = 0 mod e, by which a solution's rows move,
    # and g of `isomorphic`, the gcd of W's entries
    free = kernel_mod(_computed_matrix(list(zip(*rows[s:])), k), e).basis.data
    content = math.gcd(*(x for row in free for x in row))

    def solve(roots):
        # (1, M) with (R_pi^T G_top)_ab + (K2^T M G_bot)_ab = 0 mod e for all a, b
        system = [[sum(r[a] * t[b] for r, t in zip(roots, rows)), *row]
                  for (a, b), row in zip(itertools.product(range(n), repeat=2), lin)]
        top = kernel_mod(_computed_matrix(system, 1 + k * k), e).basis.data[0]
        m0 = [top[1 + i * k:1 + (i + 1) * k] for i in range(k)]
        # a solution M0, and (i): M0's rows and W span Z^k
        if top[0] != 1 or _hermite_rows(m0 + list(free), k) != _identity_rows(k):
            return ()
        det0 = _computed_matrix(m0, k).det()
        sign = 1 if (det0 - 1) % content == 0 else -1
        # (ii): det M0 = sign mod the gcd of W's entries
        if (det0 - sign) % content:
            return ()
        m = _unit_residue(m0, free, content, e, sign)
        return (_computed_matrix(_unimodular_lift(list(zip(*m)), e), k),)

    return solve


def _unit_residue(m0, free, content, e, sign):
    """An M = m0 mod e plus integer combinations of the rows of `free` (W)
    with det M = sign mod e, for m0 and W that pass (i) and (ii) of
    `isomorphic`, with `content` the gcd of W's entries; the steps are
    proved there."""
    k = len(m0)

    def rank(rows, p):
        # the diagonal of the Hermite form mod p is 1 on the rank's columns, else p
        return sum(h[c] == 1 for c, h in enumerate(_hermite_rows(rows, k, p)))

    total, rest = [[0] * k for _ in range(k)], e
    for p in range(2, e + 1):
        if rest % p:
            continue
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        m = [list(row) for row in m0]
        for i in range(k):
            if rank(m[:i + 1], p) <= i:
                b = next(b for b in free if rank(m[:i] + [b], p) > i)
                m[i] = [x + y for x, y in zip(m[i], b)]
        d, gq = _computed_matrix(m, k).det(), math.gcd(q, content)
        if (d - sign) % q:
            swaps = ((i, b, _computed_matrix(m[:i] + [b] + m[i + 1:], k).det())
                     for b in free for i in range(k))
            i, b, u = next(t for t in swaps if math.gcd(t[2], q) == gq)
            c = (sign - d) // gq * pow(u // gq, -1, q // gq)
            m[i] = [x + c * y for x, y in zip(m[i], b)]
        # the idempotent of q in Z/e: 1 mod q, 0 mod e / q
        unit = e // q * pow(e // q, -1, q)
        total = [[(x + unit * y) % e for x, y in zip(tr, mr)] for tr, mr in zip(total, m)]
    return total


def _unimodular_lift(a, e):
    """An N in GL_k(Z) with N = a mod e, for a k x k integer matrix a whose
    determinant is +-1 mod e.

    Steps row_i += q row_j, each in SL_k(Z), and changes of an entry by e
    take a to an upper triangular T = E a mod e with diagonal +-1, ...,
    +-1, t: per column c < k - 1, Euclid's algorithm on the rows from c on
    leaves their gcd in row c, and when that is not +-1, e is added below
    it and Euclid runs again, ending at +-1, since a column whose entries
    share a prime factor with e would make det a = 0 mod that prime.
    Then t = +-1 mod e as well, and N = E^-1 T' for T' = T with t set to
    +-1 has N = E^-1 E a = a mod e and det N = +-1."""
    k = len(a)
    w = [list(row) for row in a]
    steps = []

    def add(i, j, q):
        w[i] = [x + q * y for x, y in zip(w[i], w[j])]
        steps.append((i, j, q))

    def gather(c):
        while True:
            live = [i for i in range(c, k) if w[i][c]]
            if len(live) < 2:
                break
            p = min(live, key=lambda i: abs(w[i][c]))
            for i in live:
                if i != p:
                    add(i, p, -(w[i][c] // w[p][c]))
        if live and live[0] != c:
            add(c, live[0], 1)
            add(live[0], c, -1)

    for c in range(k - 1):
        gather(c)
        if abs(w[c][c]) != 1:
            w[c + 1][c] += e
            gather(c)
    w[-1][-1] = 1 if (w[-1][-1] - 1) % e == 0 else -1
    for i, j, q in reversed(steps):
        w[i] = [x - q * y for x, y in zip(w[i], w[j])]
    return w
