"""Dual root-datum constructions and the isomorphism checker.

Four ways to build a dual: the twisted dual of an invariant form (weight
lattice = kernel of the bilinear form, roots = order-scaled coroots), the
Finkelberg-Lysenko normalization, Lusztig's quantum-group datum, and the
quantum-Langlands pairing of a nondegenerate form with its inverse on the
Langlands dual side.  The twisted dual's multipliers are read off the
integer numerators of Q on each coroot, by the gcd rule `fl_dual` uses,
with no `Exponent` built.  Each construction's weight lattice is a
kernel, one Hermite reduction (`lattice.kernel_mod`), so building a dual
takes no Smith form; on the whole lattice (the zero form, Langlands
duals, every integral form) the dual roots are the scaled coroots as
they stand and the pairings are the simple roots, so no coordinates are
solved for either.  `isomorphic` certifies agreement between any
two root data.  Equal data, which two constructions that reduce to one
Hermite basis give, are answered at once with the identity; otherwise
each datum is framed by its simple roots and a basis of X^W, the
weights every coroot kills; the frame's index [X : Z Delta + X^W] is
an invariant, compared first, and per matching of simple indices that
keeps the Cartan matrix the one inverse of the first frame gives the only
candidate maps in closed form, one product each: exactly one when the
datum is semisimple or the index is 1, two when X^W has rank 1.  Only a
glued centre (X^W of rank k >= 2 and index > 1) keeps a bounded search
over one k x k block, pinned by two Smith forms.  An integral candidate whose
frame block is unimodular is a witness, as it conjugates the Weyl groups.
The pi1 of both data, which needs a Smith form of the first datum's
coroots, is compared only once a matching has failed to give a witness,
before any search and before a "none": an isomorphism found at the first
matching reads no pi1, and a semisimple pair that is isomorphic at the
first matching builds no Smith form at all.

Every matrix `isomorphic` and the dual constructions build from checked
data goes through `lattice._computed_matrix`, not through the entry check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    IntMatrix,
    Sublattice,
    _check_int,
    _computed_matrix,
    _identity_rows,
    integral_left_inverse,
    kernel_mod,
    smith_normal_form,
)
from .qform import CartanDatum, QForm, ShapeError, kernel, trivial_qform
from .rootdata import RootDatum, dot, vec_scale


class PaperContractViolation(RuntimeError):
    """An integrality guarantee of the dual construction failed; this must
    not happen for valid invariant forms."""


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

    def to_dict(self):
        d = self.datum.to_dict()
        d["weight_sublattice"] = [list(r) for r in self.weight_sublattice.basis.data]
        d["multipliers"] = list(self.multipliers)
        d["dropped"] = list(self.dropped)
        return d

    def root_in_source(self, i):
        """The i-th dual simple root as a vector in the source coweights;
        ValueError unless i is an int, not a bool, in range(datum.num_simple)."""
        n = self.datum.num_simple
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"simple root index {i!r} is not in range({n})")
        return self.weight_sublattice.member_from_coefficients(self.datum.simple_roots.row(i))


def _assemble_dual(rd: RootDatum, weight_lattice: Sublattice, multipliers,
                   name=None) -> TwistedDual:
    """Common assembly: scale the surviving coroots into the weight lattice
    and the corresponding roots into its dual, then validate.

    On the whole lattice (basis the identity: the zero form, Langlands
    duals, every integral form) a vector is its own coordinates and
    alpha_i pairs with the basis as alpha_i itself, so neither a
    coordinate solve nor a product is made; the divisibility check runs
    all the same."""
    k = weight_lattice.rank
    whole = weight_lattice.basis.data == _identity_rows(rd.rank)
    # row i: alpha_i paired with each basis weight
    pairing_rows = (rd.simple_roots.data if whole
                    else (rd.simple_roots @ weight_lattice.basis.transpose()).data)
    new_roots = []
    new_coroots = []
    for i in range(rd.num_simple):
        r = multipliers[i]
        if r is None:
            continue
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
    datum = RootDatum(_computed_matrix(new_roots, k), _computed_matrix(new_coroots, k),
                      rank=k, name=name)
    return TwistedDual(rd, weight_lattice, tuple(multipliers), datum)


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
    lattice = kernel(q, mode)
    m = 2 * q.den
    multipliers = [None if b else m // math.gcd(a, m)
                   for a, b in (q._numerators(c, c) for c in rd.simple_coroots.data)]
    label = f"dual({rd.name})" if rd.name else None
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
    h, k = rd.coxeter_killing
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
    if rd.num_simple:
        big_l = math.lcm(*l_i)
        rows = [vec_scale(big_l // l_i[i], rd.simple_roots.row(i))
                for i in range(rd.num_simple)]
        lattice = kernel_mod(_computed_matrix(rows, rd.rank), big_l)
    else:
        lattice = Sublattice.full(rd.rank)
    label = f"lusztig({rd.name},{order})" if rd.name else None
    return _assemble_dual(rd, lattice, l_i, name=label)


@dataclass(frozen=True)
class QuantumPair:
    """Twisted duals of a nondegenerate form and of its inverse form on the
    Langlands dual, with the connecting lattice map."""

    left: TwistedDual
    right: TwistedDual
    iso: IntMatrix | None   # basis coordinates, left weights -> right weights
    ok: bool


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
    As s_-a = s_a, `isomorphic`'s argument applies."""
    left_form = QForm(rd, b)                       # validates shape and W-invariance
    n0, den = left_form.n0, left_form.den
    try:
        _, inv, det = integral_left_inverse(n0.data, rd.rank)
    except ValueError:
        raise ValueError("the Gram form is degenerate") from None
    # inv is det n0^-1 by columns, which n0's symmetry makes its rows
    l_rd = rd.flip()
    right_form = QForm(l_rd, [[Fraction(den * x, det) for x in row] for row in inv])
    left = twisted_dual(rd, left_form, "full")
    right = twisted_dual(l_rd, right_form, "full")
    rows = []
    for u in left.weight_sublattice.basis.data:
        img = n0.mul_vec(u)                        # den times b u
        coords = (None if any(x % den for x in img)
                  else right.weight_sublattice.coefficients([x // den for x in img]))
        if coords is None:
            return QuantumPair(left, right, None, False)
        rows.append(coords)
    iso = _computed_matrix(rows, right.weight_sublattice.rank)
    if not iso.is_unimodular():
        return QuantumPair(left, right, None, False)
    return QuantumPair(left, right, iso, True)


# -- isomorphism search ---------------------------------------------------------

# the most weight maps `isomorphic` tries per matching when the centre is glued
SEARCH_BUDGET = 20000


@dataclass(frozen=True)
class IsoResult:
    status: str                    # "iso" | "none" | "undecided"
    weight_map: IntMatrix | None   # columns act on weight vectors of d1
    permutation: tuple | None      # simple index i of d1 -> permutation[i] of d2

    def agrees(self):
        return self.status == "iso"


def _divided(rows, divisors):
    """Each row divided by its divisor, or None when a quotient is not
    integral."""
    if any(x % dv for row, dv in zip(rows, divisors) for x in row):
        return None
    return [[x // dv for x in row] for row, dv in zip(rows, divisors)]


def _near(center):
    """Integer matrices around `center`, in shells of growing sup distance."""
    k = len(center)
    for radius in itertools.count():
        for t in itertools.product(range(-radius, radius + 1), repeat=k * k):
            if radius in map(abs, t):
                yield [[center[r][c] + t[r * k + c] for c in range(k)] for r in range(k)]


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
    and permutation before any gcd, frame index, frame inverse or Smith
    form: the identity carries each simple pair to itself.  Data that
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
    invariant, compared before any matching (d2's kept on d2, d1's read
    off the one inverse of F1).  As P restricts to an isomorphism of the
    X^W, a witness at pi has P K1^T = K2^T N^T for an N in GL_k(Z), k =
    rank - #simple: P F1^T = F2pi(N)^T for F2pi(N) = [alpha2_pi(i); N K2],
    so P = F2pi(N)^T F1^-T, one product over den = det F1.  Conversely
    such a P takes alpha1_i to alpha2_pi(i), and P^T coroot2_pi(i) pairs
    with F1's rows as coroot1_i does: with alpha1_j by the Cartan
    matrices, which agree under pi, and with K1 by 0, as N K2 lies in
    X2^W.  det P = +-det N det F2 / det F1, so with equal indices |det P| =
    |det N|: P is a witness exactly when it is integral and N unimodular.
    Hence N = I serves when k = 0 or the index is 1 (F1 is then
    unimodular, so every P is integral), N = +-1 are all there is when
    k = 1, and the answer is exact in each case.  Only a glued centre
    (k >= 2, index > 1) leaves N to `_glued_search`.

    A witness carries every root.  s2_pi(i) P = P s_i for s_i x = x -
    <x, coroot1_i> alpha1_i, so P W1 P^-1 = W2; every root is W-conjugate
    to a simple one (Bourbaki, Lie VI 1.5), so P carries each (root,
    coroot) pair of d1 to one of d2.

    pi1 (coweights modulo coroots) is an invariant, so data whose pi1
    differ have no witness at any matching.  It is compared only when a
    matching gives no witness, and before a "none"; so an "iso" at the
    first matching builds no Smith form of d1's coroots, and differing pi1
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
    index = d2._frame_index
    matchings = _matchings(d1, d2, gcds1, gcds2)
    if k >= 2 and index > 1:
        if d1._frame_index != index:
            return IsoResult("none", None, None)
        return _glued_search(d1, d2, matchings)
    _, inv_cols, den = integral_left_inverse(d1.simple_roots.data + d1._fixed_weights, n)
    if abs(den) != index:
        return IsoResult("none", None, None)
    # den F1^-T: its rows are the columns of den F1^-1
    inv_t = _computed_matrix(inv_cols, n)
    fixed2 = _computed_matrix(d2._fixed_weights, n)
    # N = I, and N = -1 as well when k = 1 and the index is not 1, each
    # with its rows N K2 of the frame
    candidates = [(big_n, (big_n @ fixed2).data) for big_n in (
        _computed_matrix([[e * (r == c) for c in range(k)] for r in range(k)], k)
        for e in ((1,) if k == 0 or index == 1 else (1, -1)))]
    for perm in matchings:
        roots = tuple(d2.simple_roots.data[j] for j in perm)
        for big_n, fixed in candidates:
            # |det P| = |det N|, as the indices agree
            if not big_n.is_unimodular():
                continue
            # den P = F2pi(N)^T (den F1^-T)
            p = (_computed_matrix(roots + fixed, n).transpose() @ inv_t).data
            if not any(x % den for row in p for x in row):
                return IsoResult("iso", _computed_matrix([[x // den for x in row] for row in p], n),
                                 perm)
        # this matching has no witness; differing pi1 rule out every other
        if d1.pi1() != d2.pi1():
            return IsoResult("none", None, None)
    return IsoResult("none", None, None)


def _glued_search(d1: RootDatum, d2: RootDatum, matchings) -> IsoResult:
    """`isomorphic` for a glued centre: k = rank - #simple >= 2 and equal
    indices [X : Z Delta + X^W] > 1, where the frame leaves N to search.

    Two Smith forms, U C2 V = [D | 0] of d2's simple coroots (the one d2's
    pi1 is read off, kept on d2) and U' A1 V' = [D' | 0] of d1's simple
    roots, computed once, pin all but a k x k block N of V^-1 P V'^-T =
    [[X, Y], [K, N]]: the coroot equations give X and Y (D must divide
    them) and the root equations give K (D' must divide it).  X pairs d1's
    coroots with a basis of its saturated root lattice, so it is
    invertible, and det P = +-det X det(N - E) with E = K X^-1 Y.  Hence N
    is E + I when det X = +-1; otherwise a search over N runs around E,
    where exhausting SEARCH_BUDGET yields "undecided" rather than a wrong
    "none".  A unimodular candidate is a witness as it stands, as in
    `isomorphic`: X and Y solve the coroot equations, and K zeroes the
    rest of the root residue.  pi1 is compared as there, and before any
    search starts."""
    n, s = d1.rank, d1.num_simple
    k = n - s
    smith2, smith1 = d2._coroot_smith, smith_normal_form(d1.simple_roots)
    (u2, dc, v2), (u1, da, v1) = smith2, smith1
    v2_inv, v1_t = smith2.v_inv, v1.transpose()
    # row i: d1's coroot i against V'^-T, so that U C1 gives X | Y directly
    coroots1 = (d1.simple_coroots @ smith1.v_inv.transpose()).data
    # row j: the last k coordinates of V^-1 alpha2_j
    roots2 = [v2_inv.mul_vec(d2.simple_roots.row(j))[s:] for j in range(s)]
    undecided = False
    for perm in matchings:
        back = sorted(range(s), key=perm.__getitem__)
        top = _divided((u2 @ _computed_matrix([coroots1[i] for i in back], n)).data,
                       [dc.data[r][r] for r in range(s)])
        k_t = _divided((u1 @ _computed_matrix([roots2[j] for j in perm], k)).data,
                       [da.data[r][r] for r in range(s)])
        if top is None or k_t is None:
            if d1.pi1() != d2.pi1():
                return IsoResult("none", None, None)
            continue
        k_rows = [list(col) for col in zip(*k_t)]
        # F = den E = K (den X^-1) Y, with den X^-1 stored by columns
        _, inv_cols, den = integral_left_inverse([row[:s] for row in top], s)
        f = (_computed_matrix(k_rows, s) @ _computed_matrix(inv_cols, s).transpose()
             @ _computed_matrix([row[s:] for row in top], k)).data
        if den < 0:
            f, den = [[-z for z in row] for row in f], -den
        if den == 1:
            candidates = [[[z + (r == c) for c, z in enumerate(row)]
                           for r, row in enumerate(f)]]
        else:
            # a search runs only on data whose pi1 agree
            if d1.pi1() != d2.pi1():
                return IsoResult("none", None, None)
            undecided = True
            candidates = itertools.islice(
                _near([[(2 * z + den) // (2 * den) for z in row] for row in f]),
                SEARCH_BUDGET)
        for nb in candidates:
            p = v2 @ _computed_matrix(top + [a + b for a, b in zip(k_rows, nb)], n) @ v1_t
            if p.is_unimodular():
                return IsoResult("iso", p, perm)
        # this matching has no witness; differing pi1 rule out every other
        if d1.pi1() != d2.pi1():
            return IsoResult("none", None, None)
    if d1.pi1() != d2.pi1() or not undecided:
        return IsoResult("none", None, None)
    return IsoResult("undecided", None, None)
