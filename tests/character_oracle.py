"""Reference routines for the tests, kept apart from the library so that
its answers are checked against independent code: Freudenthal's
recursion, against the Demazure product that builds the character
tables, and tensor decomposition by repeated extraction of a maximal
weight, which multiplies both characters out and peels irreducibles off
the product, against the Brauer-Klimyk rule; and the convolution
predictions by the route that maps each constituent back from the dual
lattice (`kernel_oracle.member`), against the one that reads them off
the tensor table in the source's coweights."""

from fractions import Fraction
from operator import mul

import kernel_oracle
from twistdual import characters
from twistdual.characters import CharacterError, SatakeReport, irreducible_character
from twistdual.dualgroup import twisted_dual
from twistdual.qform import braiding_signs
from twistdual.rootdata import _cartan_system, dot, vec_add


def dim(c):
    """The dimension of a `Character`: the sum of its multiplicities."""
    return sum(m for _, m in c.depths)


def depth_multiplicities(cartan, labels):
    """Freudenthal's recursion in integers, on depths:

        (|lam + rho|^2 - |mu + rho|^2) m(mu)
            = 2 sum_{beta > 0, k >= 1} m(mu + k beta) (mu + k beta, beta)

    with (alpha_i, alpha_j) = a_ij d_j, a W-invariant form on the root span
    for the symmetrizer d.  For mu = lam - gamma the left factor is
    2 (lam + rho, gamma) - (gamma, gamma), and mu + k beta lies below lam
    while depth - k * coordinates(beta) stays >= 0."""
    system = _cartan_system(cartan)
    form = [tuple(a * dj for a, dj in zip(row, system.symmetrizer)) for row in cartan]
    lam = [x * dj for x, dj in zip(labels, system.symmetrizer)]        # (lam, alpha_i)
    lam_rho = [x + dj for x, dj in zip(lam, system.symmetrizer)]       # (lam + rho, alpha_i)
    # per positive root beta: its coordinates b, ((alpha_i, beta))_i,
    # (lam, beta) and (beta, beta)
    roots = []
    for b, _ in system.positive:
        ab = tuple(sum(map(mul, row, b)) for row in form)
        roots.append((b, ab, dot(b, lam), dot(b, ab)))
    s = len(cartan)
    mults = {(0,) * s: 1}
    layer = list(mults)
    while layer:
        candidates = dict.fromkeys(c[:i] + (c[i] + 1,) + c[i + 1:]
                                   for c in layer for i in range(s))
        layer = []
        for c in candidates:
            rhs = 0
            for b, ab, lam_b, bb in roots:
                steps = min(x // y for x, y in zip(c, b) if y)
                mu_b = lam_b - dot(c, ab)
                for k in range(1, steps + 1):
                    m_up = mults.get(tuple(x - k * y for x, y in zip(c, b)))
                    if m_up:
                        rhs += m_up * (mu_b + k * bb)
            if rhs == 0:
                continue
            gap = 2 * dot(lam_rho, c) - sum(x * dot(row, c) for x, row in zip(c, form))
            if gap == 0:
                raise CharacterError(f"vanishing Freudenthal denominator at depth {c}")
            m, r = divmod(2 * rhs, gap)
            if r:
                raise CharacterError(
                    f"non-integral multiplicity {Fraction(2 * rhs, gap)} at depth {c}")
            if m < 0:
                raise CharacterError(f"negative multiplicity {m} at depth {c}")
            if m:
                mults[c] = m
                layer.append(c)
    return mults


def tensor_decompose(c1, c2):
    """Constituents of the product character, as a dict highest weight ->
    multiplicity, by repeated extraction of a maximal weight."""
    if c1.rd != c2.rd:
        raise CharacterError("characters live on different root data")
    rd = c1.rd
    product = {}
    for w1, m1 in c1.multiplicities:
        for w2, m2 in c2.multiplicities:
            w = vec_add(w1, w2)
            product[w] = product.get(w, 0) + m1 * m2
    remaining = dict(product)
    # strictly positive height functional on the positive cone: the sum of
    # the coroots of the roots with nonnegative coordinates
    rho_check = [0] * rd.rank
    for beta, cobeta in rd.root_pairs:
        if min(rd.root_coordinates(beta)) >= 0:
            rho_check = [a + b for a, b in zip(rho_check, cobeta)]
    out = {}
    pieces = {}
    while remaining:
        top = max(remaining, key=lambda w: (dot(w, rho_check), w))
        if min(rd.simple_coroots.mul_vec(top), default=0) < 0:
            raise CharacterError(f"maximal weight {top} is not dominant")
        mult = remaining[top]
        if mult < 0:
            raise CharacterError(f"negative multiplicity at {top}")
        pieces[top] = irreducible_character(rd, top)
        for w, m in pieces[top].multiplicities:
            left = remaining.get(w, 0) - mult * m
            if left < 0:
                raise CharacterError(f"inconsistent product at {w}")
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        out[top] = out.get(top, 0) + mult
    # the constituents must reassemble the product exactly
    rebuilt = {}
    for top, mult in out.items():
        for w, m in pieces[top].multiplicities:
            rebuilt[w] = rebuilt.get(w, 0) + mult * m
    assert rebuilt == product
    return out


def satake_reference(q, lam, mu):
    """`satake_prediction` through the dual lattice: the constituents of
    the product as dual weights (`characters.tensor_decompose`), each
    checked below the top weight by a coordinate solve in the dual's
    simple roots and mapped back to source coweights by the lattice
    basis, sorted by their dual coordinates."""
    rd = q.rd
    lam, mu = rd._vector(lam), rd._vector(mu)
    dual = twisted_dual(rd, q, "full")
    coeffs = []
    for v in (lam, mu):
        v_c = dual.weight_sublattice.coefficients(v)
        if v_c is None:
            raise CharacterError(f"{v} is outside the dual weight lattice")
        if min(rd.simple_roots.mul_vec(v), default=0) < 0:
            raise CharacterError(f"{v} is not dominant")
        coeffs.append(v_c)
    lam_c, mu_c = coeffs
    pieces = characters.tensor_decompose(irreducible_character(dual.datum, lam_c), mu_c)
    top_c = vec_add(lam_c, mu_c)
    top_mult = pieces.get(tuple(top_c), 0)
    all_below = all(dual.datum.weight_leq(nu_c, top_c) for nu_c in pieces)
    two_rho = rd.two_rho
    top_height = dot(two_rho, lam) + dot(two_rho, mu)
    decomposition = []
    fibers = []
    for nu_c, m in sorted(pieces.items()):
        nu = kernel_oracle.member(dual.weight_sublattice, nu_c)
        decomposition.append((nu, m))
        fibers.append((nu, Fraction(top_height - dot(two_rho, nu), 2)))
    sign, factor = braiding_signs(q, lam, mu)
    ok = top_mult == 1 and all_below and all(
        f.denominator == 1 and f >= 0 for _, f in fibers)
    return SatakeReport(dual, lam, mu, tuple(decomposition), top_mult, all_below,
                        tuple(fibers), sign, factor, ok)
