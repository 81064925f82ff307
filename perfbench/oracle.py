"""Independent computations that the benchmark checks twistdual against.

Nothing here imports twistdual.  Root data are plain dicts in the file
format the library reads ({"rank", "simple_roots", "simple_coroots",
"name"}): weights and coweights both live in Z^rank with the dot pairing.
The catalogue of groups, root closures, Weyl dimensions, Killing Grams,
lattice kernels and closed forms for |Phi| and |W| are written out here
from their textbook definitions, with algorithms that differ from the
library's where the library has one.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)]


# -- catalogue -------------------------------------------------------------

# component types per label token, for the closed forms below
_SINGLE = {"Sp4": ("B2",), "G2": ("G2",), "SO4": ("A1", "A1")}


def _sl_rows(n):
    r = n - 1
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
              for i in range(r)]
    unit = [[int(i == j) for j in range(r)] for i in range(r)]
    return cartan, unit


def _single(token):
    """(roots, coroots, rank, component types) of one label token."""
    m = re.fullmatch(r"(SL|PGL|GL)(\d+)", token)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if kind == "GL":
            rows = [[(1 if j == i else -1 if j == i + 1 else 0) for j in range(n)]
                    for i in range(n - 1)]
            return rows, [list(r) for r in rows], n, (f"A{n - 1}",) if n > 1 else ()
        cartan, unit = _sl_rows(n)
        if kind == "SL":
            return cartan, unit, n - 1, (f"A{n - 1}",)
        return unit, cartan, n - 1, (f"A{n - 1}",)
    if token == "Sp4":
        return [[1, -1], [0, 2]], [[1, -1], [0, 1]], 2, _SINGLE[token]
    if token == "G2":
        return [[2, -1], [-3, 2]], [[1, 0], [0, 1]], 2, _SINGLE[token]
    if token == "SO4":
        # (SL2 x SL2) / diagonal mu_2: coweights Z^2 + Z(1/2, 1/2)
        return [[1, 1], [1, -1]], [[1, 1], [1, -1]], 2, _SINGLE[token]
    m = re.fullmatch(r"T(\d+)", token)
    if m:
        return [], [], int(m.group(1)), ()
    raise ValueError(f"unknown label token {token!r}")


def datum(label):
    """Root datum dict of a product label such as 'SL3xSL3' or 'GL2xT2'."""
    blocks = [_single(t) for t in label.split("x")]
    total = sum(b[2] for b in blocks)
    roots, coroots, offset = [], [], 0
    for broots, bcoroots, brank, _ in blocks:
        pad = lambda row: [0] * offset + list(row) + [0] * (total - offset - brank)
        roots += [pad(r) for r in broots]
        coroots += [pad(r) for r in bcoroots]
        offset += brank
    return {"rank": total, "simple_roots": roots, "simple_coroots": coroots,
            "name": label}


def component_types(label):
    return tuple(t for token in label.split("x") for t in _single(token)[3])


def closed_form_sizes(label):
    """(|Phi|, |W|) from the classification: A_n has n(n+1) roots and
    (n+1)! Weyl elements, B2 has 8 and 8, G2 has 12 and 12."""
    roots, order = 0, 1
    for t in component_types(label):
        if t.startswith("A"):
            n = int(t[1:])
            roots += n * (n + 1)
            order *= math.factorial(n + 1)
        else:
            roots += {"B2": 8, "G2": 12}[t]
            order *= {"B2": 8, "G2": 12}[t]
    return roots, order


# dual Coxeter numbers, from the classification
def dual_coxeter(label):
    (t,) = component_types(label)
    return int(t[1:]) + 1 if t.startswith("A") else {"B2": 3, "G2": 4}[t]


# -- root closure ------------------------------------------------------------


def cartan(d):
    """Entry [i][j] = <alpha_i, coroot_j>."""
    return [[dot(a, c) for c in d["simple_coroots"]] for a in d["simple_roots"]]


def positive_roots(d):
    """Positive (root, coroot) pairs of a datum dict.

    Works in simple-root and simple-coroot coordinates: s_j moves the
    root coefficients c by -<beta, coroot_j> e_j, so positivity is read off
    the signs of c, with no elimination.
    """
    a = cartan(d)
    s = len(a)
    seen = {}
    frontier = []
    for i in range(s):
        e = tuple(int(k == i) for k in range(s))
        seen[e] = e
        frontier.append(e)
    while frontier:
        nxt = []
        for c in frontier:
            cc = seen[c]
            for j in range(s):
                # <beta, coroot_j> and <alpha_j, beta_coroot>
                p = sum(c[i] * a[i][j] for i in range(s))
                q = sum(a[j][i] * cc[i] for i in range(s))
                c2 = tuple(x - (p if k == j else 0) for k, x in enumerate(c))
                cc2 = tuple(x - (q if k == j else 0) for k, x in enumerate(cc))
                if all(x >= 0 for x in c2) and any(c2) and c2 not in seen:
                    seen[c2] = cc2
                    nxt.append(c2)
        frontier = nxt
    n = d["rank"]
    out = []
    for c, cc in sorted(seen.items()):
        beta = tuple(sum(c[i] * d["simple_roots"][i][k] for i in range(s))
                     for k in range(n))
        cobeta = tuple(sum(cc[i] * d["simple_coroots"][i][k] for i in range(s))
                       for k in range(n))
        out.append((beta, cobeta))
    return out


def killing_gram(d):
    """sum over all roots beta of beta beta^T, a W-invariant Gram on coweights."""
    n = d["rank"]
    g = [[0] * n for _ in range(n)]
    for beta, _ in positive_roots(d):
        for i in range(n):
            for j in range(n):
                g[i][j] += 2 * beta[i] * beta[j]
    return g


def _components(d):
    a = cartan(d)
    s = len(a)
    comps, seen = [], set()
    for start in range(s):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(s):
                if j not in seen and a[i][j]:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def normalized_killing(d):
    """Per component, the Killing Gram scaled so that the shortest simple
    coroot has square length 2; summed over components."""
    n = d["rank"]
    total = [[Fraction(0)] * n for _ in range(n)]
    for comp in _components(d):
        sub = dict(d, simple_roots=[d["simple_roots"][i] for i in comp],
                   simple_coroots=[d["simple_coroots"][i] for i in comp])
        k = killing_gram(sub)
        shortest = min(dot(matvec(k, d["simple_coroots"][i]), d["simple_coroots"][i])
                       for i in comp)
        for i in range(n):
            for j in range(n):
                total[i][j] += Fraction(2 * k[i][j], shortest)
    return total


def minimal_even(d):
    """The least positive multiple of the normalized Killing Gram that is
    integral with even diagonal."""
    g = normalized_killing(d)
    m = 1
    for i, row in enumerate(g):
        for j, x in enumerate(row):
            m = math.lcm(m, x.denominator, (x / 2).denominator if i == j else 1)
    return [[int(x * m) for x in row] for row in g]


def symmetrizer(d):
    """Minimal positive f with f_i <alpha_i, coroot_j> symmetric: f_i is
    proportional to the square length of the i-th simple coroot."""
    k = killing_gram(d)
    lengths = [dot(matvec(k, c), c) for c in d["simple_coroots"]]
    f = [0] * len(lengths)
    for comp in _components(d):
        base = min(lengths[i] for i in comp)
        for i in comp:
            f[i] = Fraction(lengths[i], base)
    den = math.lcm(*(x.denominator for x in f)) if f else 1
    return [int(x * den) for x in f]


def form_order(gram, v):
    """Order of Q(v) = v^T gram v / 2 in Q/Z."""
    return (Fraction(dot(matvec(gram, v), v)) / 2).denominator


# -- Weyl dimensions on the twisted dual --------------------------------------


def dual_weyl_dim(pos, gram, lam):
    """Dimension of the irreducible of the twisted dual with highest weight
    lam (a source coweight).

    The dual's positive roots are r_b * b_coroot with r_b the order of the
    form on b_coroot, and its positive coroots are b / r_b, so Weyl's
    product is prod_b <lam + rho', b> / <rho', b>, with
    rho' = (1/2) sum_b r_b b_coroot.
    """
    n = len(lam)
    rho = [Fraction(0)] * n
    for _, cob in pos:
        r = form_order(gram, cob)
        rho = [x + Fraction(r * y, 2) for x, y in zip(rho, cob)]
    out = Fraction(1)
    for beta, _ in pos:
        out *= (dot(lam, beta) + dot(rho, beta)) / dot(rho, beta)
    if out.denominator != 1:
        raise ArithmeticError(f"non-integral Weyl dimension {out}")
    return int(out)


def clebsch_gordan(lam, mu, root, coroot, r):
    """Rank one: the constituents of V(lam) x V(mu) on the twisted dual, as
    source coweights.  The dual simple root is r * coroot and pairs as
    <., root / r>, so V(a) x V(b) = sum_k V(a + b - 2k), 0 <= k <= min(a, b)."""
    a, b = dot(lam, root) // r, dot(mu, root) // r
    top = tuple(x + y for x, y in zip(lam, mu))
    return {tuple(t - k * r * c for t, c in zip(top, coroot)): 1
            for k in range(min(a, b) + 1)}


# -- exact linear algebra ---------------------------------------------------


def solve(rows, target):
    """Fractions x with sum_i x_i rows[i] = target, or None.  Assumes the
    rows are independent; any inconsistency returns None."""
    s, n = len(rows), len(target)
    aug = [[Fraction(rows[i][k]) for i in range(s)] + [Fraction(target[k])]
           for k in range(n)]
    r = 0
    for c in range(s):
        piv = next((i for i in range(r, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][s] for i in range(r, n)):
        return None
    return tuple(aug[i][s] for i in range(s))


def det(m):
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def lattice_basis(gens, n):
    """An echelon basis of the integer span of gens, by gcd steps column by
    column."""
    rows = [list(g) for g in gens if any(g)]
    out = []
    for c in range(n):
        nz = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[c]))
            p, rest = nz[0], []
            for r in nz[1:]:
                q = r[c] // p[c]
                r = [x - q * y for x, y in zip(r, p)]
                if r[c]:
                    rest.append(r)
                elif any(r):
                    rows.append(r)
            nz = [p] + rest
        if nz:
            out.append(nz[0])
    return out


def form_kernel(gram, k):
    """Basis of {lam in Z^n : gram lam = 0 mod k}, for an integer Gram.

    The lattice contains k Z^n, so its generators are k e_j together with
    the residues mod k that the Gram kills; the residues are enumerated
    outright, which is cheap for the ranks and levels used here.
    """
    n = len(gram)
    gens = [[k * int(i == j) for j in range(n)] for i in range(n)]
    for v in itertools.product(range(k), repeat=n):
        if any(v) and all(x % k == 0 for x in matvec(gram, v)):
            gens.append(list(v))
    return lattice_basis(gens, n)


def expected_double_dual(d, gram, k):
    """The double dual of the form gram / k on d, built from its definition.

    The twisted dual has weights L = ker kappa, roots r_i coroot_i and
    coroots alpha_i / r_i.  Its Langlands dual has weights the dual lattice
    of L, roots alpha_i / r_i and coroots r_i coroot_i in L.  In the basis
    dual to a basis b of L, the root alpha_i / r_i has coordinates
    <alpha_i, b_j> / r_i and the coroot has its b-coordinates.
    """
    basis = form_kernel(gram, k)
    roots, coroots = [], []
    for alpha, cor in zip(d["simple_roots"], d["simple_coroots"]):
        r = (Fraction(dot(matvec(gram, cor), cor), 2 * k)).denominator
        row = [Fraction(dot(alpha, b), r) for b in basis]
        coeffs = solve(basis, [r * x for x in cor])
        if coeffs is None or any(x.denominator != 1 for x in row + list(coeffs)):
            raise ArithmeticError("the form does not define an integral dual")
        roots.append([int(x) for x in row])
        coroots.append([int(x) for x in coeffs])
    return {"rank": len(basis), "simple_roots": roots, "simple_coroots": coroots,
            "name": None}


# -- changes of basis ----------------------------------------------------------


def unimodular(n, rng, steps):
    """(M, M^-T) for M a product of `steps` elementary transvections
    row_i += c row_j with c = +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv_t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        # (E M)^-T = E^-T M^-T, and E^-T adds -c times row i to row j
        inv_t[j] = [a - c * b for a, b in zip(inv_t[j], inv_t[i])]
    return m, inv_t


def signed_permutation(n, rng):
    """(M, M^-T) for a random signed permutation M, which is orthogonal."""
    perm = rng.sample(range(n), n)
    m = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return m, [list(row) for row in m]


class Rebase:
    """A seeded GL_n(Z) change of basis: weights move by M, coweights by
    M^-T, Grams on coweights by M G M^T, so every pairing is kept.  With
    steps=None, M is a signed permutation, which keeps entry sizes and so
    the cost of exact arithmetic on the data."""

    def __init__(self, n, rng, steps):
        self.m, self.inv_t = (signed_permutation(n, rng) if steps is None
                              else unimodular(n, rng, steps))

    def weight(self, v):
        return list(matvec(self.m, v))

    def coweight(self, v):
        return tuple(matvec(self.inv_t, v))

    def datum(self, d):
        return {"rank": d["rank"],
                "simple_roots": [self.weight(r) for r in d["simple_roots"]],
                "simple_coroots": [list(self.coweight(c)) for c in d["simple_coroots"]],
                "name": d.get("name")}

    def gram(self, g):
        mg = [matvec(g, row) for row in self.m]      # rows of M G, G symmetric
        return [[dot(mg[a], self.m[b]) for b in range(len(g))]
                for a in range(len(g))]


# -- witness checks -----------------------------------------------------------


def check_iso_witness(p, perm, d1, d2):
    """An isomorphism witness P (d1 weights -> d2 weights) is unimodular,
    carries each simple root of d1 onto the permuted simple root of d2, and
    P^-T does the same for the coroots (equivalently P^T c2 = c1)."""
    if p is None or perm is None or abs(det(p)) != 1:
        return False
    pt = transpose(p)
    for i, j in enumerate(perm):
        if matvec(p, d1["simple_roots"][i]) != tuple(d2["simple_roots"][j]):
            return False
        if matvec(pt, d2["simple_coroots"][j]) != tuple(d1["simple_coroots"][i]):
            return False
    return True


def check_iso_map(p, d1, d2):
    """A witness P given without its permutation: P must carry the set of
    simple roots of d1 onto that of d2; the permutation is read off the
    images and the witness is then checked as by `check_iso_witness`."""
    if p is None or len(d1["simple_roots"]) != len(d2["simple_roots"]):
        return False
    targets = [tuple(r) for r in d2["simple_roots"]]
    images = [matvec(p, r) for r in d1["simple_roots"]]
    if sorted(images) != sorted(targets) or len(set(targets)) != len(targets):
        return False
    perm = tuple(targets.index(img) for img in images)
    return check_iso_witness(p, perm, d1, d2)
