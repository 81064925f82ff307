"""The closure of a root system as the orbit of the simple (root, coroot)
pairs under the simple reflections on full-length vectors, kept apart from
the library's height-raising walk in Cartan coordinates so that the tests
check the root table, and the isomorphism witnesses, against an
independent routine.  Likewise the W-orbit of one vector, closed under the
simple reflections, for the library's chamber walk, Weyl's dimension
product in Fractions over the closure, for its product on Dynkin labels,
and the dual Coxeter number 1 + <rho, theta^v> from the highest root and
the Gram sum of beta beta^T over the closure, for the library's Killing
record."""

from fractions import Fraction

from fraction_oracle import solve_left_rational


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def root_pairs(simple_roots, simple_coroots):
    """All (root, coroot) pairs, sorted by root; ValueError when two walks
    reach one root with different coroots."""
    simple = list(zip(map(tuple, simple_roots), map(tuple, simple_coroots)))
    seen = dict(simple)
    frontier = simple
    while frontier:
        nxt = []
        for beta, cobeta in frontier:
            for alpha, coalpha in simple:
                # s(v) = v - <v, coalpha> alpha on weights, v - <alpha, v> coalpha on coweights
                p, q = _dot(beta, coalpha), _dot(alpha, cobeta)
                b2 = tuple(x - p * a for x, a in zip(beta, alpha))
                cb2 = tuple(x - q * c for x, c in zip(cobeta, coalpha))
                if b2 not in seen:
                    seen[b2] = cb2
                    nxt.append((b2, cb2))
                elif seen[b2] != cb2:
                    raise ValueError("root/coroot correspondence is inconsistent")
        frontier = nxt
    return tuple(sorted(seen.items()))


def killing_gram(simple_roots, simple_coroots):
    """The sum of beta beta^T over the roots beta of the closure of the
    given simple pairs (at least one), as a tuple of rows."""
    roots = [beta for beta, _ in root_pairs(simple_roots, simple_coroots)]
    n = len(roots[0])
    return tuple(tuple(sum(b[x] * b[y] for b in roots) for y in range(n)) for x in range(n))


def carries_root_data(p, first, second):
    """Whether the weight map p (rows; it acts on column vectors) carries
    every (root, coroot) pair of `first` onto one of `second`, each given
    as (simple roots, simple coroots): p beta is a root of `second` whose
    coroot pulls back under p^T to the coroot of beta.  With as many roots
    on each side the map is onto, since p is taken to be injective."""
    pairs1, pairs2 = root_pairs(*first), dict(root_pairs(*second))
    if len(pairs1) != len(pairs2):
        return False
    cols = list(zip(*p))
    for beta, cobeta in pairs1:
        gamma = pairs2.get(tuple(_dot(row, beta) for row in p))
        if gamma is None or tuple(_dot(col, gamma) for col in cols) != cobeta:
            return False
    return True


def root_coordinates(simple_roots, beta):
    """The integer coefficients of beta in the simple roots, by a Fraction
    solve."""
    sol = solve_left_rational([tuple(r) for r in simple_roots], beta)
    assert sol is not None and all(x.denominator == 1 for x in sol)
    return tuple(int(x) for x in sol)


def positive_root_pairs(pairs, coords):
    """`coords` maps each root to its `root_coordinates`."""
    return tuple((b, cb) for b, cb in pairs if all(c >= 0 for c in coords[b]))


def highest_root(simple_coroots, pairs, coords):
    """The dominant root whose coordinates bound every root's from above."""
    for beta, cobeta in pairs:
        if all(_dot(beta, cv) >= 0 for cv in simple_coroots) and all(
                x >= y for c in coords.values() for x, y in zip(coords[beta], c)):
            return beta, cobeta
    return None


def dual_coxeter(simple_roots, simple_coroots):
    """1 + <rho, theta^v> for the highest root theta of the irreducible
    system of the given simple pairs, with rho half the sum of the positive
    roots of the closure: a Fraction, an integer on a root system."""
    pairs = root_pairs(simple_roots, simple_coroots)
    coords = {b: root_coordinates(simple_roots, b) for b, _ in pairs}
    positive = positive_root_pairs(pairs, coords)
    _, theta_cov = highest_root(simple_coroots, pairs, coords)
    two_rho = [sum(col) for col in zip(*(b for b, _ in positive))]
    return 1 + Fraction(_dot(two_rho, theta_cov), 2)


def orbit(v, simple, cosimple):
    """The orbit of v under the reflections u -> u - <u, cosimple_i> simple_i,
    as a dict from each member to (-1)^k for the first path of k reflections
    that reaches it from v.  Weights take (roots, coroots), coweights
    (coroots, roots).  On a v fixed by no reflection the orbit is a copy of
    W, so the sign is that of the one Weyl element carrying v there."""
    pairs = list(zip(map(tuple, simple), map(tuple, cosimple)))
    sign = {tuple(v): 1}
    frontier = list(sign)
    while frontier:
        nxt = []
        for u in frontier:
            for a, ca in pairs:
                p = _dot(u, ca)
                w = tuple(x - p * y for x, y in zip(u, a))
                if w not in sign:
                    sign[w] = -sign[u]
                    nxt.append(w)
        frontier = nxt
    return sign


def weyl_dim(simple_roots, simple_coroots, lam):
    """prod <lam + rho, beta^v> / <rho, beta^v> over the positive coroots
    of the closure, in Fractions, with rho half the sum of the positive
    roots."""
    pairs = root_pairs(simple_roots, simple_coroots)
    positive = [(b, cb) for b, cb in pairs
                if all(c >= 0 for c in root_coordinates(simple_roots, b))]
    rho = [Fraction(sum(col), 2) for col in zip(*(b for b, _ in positive))]
    dim = Fraction(1)
    for _, cobeta in positive:
        dim *= (_dot(lam, cobeta) + _dot(rho, cobeta)) / _dot(rho, cobeta)
    return dim
