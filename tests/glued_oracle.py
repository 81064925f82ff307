"""The residue walk over the glued-centre congruence, kept apart from the
library's closed-form test so that the tests check `isomorphic` against
it: per matching of simple indices that keeps the Cartan matrix and the
gcd of each simple root and coroot, every residue N mod e of the
congruence that makes the weight map P integral is tried for det N = +-1
mod e, where e is the exponent of X / (Z Delta + X^W).  The frame inverse
is taken in sympy, and the matchings are all permutations, filtered."""

import itertools
import math

from twistdual.lattice import IntMatrix, kernel_mod


def _matchings(d1, d2):
    s = d1.num_simple
    c1, c2 = d1.cartan_matrix, d2.cartan_matrix
    gcds1, gcds2 = ([(math.gcd(*a), math.gcd(*c)) for a, c in
                     zip(d.simple_roots.data, d.simple_coroots.data)] for d in (d1, d2))
    for perm in itertools.permutations(range(s)):
        if all(gcds1[i] == gcds2[perm[i]]
               and all(c1[i][j] == c2[perm[i]][perm[j]] for j in range(s)) for i in range(s)):
            yield perm


def walk(d1, d2, limit=20000):
    """"iso" or "none" for two data of equal rank, equal number of simple
    roots and equal frame index > 1, by walking every coset of residues;
    None when no residue walked gives a witness and some coset has more
    than `limit` residues."""
    unfinished = False
    for e, residues in _cosets(d1, d2, limit):
        if residues is None:
            unfinished = True
        elif any(IntMatrix(big_n).det() % e in (1, e - 1) for big_n in residues):
            return "iso"
    return None if unfinished else "none"


def _cosets(d1, d2, limit):
    """Per matching, e and the residues N mod e that make P integral, one
    at a time: none when the congruence has no solution, and None for more
    than `limit` of them."""
    import sympy

    n, s = d1.rank, d1.num_simple
    k = n - s
    fixed1, fixed2 = (kernel_mod(d.simple_coroots).basis.data for d in (d1, d2))
    inv_t = sympy.Matrix(d1.simple_roots.data + fixed1).inv().T
    e = math.lcm(*(int(sympy.fraction(x)[1]) for x in inv_t))
    big_g = [[int(x * e) for x in inv_t.row(r)] for r in range(n)]
    # row (a, b): the coefficients of M = N^T in (K2^T M G_bot)_ab
    lin = [[fixed2[i][a] * big_g[s + j][b] for i in range(k) for j in range(k)]
           for a in range(n) for b in range(n)]
    for perm in _matchings(d1, d2):
        roots = [d2.simple_roots.data[j] for j in perm]
        system = [[sum(r[a] * t[b] for r, t in zip(roots, big_g)), *row]
                  for (a, b), row in zip(itertools.product(range(n), repeat=2), lin)]
        top, *rest = kernel_mod(IntMatrix(system, cols=1 + k * k), e).basis.data
        # the residues top + span(rest) mod e, one per coefficient vector
        steps = [(e // row[j], row) for j, row in enumerate(rest, 1) if row[j] < e]
        if top[0] != 1:
            yield e, ()
        elif math.prod(size for size, _ in steps) > limit:
            yield e, None
        else:
            yield e, (_residue(top, coeffs, steps, k, e) for coeffs in
                      itertools.product(*(range(size) for size, _ in steps)))


def _residue(top, coeffs, steps, k, e):
    m = top
    for c, (_, row) in zip(coeffs, steps):
        m = [x + c * y for x, y in zip(m, row)]
    # the residue of N = M^T
    return [[x % e for x in m[1 + j::k]] for j in range(k)]
