"""The W-invariant Grams as the fixed points of conjugation by the simple
reflection matrices, kept apart from the library's linear equations
2 g cov = (cov^T g cov) alpha so that the tests check `invariant_gram_basis`
against an independent routine.  Likewise a form less a multiple of a
Killing Gram in integer numerators over one denominator, for the residual
that `decompose_integer_form` builds from `QForm` values."""

import math
from fractions import Fraction

from twistdual.lattice import IntMatrix, kernel_mod


def invariant_gram_basis(rd):
    """The Hermite basis of the integer symmetric g with s^T g s = g for
    every simple reflection s on the coweight lattice, as Fraction Grams."""
    n = rd.rank
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    var_index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for gi in range(rd.num_simple):
        w = rd.reflection_coweight(gi).data
        for a in range(n):
            for b in range(a, n):
                # entry (a, b) of s^T g s - g
                row = [0] * len(pairs)
                for i in range(n):
                    for j in range(n):
                        key = (i, j) if i <= j else (j, i)
                        row[var_index[key]] += w[i][a] * w[j][b]
                row[var_index[(a, b)]] -= 1
                rows.append(row)
    if not rows:
        rows = [[0] * len(pairs)]
    out = []
    for vec in kernel_mod(IntMatrix(rows, cols=len(pairs)), None).basis.data:
        g = [[0] * n for _ in range(n)]
        for (i, j), k in var_index.items():
            g[i][j] = g[j][i] = vec[k]
        out.append(tuple(tuple(Fraction(x) for x in row) for row in g))
    return out


def less_killing(form, a, kmat):
    """The form (n0 + tau n1) / den, given as (n0, n1, den), less a times
    the Killing Gram kmat, in the same format."""
    n0, n1, den = form
    s = math.lcm(a.rational.denominator, a.tau.denominator)
    return tuple([[s * x - c.numerator * (s // c.denominator) * den * k
                   for x, k in zip(row, krow)] for row, krow in zip(n, kmat.data)]
                 for n, c in ((n0, a.rational), (n1, a.tau))) + (den * s,)
