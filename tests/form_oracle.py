"""The W-invariant Grams as the fixed points of conjugation by the simple
reflection matrices, kept apart from the library's linear equations
2 g cov = (cov^T g cov) alpha so that the tests check `invariant_gram_basis`
against an independent routine."""

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

