"""A Fraction Gauss-Jordan left solve and unimodular inverse, kept apart
from the library's fraction-free elimination and Smith form so that the
tests check them against independent routines."""

from fractions import Fraction

from twistdual.lattice import IntMatrix


def solve_left_rational(rows, target):
    """Fractions x with sum_i x_i * rows[i] = target, or None if inconsistent.

    When the rows are linearly independent the solution is unique.
    """
    if not rows:
        return () if not any(target) else None
    nvars = len(rows)
    # Gauss-Jordan on the transposed system [rows^T | target]
    aug = [[Fraction(row[j]) for row in rows] + [Fraction(target[j])]
           for j in range(len(rows[0]))]
    pivots = []
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        top = aug[r] = [x / aug[r][c] for x in aug[r]]
        for i, row in enumerate(aug):
            f = row[c]
            if i != r and f:
                aug[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
    if any(row[nvars] for row in aug[r:]):
        return None
    sol = [Fraction(0)] * nvars
    for row, c in zip(aug, pivots):
        sol[c] = row[nvars]
    return tuple(sol)


def inverse_unimodular(m):
    """The inverse of a unimodular IntMatrix; ValueError for any other.

    A square integer matrix with an integral inverse is unimodular, since
    det m and det m^-1 are integers whose product is 1."""
    n = m.rows
    if m.cols != n:
        raise ValueError("matrix is not unimodular")
    inverse = []
    for j in range(n):
        # column j of m^-1 is the solution x of m x = e_j: x^T m^T = e_j^T
        x = solve_left_rational(m.transpose().data, [int(i == j) for i in range(n)])
        if x is None or any(f.denominator != 1 for f in x):
            raise ValueError("matrix is not unimodular")
        inverse.append([int(f) for f in x])
    return IntMatrix(inverse, cols=n).transpose()
