"""A Fraction Gauss-Jordan left solve, kept apart from the library's
fraction-free elimination so that the tests check it against an
independent routine."""

from fractions import Fraction


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
