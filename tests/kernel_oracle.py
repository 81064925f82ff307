"""Kernels of integer matrices by routes apart from the library's one
Hermite reduction, so that the tests check `kernel_mod` and
`_hermite_rows` against them: the Hermite form by repeated sorting, the
kernel through sympy's Smith decomposition, and the kernel modulo N by
enumeration.  The same decomposition gives the invariant factors that
`smith_normal_form` is checked against.  `lattice_index`, the index of a
sublattice by the determinant of its coordinates, serves the tests that
compare lattices, and `member` maps coordinates back into the ambient
lattice."""

import itertools
import math

from twistdual.lattice import IntMatrix


def sorted_hermite_rows(rows, ncols):
    """Row Hermite normal form, zero rows dropped: per column, the rows are
    sorted by the size of their entry there and reduced by the least until
    one nonzero entry is left."""
    mat = [list(r) for r in rows]
    pr = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, len(mat)) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: (abs(mat[i][col]), i))
            i0 = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[i0])]
        nz = [i for i in range(pr, len(mat)) if mat[i][col] != 0]
        if not nz:
            continue
        mat[pr], mat[nz[0]] = mat[nz[0]], mat[pr]
        if mat[pr][col] < 0:
            mat[pr] = [-x for x in mat[pr]]
        p = mat[pr][col]
        for i in range(pr):
            q = mat[i][col] // p
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[pr])]
        pr += 1
    return tuple(map(tuple, mat[:pr]))


def smith(m):
    """(D, U, V) with U m V = D, U and V unimodular and D diagonal, by
    sympy's Smith decomposition over ZZ, as tuples of int rows."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_decomp

    a = sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row])
    d, u, v = smith_normal_decomp(a, domain=sympy.ZZ)
    assert u * a * v == d and abs(u.det()) == 1 and abs(v.det()) == 1
    return tuple(tuple(int(x) for x in d.row(i)) for i in range(d.rows)), \
        tuple(tuple(int(x) for x in u.row(i)) for i in range(u.rows)), \
        tuple(tuple(int(x) for x in v.row(i)) for i in range(v.rows))


def invariant_factors(m):
    """The diagonal of the Smith form of m, min(rows, cols) entries >= 0."""
    d = smith(m)[0]
    return tuple(abs(d[i][i]) for i in range(min(m.rows, m.cols)))


def smith_kernel(m, modulus=None):
    """The Hermite basis of {x : m x = 0 mod modulus} (exact for None) from
    U m V = D: column j of V generates the kernel when d_j = 0, and
    modulo N column j times N / gcd(d_j, N) does, for every j."""
    if not any(map(any, m.data)):
        return tuple(tuple(int(i == j) for j in range(m.cols)) for i in range(m.cols))
    d, _, v = smith(m)
    gens = []
    for j in range(m.cols):
        dj = d[j][j] if j < min(m.rows, m.cols) else 0
        col = tuple(row[j] for row in v)
        if modulus is None:
            if dj == 0:
                gens.append(col)
        else:
            step = modulus // math.gcd(dj, modulus)
            gens.append(tuple(step * x for x in col))
    return sorted_hermite_rows(gens, m.cols)


def residue_kernel(m, modulus):
    """Every x in [0, modulus)^cols with m x = 0 mod modulus, as a set."""
    return {x for x in itertools.product(range(modulus), repeat=m.cols)
            if all(y % modulus == 0 for y in m.mul_vec(x))}


def lattice_index(outer, inner):
    """Index [outer : inner] for inner contained in outer; None if infinite."""
    coeff_rows = []
    for row in inner.basis.data:
        c = outer.coefficients(row)
        if c is None:
            raise ValueError("inner lattice is not contained in outer")
        coeff_rows.append(c)
    if inner.rank < outer.rank:
        return None
    return abs(IntMatrix(coeff_rows, cols=outer.rank).det())


def member(sublattice, coeffs):
    """The vector with coordinates `coeffs` in the sublattice's basis."""
    return tuple(sum(c * row[j] for c, row in zip(coeffs, sublattice.basis.data))
                 for j in range(sublattice.ambient_rank))
