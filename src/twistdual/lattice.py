"""Exact integer linear algebra on lattices.

Everything here is pure and exact: matrices are immutable, entries are
arbitrary-precision Python ints, and no floating point appears anywhere.
Two reductions do all the elimination.  `_hermite_rows`, the row Hermite
normal form, answers every integer lattice question: sublattices are kept
in that form, so that equality of sublattices is equality of data, and
ranks, kernels, intersections and invariant factors come from it.
`_eliminate`, Bareiss's fraction-free elimination, answers only the
rational ones: `IntMatrix.det`, and `integral_inverse`, the inverse of a
square matrix as an integer matrix over an explicit denominator, so no
Fraction is built here.

Every kernel, exact or modulo N, is one row Hermite reduction
(`kernel_mod`), and so is every dual's weight lattice, a datum's basis of
X^W and an intersection.  A kernel's input is first divided by the gcd
of the modulus and the entries, which keeps its solutions, and the
reduction is memoised by that reduced input in a bounded LRU cache of 64
kernels, so that two constructions of one dual reach one congruence and
pay for it once.  `smith_normal_form` returns the invariant factors
alone, which `quotient_group` reads, and through it `pi1`, from Hermite
reductions of the rows and the columns in turn; no Smith transform is
built anywhere.
Identity and zero rows are built once per size and shared, as tuples are
immutable.

A matrix is checked once, where it enters the library.  The entries are
the public `IntMatrix` constructor and `Sublattice.from_rows` (and
through them `RootDatum(...)` given lists and `RootDatum.from_dict`) and
`RootDatum._vector`; each reads every entry through `_int_row` (ints, or
integral values of other numeric types; not 1.5, not a bool) and rejects
ragged rows, and `Sublattice` takes only an `IntMatrix` basis and an int
ambient rank >= 0.  `qform` checks its Gram data itself, in the Gram
parse and `QForm.from_dict`.  What this module computes from checked
ints - products, transposes, identities, zero matrices, Hermite
forms, kernels - is built by `_trusted_matrix`, which stores its
tuple of int tuples as it is and which no other module calls.  Rows that
`qform`, `rootdata` and `dualgroup` compute by integer arithmetic from
checked matrices (the Grams a form stores, a datum's frame, a dual's roots
and coroots, the matrices of the dual constructions and of `isomorphic`)
become a matrix through `_computed_matrix`, the one constructor for them,
which skips the entry check too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul


class MalformedMatrixError(ValueError):
    """Matrix data of the wrong shape or with a non-integer entry."""


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, cols=None):
        if cols is not None and type(cols) is not int:
            raise MalformedMatrixError(f"column count {cols!r} is not an integer")
        rows = tuple(_int_row(row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MalformedMatrixError("ragged rows in matrix")
            if cols is not None and cols != width:
                raise MalformedMatrixError("explicit column count disagrees with data")
        else:
            if cols is None or cols < 0:
                raise MalformedMatrixError("empty matrix needs a column count >= 0")
            width = cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        _check_size(n, "identity size")
        return _trusted_matrix(_identity_rows(n), n)

    @classmethod
    def zero(cls, rows, cols):
        _check_size(rows, "row count")
        _check_size(cols, "column count")
        return _trusted_matrix(_zero_rows(rows, cols), cols)

    def row(self, i):
        return self.data[i]

    def _columns(self):
        """The columns as a tuple of tuples, also when there is no row."""
        return tuple(zip(*self.data)) if self.data else ((),) * self.cols

    def transpose(self):
        return _trusted_matrix(self._columns(), self.rows)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = other._columns()
        return _trusted_matrix(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.data),
            other.cols,
        )

    def mul_vec(self, v):
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.data)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, sign, den = _eliminate([list(r) for r in self.data], self.cols)
        return sign * den if len(pivots) == self.rows else 0

    def rank(self):
        """Rank over Q: the number of rows of the Hermite form."""
        return len(_hermite_rows(self.data, self.cols))

    def is_unimodular(self):
        return self.rows == self.cols and abs(self.det()) == 1

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def _trusted_matrix(data, cols):
    """An IntMatrix on `data`, a tuple of `cols`-wide tuples of ints that
    this module computed from checked ints; stored without `_int_row`."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "rows", len(data))
    object.__setattr__(m, "cols", cols)
    return m


def _computed_matrix(rows, cols):
    """An IntMatrix on `rows`, rows of `cols` ints that the library computed
    by integer arithmetic from checked matrices; stored without `_int_row`.
    Input from outside goes through the checked `IntMatrix(...)`."""
    return _trusted_matrix(tuple(map(tuple, rows)), cols)


def _int_row(row):
    """The entries as a tuple of ints; a MalformedMatrixError (a ValueError)
    for an entry of another value, such as 1.5, or a bool.  This is the one
    integrality rule for matrix rows and integer vector arguments."""
    row = tuple(row)
    try:
        ints = tuple(map(int, row))
    except (OverflowError, ValueError) as exc:
        raise MalformedMatrixError(f"entry is not an integer: {exc}") from None
    if ints != row or bool in map(type, row):
        bad = next(x for x, y in zip(row, ints) if x != y or type(x) is bool)
        raise MalformedMatrixError(f"entry {bad!r} is not an integer")
    return ints


def _check_int(n, what, positive=True):
    """Raise ValueError unless n is an int, not a bool, and, when `positive`,
    at least 1: the one rule for integer parameters."""
    if type(n) is not int or (positive and n < 1):
        raise ValueError(f"{what} {n!r} is not {'a positive' if positive else 'an'} integer")


def _check_size(n, what):
    if type(n) is not int or n < 0:
        raise MalformedMatrixError(f"{what} {n!r} is not an integer >= 0")


@lru_cache(maxsize=64)
def _identity_rows(n):
    """The rows of the n x n identity, built once per size: the tuples are
    immutable, so every caller shares them."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=64)
def _zero_rows(rows, cols):
    """The rows of the rows x cols zero matrix, built once per size and
    shared like `_identity_rows`."""
    return ((0,) * cols,) * rows


def smith_normal_form(m: IntMatrix) -> tuple:
    """The invariant factors d1 | d2 | ... of m: the diagonal of its Smith
    form U m V, min(rows, cols) entries >= 0 with the zeros last.  No
    transform is kept; `quotient_group` reads these.

    Hermite reductions of the rows and of the columns alternate until
    each row has one nonzero entry (Kannan & Bachem, SIAM J. Comput. 8,
    1979); a gcd/lcm pass then orders those entries into a divisibility
    chain.  From the second pass on the matrix is square and triangular.
    Each pass takes the first diagonal entry d whose row or column is not
    yet clear to the gcd of the entries it reduces against d: a proper
    divisor of d, unless d divides them all, and then d's row and column
    are cleared for good.  A positive integer cannot fall forever, so the
    alternation ends."""
    rows = _hermite_rows(m.data, m.cols)
    while any(sum(map(bool, row)) > 1 for row in rows):
        rows = _hermite_rows(tuple(zip(*rows)), len(rows))
    diag = [next(filter(None, row)) for row in rows]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return (*diag, *[0] * (min(m.rows, m.cols) - len(diag)))


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite_rows(rows, ncols, modulus=None, start=0):
    """Canonical row Hermite normal form; zero rows are dropped.

    Column by column, the first row with a nonzero entry there takes in
    each later one by the unimodular step [[s, t], [-y/g, x/g]] for
    s x + t y = g = gcd(x, y) (a plain subtraction when x divides y), which
    leaves the later row 0 in that column; the pivot is made positive and
    reduces the entries above it to [0, pivot).

    With a `modulus` N the rows are taken together with N Z^ncols, the
    Hermite form modulo a lattice multiple (Domich, Kannan & Trotter, Math.
    Oper. Res. 12, 1987; Cohen, GTM 138, Alg. 2.4.8): as the lattice holds
    N Z^ncols, every entry is kept mod N, and N e_c heads column c, so that
    its pivot divides N and the lattice keeps full rank: one row per column.

    Only the rows whose pivot is at column `start` or later are kept and
    reduced, which is the Hermite basis of the lattice's vectors that
    vanish on the first `start` columns; they are returned without those
    columns, as `kernel_mod` and `intersect` read them."""
    mat = [list(r) if modulus is None else [x % modulus for x in r] for r in rows]
    mat = [r for r in mat if any(r)]
    out = []
    for col in range(ncols):
        top = None if modulus is None else [modulus * (j == col) for j in range(ncols)]
        rest = []
        for row in mat:
            y = row[col]
            if not y:
                rest.append(row)
                continue
            if top is None:
                top = row
                continue
            x = top[col]
            if y % x == 0:
                q = y // x
                row = [a - q * b for a, b in zip(row, top)]
            elif x % y == 0:
                q = x // y
                top, row = row, [a - q * b for a, b in zip(top, row)]
            else:
                g, s, t = _xgcd(x, y)
                a, b = x // g, y // g
                top, row = ([s * u + t * v for u, v in zip(top, row)],
                            [a * v - b * u for u, v in zip(top, row)])
                if modulus is not None:
                    top = [z % modulus for z in top]
            if modulus is not None:
                row = [z % modulus for z in row]
            if any(row):
                rest.append(row)
        mat = rest
        if top is None or col < start:
            continue
        if top[col] < 0:
            top = [-z for z in top]
        p = top[col]
        for i, row in enumerate(out):
            q = row[col] // p
            if q:
                out[i] = [a - q * b for a, b in zip(row, top)]
        out.append(top)
    return tuple(tuple(row[start:]) for row in out)


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank, stored by its Hermite-form basis."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        _check_size(self.ambient_rank, "ambient rank")
        if not isinstance(self.basis, IntMatrix):
            raise MalformedMatrixError(f"basis {self.basis!r} is not an IntMatrix")
        if self.basis.cols != self.ambient_rank:
            raise ValueError(f"basis of width {self.basis.cols} in Z^{self.ambient_rank}")
        # equality, coefficients and contains read the basis as Hermite
        # form, so a basis given from outside is reduced here
        object.__setattr__(self, "basis", _trusted_matrix(
            _hermite_rows(self.basis.data, self.ambient_rank), self.ambient_rank))

    @classmethod
    def _hermite(cls, ambient_rank, rows):
        """The sublattice on rows, a tuple of int tuples already in Hermite
        form, unchecked."""
        out = object.__new__(cls)
        out.__dict__.update(ambient_rank=ambient_rank,
                            basis=_trusted_matrix(rows, ambient_rank))
        return out

    @classmethod
    def from_rows(cls, ambient_rank, rows):
        """The sublattice spanned by rows, checked by the IntMatrix rule."""
        _check_size(ambient_rank, "ambient rank")
        rows = IntMatrix(rows, cols=ambient_rank).data
        return cls._hermite(ambient_rank, _hermite_rows(rows, ambient_rank))

    @classmethod
    def full(cls, ambient_rank):
        _check_size(ambient_rank, "ambient rank")
        return cls._hermite(ambient_rank, _identity_rows(ambient_rank))

    @classmethod
    def zero(cls, ambient_rank):
        _check_size(ambient_rank, "ambient rank")
        return cls._hermite(ambient_rank, ())

    @property
    def rank(self):
        return self.basis.rows

    def _pivots(self):
        """The pivot column of each Hermite basis row, found once per
        lattice and kept beside the (frozen) fields."""
        pivots = self.__dict__.get("_pivot_columns")
        if pivots is None:
            pivots = tuple(next(j for j, x in enumerate(row) if x) for row in self.basis.data)
            self.__dict__["_pivot_columns"] = pivots
        return pivots

    def coefficients(self, v):
        """Integer coordinates of v in the basis, or None if v is outside."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        v = list(v)
        coeffs = []
        for row, c in zip(self.basis.data, self._pivots()):
            q, r = divmod(v[c], row[c])
            if r:
                return None
            coeffs.append(q)
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(coeffs) if not any(v) else None

    def contains(self, v):
        return self.coefficients(v) is not None


def kernel_mod(m: IntMatrix, modulus=None) -> Sublattice:
    """All x with m x == 0 modulo `modulus` (exact kernel for modulus None).

    One row Hermite reduction, with no Smith form.  Row i of [m^T | I] is
    (column i of m | e_i), so the combination x of the rows is (m x | x),
    and the rows of the Hermite form whose pivot lies past the first r =
    m.rows columns span exactly the (0 | x) with m x = 0: their last n
    entries are the kernel's Hermite basis as they stand, and
    `_hermite_rows` keeps only those rows.

    Modulo N the kernel is {x : (0 | x) in L} for L the span of the rows
    and the N e_k (k < r).  L holds N Z^(r+n): besides the N e_k, it holds
    N (column i of m | e_i) - sum_k N m_ki e_k = (0 | N e_i).  So the
    reduction may run modulo N, with N e_c as each pivot's partner.

    m and N are first divided by g = gcd(N, every entry of m) (the content
    of m for the exact kernel, N taken as 0): N | m x if and only if
    (N / g) | (m / g) x, so the solutions, and with them the canonical
    Hermite basis, are the same; g = N means m = 0 mod N, which kills
    everything.  The reduced input is the key of a bounded memo
    (`_kernel`, 64 kernels), so that two constructions that reach one
    congruence by different scalings, such as the FL dual's d K mod 2hN
    and the lowest-terms Gram of d iota / N, share one reduction.

    The exact kernel is saturated; the modular kernel has full rank.
    """
    if modulus is not None:
        _check_int(modulus, "modulus")
    if not any(map(any, m.data)):
        # the zero matrix kills everything, modulo anything
        return Sublattice.full(m.cols)
    g = math.gcd(modulus or 0, *(math.gcd(*row) for row in m.data))
    if g == modulus:
        # so does m = 0 mod N
        return Sublattice.full(m.cols)
    rows = m.data if g == 1 else tuple(tuple(x // g for x in row) for row in m.data)
    return _kernel(rows, m.cols, modulus and modulus // g)


@lru_cache(maxsize=64)
def _kernel(rows, cols, modulus):
    """`kernel_mod`'s reduction of [m^T | I] for m on `rows`, a nonzero
    tuple of int tuples already divided by the gcd with the modulus (None
    for the exact kernel), memoised by that reduced input: a pure function
    of its key, whose result, a frozen `Sublattice`, every caller shares."""
    cat = [col + e for col, e in zip(zip(*rows), _identity_rows(cols))]
    return Sublattice._hermite(cols, _hermite_rows(cat, len(rows) + cols, modulus, len(rows)))


def quotient_group(s: Sublattice) -> "FGAbelianGroup":
    """Invariant factors of Z^ambient / s."""
    free = s.ambient_rank - s.rank
    return FGAbelianGroup.from_factors([*smith_normal_form(s.basis), *[0] * free])


def intersect(s1: Sublattice, s2: Sublattice) -> Sublattice:
    """Intersection of two sublattices of the same ambient lattice.  When
    one side is all of Z^n the other is returned as it is, already in
    Hermite form, without a reduction.

    Otherwise one row Hermite reduction of [B1 | B1; B2 | 0] (Zassenhaus;
    Cohen, GTM 138, Sec. 2.4): its lattice is {(x + y | x) : x in s1,
    y in s2}, whose vectors that vanish on the first n columns are the
    (0 | x) with y = -x, so x in both; the rows with a pivot past column n
    are the intersection's Hermite basis in their last n entries."""
    if s1.ambient_rank != s2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = s1.ambient_rank
    whole = _identity_rows(n)
    if s1.basis.data == whole:
        return s2
    if s2.basis.data == whole:
        return s1
    if s1.rank == 0 or s2.rank == 0:
        return Sublattice.zero(n)
    rows = [*(row + row for row in s1.basis.data), *(row + (0,) * n for row in s2.basis.data)]
    return Sublattice._hermite(n, _hermite_rows(rows, 2 * n, None, n))


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group by invariant factors.

    Nonzero factors are >= 2 and each divides the next; trailing zeros
    encode free factors.
    """

    invariant_factors: tuple

    @classmethod
    def from_factors(cls, factors):
        torsion = sorted(abs(f) for f in factors if f != 0 and abs(f) != 1)
        free = sum(1 for f in factors if f == 0)
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"factors {torsion} do not form a divisibility chain")
        return cls(tuple(torsion) + (0,) * free)

    @property
    def free_rank(self):
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def num_generators(self):
        return len(self.invariant_factors)

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def is_trivial(self):
        return not self.invariant_factors

    def reduce_element(self, v):
        if len(v) != self.num_generators:
            raise ValueError("element length mismatch")
        return tuple(x % f if f else x for x, f in zip(v, self.invariant_factors))

    def add(self, v, w):
        return self.reduce_element([a + b for a, b in zip(v, w)])

    def describe(self):
        if not self.invariant_factors:
            return "1"
        parts = [f"Z/{f}" if f else "Z" for f in self.invariant_factors]
        return " x ".join(parts)


@dataclass(frozen=True)
class LatticeHom:
    """Homomorphism Z^domain_rank -> target, by images of the unit vectors."""

    domain_rank: int
    target: FGAbelianGroup
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.domain_rank:
            raise ValueError("need one image per basis vector")
        for im in self.images:
            if len(im) != self.target.num_generators:
                raise ValueError("image has wrong length for target group")

    def __call__(self, v):
        if len(v) != self.domain_rank:
            raise ValueError("vector length mismatch")
        acc = [0] * self.target.num_generators
        for x, im in zip(v, self.images):
            for k in range(len(acc)):
                acc[k] += x * im[k]
        return self.target.reduce_element(acc)


# -- elimination -------------------------------------------------------------


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan reduction of `rows`, lists of ints
    changed in place, on their first `width` columns (Bareiss, Math. Comp.
    22, 1968).

    Each pivot step replaces every other row by (p * row - row[c] * top) /
    prev, for p the new pivot and prev the one before; the division is
    exact, since every entry stays a minor of the input.  Returns (rows,
    pivots, sign, den): the rows, equal to den times the reduced echelon
    form; the pivot columns, in row order; the sign (-1)^(row swaps); and
    den, the last pivot, which is sign times the determinant of the pivot
    minor (1 when there is no pivot).
    """
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
        r += 1
    return rows, pivots, sign, prev


def outer_sum(vectors, dim) -> IntMatrix:
    """The Gram matrix sum of v v^T over integer vectors of length dim."""
    k = [[0] * dim for _ in range(dim)]
    for v in vectors:
        for a, va in enumerate(v):
            if va:
                row = k[a]
                for b, vb in enumerate(v):
                    row[b] += va * vb
    return IntMatrix(k, cols=dim)


def integral_inverse(rows):
    """The inverse of a square integer matrix over an explicit denominator.

    Returns (inverse, den): den = |det rows| > 0 and the integer matrix
    inverse = den rows^-1, as a tuple of rows; a ValueError when the rows
    are linearly dependent.  The row operations that reduce [rows | I] to
    the identity on the left invert the rows on the right.
    """
    n = len(rows)
    work, pivots, _, den = _eliminate(
        [[*row, *unit] for row, unit in zip(rows, _identity_rows(n))], n)
    if len(pivots) < n:
        raise ValueError("rows are linearly dependent")
    sign = 1 if den > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in work), sign * den


def common_denominator(fractions):
    d = 1
    for f in fractions:
        d = d * f.denominator // math.gcd(d, f.denominator)
    return d
