"""Tests of the benchmark's independent computations against known values.

    python3 -m pytest perfbench/test_oracle.py
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import reference  # noqa: E402

ZERO2 = [[Fraction(0)] * 2 for _ in range(2)]


@pytest.mark.parametrize("label, roots, order", [
    ("SL2", 2, 2), ("SL6", 30, 720), ("GL5", 20, 120), ("Sp4", 8, 8), ("G2", 12, 12),
    ("SO4", 4, 4), ("SL3xSL3", 12, 36), ("Sp4xG2xSL2", 22, 192), ("GL2xT2", 2, 2),
])
def test_closed_forms_and_root_closure(label, roots, order):
    assert oracle.closed_form_sizes(label) == (roots, order)
    assert 2 * len(oracle.positive_roots(oracle.datum(label))) == roots


def test_positive_roots_pair_to_two():
    for label in ("G2", "Sp4", "SL4", "SO4", "PGL3"):
        for beta, cobeta in oracle.positive_roots(oracle.datum(label)):
            assert oracle.dot(beta, cobeta) == 2


def test_weyl_dimensions_known_values():
    # trivial form: the dual of PGL3 is SL3, and coweight coordinates are
    # the dual's Dynkin labels
    pos = oracle.positive_roots(oracle.datum("PGL3"))
    assert oracle.dual_weyl_dim(pos, ZERO2, (1, 1)) == 8
    assert oracle.dual_weyl_dim(pos, ZERO2, (1, 0)) == 3
    assert oracle.dual_weyl_dim(pos, ZERO2, (2, 0)) == 6
    # G2 is self-dual; its fundamental weights have dimensions 7 and 14
    pos = oracle.positive_roots(oracle.datum("G2"))
    assert {oracle.dual_weyl_dim(pos, ZERO2, v) for v in ((2, 3), (1, 2))} == {7, 14}
    # SL2 with Q = 2/5: weights 5Z, the dual is PGL2 and lam = 5 has dimension 3
    pos = oracle.positive_roots(oracle.datum("SL2"))
    assert oracle.dual_weyl_dim(pos, [[Fraction(2, 5)]], (5,)) == 3
    assert oracle.dual_weyl_dim(pos, [[Fraction(0)]], (3,)) == 7


def test_clebsch_gordan_dimensions_add_up():
    d = oracle.datum("SL2")
    (beta, cobeta), = oracle.positive_roots(d)
    for value, step in ((Fraction(0), 1), (Fraction(2, 5), 5)):
        gram = [[value]]
        r = oracle.form_order(gram, cobeta)
        for a, b in itertools.product(range(0, 4 * step, step), repeat=2):
            pieces = oracle.clebsch_gordan((a,), (b,), beta, cobeta, r)
            dim = lambda v: oracle.dual_weyl_dim([(beta, cobeta)], gram, v)
            assert sum(m * dim(nu) for nu, m in pieces.items()) == dim((a,)) * dim((b,))


def test_det_solve_and_lattice_basis():
    assert oracle.det([[2, 1], [7, 4]]) == 1
    assert oracle.det([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5
    assert oracle.det([[1, 2], [2, 4]]) == 0
    assert oracle.solve([[1, 1], [1, -1]], [3, 1]) == (2, 1)
    assert oracle.solve([[1, 0, 0]], [0, 1, 0]) is None
    basis = oracle.lattice_basis([[4, 0], [0, 6], [2, 3]], 2)
    assert abs(oracle.det(basis)) == 12
    for v in ([4, 0], [0, 6], [2, 3]):
        assert oracle.solve(basis, v) is not None


def test_form_kernel_against_enumeration():
    gram = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    for k in (2, 3, 4):
        basis = oracle.form_kernel(gram, k)
        members = {v for v in itertools.product(range(-k, k + 1), repeat=3)
                   if all(x % k == 0 for x in oracle.matvec(gram, v))}
        for v in members:
            coeffs = oracle.solve(basis, v)
            assert coeffs is not None and all(c.denominator == 1 for c in coeffs)
        for b in basis:
            assert all(x % k == 0 for x in oracle.matvec(gram, b))


def test_rebase_keeps_pairings_and_form_values():
    rng = random.Random(7)
    d = oracle.datum("GL2xT2")
    gram = [[Fraction(i == j) * 2 for j in range(4)] for i in range(4)]
    for steps in (8, None):
        rb = oracle.Rebase(4, rng, steps)
        dd = rb.datum(d)
        assert oracle.cartan(dd) == oracle.cartan(d)
        assert abs(oracle.det(rb.m)) == 1
        g2 = rb.gram(gram)
        for v in itertools.product(range(-2, 3), repeat=4):
            w = rb.coweight(v)
            assert oracle.dot(oracle.matvec(g2, w), w) == oracle.dot(oracle.matvec(gram, v), v)


def test_symmetrizer_and_minimal_even():
    assert oracle.symmetrizer(oracle.datum("Sp4")) == [2, 1]
    assert oracle.symmetrizer(oracle.datum("G2")) == [3, 1]
    assert oracle.symmetrizer(oracle.datum("SL3xG2")) == [1, 1, 3, 1]
    g = oracle.minimal_even(oracle.datum("SL2"))
    assert g == [[2]]
    g = oracle.minimal_even(oracle.datum("PGL2"))
    assert g == [[2]]


def test_expected_double_dual_of_integral_form_is_the_source():
    d = oracle.datum("SL3")
    gram = oracle.minimal_even(d)
    assert oracle.expected_double_dual(d, gram, 1)["simple_roots"] == d["simple_roots"]


def test_iso_witness_check():
    d = oracle.datum("SL3")
    assert oracle.check_iso_witness([[1, 0], [0, 1]], (0, 1), d, d)
    # the diagram flip of A2 swaps the simple roots
    assert oracle.check_iso_witness([[0, 1], [1, 0]], (1, 0), d, d)
    assert not oracle.check_iso_witness([[1, 0], [0, 1]], (1, 0), d, d)
    assert not oracle.check_iso_witness([[2, 0], [0, 1]], (0, 1), d, d)


def test_iso_map_check_reads_the_permutation_off_the_images():
    d = oracle.datum("SL3")
    assert oracle.check_iso_map([[1, 0], [0, 1]], d, d)
    assert oracle.check_iso_map([[0, 1], [1, 0]], d, d)
    assert not oracle.check_iso_map([[-1, 0], [0, -1]], d, d)
    assert not oracle.check_iso_map([[1, 1], [0, 1]], d, d)
    # SL2 and PGL2 have no isomorphism: any map misses a root or a coroot
    assert not oracle.check_iso_map([[1]], oracle.datum("SL2"), oracle.datum("PGL2"))


def test_reference_work_is_frozen():
    assert reference._work() == (Fraction(2647, 7114), 64)
