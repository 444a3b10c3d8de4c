"""Randomized and grid property suites, runnable standalone.

Covers: homotopy invariance of Hom dimensions under reduction, Serre
symmetry on computed tables, and the randomized exact-arithmetic identities
(Smith form, series inversion, division-free characteristic polynomials).
"""

import random
from itertools import product

import pytest

from chainfact.chain import ChainPolynomial, build_grading_group, numerics
from chainfact.homcalc import (
    HomEngine,
    euler_pairing,
    morphism_space_basis,
)
from chainfact.homrun import HomRun
from chainfact.invariants import zeta_polynomial
from chainfact.mf import cone, direct_sum, reduce, shift
from chainfact.series import Poly, poly_div_exact, series_inverse
from oracles import (
    IntMatrix,
    charpoly_division_free,
    collection,
    dense_euler_matrix,
    euler_series,
    det_bareiss,
    general_hom_dim,
    hom_dim,
    identity_morphism,
    scan_window,
    serre_dual,
    smith_normal_form,
    translate,
)


def chains(max_n, max_a):
    for n in range(1, max_n + 1):
        for exps in product(range(2, max_a + 1), repeat=n):
            yield ChainPolynomial(exps)


# ------------------------------------------------- exactmath randomized

def test_snf_randomized_identities():
    rng = random.Random(101)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        snf = smith_normal_form(a)
        assert snf.U * a * snf.V == snf.D
        assert det_bareiss(snf.U) in (1, -1)
        assert det_bareiss(snf.V) in (1, -1)
        diag = [snf.D[i, i] for i in range(min(n, m))]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)


def test_series_inverse_randomized():
    rng = random.Random(103)
    for _ in range(80):
        p = Poly([rng.choice([1, -1, 2, 3])]
                 + [rng.randint(-5, 5) for _ in range(rng.randint(0, 8))])
        k = rng.randint(0, 15)
        assert (p * series_inverse(p, k)).truncate(k) == Poly.one()


def test_poly_division_randomized():
    rng = random.Random(105)
    for _ in range(80):
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        if b.is_zero():
            continue
        assert poly_div_exact(a * b, b) == a


def test_charpoly_randomized_vs_bareiss_det():
    # constant coefficient of det(t-A) is (-1)^n det(A)
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        cp = charpoly_division_free(a)
        assert cp.coeffs and len(cp.coeffs) == n + 1 and cp.coeffs[-1] == 1
        sign = 1 if n % 2 == 0 else -1
        assert cp.coeff(0) == sign * det_bareiss(a)


def test_inverse_series_convolution_identity_grid():
    # sum_i c_i c'_{j-i} = 0 for every j >= 1 up to the truncation order
    for f in chains(3, 5):
        zeta = zeta_polynomial(f)
        mu = numerics(f).milnor
        inv = series_inverse(zeta, mu + 5)
        for j in range(1, mu + 6):
            conv = sum(inv.coeff(i) * zeta.coeff(j - i) for i in range(j + 1))
            assert conv == 0


# ------------------------------------------------- homotopy invariance

def padded_variants(f, obj):
    """Homotopy-equivalent enlargements of an object."""
    yield reduce(obj)
    yield direct_sum(obj, reduce(cone(identity_morphism(obj))))
    c = cone(identity_morphism(obj))
    yield direct_sum(obj, c)


@pytest.mark.parametrize("exps", [(2, 2), (3, 2)])
def test_hom_dims_invariant_under_reduce(exps):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, 0))
    probe = coll[0]
    target = coll[1]
    reference = {p: hom_dim(probe, target, None, p) for p in range(-3, 5)}
    # the variants carry no splitting record, so only the general route
    # takes them, on either side
    for variant in padded_variants(f, target):
        for p, want in reference.items():
            assert general_hom_dim(probe, variant, None, p) == want
    for variant in padded_variants(f, probe):
        for p in range(-3, 5):
            assert (general_hom_dim(variant, target, None, p)
                    == hom_dim(probe, target, None, p))


def test_cone_profile_invariant_under_reduction():
    f = ChainPolynomial((2, 2))
    coll = collection(HomRun(f, 0))
    for phi in morphism_space_basis(coll[0], coll[1]):
        c = cone(phi)
        r = reduce(c)
        for probe in coll:
            for p in range(-2, 4):
                assert (general_hom_dim(probe, c, None, p)
                        == general_hom_dim(probe, r, None, p))


def test_reduce_idempotent_on_cones():
    f = ChainPolynomial((2, 2, 2))
    coll = collection(HomRun(f, 0))
    for phi in morphism_space_basis(coll[0], coll[1]):
        r = reduce(cone(phi))
        assert reduce(r) == r


# ------------------------------------------------------ serre symmetry

@pytest.mark.parametrize("exps", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
def test_serre_symmetry_every_table(exps):
    f = ChainPolynomial(exps)
    run = HomRun(f, 0)
    assert serre_dual(HomEngine(), *run.base, run.table) == run.table
    assert run.serre_symmetry() == {}


def test_window_stability_under_extension():
    rng = random.Random(109)
    f = ChainPolynomial((2, 2, 2))
    coll = collection(HomRun(f, 0))
    g = build_grading_group(f)
    degrees = [g.zero, g.variable_degree(0), -2 * g.variable_degree(0),
               g.variable_degree(1) + g.total_degree]
    for _ in range(20):
        src, tgt = rng.choice(coll), rng.choice(coll)
        l = rng.choice(degrees)
        lo, hi = scan_window(src, tgt, l)
        inner = sum((1 if p % 2 == 0 else -1) * hom_dim(src, tgt, l, p)
                    for p in range(lo, hi + 1))
        outer = sum((1 if p % 2 == 0 else -1) * hom_dim(src, tgt, l, p)
                    for p in range(lo - 3, hi + 4))
        assert inner == outer


# ------------------------------------------------------ functor algebra

def test_translate_square_grid():
    for exps in [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]:
        f = ChainPolynomial(exps)
        e0 = collection(HomRun(f, 0))[0]
        assert translate(translate(e0)) == shift(e0, build_grading_group(f).total_degree)


def test_simultaneous_shift_invariance_random():
    rng = random.Random(111)
    f = ChainPolynomial((2, 3))
    coll = collection(HomRun(f, 0))
    g = build_grading_group(f)
    for _ in range(10):
        l = (rng.randint(-2, 2) * g.variable_degree(0)
             + rng.randint(-1, 1) * g.total_degree)
        i, j = rng.randrange(len(coll)), rng.randrange(len(coll))
        p = rng.randint(-2, 3)
        assert (hom_dim(coll[i], coll[j], None, p)
                == hom_dim(shift(coll[i], l), shift(coll[j], l), None, p))


def test_euler_pairing_equals_matrix_grid():
    for exps in [(2,), (3,), (2, 2), (3, 2)]:
        f = ChainPolynomial(exps)
        assert euler_pairing(HomRun(f, 0).table, numerics(f).milnor) == \
            [list(r) for r in dense_euler_matrix(euler_series(f)).entries]
