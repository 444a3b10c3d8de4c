import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from chainfact.chain import ChainPolynomial, build_grading_group
from chainfact.exactmath import MPoly
from chainfact.homrun import collection_splitting
from chainfact.mf import (
    GradedFreeModule,
    GradedMatrix,
    GradingError,
    MatrixFactorization,
    chain_mpoly,
    cone,
    direct_sum,
    reduce,
    shift,
    stabilize,
    zero_object,
)
from oracles import identity_morphism, serre, t_power, translate, zero_morphism


def var(f, i, power=1):
    return MPoly.variable(f.n, i, power)


def mono(f, exps, c=1):
    return MPoly(len(exps), {tuple(exps): c})


def rebuilt(mf):
    """mf passed field by field through the validating constructors."""
    d0 = GradedMatrix(mf.F0, mf.F1, mf.d0.shift, mf.d0.entries)
    d1 = GradedMatrix(mf.F1, mf.F0, mf.d1.shift, mf.d1.entries)
    return MatrixFactorization(mf.group, mf.f, mf.F0, mf.F1, d0, d1)


# ------------------------------------------------------- trusted functors

@pytest.mark.parametrize("exps", [(3, 3), (2, 3), (2, 2, 3), (3, 2, 2)])
def test_trusted_functors_pass_validation(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    gens, cofs, step = collection_splitting(f)
    base = stabilize(f, gens, cofs)
    padded = cone(identity_morphism(base))
    outs = [shift(base, 3 * step), shift(base, g.variable_degree(1) - g.total_degree),
            translate(base), serre(base),
            translate(padded), shift(padded, -step)]
    outs += [t_power(base, p) for p in range(-3, 4)]
    outs += [t_power(shift(base, step), p) for p in (-2, -1, 5)]
    for out in outs:
        assert rebuilt(out) == out


# ------------------------------------------------------------- stabilize

def test_stabilize_one_variable():
    f = ChainPolynomial((2,))
    mf = stabilize(f, [var(f, 0)], [var(f, 0)])
    assert mf.size == 1
    assert mf.d0.entries[0][0] == var(f, 0)
    assert mf.d1.entries[0][0] == var(f, 0)


def test_stabilize_one_variable_higher_power():
    f = ChainPolynomial((5,))
    mf = stabilize(f, [var(f, 0)], [var(f, 0, 4)])
    assert mf.size == 1
    assert mf.d1.entries[0][0] == var(f, 0)       # contraction by the generator
    assert mf.d0.entries[0][0] == var(f, 0, 4)


def test_stabilize_two_variables():
    f = ChainPolynomial((2, 2))
    mf = stabilize(f, [var(f, 1)], [mono(f, (2, 0)) + var(f, 1)])
    assert mf.size == 1
    assert mf.d1.entries[0][0] == var(f, 1)


def test_stabilize_three_variables_size_two():
    f = ChainPolynomial((2, 2, 2))
    gens = [var(f, 0), var(f, 2)]
    cofs = [mono(f, (1, 1, 0)), mono(f, (0, 2, 0)) + var(f, 2)]
    mf = stabilize(f, gens, cofs)
    assert mf.size == 2


def test_stabilize_rejects_bad_sum():
    f = ChainPolynomial((2, 2))
    with pytest.raises(GradingError):
        stabilize(f, [var(f, 1)], [var(f, 1)])


def _irregular_splitting(f, case):
    """A splitting of f = x1^2 x2 + x2^2 into homogeneous, complementary
    pieces whose generators are not monomials in disjoint variables."""
    x1, x2 = var(f, 0), var(f, 1)
    if case == "not_a_monomial":
        return [mono(f, (2, 0)) + x2], [x2]
    return [mono(f, (1, 1)), x2], [x1, x2]           # both generators hold x2


@pytest.mark.parametrize("case,message", [("not_a_monomial", "monomial"),
                                          ("shared_variable", "share a variable")],
                         ids=["not_a_monomial", "shared_variable"])
def test_stabilize_refuses_an_irregular_splitting(case, message):
    f = ChainPolynomial((2, 2))
    gens, cofs = _irregular_splitting(f, case)
    total = MPoly.zero(f.n)
    for g, h in zip(gens, cofs):
        total = total + g * h
    assert total == chain_mpoly(f)              # only the generators are at fault
    with pytest.raises(GradingError, match=message):
        stabilize(f, gens, cofs)


def test_stabilize_random_splittings():
    # rescale every generator by a unit or by +-2 and its cofactor by the
    # inverse: the pairing, the degrees and d^2 = f are kept
    rng = random.Random(31)
    count = 0
    for exps in [(2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 2, 2)]:
        f = ChainPolynomial(exps)
        gens, cofs, _ = collection_splitting(f)
        base = stabilize(f, gens, cofs)
        for _ in range(4):
            gens2, cofs2 = list(gens), list(cofs)
            for i in range(len(gens2)):
                scale = rng.choice([1, -1, 2, -2])
                gens2[i] = gens2[i] * scale
                cofs2[i] = cofs2[i] * Fraction(1, scale)
            mf = stabilize(f, gens2, cofs2)      # constructor checks d^2 = f
            assert mf.size == 2 ** (len(gens2) - 1)
            assert (mf.F0, mf.F1) == (base.F0, base.F1)
            count += 1
    assert count == 20


def test_collection_splittings_admit_no_exchange_move():
    # An exchange move c_i += w g_j, c_j -= w g_i keeps sum g_k c_k = f, but
    # w must be a monomial of degree f - deg g_i - deg g_j.  On every chain
    # with n = 3, 4 and exponents 2..5, or n = 5 and exponents 2, 3, no
    # generator pair of the collection splitting has one, so random
    # splittings are drawn by scaling moves only.
    grid = [e for n in (3, 4) for e in product(range(2, 6), repeat=n)]
    grid += list(product((2, 3), repeat=5))
    pairs = 0
    for exps in grid:
        f = ChainPolynomial(exps)
        g = build_grading_group(f)
        gens, _, _ = collection_splitting(f)
        degrees = [g.monomial_degree(next(iter(x.terms))) for x in gens]
        for di, dj in combinations(degrees, 2):
            assert g.monomial_basis(g.total_degree - di - dj) == ()
            pairs += 1
    assert pairs == 64 + 256 + 32 * 3


# -------------------------------------------------------------- functors

def build_e0(exps):
    f = ChainPolynomial(exps)
    gens, cofs, _ = collection_splitting(f)
    return f, stabilize(f, gens, cofs)


def test_shift_zero_is_identity():
    f, mf = build_e0((2, 2))
    g = build_grading_group(f)
    assert shift(mf, g.zero) == mf


def test_shift_roundtrip():
    f, mf = build_e0((2, 2, 2))
    g = build_grading_group(f)
    l = g.variable_degree(0)
    assert shift(shift(mf, l), -l) == mf


def test_translate_squared_is_total_degree_shift():
    for exps in [(2,), (2, 2), (2, 2, 2)]:
        f, mf = build_e0(exps)
        g = build_grading_group(f)
        assert translate(translate(mf)) == shift(mf, g.total_degree)


def test_translate_preserves_size():
    f, mf = build_e0((2, 2, 2))
    assert translate(mf).size == mf.size


def test_translate_inverse():
    f, mf = build_e0((2, 2))
    assert translate(t_power(mf, -1)) == mf
    assert t_power(translate(mf), -1) == mf


def test_t_power_consistency():
    f, mf = build_e0((2, 2))
    assert t_power(mf, 0) == mf
    assert t_power(mf, 1) == translate(mf)
    assert t_power(mf, 2) == translate(translate(mf))
    assert t_power(mf, -1) == shift(translate(mf), -mf.group.total_degree)
    assert t_power(mf, 3) == translate(t_power(mf, 2))


def test_translate_one_variable_signs():
    f = ChainPolynomial((3,))
    mf = stabilize(f, [var(f, 0)], [var(f, 0, 2)])
    t = translate(mf)
    assert t.d0.entries[0][0] == -var(f, 0)
    assert t.d1.entries[0][0] == -var(f, 0, 2)


def test_serre_n2_is_plain_shift():
    f, mf = build_e0((2, 2))
    g = build_grading_group(f)
    l = g.total_degree - g.variable_degree(0) - g.variable_degree(1)
    assert serre(mf) == shift(mf, l)


def test_serre_commutes_with_shift():
    f, mf = build_e0((2, 2, 2))
    g = build_grading_group(f)
    l = g.variable_degree(1)
    assert serre(shift(mf, l)) == shift(serre(mf), l)


# --------------------------------------------------------- cones, sums

def test_cone_of_identity_reduces_to_zero():
    for exps in [(2,), (2, 2), (2, 2, 2)]:
        f, mf = build_e0(exps)
        c = cone(identity_morphism(mf))
        assert c.size == 2 * mf.size
        assert reduce(c).size == 0


def test_cone_of_zero_is_direct_sum():
    f, a = build_e0((2, 2))
    g = build_grading_group(f)
    b = shift(a, g.variable_degree(0))
    c = cone(zero_morphism(a, b))
    assert c == direct_sum(b, translate(a))


def test_direct_sum_sizes():
    f, a = build_e0((2, 2, 2))
    assert direct_sum(a, a).size == 2 * a.size


def test_zero_object():
    f = ChainPolynomial((2, 2))
    z = zero_object(f)
    assert z.size == 0
    assert translate(z).size == 0
    assert direct_sum(z, z).size == 0


# -------------------------------------------------------------- reduce

def trivial_block(f):
    g = build_grading_group(f)
    m = GradedFreeModule(g, (g.zero,))
    one = MPoly(f.n, {(0,) * f.n: 1})
    d0 = GradedMatrix(m, m, g.zero, [[one]])
    d1 = GradedMatrix(m, m, g.total_degree, [[chain_mpoly(f)]])
    return MatrixFactorization(g, chain_mpoly(f), m, m, d0, d1)


def test_reduce_is_idempotent():
    f, mf = build_e0((2, 2, 2))
    r = reduce(mf)
    assert reduce(r) == r
    assert r.size <= mf.size


def test_reduce_absorbs_trivial_summand():
    f, mf = build_e0((2, 2))
    padded = direct_sum(mf, trivial_block(f))
    assert reduce(padded) == reduce(mf)


def test_reduce_trivial_block_alone():
    f = ChainPolynomial((2, 2))
    assert reduce(trivial_block(f)).size == 0


# ------------------------------------------------- validation and JSON

def test_homogeneity_violation_raises():
    f = ChainPolynomial((2, 2))
    g = build_grading_group(f)
    m = GradedFreeModule(g, (g.zero,))
    with pytest.raises(GradingError):
        GradedMatrix(m, m, g.zero, [[var(f, 0)]])   # x1 is not degree zero


def test_mixed_degree_entry_raises():
    f = ChainPolynomial((2, 2))
    g = build_grading_group(f)
    m = GradedFreeModule(g, (g.zero,))
    tgt = GradedFreeModule(g, (-g.variable_degree(0),))
    with pytest.raises(GradingError):
        GradedMatrix(m, tgt, g.zero, [[var(f, 0) + var(f, 1)]])


def test_factorization_identity_enforced():
    f = ChainPolynomial((2, 2))
    g = build_grading_group(f)
    m0 = GradedFreeModule(g, (g.zero,))
    m1 = GradedFreeModule(g, (g.variable_degree(1) - g.total_degree,))
    d0 = GradedMatrix(m0, m1, g.zero, [[mono(f, (2, 0)) + var(f, 1)]])
    bad_d1 = GradedMatrix(m1, m0, g.total_degree, [[2 * var(f, 1)]])
    with pytest.raises(GradingError):
        MatrixFactorization(g, chain_mpoly(f), m0, m1, d0, bad_d1)


