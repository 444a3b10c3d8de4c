import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest

import chainfact

from chainfact.chain import (
    ChainPolynomial,
    build_grading_group,
    numerics,
    transpose,
)
from oracles import IntMatrix, canonicalize, int_mat_mul, smith_normal_form


def chains(max_n, max_a):
    for n in range(1, max_n + 1):
        for exps in product(range(2, max_a + 1), repeat=n):
            yield ChainPolynomial(exps)


def order_mod_total_degree(group, deg):
    """Least k > 0 with k*deg a multiple of the total-degree symbol."""
    fvec = group.total_degree
    d = fvec.weight
    for k in range(1, group.quotient_by_total_degree_order() + 1):
        kw = (k * deg).weight
        if kw % d == 0 and (k * deg - (kw // d) * fvec).is_zero():
            return k
    raise AssertionError("no finite order found")


def test_parse():
    assert ChainPolynomial.parse("2,3,4").exponents == (2, 3, 4)
    with pytest.raises(ValueError):
        ChainPolynomial.parse("2,x")
    with pytest.raises(ValueError):
        ChainPolynomial.parse("1,2")


def test_monomials_of_f_and_transpose():
    f = ChainPolynomial((2, 3))
    assert f.monomial_exponents() == [(2, 1), (0, 3)]


# ------------------------------------------------------------ grading group

def test_grading_group_2_2():
    g = build_grading_group(ChainPolynomial((2, 2)))
    assert g.weights == (1, 2, 4)
    assert g.is_torsion_free()
    assert g.quotient_by_total_degree_order() == 4
    assert order_mod_total_degree(g, g.variable_degree(0)) == 4


def test_grading_group_single_variable():
    g = build_grading_group(ChainPolynomial((2,)))
    assert g.weights == (1, 2)
    assert g.quotient_by_total_degree_order() == 2


def test_grading_group_2_2_2_weights():
    g = build_grading_group(ChainPolynomial((2, 2, 2)))
    assert g.weights == (3, 2, 4, 8)
    a = (2, 2, 2)
    d = g.weights[-1]
    for i in range(3):
        nxt = g.weights[i + 1] if i < 2 else 0
        assert a[i] * g.weights[i] + nxt == d


def test_canonicalize_relations():
    g = build_grading_group(ChainPolynomial((2, 2)))
    # x2 + 2 x1 - f is a relation
    assert canonicalize(g, [2, 1, -1]).is_zero()
    assert canonicalize(g, [0, 0, 0]).is_zero()


def test_variable_reduction_mod_total_degree():
    # x_i and (-1)^(i-1) d_{i-1} x_1 agree up to a multiple of the total degree
    for f in chains(4, 4):
        g = build_grading_group(f)
        d = numerics(f).cum_products
        fw = g.total_degree.weight
        for i in range(1, f.n):
            delta = g.variable_degree(i) - ((-1) ** i) * d[i] * g.variable_degree(0)
            w = delta.weight
            assert w % fw == 0
            assert (delta - (w // fw) * g.total_degree).is_zero()


def test_total_degree_times_dn_kills_x1():
    for f in chains(3, 5):
        g = build_grading_group(f)
        dn = numerics(f).cum_products[-1]
        assert order_mod_total_degree(g, g.variable_degree(0)) == dn
        assert g.quotient_by_total_degree_order() == dn


def test_weight_character_properties_grid():
    for f in chains(4, 5):
        g = build_grading_group(f)
        for exps in f.monomial_exponents():
            assert sum(map(mul, exps, g.weights)) == g.weights[-1]
        assert all(w >= 1 for w in g.weights)


def smith_coordinates(f):
    """Oracle: L_f presented by its relation matrix and read off its Smith
    normal form.  Returns the map from an integer combination of the n+1
    generators to its reduced SNF coordinates, and the torsion factors."""
    rel = IntMatrix([[-e for e in exps] + [1] for exps in f.monomial_exponents()])
    snf = smith_normal_form(rel)
    moduli = [snf.D[i, i] if i < rel.rows else 0 for i in range(rel.cols)]

    def coords(expr):
        row = int_mat_mul([expr], snf.V.entries)[0]
        return tuple(x % m if m else x for x, m in zip(row, moduli))

    return coords, tuple(m for m in moduli if m > 1)


def test_closed_form_matches_smith_normal_form():
    """Two combinations of equal weight have equal closed-form degrees exactly
    when their SNF coordinates agree; every other draw adds a weight-zero
    element, such as weight(f) x_1 - weight(x_1) f, which has a nonzero
    residue on a torsion chain."""
    rng = random.Random(1903)
    grid = list(chains(3, 6)) + [f for f in chains(5, 3) if f.n > 3]
    for f in grid:
        g = build_grading_group(f)
        coords, torsion = smith_coordinates(f)
        assert g.torsion_factors == torsion
        relations = [[-e for e in exps] + [1] for exps in f.monomial_exponents()]
        w = g.weights
        outcomes = set()
        for draw in range(40):
            c = [rng.randint(-6, 6) for _ in w]
            d = list(c)
            for rel in relations:
                k = rng.randint(-2, 2)
                d = [x + k * r for x, r in zip(d, rel)]
            if draw % 2:
                i, j = rng.sample(range(len(w)), 2)
                k = rng.randint(1, 5)
                d[i] += k * w[j]
                d[j] -= k * w[i]
            lc, ld = canonicalize(g, c), canonicalize(g, d)
            assert lc.weight == ld.weight == sum(map(mul, c, w))
            assert (lc == ld) == (coords(c) == coords(d)), (f, c, d)
            outcomes.add(lc == ld)
        if torsion:
            assert outcomes == {True, False}, f
            zero_weight = [w[-1]] + [0] * (f.n - 1) + [-w[0]]
            assert not canonicalize(g, zero_weight).is_zero()
            assert coords(zero_weight) != coords([0] * len(w))


# --------------------------------------------------------- monomial bases

def brute_monomials(group, l):
    """Oracle: scan every monomial of weight <= weight(l) and filter by degree."""
    w = l.weight
    n = group.chain.n
    found = []

    def rec(i, stack):
        if i == n:
            if sum(s * wt for s, wt in zip(stack, group.weights)) == w:
                if group.monomial_degree(tuple(stack)) == l:
                    found.append(tuple(stack))
            return
        for m in range(w // group.weights[i] + 1):
            rec(i + 1, stack + [m])

    if w >= 0:
        rec(0, [])
    return tuple(sorted(found))


def test_monomial_basis_trivial_degree():
    g = build_grading_group(ChainPolynomial((2, 2)))
    assert g.monomial_basis(g.zero) == ((0, 0),)


def test_monomial_basis_x2_degree():
    g = build_grading_group(ChainPolynomial((2, 2)))
    l = g.variable_degree(1)
    assert g.monomial_basis(l) == ((0, 1), (2, 0))


def test_monomial_basis_weight_one():
    g = build_grading_group(ChainPolynomial((2, 2)))
    l = g.variable_degree(0)
    assert g.monomial_basis(l) == ((1, 0),)


def test_monomial_basis_vs_bruteforce():
    for exps in [(2,), (3,), (2, 2), (3, 2), (2, 3), (2, 2, 2)]:
        f = ChainPolynomial(exps)
        g = build_grading_group(f)
        probes = [g.zero, g.total_degree, g.variable_degree(0),
                  2 * g.variable_degree(0) + g.total_degree,
                  -g.variable_degree(0) + 2 * g.total_degree]
        for i in range(f.n):
            probes.append(g.variable_degree(i))
        for l in probes:
            assert g.monomial_basis(l) == brute_monomials(g, l)


def test_negative_weight_degree_is_empty():
    g = build_grading_group(ChainPolynomial((2, 2)))
    l = -g.variable_degree(0)
    assert g.monomial_basis(l) == ()


# ----------------------------------------------------------------- numerics

def test_numerics_2_2_2():
    nm = numerics(ChainPolynomial((2, 2, 2)))
    assert nm.cum_products == (1, 2, 4, 8)
    assert nm.milnor_numbers == (1, 1, 3, 5)


def test_numerics_3_2():
    nm = numerics(ChainPolynomial((3, 2)))
    assert nm.cum_products == (1, 3, 6)
    assert nm.milnor_numbers == (1, 2, 4)
    assert nm.milnor == 6 - 3 + 1


def test_numerics_one_variable():
    for a in range(2, 8):
        assert numerics(ChainPolynomial((a,))).milnor == a - 1


# --------------------------------------------------------------- transpose

def test_transpose_2_2():
    td = transpose(ChainPolynomial((2, 2)))
    assert td.charges == (Fraction(1, 2), Fraction(1, 4))
    assert td.weights == (2, 1)
    assert td.degree == 4


def test_transpose_2_2_2():
    td = transpose(ChainPolynomial((2, 2, 2)))
    assert td.charges == (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8))
    assert td.weights == (4, 2, 3)
    assert td.degree == 8


def test_transpose_single():
    td = transpose(ChainPolynomial((2,)))
    assert td.weights == (1,) and td.degree == 2


def test_transpose_milnor_product_identity():
    for f in chains(4, 5):
        td = transpose(f)
        prod = 1
        for w in td.weights:
            prod = prod * Fraction(td.degree - w, w)
        assert prod == numerics(f).milnor


# ------------------------------------------------- checks that survive -O

O_PRELUDE = """
import sys
import chainfact.chain as chain
from chainfact.chain import ChainPolynomial, GradingGroup, VerificationFailure

def raw(exps):
    f = object.__new__(ChainPolynomial)
    object.__setattr__(f, "exponents", exps)
    return f

assert False, "asserts are live"
"""

# (check, statement that breaks it, start of the expected message)
O_CASES = [
    ("numerics", "chain.numerics(raw((1,)))", "Milnor recursion"),
    ("transpose", "chain.transpose(raw((1, 2)))", "transpose charges"),
    ("weights_positive", "GradingGroup(raw((2, 1)))", "weight character is not positive"),
    ("weights_kill_relations",
     "ChainPolynomial.monomial_exponents = lambda self: [(3, 1), (0, 2)]\n"
     "GradingGroup(ChainPolynomial((2, 2)))",
     "weight character does not kill"),
]


@pytest.mark.parametrize("name,statement,message", O_CASES, ids=[c[0] for c in O_CASES])
def test_check_survives_optimize(name, statement, message):
    body = "\n    ".join(statement.split("\n"))
    script = (O_PRELUDE + "try:\n    " + body + "\n"
              "except VerificationFailure as exc:\n    print('raised:', exc)\n"
              "else:\n    print('passed silently')\n")
    src = str(Path(chainfact.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: " + message), out.stdout
