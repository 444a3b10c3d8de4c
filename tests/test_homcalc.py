import random

import pytest

from chainfact.chain import ChainPolynomial, build_grading_group
from chainfact.exactmath import MPoly, sparse_rank
from chainfact.homcalc import (
    HomTable,
    check_exceptionality,
    closed_form_hom,
    compute_hom_table,
    euler_pairing,
    hom_dim,
    morphism_space_basis,
    scan_window,
    serre_symmetry_check,
    _cell_basis,
    _differential_rows,
)
from chainfact.invariants import euler_matrix
from chainfact.mf import (
    cone,
    direct_sum,
    identity_morphism,
    reduce,
    serre,
    shift,
    stabilize,
    t_power,
)
from chainfact.verify import build_collection


def simple_stab(exps):
    """Stabilization of the one-variable simple module for f = x^a."""
    f = ChainPolynomial(exps)
    assert f.n == 1
    a = exps[0]
    return f, stabilize(f, [MPoly.variable(1, 0)], [MPoly.variable(1, 0, a - 1)])


# ----------------------------------------------------- spec smoke examples

def test_simple_module_endomorphisms():
    f, c = simple_stab((2,))
    assert hom_dim(c, c, None, 0) == 1


def test_simple_module_odd_generator():
    f, c = simple_stab((2,))
    g = build_grading_group(f)
    assert hom_dim(c, c, -g.variable_degree(0), 1) == 1


def test_first_collection_twist_n2():
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    g = build_grading_group(f)
    # Hom(E0, E0(x1)) at parity 0 is one-dimensional
    assert hom_dim(coll[0], coll[0], g.variable_degree(0), 0) == 1


def test_hom_requires_same_group():
    _, a = simple_stab((2,))
    _, b = simple_stab((3,))
    with pytest.raises(ValueError):
        hom_dim(a, b)


# --------------------------------------------------------------- windows

def test_scan_window_contains_support():
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    for i in range(3):
        for j in range(3):
            lo, hi = scan_window(coll[i], coll[j])
            assert lo <= hi or all(
                hom_dim(coll[i], coll[j], None, p) == 0 for p in range(-6, 7))
            for p in list(range(lo - 3, lo)) + list(range(hi + 1, hi + 4)):
                assert hom_dim(coll[i], coll[j], None, p) == 0


def test_scan_window_margin_random_queries():
    rng = random.Random(41)
    f = ChainPolynomial((2, 2, 2))
    coll = build_collection(f)
    g = build_grading_group(f)
    degrees = [g.zero, g.variable_degree(0), -g.variable_degree(0),
               g.variable_degree(2) - g.total_degree, 2 * g.variable_degree(1)]
    for _ in range(20):
        src = rng.choice(coll)
        tgt = rng.choice(coll)
        l = rng.choice(degrees)
        lo, hi = scan_window(src, tgt, l)
        for p in list(range(lo - 3, lo)) + list(range(hi + 1, hi + 4)):
            assert hom_dim(src, tgt, l, p) == 0


def test_hom_complex_squares_to_zero():
    # d_{p+1} o d_p = 0 on the cell spaces, checked numerically
    from fractions import Fraction
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    g = build_grading_group(f)
    for p in (-1, 0, 1):
        rows_a = _differential_rows(coll[0], coll[1], g.zero, p)
        rows_b = _differential_rows(coll[0], coll[1], g.zero, p + 1)
        dim_c2 = len(_cell_basis(coll[0], t_power(coll[1], p + 2), g.zero)[0])
        for src_idx, row in enumerate(rows_a):
            acc = {}
            for mid, coeff in row.items():
                for tgt, c2 in rows_b[mid].items():
                    acc[tgt] = acc.get(tgt, 0) + Fraction(coeff) * c2
            assert all(v == 0 for v in acc.values())
        assert dim_c2 >= 0


# ------------------------------------- canonical queries vs the naive route

def naive_hom_dim(F, G, l, p):
    """Hom dimension on the raw objects: no anchoring, no cached ranks."""
    cells = len(_cell_basis(F, t_power(G, p), l)[0])
    return (cells - sparse_rank(_differential_rows(F, G, l, p))
            - sparse_rank(_differential_rows(F, G, l, p - 1)))


def naive_window(F, G, l):
    """scan_window recomputed from the Degree twists of T^parity G."""
    group = F.group
    n, d = group.chain.n, group.total_degree.weight
    sigma = sum((group.variable_degree(i) for i in range(n)), group.zero)

    def lowest(A, B, deg):
        best = None
        for parity in (0, 1):
            H = t_power(B, parity)
            ws = [(s - t + deg).weight
                  for src, tgt in ((A.F0, H.F0), (A.F1, H.F1))
                  for s in src.twists for t in tgt.twists]
            if ws:
                p = 2 * -(max(ws) // d) + parity
                best = p if best is None else min(best, p)
        return best

    pmin, qmin = lowest(F, G, l), lowest(G, F, -sigma - l)
    return (0, -1) if pmin is None or qmin is None else (pmin, n - qmin)


@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (3, 2, 2), (3, 3, 3)])
def test_scan_window_matches_naive_route(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = build_collection(f, offset=2)
    objs = [coll[0], coll[1], t_power(coll[1], 1), t_power(coll[0], -3),
            cone(identity_morphism(coll[0])), serre(coll[1])]
    degrees = [k * g.variable_degree(0) for k in range(-4, 5)]
    degrees += [-g.total_degree, g.variable_degree(f.n - 1) - g.total_degree]
    for x in objs:
        for y in objs:
            for l in degrees:
                assert scan_window(x, y, l) == naive_window(x, y, l)


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 2), (2, 3), (2, 2, 3), (3, 2, 2)])
def test_canonical_tables_match_naive_route(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    sigma = sum((g.variable_degree(i) for i in range(f.n)), g.zero)
    coll = build_collection(f, offset=1)
    for dual in (False, True):
        table = compute_hom_table(f, offset=1, margin=1, dual=dual, collection=coll)
        for (i, j), window in table.windows.items():
            assert window == naive_window(coll[i], coll[j], g.zero)
        naive = {}
        for (i, j, p) in table.entries:
            if dual:
                naive[(i, j, p)] = naive_hom_dim(coll[j], coll[i], -sigma, f.n - p)
            else:
                naive[(i, j, p)] = naive_hom_dim(coll[i], coll[j], g.zero, p)
        assert naive == table.entries, (exps, dual)


# ----------------------------------------------------------- euler tables

@pytest.mark.parametrize("exps", [(2,), (3,), (2, 2), (3, 2), (2, 3)])
def test_euler_pairing_matches_toeplitz(exps):
    f = ChainPolynomial(exps)
    table = compute_hom_table(f)
    assert euler_pairing(table) == [list(r) for r in euler_matrix(f).matrix.entries]


def test_euler_diagonal_ones():
    f = ChainPolynomial((3, 3))
    table = compute_hom_table(f)
    pairing = euler_pairing(table)
    assert all(pairing[i][i] == 1 for i in range(len(pairing)))


def test_exceptionality_report_strong_n2():
    f = ChainPolynomial((2, 2))
    rep = check_exceptionality(compute_hom_table(f, margin=3))
    assert rep["exceptional"] and rep["strong"]


def test_exceptionality_single_object():
    f = ChainPolynomial((3,))
    rep = check_exceptionality(compute_hom_table(f, margin=3))
    assert rep["exceptional"]


def test_window_extension_stable_pairing():
    f = ChainPolynomial((2, 2))
    t0 = compute_hom_table(f)
    t3 = compute_hom_table(f, margin=3)
    wide = {}
    for (i, j), (lo, hi) in t3.windows.items():
        wide[(i, j)] = sum((1 if p % 2 == 0 else -1) * t3.dim(i, j, p)
                           for p in range(lo - 3, hi + 4))
    pairing = euler_pairing(t0)
    for (i, j), val in wide.items():
        assert pairing[i][j] == val


# ------------------------------------------------------ closed-form oracle

def diag_oracle_queries(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = build_collection(f)
    e = coll[min(1, len(coll) - 1)]
    for parity in (0, 1):
        oracle = closed_form_hom(f, parity)
        for l, want in oracle.items():
            assert hom_dim(e, e, l, parity) == want, (exps, parity, l)
        probes = [g.total_degree, -g.total_degree, 3 * g.variable_degree(0),
                  -2 * g.variable_degree(0)]
        for l in probes:
            if l not in oracle:
                assert hom_dim(e, e, l, parity) == 0, (exps, parity, l)


@pytest.mark.parametrize("exps", [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_closed_form_oracle_equivalence(exps):
    diag_oracle_queries(exps)


def test_closed_form_shapes():
    # two variables: truncated polynomial algebra on x1, nothing odd
    f = ChainPolynomial((2, 2))
    dims0 = closed_form_hom(f, 0)
    assert sorted(dims0.values()) == [1, 1]
    assert closed_form_hom(f, 1) == {}
    # one variable: scalars even, one-dimensional odd piece
    f1 = ChainPolynomial((3,))
    assert list(closed_form_hom(f1, 0).values()) == [1]
    odd = closed_form_hom(f1, 1)
    g = build_grading_group(f1)
    assert odd == {-g.variable_degree(0): 1}


def test_odd_parity_is_shifted_module():
    f = ChainPolynomial((2, 2, 2))
    g = build_grading_group(f)
    even = closed_form_hom(f, 0)
    odd = closed_form_hom(f, 1)
    x1 = g.variable_degree(0)
    assert odd == {l - x1: d for l, d in even.items()}


# ------------------------------------------------------------- invariance

def test_hom_invariant_under_simultaneous_shift():
    f = ChainPolynomial((2, 2))
    g = build_grading_group(f)
    coll = build_collection(f)
    l = g.variable_degree(1) - g.total_degree
    for p in (-1, 0, 1, 2):
        a = hom_dim(coll[0], coll[1], None, p)
        b = hom_dim(shift(coll[0], l), shift(coll[1], l), None, p)
        assert a == b


def test_hom_invariant_under_reduce_of_cones():
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    padded = direct_sum(coll[1], reduce(cone(identity_morphism(coll[0]))))
    for probe in coll:
        for p in range(-2, 4):
            assert (hom_dim(probe, padded, None, p)
                    == hom_dim(probe, coll[1], None, p))
            assert (hom_dim(padded, probe, None, p)
                    == hom_dim(coll[1], probe, None, p))


def test_translation_shifts_hom_parity():
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    for p in range(-2, 3):
        assert (hom_dim(coll[0], t_power(coll[1], 1), None, p)
                == hom_dim(coll[0], coll[1], None, p + 1))


def test_serre_symmetry_tables():
    for exps in [(2,), (2, 2), (3, 2)]:
        f = ChainPolynomial(exps)
        main = compute_hom_table(f)
        dual = compute_hom_table(f, dual=True)
        assert serre_symmetry_check(main, dual)


def test_serre_duality_single_queries():
    f = ChainPolynomial((3,))
    g = build_grading_group(f)
    coll = build_collection(f)
    sigma = g.variable_degree(0)
    for p in range(-2, 4):
        lhs = hom_dim(coll[0], coll[1], None, p)
        rhs = hom_dim(coll[1], coll[0], -sigma, f.n - p)
        assert lhs == rhs


# ---------------------------------------------------- morphism extraction

def test_morphism_basis_dimensions_match():
    f = ChainPolynomial((2, 2))
    coll = build_collection(f)
    for i in range(3):
        for j in range(3):
            want = hom_dim(coll[i], coll[j], None, 0)
            assert len(morphism_space_basis(coll[i], coll[j])) == want


def test_morphism_basis_members_commute():
    f = ChainPolynomial((3, 2))
    coll = build_collection(f)
    basis = morphism_space_basis(coll[0], coll[1])
    assert basis                               # constructor validated each one


# ----------------------------------------------------------- table format

def test_table_json_roundtrip():
    f = ChainPolynomial((2, 2))
    table = compute_hom_table(f, margin=1)
    back = HomTable.from_json_dict(table.to_json_dict())
    assert back == table


def test_table_schema_fields():
    f = ChainPolynomial((2,))
    data = compute_hom_table(f).to_json_dict()
    assert set(data) >= {"chain", "entries", "window"}
    assert all(set(e) == {"i", "j", "p", "dim"} for e in data["entries"])
