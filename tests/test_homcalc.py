import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfact.chain import (
    ChainPolynomial,
    VerificationFailure,
    build_grading_group,
    numerics,
)
from chainfact.exactmath import MPoly
from chainfact.homcalc import (
    HomEngine,
    check_exceptionality,
    euler_pairing,
    morphism_space_basis,
    _cell_basis,
    _differential_rows,
)
from chainfact.homrun import (
    TABLE_MARGIN,
    HomRun,
    collection_base,
    collection_splitting,
)
from chainfact.mf import (
    cone,
    direct_sum,
    reduce,
    shift,
    stabilize,
)
from oracles import (
    GeneralEngine,
    canonical_key,
    cell_basis_by_t_power,
    closed_form_hom,
    collection,
    dense_euler_matrix,
    euler_series,
    differential_rows,
    exceptionality_failures,
    general_hom_dim,
    hom_dim,
    identity_morphism,
    kernel_basis,
    naive_dims,
    naive_hom_dim,
    rank_rational,
    serre,
    serre_dual,
    scan_window,
    sparse_rank,
    t_power,
    table_entries,
    table_windows,
)
from test_sweep import CHAINS as SWEEP_CHAINS


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
    coll = collection(HomRun(f, 0))
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
    coll = collection(HomRun(f, 0))
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
    coll = collection(HomRun(f, 0))
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
    coll = collection(HomRun(f, 0))
    g = build_grading_group(f)
    for p in (-1, 0, 1):
        rows_a = differential_rows(coll[0], coll[1], g.zero, p)
        rows_b = differential_rows(coll[0], coll[1], g.zero, p + 1)
        dim_c2 = len(_cell_basis(coll[0], coll[1], p + 2)[0])
        for src_idx, row in enumerate(rows_a):
            acc = {}
            for mid, coeff in row.items():
                for tgt, c2 in rows_b[mid].items():
                    acc[tgt] = acc.get(tgt, 0) + Fraction(coeff) * c2
            assert all(v == 0 for v in acc.values())
        assert dim_c2 >= 0


# ------------------------------------- canonical queries vs the naive route

@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2)])
def test_cell_basis_matches_t_power_route(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 1))
    objs = [coll[0], coll[2], cone(identity_morphism(coll[0])), t_power(coll[1], -3)]
    degrees = [g.zero, g.variable_degree(0), -g.total_degree,
               g.total_degree - g.variable_degree(f.n - 1)]
    cells = 0
    for x in objs:
        for y in objs:
            for l in degrees:
                for p in range(-3, 4):
                    basis = _cell_basis(x, shift(y, l), p)     # degree l as a shift
                    assert basis == cell_basis_by_t_power(x, y, l, p)
                    cells += len(basis[0])
    assert cells > 0


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
    coll = collection(HomRun(f, 2))
    objs = [coll[0], coll[1], t_power(coll[1], 1), t_power(coll[0], -3),
            cone(identity_morphism(coll[0])), serre(coll[1])]
    degrees = [k * g.variable_degree(0) for k in range(-4, 5)]
    degrees += [-g.total_degree, g.variable_degree(f.n - 1) - g.total_degree]
    for x in objs:
        for y in objs:
            for l in degrees:
                assert scan_window(x, y, l) == naive_window(x, y, l)


# torsion gradings: 2,3 and 2,3,2,3 Z/2, 2,2,3 Z/4, 3,2,2 Z/3
@pytest.mark.parametrize("chain", SWEEP_CHAINS)
def test_closed_form_windows_and_landings_match_scan_window(chain):
    """On each chain of the report sweep at offsets 0-3: the table's
    closed-form window of every diagonal is ``scan_window`` of its key, and
    every element of kunneth(base, X) that lands on an orbit key e step
    lands inside that key's window, for X the collection base, the
    auxiliary base (even n) and every ladder base (odd n >= 3), and for
    every e that a run reads (1 - mu <= e <= max(mu - 1, a1 + 2)).  So the
    Euler sums, which read no window, are the sums over the windows."""
    f = ChainPolynomial.parse(chain)
    mu, a1 = numerics(f).milnor, f.exponents[0]
    for offset in range(4):
        run = HomRun(f, offset)
        (base, step), table = run.base, run.table
        assert {d: window for d, (window, _) in table.columns.items()} == {
            d: scan_window(*table.key(d)) for d in range(1 - mu, mu)}
        targets = [base]
        if f.n % 2 == 0:
            targets.append(run.aux_base)
        elif f.n >= 3:
            targets += run.ladder_bases.values()
        landed = 0
        for X in targets:
            for e in range(1 - mu, max(mu, a1 + 3)):
                key = (base, X, e * step)
                lo, hi = scan_window(*key)
                dims = run.homs.homs(key)
                assert all(lo <= p <= hi for p in dims), (chain, e)
                landed += len(dims)
        assert landed, (chain, offset)


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 2), (2, 3), (2, 2, 3), (3, 2, 2)])
def test_canonical_tables_match_naive_route(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    sigma = sum((g.variable_degree(i) for i in range(f.n)), g.zero)
    coll = collection(HomRun(f, 1))
    for dual in (False, True):
        table = fresh_table(f, 1, dual)
        for (i, j), window in table_windows(table).items():
            assert window == naive_window(coll[i], coll[j], g.zero)
        naive = {}
        for (i, j, p) in table_entries(table):
            if dual:
                naive[(i, j, p)] = naive_hom_dim(coll[j], coll[i], -sigma, f.n - p)
            else:
                naive[(i, j, p)] = naive_hom_dim(coll[i], coll[j], g.zero, p)
        assert naive == table_entries(table), (exps, dual)


def naive_table(f, coll, margin, dual):
    """A table's entries and windows by the naive route on all mu^2 raw
    pairs."""
    g = build_grading_group(f)
    sigma = sum((g.variable_degree(i) for i in range(f.n)), g.zero)
    entries, windows = {}, {}
    for i, x in enumerate(coll):
        for j, y in enumerate(coll):
            lo, hi = windows[(i, j)] = naive_window(x, y, g.zero)
            powers = range(lo - margin, hi + margin + 1)
            if dual:
                dims = naive_dims(y, x, -sigma, range(f.n - hi - margin,
                                                      f.n - lo + margin + 1))
                dims = {p: dims[f.n - p] for p in powers}
            else:
                dims = naive_dims(x, y, g.zero, powers)
            entries.update(((i, j, p), d) for p, d in dims.items())
    return entries, windows


# every chain with at most four variables and mu <= 30 (189 chains, 48 of
# them with torsion in the grading group; the examples pin three of those)
SMALL_CHAINS = [exps for n, top in ((1, 32), (2, 30), (3, 15), (4, 7))
                for exps in product(range(2, top), repeat=n)
                if numerics(ChainPolynomial(exps)).milnor <= 30]


# the naive route takes seconds per draw near mu = 30, hence few examples
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(exps=st.sampled_from(SMALL_CHAINS), offset=st.integers(0, 3),
       margin=st.integers(0, 2))
@example(exps=(2, 3), offset=3, margin=2)          # torsion Z/2
@example(exps=(2, 2, 3), offset=0, margin=1)       # torsion Z/4
@example(exps=(3, 2, 2), offset=2, margin=0)       # torsion Z/3
def test_tables_match_naive_route_property(exps, offset, margin):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, offset))
    for dual in (False, True):
        table = fresh_table(f, margin, dual)
        assert (table_entries(table), table_windows(table)) == naive_table(f, coll, margin, dual)


def test_table_asks_one_query_per_diagonal(monkeypatch):
    """A table reads one column per diagonal, and every entry of it, primal
    or Serre dual, is a lookup in the one Künneth basis of (base, base); the
    run's Serre check builds no basis of its own."""
    f = ChainPolynomial((3, 3, 3))
    mu, margin = numerics(f).milnor, 1
    calls = []
    real = HomEngine.kunneth

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(HomEngine, "kunneth", counted)
    primal = fresh_table(f, margin)
    asked = [list(calls)]
    calls.clear()
    dual = serre_dual(HomEngine(), primal)      # a fresh memo: the dual's own basis
    asked.append(list(calls))
    base = collection_base(f)[0]
    for table, queries in zip((primal, dual), asked):
        assert len(table_windows(table)) == mu * mu
        assert len(table.columns) == 2 * mu - 1
        assert queries == [(base, base)]
        assert queries[0][0] is table.base and queries[0][1] is table.base
    run = HomRun(f, 0)
    assert len(run.table.columns) == 2 * mu - 1
    calls.clear()
    assert run.serre_symmetry() == {} and calls == []


def fresh_table(f, margin=0, dual=False, general=False):
    """The Hom table of f's collection, or its Serre-dual recomputation, from
    a fresh engine, built from ``collection_base``; with ``general``, from a
    fresh ``GeneralEngine``, whose queries the general route answers."""
    homs = GeneralEngine() if general else HomEngine()
    table = homs.table(*collection_base(f), numerics(f).milnor, margin)
    return serre_dual(homs, table) if dual else table


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("exps", [(2, 3), (2, 2, 3), (3, 2, 2)])
def test_shared_memo_tables_match_fresh_memos_and_naive_route(exps, offset):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, offset))
    naive = {dual: naive_table(f, coll, TABLE_MARGIN, dual) for dual in (False, True)}
    orbit = (*collection_base(f), len(coll), TABLE_MARGIN)
    primal = HomEngine().table(*orbit)
    fresh = {False: primal, True: serre_dual(HomEngine(), primal)}
    for dual, table in fresh.items():
        assert (table_entries(table), table_windows(table)) == naive[dual], (exps, offset, dual)
    for dual_first in (False, True):
        homs = HomEngine()
        if dual_first:                      # the primal reads the dual's memo
            shared = {True: serre_dual(homs, primal)}
            shared[False] = homs.table(*orbit)
        else:
            shared = {False: homs.table(*orbit)}
            shared[True] = serre_dual(homs, shared[False])
        for dual, table in shared.items():
            assert (table_entries(table), table_windows(table)) == naive[dual], (exps, offset, dual)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(exps=st.sampled_from(SMALL_CHAINS), offset=st.integers(0, 3))
@example(exps=(2, 3), offset=1)                    # torsion Z/2
@example(exps=(2, 2, 3), offset=0)                 # torsion Z/4
@example(exps=(3, 2, 2), offset=3)                 # torsion Z/3
def test_columns_match_closed_form_lookup_property(exps, offset):
    """Every column of the table and of its Serre-dual recomputation is the
    closed-form lookup
    Hom(E_i, T^p E_j) = closed_form_hom(f, p mod 2)[(j - i) step + floor(p/2) f],
    and every pair (i, j) of the run's collection at any offset has the key
    of the table's column j - i."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    step = collection_splitting(f)[2]
    forms = [closed_form_hom(f, 0), closed_form_hom(f, 1)]
    run = HomRun(f, offset)
    coll, primal = collection(HomRun(f, offset)), run.table
    for table in (primal, serre_dual(run.homs, primal)):
        assert table.objects == len(coll)
        assert sorted(table.columns) == list(range(1 - len(coll), len(coll)))
        for d, (_, dims) in table.columns.items():
            assert set(dims) <= set(table.stored(d)), (exps, offset, d)
            for p in table.stored(d):
                want = forms[p % 2].get(d * step + (p // 2) * g.total_degree, 0)
                assert dims.get(p, 0) == want, (exps, offset, d, p)
    for i, x in enumerate(coll):
        for j, y in enumerate(coll):
            assert canonical_key(x, y) == primal.key(j - i), (exps, offset, i, j)


# ------------------------------------------------ negative controls on columns

@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3), (3, 2, 2)])
def test_serre_check_fails_on_any_wrong_dual_value(monkeypatch, exps):
    """serre_symmetry reads one landing per column, at the Serre-dual key
    (A, A, -sigma - d step), and compares it at power n - p with every
    stored (d, p); these landings are the entries of ``serre_dual``, which
    the naive route checks.  With the landing one too high at any single
    stored (d, p), whether its entry is present or absent, the check
    raises."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    run = HomRun(f, 0)
    table, n, real = run.table, f.n, HomEngine.homs
    sigma = sum((g.variable_degree(v) for v in range(f.n)), g.zero)
    duals = {(-sigma - d * table.step).coords: d for d in table.columns}
    asked = []
    monkeypatch.setattr(HomEngine, "homs", lambda self, key:
                        asked.append(key[2].coords) or real(self, key))
    assert run.serre_symmetry() == {}
    assert sorted(asked) == sorted(duals)
    assert serre_dual(HomEngine(), table).columns == table.columns
    wrongs = [(at, n - p) for at, d in duals.items() for p in table.stored(d)]
    assert len(wrongs) == sum(len(table.stored(d)) for d in table.columns)
    for at, q in wrongs:
        def skewed(self, key, at=at, q=q):
            dims = real(self, key)
            return {**dims, q: dims.get(q, 0) + 1} if key[2].coords == at else dims

        monkeypatch.setattr(HomEngine, "homs", skewed)
        with pytest.raises(VerificationFailure, match="Serre symmetry violated"):
            run.serre_symmetry()
    monkeypatch.setattr(HomEngine, "homs", real)
    assert run.serre_symmetry() == {}


@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3), (3, 2, 2)])
def test_exceptionality_failures_expand_in_pair_order(exps):
    """One stored entry of a column one too high, at its lowest and highest
    stored power and at power 0, whether the entry is present or absent,
    fails the check with the failures of the entry-by-entry walk; so does
    the identity missing from column 0."""
    f = ChainPolynomial(exps)
    table = fresh_table(f, TABLE_MARGIN)
    mu = table.objects
    assert check_exceptionality(table)["failures"] == []
    for d in (-1, -(mu - 1), 0):
        window, dims = table.columns[d]
        stored = table.stored(d)
        for p in [q for q in (stored[0], 0, stored[-1]) if q in stored]:
            table.columns[d] = (window, {**dims, p: dims.get(p, 0) + 1})
            report = check_exceptionality(table)
            want = exceptionality_failures(table_entries(table))
            assert report["failures"] == want and not report["exceptional"]
            reason = "endomorphisms not scalar" if d == 0 else "backwards morphism"
            assert want == [{"i": i, "j": i + d, "p": p, "dim": dims.get(p, 0) + 1,
                             "reason": reason}
                            for i in range(max(0, -d), mu - max(0, d))]
        table.columns[d] = (window, dims)
    window, dims = table.columns[0]
    table.columns[0] = (window, {p: x for p, x in dims.items() if p != 0})
    assert check_exceptionality(table)["failures"] == [
        {"i": i, "j": i, "p": 0, "dim": 0, "reason": "endomorphisms not scalar"}
        for i in range(mu)]
    table.columns[0] = (window, dims)
    assert check_exceptionality(table)["exceptional"]


@pytest.mark.parametrize("exps", [(3, 3), (2, 3), (4, 3)])
def test_nakayama_witness_from_a_corrupted_column(exps):
    f = ChainPolynomial(exps)
    a1, table = exps[0], HomRun(f, 0).table
    mu = table.objects
    for d in range(1, mu):
        window, dims = table.columns[d]
        table.columns[d] = (window, {**dims, 0: dims.get(0, 0) + 1})
        run = HomRun(f, 0)
        run.table = table
        with pytest.raises(VerificationFailure) as failure:
            run.nakayama_cartan()
        assert failure.value.witness == {"i": 0, "j": d, "got": dims.get(0, 0) + 1,
                                         "want": 1 if d < a1 else 0}
        table.columns[d] = (window, dims)
    run = HomRun(f, 0)
    run.table = table
    assert run.nakayama_cartan() == {"quiver_length": mu, "nilpotency": a1}


def rows_by_products(F, G, l, p):
    """differential_rows assembled from MPoly products on T^p G."""
    H = t_power(G, p)
    basis, _ = cell_basis_by_t_power(F, G, l, p)
    _, tindex = cell_basis_by_t_power(F, G, l, p + 1)
    rows = []
    for comp, r, c, exps in basis:
        mono = MPoly(len(exps), {exps: 1})
        row = {}

        def add(slot, poly):
            for e, coeff in poly.terms.items():
                idx = tindex[slot + (e,)]
                row[idx] = row.get(idx, 0) + coeff

        if comp == 0:
            for tr in range(H.F1.rank):
                add((0, tr, c), H.d0.entries[tr][r] * mono)
            for tc in range(F.F1.rank):
                add((1, r, tc), -(mono * F.d1.entries[c][tc]))
        else:
            for tc in range(F.F0.rank):
                add((0, r, tc), -(mono * F.d0.entries[c][tc]))
            for tr in range(H.F0.rank):
                add((1, tr, c), H.d1.entries[tr][r] * mono)
        rows.append(row)
    return rows


def _nonzero(rows):
    return [{k: v for k, v in row.items() if v} for row in rows]


@pytest.mark.parametrize("exps", [(2, 3), (3, 2, 2), (2, 2, 2, 2)])
def test_differential_rows_match_polynomial_products(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 1))
    objs = [coll[0], coll[2], t_power(coll[1], -3), cone(identity_morphism(coll[0]))]
    degrees = [g.zero, g.variable_degree(0), g.total_degree - g.variable_degree(1)]
    for x in objs:
        for y in objs:
            for l in degrees:
                for p in range(-2, 3):
                    assert (_nonzero(differential_rows(x, y, l, p))
                            == _nonzero(rows_by_products(x, y, l, p)))


@pytest.mark.parametrize("exps", [(2, 2, 3), (3, 3, 3)])
def test_sparse_rank_on_differential_rows(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 0))
    ranks = 0
    for j in (0, 1, 3):
        for l in (g.zero, g.variable_degree(0), g.total_degree):
            for p in (0, 1):
                rows = differential_rows(coll[0], coll[j], l, p)
                width = len(_cell_basis(coll[0], shift(coll[j], l), p + 1)[0])
                dense = [[row.get(k, 0) for k in range(width)] for row in rows]
                rank = sparse_rank(rows)
                assert rank == rank_rational(dense)
                ranks += rank
    assert ranks > 0


# ----------------------------------------------------------- euler tables

@pytest.mark.parametrize("exps", [(2,), (3,), (2, 2), (3, 2), (2, 3)])
def test_euler_pairing_matches_toeplitz(exps):
    f = ChainPolynomial(exps)
    table = fresh_table(f)
    dense = dense_euler_matrix(euler_series(f))
    assert euler_pairing(table) == [list(r) for r in dense.entries]


def test_euler_diagonal_ones():
    f = ChainPolynomial((3, 3))
    table = fresh_table(f)
    pairing = euler_pairing(table)
    assert all(pairing[i][i] == 1 for i in range(len(pairing)))


def test_exceptionality_report_strong_n2():
    f = ChainPolynomial((2, 2))
    rep = check_exceptionality(fresh_table(f, 3))
    assert rep["exceptional"] and rep["strong"]


def test_exceptionality_single_object():
    f = ChainPolynomial((3,))
    rep = check_exceptionality(fresh_table(f, 3))
    assert rep["exceptional"]


def test_window_extension_stable_pairing():
    f = ChainPolynomial((2, 2))
    t0 = fresh_table(f)
    t3 = fresh_table(f, 3)
    wide = {}
    for (i, j), (lo, hi) in table_windows(t3).items():
        wide[(i, j)] = sum((1 if p % 2 == 0 else -1) * t3.columns[j - i][1].get(p, 0)
                           for p in range(lo - 3, hi + 4))
    pairing = euler_pairing(t0)
    for (i, j), val in wide.items():
        assert pairing[i][j] == val


# ------------------------------------------------------ closed-form oracle

def diag_oracle_queries(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 0))
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
    coll = collection(HomRun(f, 0))
    l = g.variable_degree(1) - g.total_degree
    for p in (-1, 0, 1, 2):
        a = hom_dim(coll[0], coll[1], None, p)
        b = hom_dim(shift(coll[0], l), shift(coll[1], l), None, p)
        assert a == b


def test_hom_invariant_under_reduce_of_cones():
    f = ChainPolynomial((2, 2))
    coll = collection(HomRun(f, 0))
    padded = direct_sum(coll[1], reduce(cone(identity_morphism(coll[0]))))
    for probe in coll:
        for p in range(-2, 4):
            assert (general_hom_dim(probe, padded, None, p)
                    == hom_dim(probe, coll[1], None, p))
            assert (general_hom_dim(padded, probe, None, p)
                    == hom_dim(coll[1], probe, None, p))


def test_translation_shifts_hom_parity():
    f = ChainPolynomial((2, 2))
    coll = collection(HomRun(f, 0))
    for p in range(-2, 3):
        assert (general_hom_dim(coll[0], t_power(coll[1], 1), None, p)
                == hom_dim(coll[0], coll[1], None, p + 1))


def test_serre_symmetry_tables():
    for exps in [(2,), (2, 2), (3, 2)]:
        f = ChainPolynomial(exps)
        main = fresh_table(f)
        assert serre_dual(HomEngine(), main).columns == main.columns
        assert HomRun(f, 0).serre_symmetry() == {}


def test_serre_duality_single_queries():
    f = ChainPolynomial((3,))
    g = build_grading_group(f)
    coll = collection(HomRun(f, 0))
    sigma = g.variable_degree(0)
    for p in range(-2, 4):
        lhs = hom_dim(coll[0], coll[1], None, p)
        rhs = hom_dim(coll[1], coll[0], -sigma, f.n - p)
        assert lhs == rhs


TORSION_CHAINS = [exps for exps in SMALL_CHAINS
                  if not build_grading_group(ChainPolynomial(exps)).is_torsion_free()]


# Half the chains are drawn from the torsion ones.  The on-support draws aim
# the twist at a degree where closed_form_hom says Hom(E_0, T^p E_0(.)) is
# nonzero, since uniform twists almost always give 0.  torsion_steps adds
# multiples of weight(f) x_1 - weight(x_1) f, which has weight zero and a
# nonzero residue on a torsion chain.
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(exps=st.sampled_from(SMALL_CHAINS) | st.sampled_from(TORSION_CHAINS),
       i=st.integers(0, 29), j=st.integers(0, 29),
       p=st.integers(-1, 5), on_support=st.booleans(), pick=st.integers(0, 10 ** 6),
       weight_steps=st.integers(-12, 12), torsion_steps=st.integers(0, 3))
@example(exps=(2, 3), i=0, j=1, p=0, on_support=True, pick=3, weight_steps=0,
         torsion_steps=1)                                  # torsion Z/2
@example(exps=(2, 2, 3), i=2, j=0, p=1, on_support=True, pick=7, weight_steps=0,
         torsion_steps=2)                                  # torsion Z/4
@example(exps=(3, 2, 2), i=1, j=4, p=2, on_support=False, pick=0, weight_steps=-3,
         torsion_steps=1)                                  # torsion Z/3
def test_serre_symmetry_random_twists(exps, i, j, p, on_support, pick, weight_steps,
                                      torsion_steps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 0))
    i, j, n = i % len(coll), j % len(coll), f.n
    sigma = sum((g.variable_degree(v) for v in range(n)), g.zero)
    torsion = g.weights[-1] * g.variable_degree(0) - g.weights[0] * g.total_degree
    support = sorted(closed_form_hom(f, p % 2), key=lambda d: d.coords)
    if on_support and support:
        step = collection_splitting(f)[2]              # E_i = E_0(i * step)
        l = support[pick % len(support)] - (j - i) * step - (p // 2) * g.total_degree
    else:
        l = weight_steps * g.variable_degree(0)
    l = l + torsion_steps * torsion
    assert (hom_dim(coll[i], coll[j], l, p)
            == hom_dim(coll[j], coll[i], -sigma - l, n - p))


# ---------------------------------------------------- morphism extraction

def test_morphism_basis_dimensions_match():
    f = ChainPolynomial((2, 2))
    coll = collection(HomRun(f, 0))
    for i in range(3):
        for j in range(3):
            want = hom_dim(coll[i], coll[j], None, 0)
            assert len(morphism_space_basis(coll[i], coll[j])) == want


def test_morphism_basis_members_commute():
    f = ChainPolynomial((3, 2))
    coll = collection(HomRun(f, 0))
    basis = morphism_space_basis(coll[0], coll[1])
    assert basis                               # constructor validated each one


def dense_morphism_vectors(source, target, l, power):
    """(kernel, image, representatives) as dense Fraction vectors on the cell
    basis, by the former dense body of morphism_space_basis: a dense RREF
    kernel of the outgoing differential, and kernel vectors reduced modulo
    the image by a dense echelon."""
    from fractions import Fraction
    below, (basis, index), above = (cell_basis_by_t_power(source, target, l, q)
                                    for q in (power - 1, power, power + 1))
    dim, out_dim = len(basis), len(above[0])
    out_rows = _differential_rows(source, target, power, basis, above[1])
    dense_out = [[Fraction(0)] * dim for _ in range(out_dim)]
    for col, row in enumerate(out_rows):
        for tgt_idx, coeff in row.items():
            dense_out[tgt_idx][col] = Fraction(coeff)
    kernel = kernel_basis(dense_out, dim)
    image = []
    for row in _differential_rows(source, target, power - 1, below[0], index):
        vec = [Fraction(0)] * dim
        for tgt_idx, coeff in row.items():
            vec[tgt_idx] = Fraction(coeff)
        if any(vec):
            image.append(vec)
    pivots = {}

    def reduce_vec(vec):
        vec = list(vec)
        for col, prow in sorted(pivots.items()):
            if vec[col]:
                fac = vec[col]
                vec = [x - fac * y for x, y in zip(vec, prow)]
        return vec

    for vec in image:
        vec = reduce_vec(vec)
        lead = next((c for c, x in enumerate(vec) if x), None)
        if lead is not None:
            inv = 1 / vec[lead]
            pivots[lead] = [x * inv for x in vec]
    reps = []
    for vec in kernel:
        red = reduce_vec(vec)
        lead = next((c for c, x in enumerate(red) if x), None)
        if lead is None:
            continue
        inv = 1 / red[lead]
        pivots[lead] = [x * inv for x in red]
        reps.append(red)
    return kernel, image, reps


def morphism_vector(phi, basis):
    """A morphism's coefficients on the cell basis."""
    maps = (phi.phi0.entries, phi.phi1.entries)
    return [maps[comp][r][c].terms.get(exps, 0) for comp, r, c, exps in basis]


@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_morphism_basis_spans_dense_kernel(exps):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, 0))
    l = build_grading_group(f).zero
    found = 0
    for x, y in product(coll[:4], repeat=2):
        for p in range(-2, 4):
            H = shift(t_power(y, p), l)            # degree-l maps into T^p y
            basis = _cell_basis(x, H, 0)[0]
            reps = [morphism_vector(phi, basis) for phi in morphism_space_basis(x, H)]
            want = hom_dim(x, y, l, p)
            assert len(reps) == want
            kernel, image, dense_reps = dense_morphism_vectors(x, y, l, p)
            assert len(dense_reps) == want
            im = rank_rational(image)
            assert rank_rational(image + reps) == im + want
            assert rank_rational(image + reps + kernel) == rank_rational(image + reps) \
                == len(kernel)
            found += want
    assert found > 0
