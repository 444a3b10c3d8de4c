import random
from collections import Counter
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
    TABLE_MARGIN,
    HomEngine,
    check_exceptionality,
    euler_pairing,
    morphism_space_basis,
    windows,
    _cell_basis,
    _differential_rows,
)
from chainfact.homrun import (
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
    degree_landing,
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
    landing,
    serre_dual,
    scan_window,
    sparse_rank,
    stored_powers,
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
    Euler sums, which read no window, are the sums over the windows.  No
    window is empty: ``hom_table`` counts every one without a filter."""
    f = ChainPolynomial.parse(chain)
    mu, a1 = numerics(f).milnor, f.exponents[0]
    for offset in range(4):
        run = HomRun(f, offset)
        base, step = run.base
        wins = windows(base, step, range(1 - mu, mu))
        assert wins == {d: scan_window(base, base, d * step) for d in range(1 - mu, mu)}
        assert all(lo <= hi for lo, hi in wins.values()), (chain, offset)
        targets = [base]
        if f.n % 2 == 0:
            targets.append(run.aux_base)
        elif f.n >= 3:
            targets += run.ladder_bases.values()
        landed = 0
        for X in targets:
            es = range(1 - mu, max(mu, a1 + 3))
            for e, dims in run.engine.orbit(base, X, base.group.zero, step, es).items():
                lo, hi = scan_window(base, X, e * step)
                assert all(lo <= p <= hi for p in dims), (chain, e)
                landed += len(dims)
        assert landed, (chain, offset)


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 2), (2, 3), (2, 2, 3), (3, 2, 2)])
def test_canonical_tables_match_naive_route(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    sigma = sum((g.variable_degree(i) for i in range(f.n)), g.zero)
    coll, orbit = collection(HomRun(f, 1)), collection_base(f)
    for dual in (False, True):
        table = fresh_table(f, dual)
        for (i, j), window in table_windows(table, *orbit).items():
            assert window == naive_window(coll[i], coll[j], g.zero)
        naive = {}
        for (i, j, p) in table_entries(table, *orbit):
            if dual:
                naive[(i, j, p)] = naive_hom_dim(coll[j], coll[i], -sigma, f.n - p)
            else:
                naive[(i, j, p)] = naive_hom_dim(coll[i], coll[j], g.zero, p)
        assert naive == table_entries(table, *orbit), (exps, dual)


def naive_table(f, coll, dual):
    """A table's entries and windows by the naive route on all mu^2 raw
    pairs, over each window plus ``TABLE_MARGIN``."""
    margin = TABLE_MARGIN
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
@given(exps=st.sampled_from(SMALL_CHAINS), offset=st.integers(0, 3))
@example(exps=(2, 3), offset=3)                    # torsion Z/2
@example(exps=(2, 2, 3), offset=0)                 # torsion Z/4
@example(exps=(3, 2, 2), offset=2)                 # torsion Z/3
def test_tables_match_naive_route_property(exps, offset):
    f = ChainPolynomial(exps)
    coll, orbit = collection(HomRun(f, offset)), collection_base(f)
    for dual in (False, True):
        table = fresh_table(f, dual)
        assert ((table_entries(table, *orbit), table_windows(table, *orbit))
                == naive_table(f, coll, dual))


def test_table_asks_one_query_per_diagonal(monkeypatch):
    """A table reads one column per diagonal, and every entry of it, primal
    or Serre dual, is a lookup in the one Künneth basis of (base, base); the
    run's Serre check builds no basis of its own."""
    f = ChainPolynomial((3, 3, 3))
    mu, (base, step) = numerics(f).milnor, collection_base(f)
    calls = []
    real = HomEngine.kunneth

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(HomEngine, "kunneth", counted)
    run = HomRun(f, 0)
    run.base = base, step
    primal = run.table
    asked = [list(calls)]
    calls.clear()
    dual = serre_dual(HomEngine(), base, step, primal)      # a fresh memo: the dual's own basis
    asked.append(list(calls))
    for table, queries in zip((primal, dual), asked):
        assert len(table_windows(table, base, step)) == mu * mu
        assert sorted(table) == list(range(1 - mu, mu))
        assert queries == [(base, base)]
        assert queries[0][0] is base and queries[0][1] is base
    calls.clear()
    assert run.serre_symmetry() == {} and calls == []


def run_table(f, homs):
    """The Hom table of f's collection as a run reads it, through ``homs``."""
    run = HomRun(f, 0)
    run.engine = homs
    return run.table


def fresh_table(f, dual=False, general=False):
    """The Hom table of f's collection, or its Serre-dual recomputation, from
    a fresh engine, on the orbit of ``collection_base``; with ``general``,
    from a fresh ``GeneralEngine``, whose reads the general route answers."""
    homs = GeneralEngine() if general else HomEngine()
    table = run_table(f, homs)
    return serre_dual(homs, *collection_base(f), table) if dual else table


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("exps", [(2, 3), (2, 2, 3), (3, 2, 2)])
def test_shared_memo_tables_match_fresh_memos_and_naive_route(exps, offset):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, offset))
    naive = {dual: naive_table(f, coll, dual) for dual in (False, True)}
    orbit = collection_base(f)
    primal = run_table(f, HomEngine())
    fresh = {False: primal, True: serre_dual(HomEngine(), *orbit, primal)}

    def expanded(table):
        return table_entries(table, *orbit), table_windows(table, *orbit)

    for dual, table in fresh.items():
        assert expanded(table) == naive[dual], (exps, offset, dual)
    for dual_first in (False, True):
        homs = HomEngine()
        if dual_first:                      # the primal reads the dual's memo
            shared = {True: serre_dual(homs, *orbit, primal)}
            shared[False] = run_table(f, homs)
        else:
            shared = {False: run_table(f, homs)}
            shared[True] = serre_dual(homs, *orbit, shared[False])
        for dual, table in shared.items():
            assert expanded(table) == naive[dual], (exps, offset, dual)


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
    (base, _), coll, primal = run.base, collection(HomRun(f, offset)), run.table
    stored = stored_powers(primal, base, step)
    for table in (primal, serre_dual(run.engine, base, step, primal)):
        assert sorted(table) == list(range(1 - len(coll), len(coll)))
        for d, dims in table.items():
            assert set(dims) <= set(stored[d]), (exps, offset, d)
            for p in stored[d]:
                want = forms[p % 2].get(d * step + (p // 2) * g.total_degree, 0)
                assert dims.get(p, 0) == want, (exps, offset, d, p)
    for i, x in enumerate(coll):
        for j, y in enumerate(coll):
            assert canonical_key(x, y) == (base, base, (j - i) * step), (exps, offset, i, j)


# ------------------------------------------------ negative controls on columns

@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3), (3, 2, 2)])
def test_serre_check_fails_on_any_wrong_dual_value(monkeypatch, exps):
    """serre_symmetry makes one orbit read, of (A, A) at the Serre-dual
    twists -sigma - d step, and compares its landing at power n - p with
    every (d, p) of the table; these landings are the entries of
    ``serre_dual``, which the naive route checks.  With the landing one too
    high at any single stored (d, p), whether its entry is present or
    absent, the check raises."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    run = HomRun(f, 0)
    (base, step), table, n, real = run.base, run.table, f.n, HomEngine.orbit
    sigma = sum((g.variable_degree(v) for v in range(f.n)), g.zero)
    duals = {(-sigma - d * step).coords: d for d in table}
    asked = []
    monkeypatch.setattr(HomEngine, "orbit", lambda self, A, X, start, by, es: asked.append(
        [(start + e * by).coords for e in es]) or real(self, A, X, start, by, es))
    assert run.serre_symmetry() == {}
    assert len(asked) == 1 and sorted(asked[0]) == sorted(duals)
    assert serre_dual(HomEngine(), base, step, table) == table
    stored = stored_powers(table, base, step)
    wrongs = [(at, n - p) for at, d in duals.items() for p in stored[d]]
    assert len(wrongs) == sum(map(len, stored.values())) == {
        (3, 3): 97, (2, 2, 3): 148, (3, 2, 2): 128}[exps]
    for at, q in wrongs:
        def skewed(self, A, X, start, by, es, at=at, q=q):
            landed = real(self, A, X, start, by, es)
            for e, dims in landed.items():
                if (start + e * by).coords == at:
                    landed[e] = {**dims, q: dims.get(q, 0) + 1}
            return landed

        monkeypatch.setattr(HomEngine, "orbit", skewed)
        with pytest.raises(VerificationFailure, match="Serre symmetry violated"):
            run.serre_symmetry()
    monkeypatch.setattr(HomEngine, "orbit", real)
    assert run.serre_symmetry() == {}


@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3), (3, 2, 2)])
def test_landing_past_the_stored_powers_fails_exceptionality_and_serre(monkeypatch, exps):
    """Negative control: one element added to the Künneth basis of
    (base, base), landing on the diagonal d = -1 one power past its stored
    powers, fails exceptionality as a backwards morphism on every pair of
    that diagonal, and fails serre_symmetry: a column keeps every landed
    power, with no filter to the stored range that would hide it."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    run = HomRun(f, 0)
    (base, step), mu = run.base, run.nm.milnor
    p = stored_powers(run.table, base, step)[-1][-1] + 1
    k, q = divmod(p, 2)
    extra = Counter({((-step + k * g.total_degree).coords, q): 1})
    real = HomEngine.kunneth
    monkeypatch.setattr(HomEngine, "kunneth", lambda self, A, X: real(self, A, X) + extra)
    run = HomRun(f, 0)
    with pytest.raises(VerificationFailure, match="not exceptional") as failed:
        run.exceptionality()
    assert failed.value.witness["failures"] == [
        {"i": i, "j": i - 1, "p": p, "dim": 1, "reason": "backwards morphism"}
        for i in range(1, mu)]
    with pytest.raises(VerificationFailure, match="Serre symmetry violated"):
        run.serre_symmetry()


@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3)])
def test_table_lists_each_diagonal_in_power_order(monkeypatch, exps):
    """Negative control on the table's order: two elements added to the
    Künneth basis of (base, base), landing on the diagonal d = -1 past both
    ends of its stored powers, the higher one first in the basis, fail
    exceptionality with each pair's backwards morphisms in ascending power
    order, as the entry-by-entry walk lists them."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    run = HomRun(f, 0)
    (base, step), mu = run.base, run.nm.milnor
    stored = stored_powers(run.table, base, step)[-1]
    powers = [stored[-1] + 1, stored[0] - 1]
    extra = Counter({((-step + (p // 2) * g.total_degree).coords, p % 2): 1 for p in powers})
    real = HomEngine.kunneth
    monkeypatch.setattr(HomEngine, "kunneth", lambda self, A, X: real(self, A, X) + extra)
    run = HomRun(f, 0)
    assert list(run.table[-1]) == sorted(powers)
    with pytest.raises(VerificationFailure, match="not exceptional") as failed:
        run.exceptionality()
    assert failed.value.witness["failures"] == [
        {"i": i, "j": i - 1, "p": p, "dim": 1, "reason": "backwards morphism"}
        for i in range(1, mu) for p in sorted(powers)]


# torsion gradings: 2,3 and 2,3,2,3 Z/2, 2,2,3 Z/4, 3,2,2 Z/3
@pytest.mark.parametrize("exps", [(2, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2, 3)])
def test_orbit_steps_match_single_reads(exps):
    """One orbit read, which steps the twist's weight and residue as
    integers, lands on each twist start + e step, negative e included, what
    a single read of that twist lands and what ``degree_landing`` lands
    through ``Degree`` arithmetic: for X the collection base, the auxiliary
    base (even n) and every ladder base (odd n), from starts and by steps
    with a nonzero torsion residue."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    run = HomRun(f, 0)
    (base, step), k = run.base, run.nm.milnor + 3
    targets = [base] + ([run.aux_base] if f.n % 2 == 0 else list(run.ladder_bases.values()))
    torsion = g.weights[-1] * g.variable_degree(0) - g.weights[0] * g.total_degree
    assert not torsion.is_zero() and torsion.weight == 0
    single, landed = HomEngine(), 0
    for X in targets:
        basis = run.engine.kunneth(base, X)
        for start in (g.zero, torsion, g.variable_degree(1) - torsion):
            for by in (step, torsion - step):
                reads = run.engine.orbit(base, X, start, by, range(-k, k))
                assert list(reads) == list(range(-k, k))
                for e, dims in reads.items():
                    l = start + e * by
                    assert dims == landing(single, (base, X, l)), (exps, e)
                    assert dims == degree_landing(basis, l, g.total_degree), (exps, e)
                    landed += len(dims)
    assert landed


@pytest.mark.parametrize("exps", [(3, 3), (2, 2, 3), (3, 2, 2)])
def test_exceptionality_failures_expand_in_pair_order(exps):
    """One stored entry of a column one too high, at its lowest and highest
    stored power and at power 0, whether the entry is present or absent,
    fails the check with the failures of the entry-by-entry walk; so does
    the identity missing from column 0."""
    f = ChainPolynomial(exps)
    table, mu, orbit = fresh_table(f), numerics(f).milnor, collection_base(f)
    assert check_exceptionality(table, mu)["failures"] == []
    for d in (-1, -(mu - 1), 0):
        dims, stored = table[d], stored_powers(table, *orbit)[d]
        for p in [q for q in (stored[0], 0, stored[-1]) if q in stored]:
            table[d] = {**dims, p: dims.get(p, 0) + 1}
            report = check_exceptionality(table, mu)
            want = exceptionality_failures(table_entries(table, *orbit))
            assert report["failures"] == want and not report["exceptional"]
            reason = "endomorphisms not scalar" if d == 0 else "backwards morphism"
            assert want == [{"i": i, "j": i + d, "p": p, "dim": dims.get(p, 0) + 1,
                             "reason": reason}
                            for i in range(max(0, -d), mu - max(0, d))]
        table[d] = dims
    dims = table[0]
    table[0] = {p: x for p, x in dims.items() if p != 0}
    assert check_exceptionality(table, mu)["failures"] == [
        {"i": i, "j": i, "p": 0, "dim": 0, "reason": "endomorphisms not scalar"}
        for i in range(mu)]
    table[0] = dims
    assert check_exceptionality(table, mu)["exceptional"]


@pytest.mark.parametrize("exps", [(3, 3), (2, 3), (4, 3)])
def test_nakayama_witness_from_a_corrupted_column(exps):
    f = ChainPolynomial(exps)
    a1, table, mu = exps[0], HomRun(f, 0).table, numerics(f).milnor
    for d in range(1, mu):
        dims = table[d]
        table[d] = {**dims, 0: dims.get(0, 0) + 1}
        run = HomRun(f, 0)
        run.table = table
        with pytest.raises(VerificationFailure) as failure:
            run.nakayama_cartan()
        assert failure.value.witness == {"i": 0, "j": d, "got": dims.get(0, 0) + 1,
                                         "want": 1 if d < a1 else 0}
        table[d] = dims
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
    assert euler_pairing(table, numerics(f).milnor) == [list(r) for r in dense.entries]


def test_euler_diagonal_ones():
    f = ChainPolynomial((3, 3))
    table = fresh_table(f)
    pairing = euler_pairing(table, numerics(f).milnor)
    assert all(pairing[i][i] == 1 for i in range(len(pairing)))


def test_exceptionality_report_strong_n2():
    f = ChainPolynomial((2, 2))
    rep = check_exceptionality(fresh_table(f), numerics(f).milnor)
    assert rep["exceptional"] and rep["strong"]


def test_exceptionality_single_object():
    f = ChainPolynomial((3,))
    rep = check_exceptionality(fresh_table(f), numerics(f).milnor)
    assert rep["exceptional"]


def test_window_extension_stable_pairing():
    f = ChainPolynomial((2, 2))
    table = fresh_table(f)
    wide = {}
    for (i, j), (lo, hi) in table_windows(table, *collection_base(f)).items():
        wide[(i, j)] = sum((1 if p % 2 == 0 else -1) * table[j - i].get(p, 0)
                           for p in range(lo - 3, hi + 4))
    pairing = euler_pairing(table, numerics(f).milnor)
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
        assert fresh_table(f, dual=True) == fresh_table(f)
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
