import importlib
import json
import os
import pkgutil
import subprocess
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainfact
import chainfact.homcalc as homcalc
import chainfact.homrun as homrun
import chainfact.invariants as invariants
import chainfact.mf as mf
import chainfact.verify as verify_module
from chainfact.chain import ChainPolynomial, GradingGroup, build_grading_group, numerics
from chainfact.cli import CHECKS_RUN
from chainfact.cli import main as cli_main
from chainfact.exactmath import MPoly
from chainfact.homcalc import HomEngine
from chainfact.homrun import (
    HomRun,
    auxiliary_splitting,
    collection_base,
    collection_splitting,
    ladder_object,
    ladder_splitting,
)
from chainfact.invariants import VerificationFailure
from chainfact.mf import GradingError, shift
from chainfact.verify import (
    INVARIANT_CHECKS,
    MAIN_THEOREM_CHECKS,
    SECTION_CHECKS,
    TRIANGLE_CHECKS,
    VerificationReport,
    emit_report,
    run_checks,
)
from oracles import (
    GeneralEngine,
    anchor,
    auxiliary_object,
    canonical_key,
    collection,
    dense_euler_matrix,
    euler_series,
    general_hom_dim,
    key_euler,
    ladder_boundary_outcome,
    ladder_cases,
    nakayama_witness,
    parse_report,
    poly_det,
    profiles_agree,
    rank_rational,
    scan_window,
    triangle_cases,
)
from test_homcalc import SMALL_CHAINS
from test_restriction import refused

# the chains where triangle_structural applies (2 <= n <= 3, mu <= 10)
STRUCTURAL_CHAINS = [exps for n in (2, 3) for exps in product(range(2, 10), repeat=n)
                     if verify_module._APPLIES["triangle_structural"](ChainPolynomial(exps))]


# ------------------------------------------------------------- collection

def test_collection_2_2():
    f = ChainPolynomial((2, 2))
    coll = collection(HomRun(f, 0))
    assert len(coll) == 3
    assert all(e.size == 1 for e in coll)
    base = coll[0]
    # the only entries are x2 and x1^2 + x2
    entries = {base.d0.entries[0][0], base.d1.entries[0][0]}
    x2 = MPoly.variable(2, 1)
    assert x2 in entries
    assert (MPoly(2, {(2, 0): 1}) + x2) in entries


def test_collection_single_variable():
    f = ChainPolynomial((2,))
    coll = collection(HomRun(f, 0))
    assert len(coll) == 1 and coll[0].size == 1
    x1 = MPoly.variable(1, 0)
    assert coll[0].d0.entries[0][0] == x1
    assert coll[0].d1.entries[0][0] == x1


def test_collection_2_2_2():
    f = ChainPolynomial((2, 2, 2))
    coll = collection(HomRun(f, 0))
    assert len(coll) == 5
    assert all(e.size == 2 for e in coll)
    g = build_grading_group(f)
    _, _, step = collection_splitting(f)
    assert step == -g.variable_degree(0)


def test_collection_splitting_rebuilds_f():
    for exps in [(2,), (3, 4), (2, 3, 4), (2, 2, 2, 2), (3, 2, 4, 5)]:
        f = ChainPolynomial(exps)
        gens, cofs, _ = collection_splitting(f)
        total = MPoly.zero(f.n)
        for g_, h_ in zip(gens, cofs):
            total = total + g_ * h_
        from chainfact.mf import chain_mpoly
        assert total == chain_mpoly(f)


def _mono(*exps):
    return MPoly(len(exps), {exps: 1})


def _sum(*monos):
    return sum(monos[1:], monos[0])


# each cofactor written out: f = x1^a1 x2 + x2^a2 x3 + ... + xn^an
@pytest.mark.parametrize("exps,splitting,want", [
    ((2, 3, 4), lambda f: collection_splitting(f)[:2],
     [_mono(1, 1, 0), _sum(_mono(0, 3, 0), _mono(0, 0, 3))]),
    ((2, 3, 4), lambda f: ladder_splitting(f, 1),
     [_mono(1, 1, 0), _sum(_mono(0, 3, 0), _mono(0, 0, 3))]),
    ((2, 3, 4), lambda f: ladder_splitting(f, 2),
     [_mono(0, 1, 0), _sum(_mono(0, 3, 0), _mono(0, 0, 3))]),
    ((2, 3, 4, 5), lambda f: collection_splitting(f)[:2],
     [_sum(_mono(2, 0, 0, 0), _mono(0, 2, 1, 0)),
      _sum(_mono(0, 0, 4, 0), _mono(0, 0, 0, 4))]),
    ((2, 3, 4, 5), auxiliary_splitting,
     [_mono(1, 1, 0, 0), _mono(0, 2, 1, 0),
      _sum(_mono(0, 0, 4, 0), _mono(0, 0, 0, 4))]),
    ((3, 2, 2), lambda f: ladder_splitting(f, 1),           # torsion Z/3
     [_mono(2, 1, 0), _sum(_mono(0, 2, 0), _mono(0, 0, 1))]),
    ((3, 2, 2), lambda f: ladder_splitting(f, 2),
     [_mono(1, 1, 0), _sum(_mono(0, 2, 0), _mono(0, 0, 1))]),
    ((3, 2, 2), lambda f: ladder_splitting(f, 3),
     [_mono(0, 1, 0), _sum(_mono(0, 2, 0), _mono(0, 0, 1))]),
])
def test_cofactors_match_the_written_splittings(exps, splitting, want):
    _, cofs = splitting(ChainPolynomial(exps))
    assert cofs == want


def test_ladder_object_boundaries_are_zero():
    f = ChainPolynomial((2, 2, 2))
    assert ladder_object(f, 0, 0).size == 0
    assert ladder_object(f, 0, f.exponents[0] + 1).size == 0


# -------------------------------------------------------------- pipelines

@pytest.mark.parametrize("exps", [(2,), (4,), (2, 2), (3, 3)])
def test_main_theorem_passes(exps):
    rep = run_checks(ChainPolynomial(exps), MAIN_THEOREM_CHECKS)
    assert rep.passed, [(c.name, c.detail) for c in rep.checks if c.status == "fail"]


def test_main_theorem_offset_invariance():
    f = ChainPolynomial((2, 2))
    r0 = run_checks(f, MAIN_THEOREM_CHECKS, 0)
    r1 = run_checks(f, MAIN_THEOREM_CHECKS, 1)
    assert r0.passed and r1.passed
    m0 = r0.check("euler_pairing_matches").detail["matrix"]
    m1 = r1.check("euler_pairing_matches").detail["matrix"]
    assert m0 == m1
    assert homrun.HomRun(f, 0).table == homrun.HomRun(f, 5).table


def test_fullness_reported_not_claimed():
    rep = run_checks(ChainPolynomial((2,)), MAIN_THEOREM_CHECKS)
    assert rep.check("fullness").status == "note"


def test_nakayama_check_present_only_for_two_variables():
    r2 = run_checks(ChainPolynomial((2, 2)), MAIN_THEOREM_CHECKS)
    assert r2.check("nakayama_cartan").status == "pass"
    r1 = run_checks(ChainPolynomial((3,)), MAIN_THEOREM_CHECKS)
    with pytest.raises(KeyError):
        r1.check("nakayama_cartan")


def test_triangles_even_chains():
    for exps in [(2, 2), (3, 2)]:
        rep = run_checks(ChainPolynomial(exps), TRIANGLE_CHECKS)
        assert rep.passed
        assert rep.check("triangle_euler_additivity").status == "pass"
        assert rep.check("triangle_structural").status == "pass"


def test_triangles_odd_chain_with_boundary_note():
    rep = run_checks(ChainPolynomial((2, 2, 2)), TRIANGLE_CHECKS)
    assert rep.passed
    assert rep.check("ladder_euler_additivity").status == "pass"
    boundary = rep.check("ladder_boundary_width_a1")
    assert boundary.status == "note"
    assert boundary.detail["literal_boundary_instance_holds"] is False


def test_triangles_vacuous_for_one_variable():
    rep = run_checks(ChainPolynomial((5,)), TRIANGLE_CHECKS)
    assert rep.passed


# ------------------------------------- triangle checks on the twist orbits

def naive_euler(x, y, l):
    """Alternating sum of the general route over scan_window on the raw
    objects."""
    lo, hi = scan_window(x, y, l)
    return sum((-1) ** (p % 2) * general_hom_dim(x, y, l, p) for p in range(lo, hi + 1))


def _triangle_object(f, kind, i, j):
    if kind == "collection":
        base, step = collection_base(f)
        return shift(base, i * step)
    if f.n % 2 == 0:
        return auxiliary_object(f, i)
    return ladder_object(f, i, 1 + j % f.exponents[0])


OBJECT_DRAW = st.tuples(st.sampled_from(["collection", "third"]),
                        st.integers(-3, 6), st.integers(0, 5))


# torsion gradings: (2, 3) Z/2, (2, 2, 3) Z/4, (3, 2, 2) Z/3
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(exps=st.sampled_from([(2, 2), (3, 3), (2, 2, 2), (2, 3), (2, 2, 3), (3, 2, 2)]),
       draws=st.lists(OBJECT_DRAW, min_size=2, max_size=4),
       k1=st.integers(-3, 3), kn=st.integers(-2, 2))
@example(exps=(2, 3), draws=[("collection", 1, 0), ("third", 2, 0),
                             ("third", -1, 0)], k1=1, kn=-1)
@example(exps=(2, 2, 3), draws=[("collection", 0, 0), ("third", 1, 0),
                                ("third", 2, 1)], k1=0, kn=1)
@example(exps=(3, 2, 2), draws=[("collection", 4, 0), ("third", 0, 2),
                                ("collection", -2, 0)], k1=-2, kn=0)
def test_euler_form_matches_naive_sum_property(exps, draws, k1, kn):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    objs = [_triangle_object(f, *d) for d in draws]
    degree = k1 * g.variable_degree(0) + kn * g.variable_degree(f.n - 1)
    homs = HomEngine()
    sources = [x for x in objs if not refused(x, x)]       # the engine's sources
    for _ in range(2):                      # the second pass reads the memo
        for x in sources:
            for y in objs:
                for l in (None, degree):
                    assert (key_euler(homs, canonical_key(x, y, l))
                            == naive_euler(x, y, l)), (exps, draws)


def _recorded_objects(monkeypatch):
    """Wrap the run's object accessors; each records (index, object) pairs."""
    made = {"collection_object": [], "auxiliary": [], "ladder": []}
    for name, seen in made.items():
        real = getattr(homrun.HomRun, name)

        def recording(self, *index, real=real, seen=seen):
            obj = real(self, *index)
            seen.append((index, obj))
            return obj

        monkeypatch.setattr(homrun.HomRun, name, recording)
    return made


@pytest.mark.parametrize("exps,offset", [((2, 2), 0), ((3, 3), 2), ((2, 3), 1),
                                         ((2, 2, 2), 0), ((2, 2, 3), 1),
                                         ((3, 2, 2), 2), ((3, 3, 3), 0)])
def test_triangle_families_equal_validating_objects(monkeypatch, exps, offset):
    f = ChainPolynomial(exps)
    made = _recorded_objects(monkeypatch)
    assert run_checks(f, TRIANGLE_CHECKS, offset).passed
    coll = collection(HomRun(f, offset))
    for (i,), obj in made["collection_object"]:
        if 0 <= i - offset < len(coll):
            assert obj == coll[i - offset]
        else:
            assert obj == collection(HomRun(f, i))[0]
    for (i,), obj in made["auxiliary"]:
        assert obj == auxiliary_object(f, i)
    for (i, j), obj in made["ladder"]:
        assert obj == ladder_object(f, i, j)
    # the Euler checks build no family object: they read orbits, each key
    # on them the key of the validating objects it stands for
    assert not made["ladder" if f.n % 2 == 0 else "auxiliary"]
    _assert_orbit_keys_are_object_keys(f, offset)


def _assert_orbit_keys_are_object_keys(f, offset):
    """The run's Euler checks read each target on one orbit, and the key
    (A, target, start + e step) that they read for the probe m against
    object i, e = i - offset - m, has the canonical key of the validating
    objects it stands for: each probe of the collection against the
    collection objects and auxiliary_object(offset + k) for k = 1, 2 and
    mu - 1, which between them reach every diagonal (even n), or against
    ladder_object of the checked rows and the next row, and the collection
    objects E_{i+k}, k <= a1, of the boundary's class sum (odd n)."""
    run = homrun.HomRun(f, offset)
    reads, real = {}, run.engine.orbit

    def recorded(A, X, start, step, es):
        reads.setdefault(X, set()).add((A, start, step, es))
        return real(A, X, start, step, es)

    run.engine.orbit = recorded
    checks = (["triangle_euler_additivity"] if f.n % 2 == 0
              else ["ladder_euler_additivity", "ladder_boundary_width_a1"])
    for name in checks:
        getattr(run, name)()

    def want(target, e):
        (A, start, step, es), = reads[target]
        assert e in es, (f, e)
        return A, target, start + e * step

    mu, coll = run.nm.milnor, collection(HomRun(f, offset))
    if f.n % 2 == 0:
        families = {run.base[0]: dict(enumerate(coll, offset)),
                    run.aux_base: {offset + k: auxiliary_object(f, offset + k)
                                   for k in (1, 2, mu - 1)}}
    else:
        a1, rows = f.exponents[0], range(offset, offset + min(mu - 1, 3) + 1)
        base, step = collection_base(f)
        families = {run.ladder_bases[j]: {i: ladder_object(f, i, j) for i in rows}
                    for j in range(1, a1 + 1)}
        families[run.base[0]] = {i: shift(base, i * step)
                                 for i in range(offset, rows[-1] + a1)}
    # canonical_key(x, obj) = (A, B, s - t), each object anchored once
    probes = [anchor(x) for x in coll]
    for target, objects in families.items():
        for i, obj in objects.items():
            B, t = anchor(obj)
            for m, (A, s) in enumerate(probes):
                assert ((A, B, s - t)
                        == canonical_key(*want(target, i - offset - m))), (f, i, m)


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("exps,max_hom,max_stab", [((3, 3, 3), 3, 3 + 2),
                                                   ((3, 3), None, 2)])
def test_triangles_query_each_key_once(monkeypatch, exps, max_hom, max_stab):
    """Each (source, target) pair's Künneth basis is built once: on 3,3,3
    the collection base against itself and the ladder bases of widths 2
    and 3 (width 1 is equal to the collection base and shares its entry)."""
    f = ChainPolynomial(exps)
    homs, stabs = [], []
    _count_calls(monkeypatch, homcalc.HomEngine, "kunneth", homs)
    _count_calls(monkeypatch, mf, "stabilize", stabs)
    assert run_checks(f, TRIANGLE_CHECKS, 0).passed
    assert 0 < len(stabs) <= max_stab
    assert homs and (max_hom is None or len(homs) <= max_hom)


@pytest.mark.parametrize("exps", [(3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2, 2)])
def test_boundary_check_compares_objects_once_per_read(monkeypatch, exps):
    """ladder_boundary_width_a1, run after ladder_euler_additivity as in a
    triangles run, makes at most one structural comparison of
    factorizations per orbit read: the width-one ladder base equals the
    collection base but is another object, and only the memo lookup of the
    pair compares them, never a lookup per twist."""
    run = homrun.HomRun(ChainPolynomial(exps), 0)
    assert run.ladder_euler_additivity()        # fills the memo with every width
    compares, reads = [], []
    _count_calls(monkeypatch, mf.MatrixFactorization, "__eq__", compares)
    _count_calls(monkeypatch, HomEngine, "orbit", reads)
    assert run.ladder_boundary_width_a1()[0] == "note"
    assert reads and len(compares) <= len(reads), (len(compares), len(reads))


@pytest.mark.parametrize("exps", [(3, 3, 3), (3, 3, 3, 3, 3), (4, 4, 4), (2, 2, 2, 2),
                                  (2, 3, 2, 3)])
def test_triangles_run_reads_each_orbit_once(monkeypatch, exps):
    """A whole triangles run makes one orbit read per target base: at odd n
    a1 + 1, one per ladder width and one of the collection base, as both
    ladder checks share the run's ladder totals; at even n 2, the
    collection base and the auxiliary base."""
    f = ChainPolynomial(exps)
    reads = []
    _count_calls(monkeypatch, HomEngine, "orbit", reads)
    assert run_checks(f, TRIANGLE_CHECKS, 0).passed
    assert len(reads) == (exps[0] + 1 if f.n % 2 else 2), len(reads)


def _record_route_queries(monkeypatch):
    """The (source, target) pairs whose Künneth basis the engine builds, in
    order."""
    queries = []
    real = homcalc.HomEngine.kunneth
    monkeypatch.setattr(homcalc.HomEngine, "kunneth",
                        lambda self, A, X: queries.append((A, X)) or real(self, A, X))
    return queries


def _asks_each_folded_query_once(monkeypatch, command, exps, offset, want):
    """A run of ``command`` builds the Künneth basis of each (source,
    target) pair once and answers every folded query from it, and a second
    run shares no memo with the first."""
    f = ChainPolynomial(exps)
    queries = _record_route_queries(monkeypatch)
    for _ in range(2):
        queries.clear()
        assert run_checks(f, CHECKS_RUN[command], offset).passed
        assert len(queries) == len(set(queries)) == want


def test_verify_asks_each_folded_query_once(monkeypatch):
    """The primal and Serre-dual tables of a run share one memo: on 3,3,3 at
    offset 1, one Künneth basis, (base, base), answers all 684 entries that
    the two tables ask for."""
    _asks_each_folded_query_once(monkeypatch, "verify", (3, 3, 3), 1, 1)


def test_triangles_asks_each_folded_query_once(monkeypatch):
    """The Euler entries share the run's memo, and the cone search asks the
    engine nothing: on 2,2,3 (torsion Z/4) at offset 1, two Künneth bases,
    the collection base against itself and against the auxiliary base."""
    _asks_each_folded_query_once(monkeypatch, "triangles", (2, 2, 3), 1, 2)


def _memos_of_the_package() -> list[str]:
    """The attributes with ``cache_info`` of every ``chainfact`` module and of
    every class defined in one, as dotted names."""
    found = []
    for info in pkgutil.iter_modules(chainfact.__path__, "chainfact."):
        module = importlib.import_module(info.name)
        owners = [(info.name, module)] + [
            (f"{info.name}.{k}", v) for k, v in vars(module).items()
            if isinstance(v, type) and v.__module__ == info.name]
        found += [f"{prefix}.{k}" for prefix, owner in owners
                  for k, v in vars(owner).items() if hasattr(v, "cache_info")]
    return sorted(found)


def test_no_hom_memo_outlives_its_run(monkeypatch):
    """No memo outlives its run.  After verify runs the interned grading
    group holds no memo, and no attribute of a ``chainfact`` module, or of a
    class defined in one, has ``cache_info`` except ``chain._group_for``,
    the interned grading group that ``Degree`` identity relies on.  A second
    run in the same process repeats the first one's work: a verify run
    builds the same Künneth bases, and an invariants run makes the same
    battery calls.  Neither verify run enumerates a monomial basis: the
    closed form reads none."""
    f = ChainPolynomial((2, 2, 3))
    group = build_grading_group(f)
    queries, enumerations = _record_route_queries(monkeypatch), []
    _count_calls(monkeypatch, GradingGroup, "monomial_basis", enumerations)
    runs = []
    for _ in range(2):
        queries.clear()
        enumerations.clear()
        assert run_checks(f, CHECKS_RUN["verify"], 1).passed
        assert [k for k, v in vars(group).items()
                if isinstance(v, (dict, list, set))] == []
        runs.append((list(queries), len(enumerations)))
    assert runs[0][0] and runs[0][1] == 0
    assert runs[0] == runs[1]
    assert _memos_of_the_package() == ["chainfact.chain._group_for"]
    battery = []
    for name in ("zeta_polynomial", "euler_matrix", "monodromy_data",
                 "cyclotomic_polynomial", "alternating_product", "series_inverse"):
        _count_calls(monkeypatch, invariants, name, battery)
    work = []
    for _ in range(2):
        battery.clear()
        assert run_checks(f, CHECKS_RUN["invariants"]).passed
        work.append(sorted(battery))
    # each run builds its own values: z twice (the run's and the certificate's
    # rebuild) and the Euler series once
    assert work[0].count("zeta_polynomial") == 2
    assert work[0].count("series_inverse") == 1
    assert work[0] == work[1]


def test_euler_builds_no_dual_table(monkeypatch):
    """An euler run reads one table, the orbit of (base, base) from the zero
    twist, and no Serre-dual key (A, A, -sigma - d step), |d| < mu, while a
    verify run's Serre check reads every one of them."""
    f = ChainPolynomial((3, 3, 3))
    g = build_grading_group(f)
    reads, calls, degrees = [], [], []
    _count_calls(monkeypatch, homcalc.HomEngine, "kunneth", calls)
    real = HomEngine.orbit

    def recorded(self, A, X, start, step, es):
        reads.append((A, X, start))
        degrees.extend((start + e * step).coords for e in es)
        return real(self, A, X, start, step, es)

    monkeypatch.setattr(HomEngine, "orbit", recorded)
    assert run_checks(f, CHECKS_RUN["euler"], 1).passed
    assert len(reads) == 1 and reads[0][0] is reads[0][1] and reads[0][2].is_zero()
    asked = len(calls)
    mu, step = numerics(f).milnor, collection_splitting(f)[2]
    sigma = sum((g.variable_degree(v) for v in range(f.n)), g.zero)
    serre_keys = {(-sigma - d * step).coords for d in range(1 - mu, mu)}
    assert degrees and serre_keys.isdisjoint(degrees)
    degrees.clear()
    assert run_checks(f, CHECKS_RUN["verify"], 1).passed
    assert serre_keys <= set(degrees)
    monkeypatch.setattr(HomEngine, "orbit", real)
    run = HomRun(f, 1)
    coll, homs = collection(run), run.engine
    assert run.table and asked == len(homs.bases) == 1
    # the Euler entries between collection objects read the table's memo
    calls.clear()
    chi = [[key_euler(homs, canonical_key(x, y)) for y in coll] for x in coll]
    assert calls == []
    assert chi == [list(row) for row in dense_euler_matrix(euler_series(f)).entries]


def test_collection_builds_no_object(monkeypatch):
    """collection reads the base alone, whose size every shift keeps: on
    13,13,13,13 (mu 26 521) it makes no shift."""
    shifts = []
    _count_calls(monkeypatch, mf, "shift", shifts)
    rep = run_checks(ChainPolynomial((13, 13, 13, 13)), ("collection",))
    assert rep.check("collection").detail == {"objects": 26521, "size": 2}
    assert shifts == []


def _validating_search(f, offset, j):
    """(source, target, reference) of the cone search from the validating
    builders: E_offset -> E_(offset+1) against Aux(offset + 1) at even n, the
    width-j ladder triangle of row offset at odd n."""
    if f.n % 2 == 0:
        coll = collection(HomRun(f, offset))
        return coll[0], coll[1], auxiliary_object(f, offset + 1)
    middle = [x for x in (ladder_object(f, offset, j + 1),
                          ladder_object(f, offset + 1, j - 1)) if x.size]
    target = mf.direct_sum(*middle) if len(middle) == 2 else middle[0]
    return ladder_object(f, offset + 1, j), target, ladder_object(f, offset, j)


def _searches(monkeypatch):
    """The (source, target, reference) of every cone search, in order, each
    with the (cone, reference, verdict) of every isomorphism test it makes."""
    searches = []
    real_search, real_isomorphic = homrun._search_cone_match, homrun._isomorphic

    def search(source, target, reference):
        searches.append((source, target, reference, []))
        return real_search(source, target, reference)

    def isomorphic(C, R):
        got = real_isomorphic(C, R)
        searches[-1][3].append((C, R, got))
        return got

    monkeypatch.setattr(homrun, "_search_cone_match", search)
    monkeypatch.setattr(homrun, "_isomorphic", isomorphic)
    return searches


def _constant_part(phi):
    """The constant terms of a graded map's entries, as a dense matrix."""
    one = (0,) * phi.group.chain.n
    return [[p.terms.get(one, 0) for p in row] for row in phi.entries]


@pytest.mark.parametrize("offset", [0, 2])
@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_cone_search_certifies_an_isomorphism(monkeypatch, exps, offset):
    """The cone search receives the validating objects' (source, target,
    reference), tests the candidates' reduced cones against that reference,
    starting with the first basis morphism's, and stops at the first one
    certified, C: the one basis morphism of Hom^0(C, reference) has constant
    parts of full rank on both components, and each component's determinant
    is a nonzero constant, so it is an isomorphism."""
    f = ChainPolynomial(exps)
    searches = _searches(monkeypatch)
    rep = run_checks(f, ("triangle_structural",), offset)
    assert rep.check("triangle_structural").status == "pass"
    assert len(searches) == (1 if f.n % 2 == 0 else f.exponents[0] - 1)
    for j, (source, target, reference, tests) in enumerate(searches, 1):
        where = (exps, offset, j)
        assert (source, target, reference) == _validating_search(f, offset, j), where
        first = mf.reduce(mf.cone(homcalc.morphism_space_basis(source, target)[0]))
        assert tests[0][0] == first, where
        assert [(R, ok) for _, R, ok in tests] == (
            [(reference, False)] * (len(tests) - 1) + [(reference, True)]), where
        cone = tests[-1][0]
        (alpha,) = homcalc.morphism_space_basis(cone, reference)
        for phi in (alpha.phi0, alpha.phi1):
            assert rank_rational(_constant_part(phi)) == cone.size == reference.size
            det = poly_det(phi.entries)
            assert det.is_constant() and not det.is_zero(), where


@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)])
@pytest.mark.parametrize("wrong", ["next_collection", "next_reference"])
def test_cone_search_with_a_wrong_reference_is_inconclusive(monkeypatch, exps, wrong):
    """Negative control: with the reference replaced by E_(offset+2) or by
    the next reference (Aux(offset + 2) at even n, L(offset + 1, j) at odd
    n), the check reports inconclusive, never fail, and certifies no cone."""
    f = ChainPolynomial(exps)
    offset, x1 = 1, build_grading_group(f).variable_degree(0)
    base, step = collection_base(f)
    real_search, certified = homrun._search_cone_match, []

    def search(source, target, reference):
        if wrong == "next_collection":
            reference = shift(base, (offset + 2) * step)
        else:
            reference = shift(reference, (1 if f.n % 2 == 0 else -1) * x1)
        return real_search(source, target, reference)

    def isomorphic(C, R, real=homrun._isomorphic):
        certified.append(real(C, R))
        return certified[-1]

    monkeypatch.setattr(homrun, "_search_cone_match", search)
    monkeypatch.setattr(homrun, "_isomorphic", isomorphic)
    rep = run_checks(f, ("triangle_structural",), offset)
    assert rep.check("triangle_structural").status == "inconclusive"
    assert certified and not any(certified)


def test_certified_cones_have_the_reference_profile(monkeypatch):
    """Differential test: on every chain where triangle_structural applies
    (2 <= n <= 3, mu <= 10; 19 chains) at offsets 0-3, every certified cone
    has the reference's Hom dimensions out of every collection object, a
    necessary condition for an isomorphism."""
    assert len(STRUCTURAL_CHAINS) == 19
    for exps in STRUCTURAL_CHAINS:
        f = ChainPolynomial(exps)
        base, step = collection_base(f)
        mu = numerics(f).milnor
        for offset in range(4):
            searches = _searches(monkeypatch)
            assert run_checks(f, ("triangle_structural",), offset).passed
            orbit = (base, [-(offset + k) * step for k in range(mu)])
            zero, homs = base.group.zero, GeneralEngine()
            certified = [(C, R) for *_, tests in searches for C, R, ok in tests if ok]
            assert certified, (exps, offset)
            for C, R in certified:
                assert profiles_agree(homs, orbit, (C, zero), (R, zero)), (exps, offset)


def test_triangles_read_only_base_keys(monkeypatch):
    """Every HomEngine key that a triangles run reads has the collection base
    as its source and the collection base, the auxiliary base or a ladder
    base as its target: the cone search asks the engine nothing."""
    keys = []
    real = HomEngine.orbit
    monkeypatch.setattr(HomEngine, "orbit", lambda self, A, X, *read: keys.append(
        (A, X, read)) or real(self, A, X, *read))
    real_basis = HomEngine.kunneth
    monkeypatch.setattr(HomEngine, "kunneth",
                        lambda self, A, X: keys.append((A, X, None))
                        or real_basis(self, A, X))
    for exps in [(2, 2), (3, 3), (2, 5), (9, 2), (2, 2, 2), (3, 2, 2), (2, 4, 2),
                 (2, 2, 2, 2), (3, 3, 3)]:
        f = ChainPolynomial(exps)
        base = collection_base(f)[0]
        if f.n % 2 == 0:
            bases = [base, mf.stabilize(f, *auxiliary_splitting(f))]
        else:
            bases = [base] + [mf.stabilize(f, *ladder_splitting(f, j))
                              for j in range(1, f.exponents[0] + 1)]
        for offset in (0, 2):
            keys.clear()
            assert run_checks(f, CHECKS_RUN["triangles"], offset).passed
            assert keys, (exps, offset)
            for A, X, _ in keys:
                assert A == base and X in bases, (exps, offset)


@pytest.mark.parametrize("command", ["verify", "euler", "triangles"])
def test_run_reads_land_inside_their_windows(monkeypatch, command):
    """Every power that a run's reads land on lies inside the key's
    certified window (``oracles.scan_window``), on chains of both parities,
    torsion ones included, at offsets 0-3: so the Euler sums, which read no
    window, are the alternating sums over the windows."""
    reads = []
    real = HomEngine.orbit

    def recorded(self, A, X, start, step, es):
        landed = real(self, A, X, start, step, es)
        reads.extend(((A, X, start + e * step), dims) for e, dims in landed.items())
        return landed

    monkeypatch.setattr(HomEngine, "orbit", recorded)
    for exps in [(2, 2), (3, 3), (2, 3), (9, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3),
                 (2, 2, 2, 2), (3, 3, 3), (2, 3, 2, 3)]:
        f = ChainPolynomial(exps)
        for offset in range(4):
            reads.clear()
            assert run_checks(f, CHECKS_RUN[command], offset).passed
            assert any(dims for _, dims in reads), (exps, offset)
            for key, dims in reads:
                lo, hi = scan_window(*key)
                assert all(lo <= p <= hi for p in dims), (exps, offset, key[2])


def _outcome(check):
    """(status, None) when the check returns, the status "pass" unless it
    names one, and ("fail", witness) when it raises."""
    try:
        got = check()
    except VerificationFailure as exc:
        return "fail", exc.witness
    return (got[0] if isinstance(got, tuple) else "pass"), None


def _raise_orbit_reads(monkeypatch):
    """The set of keys (A, X, l) on which every orbit read lands one more
    dimension at power 0, so their Euler numbers read one too high, in the
    run's checks and in the oracles' single-key reads alike."""
    keys, real = set(), HomEngine.orbit

    def raised(self, A, X, start, step, es):
        landed = real(self, A, X, start, step, es)
        for e, dims in landed.items():
            if (A, X, start + e * step) in keys:
                landed[e] = {**dims, 0: dims.get(0, 0) + 1}
        return landed

    monkeypatch.setattr(HomEngine, "orbit", raised)
    return keys


@pytest.mark.parametrize("offset", [0, 2])
def test_orbit_triangle_totals_match_the_pair_loop(monkeypatch, offset):
    """triangle_euler_additivity, one total per diagonal, against the loop
    over every (triangle, probe) pair, on every even-n chain with mu <= 30:
    unmodified, and with the orbit read one too high in Euler number on some
    keys.  Every pair on such a key's diagonal reads the wrong value, so the
    two must name the same cases in the same order; two keys far apart make
    the order of the cases matter.  The orbit keys the check reads are the
    keys of the validating objects."""
    failing = 0
    for exps in (e for e in SMALL_CHAINS if len(e) % 2 == 0):
        _assert_orbit_keys_are_object_keys(ChainPolynomial(exps), offset)
    keys = _raise_orbit_reads(monkeypatch)
    for exps in (e for e in SMALL_CHAINS if len(e) % 2 == 0):
        run = homrun.HomRun(ChainPolynomial(exps), offset)
        coll = collection(run)
        for raised in [(), ((coll[0], coll[-1]),), ((coll[-1], coll[0]),),
                       ((coll[0], run.auxiliary(offset + 1)),),
                       ((coll[0], coll[1]), (coll[0], coll[-1]))]:
            keys.update(canonical_key(*pair) for pair in raised)
            cases = triangle_cases(run)
            want = ("fail", {"cases": cases}) if cases else ("pass", None)
            assert _outcome(run.triangle_euler_additivity) == want, (exps, raised)
            assert (want[0] == "fail") == bool(raised), (exps, raised)
            failing += bool(cases)
            keys.clear()
    assert failing > 100


@pytest.mark.parametrize("offset", [0, 2])
def test_orbit_ladder_totals_match_the_object_loop(monkeypatch, offset):
    """ladder_euler_additivity and ladder_boundary_width_a1, which read one
    Euler value per (width, orbit index), against the loops over the ladder
    and collection objects, on every chain of SMALL_CHAINS with odd n >= 3:
    unmodified, and with the orbit read one too high in Euler number on one
    key (a width-1 or width-a1 ladder, a collection class of the boundary's
    sum) or on two keys far apart (widths 1 and a1 - 1).  Status and
    witness must agree, and every raised key fails one of the two.  The
    orbit keys the checks read are the keys of the validating objects."""
    failing, chains = 0, [e for e in SMALL_CHAINS if len(e) >= 3 and len(e) % 2]
    for exps in chains:
        _assert_orbit_keys_are_object_keys(ChainPolynomial(exps), offset)
    keys = _raise_orbit_reads(monkeypatch)
    for exps in chains:
        run = homrun.HomRun(ChainPolynomial(exps), offset)
        # the oracles build each object once per chain
        run.ladder, run.collection_object = cache(run.ladder), cache(run.collection_object)
        coll, ladder, a1 = collection(run), run.ladder, exps[0]
        for raised in [(), ((coll[0], ladder(offset, 1)),),
                       ((coll[-1], ladder(offset + 1, a1)),),
                       ((coll[0], run.collection_object(offset + a1)),),
                       ((coll[0], ladder(offset + 1, 1)),
                        (coll[-1], ladder(offset, a1 - 1)))]:
            keys.update(canonical_key(*pair) for pair in raised)
            cases = ladder_cases(run)
            want = ("fail", {"cases": cases}) if cases else ("pass", None)
            # a fresh run each time: its two ladder checks share its ladder totals
            checked = homrun.HomRun(ChainPolynomial(exps), offset)
            assert _outcome(checked.ladder_euler_additivity) == want, (exps, raised)
            boundary = ladder_boundary_outcome(run)
            assert _outcome(checked.ladder_boundary_width_a1) == boundary, (exps, raised)
            assert (want[0] == "fail" or boundary[0] == "fail") == bool(raised), \
                (exps, raised)
            failing += bool(cases) + (boundary[0] == "fail")
            keys.clear()
    assert failing > 100


@pytest.mark.parametrize("offset", [0, 2])
def test_diagonal_nakayama_matches_the_pair_loop(offset):
    """nakayama_cartan, one test per diagonal, against the walk over every
    pair, on every two-variable chain with mu <= 30: unmodified, and with
    table columns raised by one at power 0 (inside and at both ends of the
    band 0 <= d < a1, and both corners at once, whose first pairs differ in
    row-major and column-major order) or at power 1, which the check does
    not read."""
    for exps in (e for e in SMALL_CHAINS if len(e) == 2):
        run = homrun.HomRun(ChainPolynomial(exps), offset)
        a1, mu, table = exps[0], run.nm.milnor, run.table
        assert run.exc["strong"]
        for raised in [(), ((0, 0),), ((a1 - 1, 0),), ((a1, 0),),
                       ((1 - mu, 0), (mu - 1, 0)), ((1, 1),)]:
            saved = dict(table)
            for d, p in raised:
                dims = table[d]
                table[d] = {**dims, p: dims.get(p, 0) + 1}
            witness = nakayama_witness(table, a1)
            want = ("fail", witness) if witness else ("pass", None)
            assert _outcome(run.nakayama_cartan) == want, (exps, raised)
            assert (want[0] == "fail") == any(p == 0 for _, p in raised), (exps, raised)
            table.update(saved)


def _answer_one_key_wrongly(monkeypatch, wrong):
    """The engine answers the folded query (A, A, 0, 0) one too high, for A
    the source and an equal target (the memo shares equal objects' Künneth
    bases); every other query is answered correctly."""
    real = homcalc.HomEngine.kunneth

    def skewed(self, source, target):
        basis = real(self, source, target)
        if source == target:
            wrong.append(source)
            at = (source.group.zero.coords, 0)
            return {**basis, at: basis.get(at, 0) + 1}
        return basis

    monkeypatch.setattr(homcalc.HomEngine, "kunneth", skewed)


def test_euler_memo_cannot_hide_a_wrong_answer_even(monkeypatch):
    f = ChainPolynomial((2, 2))
    mu = 3
    wrong = []
    _answer_one_key_wrongly(monkeypatch, wrong)
    check = run_checks(f, TRIANGLE_CHECKS).check("triangle_euler_additivity")
    assert check.status == "fail" and len(wrong) == 1
    # the entry (E_k, E_k) is +1 in the total of probe E_{i-1} and -1 in that
    # of probe E_i, for every triangle i
    cases = check.detail["witness"]["cases"]
    assert sorted(c["total"] for c in cases) == [-1] * (mu - 1) + [1] * (mu - 1)


@pytest.mark.parametrize("exps", [(2, 2), (3, 3)])
def test_euler_pairing_failure_witness(monkeypatch, exps):
    """One wrong Hom answer on the diagonal fails euler_pairing_matches, and
    the witness holds both grids: the engine's, with its diagonal one too
    high, and the Toeplitz grid of the Euler series."""
    f = ChainPolynomial(exps)
    wrong = []
    _answer_one_key_wrongly(monkeypatch, wrong)
    check = run_checks(f, CHECKS_RUN["euler"], 1).check("euler_pairing_matches")
    assert check.status == "fail" and len(wrong) == 1
    series = euler_series(f)
    mu = len(series)
    toeplitz = [[series[j - i] if j >= i else 0 for j in range(mu)] for i in range(mu)]
    raised = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(toeplitz)]
    assert check.detail["witness"] == {"engine": raised, "matrix": toeplitz}


def test_euler_memo_cannot_hide_a_wrong_answer_odd(monkeypatch):
    f = ChainPolynomial((2, 2, 2))
    wrong = []
    _answer_one_key_wrongly(monkeypatch, wrong)
    check = run_checks(f, TRIANGLE_CHECKS).check("ladder_euler_additivity")
    assert check.status == "fail" and len(wrong) == 1
    # at width one, L(i, 1) = E_i and L(i + 1, 1) = E_{i+1} enter with sign +1
    cases = check.detail["witness"]["cases"]
    assert sorted((c["i"], c["total"]) for c in cases) == [
        (i, 1) for i in range(3) for _ in range(2)]


def test_section_inequalities():
    for n in range(1, 6):
        for exps in product((2, 3, 4), repeat=n):
            rep = run_checks(ChainPolynomial(exps), SECTION_CHECKS)
            assert rep.passed, exps


# ---------------------------------------------------------- check registry

def _patch_raising(monkeypatch, owner, name, exc, when=lambda *a, **k: True):
    real = getattr(owner, name)

    def raising(*args, **kwargs):
        if when(*args, **kwargs):
            raise exc(f"{name} called")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, raising)


def test_failed_hom_table_fails_its_dependants(monkeypatch):
    # the table is the orbit read from the zero twist; Serre's starts at -sigma
    _patch_raising(monkeypatch, homcalc.HomEngine, "orbit", GradingError,
                   lambda self, A, X, start, step, es: start.is_zero())
    rep = run_checks(ChainPolynomial((2, 2)), MAIN_THEOREM_CHECKS)
    failed = {"hom_table", "exceptionality", "euler_pairing_matches",
              "serre_symmetry", "nakayama_cartan"}
    assert {c.name for c in rep.checks if c.status == "fail"} == failed
    assert rep.check("exceptionality").detail == {"error": "orbit called"}
    assert rep.check("collection").status == "pass"
    assert cli_main(["verify", "--chain", "2,2", "--format", "json"]) == 1


def test_failed_monodromy_data_fails_its_dependants(monkeypatch):
    _patch_raising(monkeypatch, invariants, "monodromy_data", VerificationFailure)
    rep = run_checks(ChainPolynomial((2, 2)), MAIN_THEOREM_CHECKS)
    failed = {"monodromy_two_routes", "zeta_factorization", "monodromy_oracle"}
    assert {c.name for c in rep.checks if c.status == "fail"} == failed
    assert [c.name for c in rep.checks] == list(verify_module.MAIN_THEOREM_CHECKS)


class _Marked(list):
    """Generators of a triangle base, told apart from the collection's."""


def _refuse_triangle_bases(monkeypatch):
    """The auxiliary and ladder splittings hand out marked generators, and
    ``stabilize`` raises GradingError on them; returns the splittings made."""
    made = []
    for name in ("auxiliary_splitting", "ladder_splitting"):
        real = getattr(homrun, name)

        def marked(*args, real=real):
            gens, cofs = real(*args)
            made.append(args)
            return _Marked(gens), cofs

        monkeypatch.setattr(homrun, name, marked)
    _patch_raising(monkeypatch, mf, "stabilize", GradingError,
                   when=lambda f, gens, cofs, twist=None: isinstance(gens, _Marked))
    return made


@pytest.mark.parametrize("exps,failed,passed", [
    ((2, 2), {"triangle_euler_additivity", "triangle_structural"},
     {"reduced_collection_integrality"}),
    ((2, 2, 2), {"ladder_euler_additivity", "ladder_boundary_width_a1",
                 "ladder_base_object", "triangle_structural"},
     {"reduced_collection_integrality"})])
def test_failed_triangle_base_fails_its_dependants(monkeypatch, exps, failed, passed):
    made = _refuse_triangle_bases(monkeypatch)
    rep = run_checks(ChainPolynomial(exps), TRIANGLE_CHECKS, 1)
    assert made
    assert {c.name for c in rep.checks} == failed | passed
    assert {c.name for c in rep.checks if c.status == "fail"} == failed
    assert {c.name for c in rep.checks if c.status == "pass"} == passed
    for name in failed:
        assert rep.check(name).detail == {"error": "stabilize called"}


@pytest.mark.parametrize("exps", [(2, 2), (2, 2, 2)])
def test_main_theorem_stabilizes_no_triangle_base(monkeypatch, exps):
    """verify and euler each stabilize one object, the collection base."""
    f = ChainPolynomial(exps)
    made = _refuse_triangle_bases(monkeypatch)
    stabilized, real = [], mf.stabilize

    def recorded(poly, gens, *rest):
        stabilized.append(list(gens))
        return real(poly, gens, *rest)

    monkeypatch.setattr(mf, "stabilize", recorded)
    for names in (verify_module.MAIN_THEOREM_CHECKS, CHECKS_RUN["euler"]):
        stabilized.clear()
        assert run_checks(f, names).passed
        assert stabilized == [collection_splitting(f)[0]]
    assert made == []


def test_monodromy_computes_only_what_it_reports(monkeypatch, capsys):
    for name in ("check_lattice_correspondence", "polarization_integer"):
        _patch_raising(monkeypatch, invariants, name, RuntimeError)
    _patch_raising(monkeypatch, GradingGroup, "quotient_by_total_degree_order",
                   RuntimeError)
    assert cli_main(["monodromy", "--chain", "2,2,3", "--format", "csv"]) == 0
    assert "monodromy_oracle,pass" in capsys.readouterr().out


def test_euler_computes_only_what_it_reports(monkeypatch, capsys):
    _patch_raising(monkeypatch, homrun.HomRun, "serre_symmetry", RuntimeError)
    _patch_raising(monkeypatch, invariants, "monodromy_data", RuntimeError)
    assert cli_main(["euler", "--no-cache", "--chain", "2,2,3", "--format", "csv"]) == 0
    assert "euler_pairing_matches,pass" in capsys.readouterr().out


def _without_elapsed(data):
    for check in data["checks"]:
        del check["elapsed_ns"]
    return data


@pytest.mark.parametrize("chain", ["2,2", "3,2", "2,3", "2,2,3", "3,2,2"])
# the ids are the ones these cases have always been collected under
@pytest.mark.parametrize("argv,full", [
    pytest.param(["euler", "--no-cache"], MAIN_THEOREM_CHECKS, id="argv0-<lambda>"),
    pytest.param(["monodromy"], INVARIANT_CHECKS, id="argv1-verify_invariants")])
def test_subset_reports_equal_the_filtered_full_report(capsys, chain, argv, full):
    """Each subset subcommand against the full pipeline cut to its names."""
    command = argv[0]
    assert cli_main(argv + ["--chain", chain, "--format", "json"]) == 0
    got = _without_elapsed(json.loads(capsys.readouterr().out))
    report = run_checks(ChainPolynomial.parse(chain), full)
    want = _without_elapsed(report.to_json_dict())
    want["checks"] = [c for c in want["checks"] if c["name"] in CHECKS_RUN[command]]
    assert [c["name"] for c in got["checks"]] == list(CHECKS_RUN[command])
    assert got == want


# ------------------------------------------------------------------ report

def test_report_json_roundtrip():
    rep = run_checks(ChainPolynomial((2, 2)), MAIN_THEOREM_CHECKS)
    back = parse_report(emit_report(rep, "json"))
    assert back == rep
    back.checks[-1].status = "fail"
    assert back != rep


@pytest.mark.parametrize("command", ["verify", "invariants", "triangles"])
def test_report_provenance_names_the_engine(capsys, command):
    rc = cli_main([command, "--chain", "2,2", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["provenance"] == {"tool_version": chainfact.__version__,
                                  "engine": chainfact.ENGINE_ID}
    rep = parse_report(emit_report(parse_report(json.dumps(data)), "json"))
    assert rep.engine == chainfact.ENGINE_ID
    assert rep.to_json_dict()["provenance"] == data["provenance"]


def test_report_without_provenance_still_parses():
    data = run_checks(ChainPolynomial((2,)), INVARIANT_CHECKS).to_json_dict()
    del data["provenance"]
    rep = VerificationReport.from_json_dict(data)
    assert rep.engine is None and rep.passed


def test_report_csv_shape():
    rep = run_checks(ChainPolynomial((2, 2)), INVARIANT_CHECKS)
    lines = emit_report(rep, "csv").strip().splitlines()
    assert lines[0] == "name,status,elapsed_ns"
    assert all(line.split(",")[1] in ("pass", "fail", "note", "inconclusive")
               for line in lines[1:])


def test_report_markdown_euler_rows():
    rep = run_checks(ChainPolynomial((2, 2)), MAIN_THEOREM_CHECKS)
    md = emit_report(rep, "md")
    assert "1 1 0" in md and "0 1 1" in md and "0 0 1" in md


def test_report_unknown_format():
    rep = run_checks(ChainPolynomial((2,)), INVARIANT_CHECKS)
    with pytest.raises(ValueError):
        emit_report(rep, "xml")


# --------------------------------------------------------------------- CLI

def test_cli_invariants_pass(capsys):
    rc = cli_main(["invariants", "--chain", "2,2", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "zeta_polynomial,pass" in out


def test_cli_verify_json(capsys):
    rc = cli_main(["verify", "--chain", "2,2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = parse_report(out)
    assert rep.passed and rep.chain == (2, 2)


def test_cli_euler_matrix(capsys):
    rc = cli_main(["euler", "--chain", "3,2", "--format", "md"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 1 1 0" in out


def test_cli_monodromy(capsys):
    rc = cli_main(["monodromy", "--chain", "2,2", "--format", "md"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "monodromy_oracle" in out


def test_cli_triangles(capsys):
    rc = cli_main(["triangles", "--chain", "2,2", "--format", "csv"])
    assert rc == 0
    assert "triangle_euler_additivity,pass" in capsys.readouterr().out


def test_cli_rejects_bad_chain(capsys):
    with pytest.raises(SystemExit):
        cli_main(["verify", "--chain", "1,0"])


def test_pipelines_do_not_import_numpy():
    script = (
        "import sys\n"
        "from chainfact.chain import ChainPolynomial\n"
        "from chainfact.verify import INVARIANT_CHECKS, MAIN_THEOREM_CHECKS, run_checks\n"
        "f = ChainPolynomial.parse('3,3')\n"
        "assert run_checks(f, INVARIANT_CHECKS).passed\n"
        "assert run_checks(f, MAIN_THEOREM_CHECKS).passed\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chainfact.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


HOM_LAYER = {"chainfact.homrun", "chainfact.homcalc", "chainfact.mf"}
UNUSED = {"dataclasses", "hashlib", "pathlib"}
# the invariants battery and its series arithmetic, and the Hom engine's
# exact elimination
BATTERY = {"chainfact.invariants", "chainfact.series"}
ELIMINATION = {"chainfact.exactmath"}


@pytest.mark.parametrize("argv,chain,hom,absent", [
    (["invariants"], "2,2,3", False, ELIMINATION),
    (["monodromy"], "2,2,3", False, ELIMINATION),
    (["triangles"], "2,2,3", True, BATTERY),
    (["triangles"], "5", False, BATTERY | ELIMINATION),
    (["verify", "--no-cache"], "2,2,3", True, set()),
    (["euler"], "2,2,3", True, set()),
], ids=["invariants", "monodromy", "triangles", "triangles-one-variable", "verify",
        "euler"])
def test_subcommand_loads_only_its_layers(argv, chain, hom, absent):
    """Each subcommand, run in a fresh interpreter (without site hooks),
    leaves the modules it does not need unloaded; the Hom side (``homrun``
    and the engine) loads exactly when a check reads Hom spaces.  The
    battery loads only when a check reads it, so ``triangles`` loads neither
    it nor its series, and the battery's subcommands load no elimination."""
    script = (
        "import sys\n"
        "from chainfact.cli import main\n"
        f"code = main({argv + ['--chain', chain, '--format', 'csv']!r})\n"
        "print('modules', *sorted(sys.modules))\n"
        "raise SystemExit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(chainfact.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split()[1:])
    assert "chainfact.verify" in loaded
    assert not UNUSED & loaded
    assert HOM_LAYER & loaded == (HOM_LAYER if hom else set())
    assert not absent & loaded


@pytest.mark.parametrize("command", ["verify", "euler"])
def test_no_run_writes_a_file(tmp_path, command):
    """verify and euler, with and without --no-cache, leave HOME, the working
    directory and the package directory as they were, and print the same
    report either way."""
    package = Path(chainfact.__file__).parent
    before = sorted(package.rglob("*"))
    reports = []
    for flags in ([], ["--no-cache"]):
        home, cwd = tmp_path / f"home{len(flags)}", tmp_path / f"cwd{len(flags)}"
        home.mkdir()
        cwd.mkdir()
        # built from scratch, so no inherited variable can redirect a write;
        # no bytecode is written, so the package directory stays as it was
        env = {"HOME": str(home), "PATH": os.environ.get("PATH", ""),
               "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "chainfact.cli", command, *flags,
             "--chain", "2,2,3", "--format", "json"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert list(home.iterdir()) == [] and list(cwd.iterdir()) == []
        reports.append(_without_elapsed(json.loads(done.stdout)))
    assert reports[0] == reports[1]
    assert sorted(package.rglob("*")) == before


# ---------------------------------------------------------- golden reports

GOLDEN = Path(__file__).parents[1] / "bench" / "golden"
GOLDEN_COMMANDS = {"verify_cold": "verify", "triangles": "triangles",
                   "invariants_big": "invariants"}
# keys the golden reports leave out wherever they occur
UNGOLDEN = {"elapsed_ns", "cache_hit", "offset", "stats", "provenance"}


def _golden_normalized(value):
    if isinstance(value, dict):
        return {k: _golden_normalized(v) for k, v in value.items() if k not in UNGOLDEN}
    if isinstance(value, list):
        return [_golden_normalized(v) for v in value]
    return value


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/*.json")),
                         ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_reports_equal_the_golden_reports(path):
    """Each golden report (written at offset 0) against an in-process run of
    its workload's subcommand, with the normalization the golden files use."""
    command = GOLDEN_COMMANDS[path.parent.name]
    chain = path.stem.replace("_", ",")
    report = run_checks(ChainPolynomial.parse(chain), CHECKS_RUN[command], 0)
    got = _golden_normalized(json.loads(emit_report(report, "json")))
    assert got == json.loads(path.read_text())
