"""The closed form of ``HomEngine`` against the general Hom route.

``stabilize`` records its splitting, and the engine computes
Hom(A, T^p X(l)) from the records: the target X restricted to V(I), for I
the ideal of the source's variables, is a tensor product of Koszul pieces,
and graded Künneth gives its cohomology.  It refuses a key without the
records, and a target whose pieces fail the shape check.
``general_hom_dim`` (in ``oracles``) computes the same Homs from the full
Hom complex for any objects, and ``GeneralEngine`` builds tables through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainfact
from chainfact import homcalc
from chainfact.chain import ChainPolynomial, build_grading_group, numerics
from chainfact.cli import CHECKS_RUN
from chainfact.exactmath import MPoly
from chainfact.homcalc import (
    HomEngine,
    _restrict,
    morphism_space_basis,
)
from chainfact.homrun import (
    HomRun,
    _cofactors,
    collection_base,
    collection_splitting,
    ladder_object,
    ladder_splitting,
)
from chainfact.mf import (
    cone,
    direct_sum,
    reduce,
    shift,
    stabilize,
)
from chainfact.verify import run_checks
from oracles import (
    GeneralEngine,
    auxiliary_object,
    closed_form_hom,
    collection,
    general_hom_dim,
    hom_dim,
    identity_morphism,
    key_euler,
    landing,
    scan_window,
    serre,
    t_power,
    table_entries,
    table_windows,
    translate,
    without_splitting_record,
)
from test_homcalc import SMALL_CHAINS, TORSION_CHAINS, fresh_table

# s = 1, 2 and 3 generators; torsion moduli 2 (2,3), 3 (3,2,2) and 4 (2,2,3)
TABLE_CHAINS = [(2, 3), (3, 3), (4, 4), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2),
                (2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2)]


def refused(source, target) -> bool:
    """Whether the engine must refuse Hom(source, target) before the shape
    check: a source whose generators are not single variables or that has
    no record, or a target without the record."""
    return (source.splitting is None or target.splitting is None
            or any(sum(next(iter(g.terms))) != 1 for g in source.splitting[0]))


def assert_routes_agree(source, target, degree=None, margin=1):
    """The closed form equals the general route over the window plus
    ``margin``; a key outside its reach is refused instead."""
    lo, hi = scan_window(source, target, degree)
    for p in range(lo - margin, hi + margin + 1):
        if refused(source, target):
            with pytest.raises(ValueError):
                hom_dim(source, target, degree, p)
            continue
        assert (hom_dim(source, target, degree, p)
                == general_hom_dim(source, target, degree, p)), (source, target, degree, p)


# ------------------------------------------------------ tables, both routes

@pytest.mark.parametrize("exps", TABLE_CHAINS)
def test_tables_match_general_engine(exps):
    f = ChainPolynomial(exps)
    for offset in (0, 2):
        assert all(e.splitting is not None for e in collection(HomRun(f, offset)))
    orbit = collection_base(f)
    for dual in (False, True):
        got = fresh_table(f, dual)
        want = fresh_table(f, dual, general=True)
        assert table_entries(got, *orbit) == table_entries(want, *orbit), (exps, dual)
        assert table_windows(got, *orbit) == table_windows(want, *orbit)


@pytest.mark.parametrize("exps", TABLE_CHAINS)
def test_auxiliary_and_ladder_sources_match_general_engine(exps):
    f = ChainPolynomial(exps)
    coll = collection(HomRun(f, 0))
    if f.n % 2:
        family = [ladder_object(f, i, 1) for i in (0, 1, -2)]
    else:
        family = [auxiliary_object(f, i) for i in (0, 1, -2)]
    assert all(x.splitting is not None for x in family)
    mu = len(coll)
    targets = [coll[j] for j in range(0, mu, max(1, mu // 4))]
    targets += family + [translate(coll[min(1, mu - 1)])]
    for source in family:
        for target in targets:
            assert_routes_agree(source, target)


@pytest.mark.parametrize("exps", [(4, 4, 4), (2, 3, 2, 3)])
def test_tables_match_closed_form_lookup(exps):
    """Hom(E_i, T^p E_j) = closed_form_hom(f, p mod 2) at
    (j - i) step + floor(p / 2) f, on chains whose general-engine tables are
    slow (mu 51 and 29)."""
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    step = collection_splitting(f)[2]
    forms = [closed_form_hom(f, 0), closed_form_hom(f, 1)]
    orbit = collection_base(f)
    for dual in (False, True):
        table = fresh_table(f, dual)
        assert len(table_windows(table, *orbit)) == numerics(f).milnor ** 2
        for (i, j, p), dim in table_entries(table, *orbit).items():
            key = (j - i) * step + (p // 2) * g.total_degree
            assert dim == forms[p % 2].get(key, 0), (exps, dual, i, j, p)


# ---------------------------------------------------------------- the record

@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)])
def test_record_survives_shift_only(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    gens, cofs, step = collection_splitting(f)
    base = stabilize(f, gens, cofs)
    want = (tuple(gens), tuple(cofs))
    assert base.splitting == want
    assert shift(stabilize(f, gens, cofs), step).splitting == want
    kept = [shift(base, 3 * step), shift(base, g.variable_degree(1) - g.total_degree),
            t_power(base, 2), t_power(base, -4)]
    dropped = [translate(base), t_power(base, 1), t_power(base, -3),
               cone(identity_morphism(base)), reduce(base),
               direct_sum(base, shift(base, step))]
    if f.n % 2:
        dropped.append(serre(base))
    else:
        kept.append(serre(base))
    assert all(x.splitting == want for x in kept)
    assert all(x.splitting is None for x in dropped)
    # the record takes no part in equality or hashing
    bare = without_splitting_record(base)
    assert bare.splitting is None
    assert bare == base and hash(bare) == hash(base)
    targets = [base, shift(base, step), translate(shift(base, 2 * step))]
    for source in kept + dropped:
        for target in targets:
            assert_routes_agree(source, target)


def test_refusal_does_not_depend_on_memo_order():
    """A record-less twin of the base, equal to it and so on the same memo
    entries, is refused and the base is answered, whichever of the two an
    engine is asked first: through an orbit read as a source and as a
    target, and through the table's orbit read as the orbit's base."""
    f = ChainPolynomial((2, 2, 3))
    base, step = collection_base(f)
    twin = without_splitting_record(base)
    zero = base.group.zero
    asks = [(lambda homs, A, X: key_euler(homs, (A, X, zero)), [(twin, base), (base, twin)]),
            (lambda homs, A, X: homs.orbit(A, X, zero, step, (0,))[0].get(0, 0),
             [(twin, twin)])]
    for ask, twins in asks:
        for order in (("base", "twin"), ("twin", "base")):
            homs = HomEngine()
            for which in order:
                if which == "twin":
                    for A, X in twins:
                        with pytest.raises(ValueError):
                            ask(homs, A, X)
                else:
                    assert ask(homs, base, base) == 1


def test_engine_refuses_a_shifted_source():
    """The engine's keys are on the unshifted base: a shifted source is
    refused, while the oracle's hom_dim shifts its own source back."""
    f = ChainPolynomial((2, 2, 3))
    base, step = collection_base(f)
    moved = shift(base, step)
    assert moved.splitting == base.splitting
    with pytest.raises(ValueError):
        key_euler(HomEngine(), (moved, moved, base.group.zero))
    run = HomRun(f, 0)
    run.base = moved, step
    with pytest.raises(ValueError):
        run.table
    assert hom_dim(moved, moved) == hom_dim(base, base) == 1


def test_power_generator_is_no_source():
    """A power among the generators keeps the splitting record, so the object
    is answered as a target, but it is no stabilization by variables, so it
    is refused as a source.  A constant times a variable is a source."""
    f = ChainPolynomial((3, 2, 2))
    g = build_grading_group(f)
    gens, cofs = ladder_splitting(f, 2)                  # generator x1^2
    ladder = stabilize(f, gens, cofs)
    assert ladder.splitting == (tuple(gens), tuple(cofs))
    assert shift(ladder, g.variable_degree(0)).splitting == ladder.splitting
    assert refused(ladder, ladder)
    # a scalar multiple of a variable still generates the same ideal
    gens = [MPoly(3, {(1, 0, 0): 2}), MPoly.variable(3, 2)]
    scaled = stabilize(f, gens, _cofactors(f, gens))
    assert not refused(scaled, ladder)
    coll = collection(HomRun(f, 0))
    for target in (coll[0], coll[3], ladder):
        assert_routes_agree(scaled, target)
        assert_routes_agree(ladder, target)


def _optimized_child(script: str):
    """Run ``script`` under ``python -O`` with the package and the oracles
    importable, and return its JSON output."""
    paths = [Path(chainfact.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_restriction_dispatch_under_optimize_flag():
    """Under ``python -O`` the collection's Homs still take the closed form
    of the restriction to V(I) and give the general route's numbers: the
    table reaches no cell basis of the full Hom complex (patched to raise),
    and a source without the splitting record is refused with
    ``ValueError``, not an assert."""
    script = (
        "import json\n"
        "import chainfact.homcalc as h\n"
        "from chainfact.chain import ChainPolynomial\n"
        "from chainfact.homrun import HomRun\n"
        "from oracles import key_euler, table_entries, without_splitting_record\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('the full Hom complex was built')\n"
        "h._cell_basis = refuse\n"
        "run = HomRun(ChainPolynomial((2, 2, 3)), 0)\n"
        "base, step = run.base\n"
        "t = run.table\n"
        "try:\n"
        "    key_euler(h.HomEngine(), (without_splitting_record(base), base, base.group.zero))\n"
        "    refused = False\n"
        "except ValueError:\n"
        "    refused = True\n"
        "print(json.dumps([sorted(map(list, table_entries(t, base, step).items())), "
        "__debug__, refused]))\n"
    )
    entries, debug, refused = _optimized_child(script)
    assert debug is False
    assert refused is True
    f = ChainPolynomial((2, 2, 3))
    want = table_entries(fresh_table(f, general=True), *collection_base(f))
    assert {(i, j, p): d for (i, j, p), d in entries} == want


# ------------------------------------------------------- the closed form

def misfit_target(f):
    """A stabilization on 2,2,2 whose pieces fail the shape check against
    the collection base, I = (x1, x3): with the generators (x3, x2), x2 is
    the cofactor's variable of the first piece and the generator of the
    second, so it lies in two pieces, one of them with a nonzero g|V."""
    gens = [MPoly.variable(3, 2), MPoly.variable(3, 1)]
    return stabilize(f, gens, _cofactors(f, gens))


def test_shape_check_refuses_under_optimize_flag():
    """Negative control: a recorded target whose pieces fail the shape check
    raises ``ValueError`` under ``python -O``, before and after a table has
    filled the engine, and again when asked a second time, so a refusal
    leaves no memo entry; the general route answers it, with a nonzero Hom
    at the degree asked."""
    script = (
        "import json\n"
        "import chainfact.homcalc as h\n"
        "from chainfact.chain import ChainPolynomial\n"
        "from chainfact.homrun import collection_base\n"
        "from test_restriction import misfit_target\n"
        "f = ChainPolynomial((2, 2, 2))\n"
        "base, step = collection_base(f)\n"
        "X, homs, refusals = misfit_target(f), h.HomEngine(), []\n"
        "for fill in (False, True, False):\n"
        "    if fill:\n"
        "        homs.orbit(base, base, base.group.zero, step, range(-6, 7))\n"
        "    try:\n"
        "        homs.orbit(base, X, step, step, (0,))\n"
        "        refusals.append(False)\n"
        "    except ValueError:\n"
        "        refusals.append(True)\n"
        "print(json.dumps([refusals, __debug__]))\n"
    )
    refusals, debug = _optimized_child(script)
    assert debug is False and refusals == [True] * 3
    f = ChainPolynomial((2, 2, 2))
    base = collection_base(f)[0]
    X = misfit_target(f)
    assert not refused(base, X)
    step = collection_base(f)[1]
    assert [general_hom_dim(base, X, step, p) for p in (0, 1)] == [0, 1]


@pytest.mark.parametrize("exps", [(2, 2, 2), (3, 2, 2), (2, 4, 2), (3, 3, 3),
                                  (4, 2, 3), (2, 2, 2, 2, 2), (3, 3, 3, 3, 3)])
def test_shared_variable_rule_at_width_a1(exps):
    """At odd n the width-a1 ladder base restricts, against the collection
    base, to the pieces K(0, x2) and K(0, x2^a2), so x2 lies in two pieces,
    which the shape check alone would refuse.  With the rule the closed form
    is the general route's on the orbit keys of seven degrees: the same
    nonzero powers, all inside the certified window, on both parities."""
    f = ChainPolynomial(exps)
    a1, a2 = exps[:2]
    base, step = collection_base(f)
    gens, cofs = ladder_splitting(f, a1)
    skip = tuple(range(0, f.n, 2))
    assert [_restrict(h, skip) for h in cofs[:2]] == [(1, 1), (1, a2)]
    assert all(_restrict(g, skip) is None for g in gens)
    L = stabilize(f, gens, cofs)
    es, zero = range(-3, 4), base.group.zero
    assert (HomEngine().orbit(base, L, zero, step, es)
            == GeneralEngine().orbit(base, L, zero, step, es)), exps
    # before the rule, x2 lies in two pieces
    pieces = {}
    for g, h in zip(gens, cofs):
        var = (_restrict(g, skip) or _restrict(h, skip) or (None, 0))[0]
        pieces[var] = pieces.get(var, 0) + 1
    assert pieces[1] == 2


def _record_keys(monkeypatch):
    """Every key (A, X, l) that the engine's orbit reads answer, in order."""
    asked = []
    real = HomEngine.orbit

    def recorded(self, A, X, start, step, es):
        asked.extend((A, X, start + e * step) for e in es)
        return real(self, A, X, start, step, es)

    monkeypatch.setattr(HomEngine, "orbit", recorded)
    return asked


RUN_CHAINS = [(2, 2), (3, 3), (2, 3), (2, 5), (9, 2), (2, 2, 2), (3, 2, 2), (2, 4, 2),
              (2, 2, 3), (2, 2, 2, 2), (3, 3, 3)]


@pytest.mark.parametrize("command", ["verify", "euler", "triangles"])
def test_run_keys_match_general_engine(monkeypatch, command):
    """Differential test: every key that a run reads, at offsets 0 and 2, is
    answered by the closed form as by the general route over the key's
    certified window and one power past each end: the same nonzero powers
    with the same dimensions."""
    asked = _record_keys(monkeypatch)
    for exps in RUN_CHAINS:
        f = ChainPolynomial(exps)
        for offset in (0, 2):
            asked.clear()
            assert run_checks(f, CHECKS_RUN[command], offset).passed, (exps, offset)
            assert asked, (exps, offset)
            homs, general = HomEngine(), GeneralEngine()
            for key in dict.fromkeys(asked):
                assert landing(homs, key) == landing(general, key), (exps, key)


def test_runs_ask_no_refused_key(monkeypatch):
    """Every pair that verify, euler and triangles runs read, on chains of
    both parities up to n = 5 and at offsets 0-3, passes the record check
    and the shape check: no run asks a pair the closed form refuses."""
    checked, refusals = [], []
    real_check, real_basis = homcalc._check_pair, HomEngine.kunneth

    def check(A, X):
        checked.append((A, X))
        try:
            real_check(A, X)
        except ValueError:
            refusals.append((A, X))
            raise

    def basis(self, A, X):
        try:
            return real_basis(self, A, X)
        except ValueError:
            refusals.append((A, X))
            raise

    monkeypatch.setattr(homcalc, "_check_pair", check)
    monkeypatch.setattr(HomEngine, "kunneth", basis)
    for exps in RUN_CHAINS + [(4, 4, 4), (2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (4, 4, 4, 4)]:
        f = ChainPolynomial(exps)
        for command in ("verify", "euler", "triangles"):
            for offset in range(4):
                checked.clear()
                run_checks(f, CHECKS_RUN[command], offset)
                assert checked, (exps, command, offset)
                assert refusals == [], (exps, command, offset)


# ------------------------------------------------------------- property

# Half of the chains are drawn from the torsion ones.  The on-support draws
# aim the twist where closed_form_hom says Hom(E_i, T^q E_j(.)) is nonzero,
# with E_j the target's collection object (the cone's target) and q the
# power after absorbing a translation.  A translate is asked on its base at
# the next power; a cone has no record and is refused.
@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(exps=st.sampled_from(SMALL_CHAINS) | st.sampled_from(TORSION_CHAINS),
       i=st.integers(0, 29), j=st.integers(0, 29), p=st.integers(-3, 6),
       kind=st.sampled_from(["object", "translate", "cone"]),
       on_support=st.booleans(), pick=st.integers(0, 10 ** 6),
       weight_steps=st.integers(-12, 12), torsion_steps=st.integers(0, 3))
@example(exps=(2, 3), i=0, j=1, p=0, kind="cone", on_support=True, pick=3,
         weight_steps=0, torsion_steps=1)                  # torsion Z/2
@example(exps=(2, 2, 3), i=2, j=0, p=1, kind="translate", on_support=True, pick=7,
         weight_steps=0, torsion_steps=2)                  # torsion Z/4
@example(exps=(3, 2, 2), i=1, j=4, p=2, kind="object", on_support=True, pick=0,
         weight_steps=-3, torsion_steps=1)                 # torsion Z/3
def test_restriction_equals_general_engine_property(exps, i, j, p, kind, on_support,
                                                    pick, weight_steps, torsion_steps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    coll = collection(HomRun(f, 0))
    i, j = i % len(coll), j % len(coll)
    q = p
    if kind == "translate":
        target, q = translate(coll[j]), p + 1
    elif kind == "cone":                          # of a basis map E_a -> E_j
        a, j = sorted((i, j))
        if a == j:
            j = min(a + 1, len(coll) - 1)
        basis = morphism_space_basis(coll[a], coll[j])
        target = cone(basis[pick % len(basis)]) if basis else coll[j]
    else:
        target = coll[j]
    torsion = g.weights[-1] * g.variable_degree(0) - g.weights[0] * g.total_degree
    support = sorted(closed_form_hom(f, q % 2), key=lambda d: d.coords)
    if on_support and support:
        step = collection_splitting(f)[2]              # E_i = E_0(i * step)
        l = support[pick % len(support)] - (j - i) * step - (q // 2) * g.total_degree
    else:
        l = weight_steps * g.variable_degree(0)
    l = l + torsion_steps * torsion
    want = general_hom_dim(coll[i], target, l, p)
    if kind == "translate":
        assert hom_dim(coll[i], coll[j], l, q) == want
    elif target.splitting is None:
        with pytest.raises(ValueError):
            hom_dim(coll[i], target, l, p)
    else:
        assert hom_dim(coll[i], target, l, p) == want
