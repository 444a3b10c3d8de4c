"""The restriction route of ``HomEngine`` against the general Hom route.

A source that ``stabilize`` built from variable generators carries the
``koszul_vars`` record, and the engine computes Homs out of it on the target
restricted to V(I); it refuses any other source.  ``general_hom_dim`` (in
``oracles``) computes the same Homs from the full Hom complex for any
source, and ``GeneralEngine`` builds tables through it.
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
from chainfact.chain import ChainPolynomial, build_grading_group, numerics
from chainfact.exactmath import MPoly
from chainfact.homcalc import (
    HomEngine,
    hom_dim,
    morphism_space_basis,
    scan_window,
)
from chainfact.homrun import (
    _cofactors,
    auxiliary_object,
    build_collection,
    collection_base,
    collection_splitting,
    ladder_object,
    ladder_splitting,
)
from chainfact.mf import (
    cone,
    direct_sum,
    reduce,
    serre,
    shift,
    stabilize,
    t_power,
    translate,
)
from oracles import (
    closed_form_hom,
    general_hom_dim,
    identity_morphism,
    without_koszul_record,
)
from test_homcalc import SMALL_CHAINS, TORSION_CHAINS, fresh_table

# s = 1, 2 and 3 generators; torsion moduli 2 (2,3), 3 (3,2,2) and 4 (2,2,3)
TABLE_CHAINS = [(2, 3), (3, 3), (4, 4), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2),
                (2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2)]


def assert_routes_agree(source, target, degree=None, margin=1):
    """hom_dim equals the general route over the window plus ``margin``; a
    source without the record is refused instead."""
    lo, hi = scan_window(source, target, degree)
    for p in range(lo - margin, hi + margin + 1):
        if source.koszul_vars is None:
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
        assert all(e.koszul_vars is not None for e in build_collection(f, offset))
    for dual in (False, True):
        got = fresh_table(f, 3, dual)
        want = fresh_table(f, 3, dual, general=True)
        assert got.entries == want.entries, (exps, dual)
        assert got.windows == want.windows


@pytest.mark.parametrize("exps", TABLE_CHAINS)
def test_auxiliary_and_ladder_sources_match_general_engine(exps):
    f = ChainPolynomial(exps)
    coll = build_collection(f)
    if f.n % 2:
        family = [ladder_object(f, i, 1) for i in (0, 1, -2)]
    else:
        family = [auxiliary_object(f, i) for i in (0, 1, -2)]
    assert all(x.koszul_vars is not None for x in family)
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
    for dual in (False, True):
        table = fresh_table(f, 3, dual)
        assert len(table.windows) == numerics(f).milnor ** 2
        for (i, j, p), dim in table.entries.items():
            key = (j - i) * step + (p // 2) * g.total_degree
            assert dim == forms[p % 2].get(key, 0), (exps, dual, i, j, p)


# ---------------------------------------------------------------- the record

@pytest.mark.parametrize("exps", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)])
def test_record_survives_shift_only(exps):
    f = ChainPolynomial(exps)
    g = build_grading_group(f)
    gens, cofs, step = collection_splitting(f)
    base = stabilize(f, gens, cofs)
    want = tuple(range(1, f.n, 2)) if f.n % 2 == 0 else tuple(range(0, f.n, 2))
    assert base.koszul_vars == want
    assert stabilize(f, gens, cofs, step).koszul_vars == want
    kept = [shift(base, 3 * step), shift(base, g.variable_degree(1) - g.total_degree),
            t_power(base, 2), t_power(base, -4)]
    dropped = [translate(base), t_power(base, 1), t_power(base, -3),
               cone(identity_morphism(base)), reduce(base),
               direct_sum(base, shift(base, step))]
    if f.n % 2:
        dropped.append(serre(base))
    else:
        kept.append(serre(base))
    assert all(x.koszul_vars == want for x in kept)
    assert all(x.koszul_vars is None for x in dropped)
    # the record takes no part in equality or hashing
    bare = without_koszul_record(base)
    assert bare.koszul_vars is None
    assert bare == base and hash(bare) == hash(base)
    targets = [base, shift(base, step), translate(shift(base, 2 * step))]
    for source in kept + dropped:
        for target in targets:
            assert_routes_agree(source, target)


def test_refusal_does_not_depend_on_memo_order():
    """A record-less twin of the base, equal to it and so on the same memo
    entries, is refused and the base is answered, whichever of the two an
    engine is asked first, through dim and through euler_at."""
    f = ChainPolynomial((2, 2, 3))
    base = collection_base(f)[0]
    twin = without_koszul_record(base)
    zero = base.group.zero
    for ask in (lambda homs, key: homs.dim(key, 0), HomEngine.euler_at):
        for order in ((base, twin), (twin, base)):
            homs = HomEngine()
            for source in order:
                if source is twin:
                    with pytest.raises(ValueError):
                        ask(homs, (twin, base, zero))
                else:
                    assert ask(homs, (base, base, zero)) == 1


def test_engine_refuses_a_shifted_source():
    """The engine's keys are on the unshifted base: a shifted source is
    refused, while hom_dim shifts its own source back."""
    f = ChainPolynomial((2, 2, 3))
    base, step = collection_base(f)
    moved = shift(base, step)
    assert moved.koszul_vars == base.koszul_vars
    for ask in (lambda homs, key: homs.dim(key, 0), HomEngine.euler_at):
        with pytest.raises(ValueError):
            ask(HomEngine(), (moved, moved, base.group.zero))
    assert hom_dim(moved, moved) == hom_dim(base, base) == 1


def test_power_generator_sets_no_record():
    f = ChainPolynomial((3, 2, 2))
    g = build_grading_group(f)
    ladder = stabilize(f, *ladder_splitting(f, 2))       # generator x1^2
    assert ladder.koszul_vars is None
    assert shift(ladder, g.variable_degree(0)).koszul_vars is None
    assert stabilize(f, *ladder_splitting(f, 1)).koszul_vars == (0, 2)
    # a scalar multiple of a variable still generates the same ideal
    gens = [MPoly(3, {(1, 0, 0): 2}), MPoly.variable(3, 2)]
    scaled = stabilize(f, gens, _cofactors(f, gens))
    assert scaled.koszul_vars == (0, 2)
    coll = build_collection(f)
    for target in (coll[0], coll[3], ladder):
        assert_routes_agree(scaled, target)


def test_restriction_dispatch_under_optimize_flag():
    """Under ``python -O`` the collection's Homs still take the restriction
    route and give the general route's numbers: the table reaches no cell
    basis of the full Hom complex (patched to raise), and a source without
    the Koszul record is refused with ``ValueError``, not an assert."""
    script = (
        "import json\n"
        "import chainfact.homcalc as h\n"
        "from chainfact.chain import ChainPolynomial, numerics\n"
        "from chainfact.homrun import collection_base\n"
        "from oracles import without_koszul_record\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('the full Hom complex was built')\n"
        "h._cell_basis = refuse\n"
        "f = ChainPolynomial((2, 2, 3))\n"
        "base, step = collection_base(f)\n"
        "t = h.HomEngine().table(base, step, numerics(f).milnor, 1)\n"
        "try:\n"
        "    h.hom_dim(without_koszul_record(base), base)\n"
        "    refused = False\n"
        "except ValueError:\n"
        "    refused = True\n"
        "print(json.dumps([sorted(map(list, t.entries.items())), __debug__, refused]))\n"
    )
    paths = [Path(chainfact.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    entries, debug, refused = json.loads(done.stdout)
    assert debug is False
    assert refused is True
    want = fresh_table(ChainPolynomial((2, 2, 3)), 1, general=True).entries
    assert {(i, j, p): d for (i, j, p), d in entries} == want


# ------------------------------------------------------------- property

# Half of the chains are drawn from the torsion ones.  The on-support draws
# aim the twist where closed_form_hom says Hom(E_i, T^q E_j(.)) is nonzero,
# with E_j the target's collection object (the cone's target) and q the
# power after absorbing a translation.
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
    coll = build_collection(f)
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
    assert hom_dim(coll[i], target, l, p) == general_hom_dim(coll[i], target, l, p)
