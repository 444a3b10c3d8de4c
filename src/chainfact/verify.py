"""Orchestration: collection construction, identity pipelines, reports, cache.

This module wires everything together: it builds the distinguished collection
of stabilizations from monomial generators, runs exact checks, and packages
the outcome as a serializable report.  Each paper check is declared once in
``CHECKS``, and ``run_checks`` runs any tuple of them, so a pipeline computes
only what its checks read; ``verify_triangles`` runs the triangle checks.
Nothing here does new mathematics; failures bubble up from the lower layers
and land in report entries with witnesses attached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from pathlib import Path

from . import __version__
from .chain import ChainPolynomial, Degree, build_grading_group, numerics, transpose
from .exactmath import IntMatrix, MPoly, Poly
from .homcalc import (
    ENGINE_ID,
    EulerForm,
    HomTable,
    check_exceptionality,
    compute_hom_table,
    euler_pairing,
    hom_dim,
    morphism_space_basis,
    scan_window,
    serre_symmetry_check,
)
from .invariants import (
    VerificationFailure,
    check_lattice_correspondence,
    check_zeta_factorization,
    companion_certificate,
    euler_matrix,
    monodromy_data,
    polarization_integer,
    transpose_monodromy_charpoly,
    zeta_polynomial,
)
from .mf import (
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

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# collection construction
# ---------------------------------------------------------------------------

def _cofactors(f: ChainPolynomial, gens) -> list[MPoly]:
    """The cofactors h_i with sum(g_i * h_i) = f, derived from the generators.

    Each monomial of f goes to the first generator that divides it, and a
    generator's cofactor is the sum of its monomials divided by it.  The
    generators must be monomials with pairwise disjoint supports, which makes
    them a regular sequence; anything else raises ValueError.
    """
    if any(len(g.terms) != 1 for g in gens):
        raise ValueError("every generator must be a monomial")
    leads = [next(iter(g.terms.items())) for g in gens]
    for (e1, _), (e2, _) in combinations(leads, 2):
        if any(a and b for a, b in zip(e1, e2)):
            raise ValueError("two generators share a variable")
    terms = [{} for _ in gens]
    for m, coeff in chain_mpoly(f).terms.items():
        for out, (e, c) in zip(terms, leads):
            if all(a >= b for a, b in zip(m, e)):
                out[tuple(a - b for a, b in zip(m, e))] = Fraction(coeff) / c
                break
        else:
            raise ValueError(f"no generator divides the monomial {m} of f")
    return [MPoly(f.n, t) for t in terms]


def collection_splitting(f: ChainPolynomial):
    """Generator/cofactor splitting behind the distinguished collection.

    Odd variable counts quotient by the odd-indexed variables, even counts by
    the even-indexed ones.  Returns (gens, cofs, step) where step is the
    one-object twist of the collection.
    """
    n = f.n
    g = build_grading_group(f)
    if n % 2:
        gens = [MPoly.variable(n, j) for j in range(0, n, 2)]     # x1, x3, ...
        step = -g.variable_degree(0)
    else:
        gens = [MPoly.variable(n, j) for j in range(1, n, 2)]     # x2, x4, ...
        step = g.variable_degree(0)
    return gens, _cofactors(f, gens), step


def collection_base(f: ChainPolynomial):
    """(base, step): the base stabilization and the one-object twist, so
    that E_i = base(i * step)."""
    gens, cofs, step = collection_splitting(f)
    return stabilize(f, gens, cofs), step


def build_collection(f: ChainPolynomial, offset: int = 0) -> list[MatrixFactorization]:
    """The length-mu twist orbit of the base stabilization."""
    base, step = collection_base(f)
    mu = numerics(f).milnor
    return [shift(base, (offset + i) * step) for i in range(mu)]


def auxiliary_splitting(f: ChainPolynomial):
    """Splitting for the triangle third objects (even variable count).

    Quotients by x1 together with the even-indexed variables, so the first
    two cofactors split the leading monomials between x1 and x2.
    """
    n = f.n
    if n % 2:
        raise ValueError("auxiliary objects need an even variable count")
    gens = [MPoly.variable(n, j) for j in (0, *range(1, n, 2))]
    return gens, _cofactors(f, gens)


def ladder_splitting(f: ChainPolynomial, j: int):
    """Splitting for the ladder objects (odd count, first generator x1^j)."""
    n = f.n
    if n % 2 == 0 or n < 3:
        raise ValueError("ladder objects need an odd count of at least three")
    if not 1 <= j <= f.exponents[0]:
        raise ValueError("ladder index out of range")
    gens = [MPoly.variable(n, 0, j)] + [MPoly.variable(n, i) for i in range(2, n, 2)]
    return gens, _cofactors(f, gens)


def auxiliary_object(f: ChainPolynomial, i: int) -> MatrixFactorization:
    gens, cofs = auxiliary_splitting(f)
    g = build_grading_group(f)
    return stabilize(f, gens, cofs, i * g.variable_degree(0))


def ladder_object(f: ChainPolynomial, i: int, j: int) -> MatrixFactorization:
    if j == 0 or j == f.exponents[0] + 1:
        return zero_object(f)
    gens, cofs = ladder_splitting(f, j)
    g = build_grading_group(f)
    return stabilize(f, gens, cofs, -i * g.variable_degree(0))


class TriangleFamilies:
    """The object families of the triangle checks, each stabilized once.

    Collection object i is base(i * step); for even n, auxiliary object i is
    Aux(i * deg x1); for odd n, ladder object (i, j) is L_j(-i * deg x1),
    zero for j = 0 and j = a1 + 1.  The bases (the collection base, Aux, and
    L_j for each width j = 1..a1) go through the validating ``stabilize``
    once, here; every object is then reached with the trusted ``shift``,
    since stabilize(f, gens, cofs, twist) = shift(stabilize(f, gens, cofs),
    twist).  Objects are memoized, so a run gets one object per index.
    """

    def __init__(self, f: ChainPolynomial):
        self.f = f
        self.x1 = build_grading_group(f).variable_degree(0)
        self.base, self.step = collection_base(f)
        if f.n % 2 == 0:
            self.aux_base = stabilize(f, *auxiliary_splitting(f))
        else:
            self.ladder_bases = {j: stabilize(f, *ladder_splitting(f, j))
                                 for j in range(1, f.exponents[0] + 1)}
            self.zero = zero_object(f)
        self.collection_objects: dict[int, MatrixFactorization] = {}
        self.auxiliary_objects: dict[int, MatrixFactorization] = {}
        self.ladder_objects: dict[tuple[int, int], MatrixFactorization] = {}

    def collection(self, i: int) -> MatrixFactorization:
        obj = self.collection_objects.get(i)
        if obj is None:
            obj = self.collection_objects[i] = shift(self.base, i * self.step)
        return obj

    def auxiliary(self, i: int) -> MatrixFactorization:
        obj = self.auxiliary_objects.get(i)
        if obj is None:
            obj = self.auxiliary_objects[i] = shift(self.aux_base, i * self.x1)
        return obj

    def ladder(self, i: int, j: int) -> MatrixFactorization:
        obj = self.ladder_objects.get((i, j))
        if obj is None:
            if j == 0 or j == self.f.exponents[0] + 1:
                obj = self.zero
            else:
                obj = shift(self.ladder_bases[j], -i * self.x1)
            self.ladder_objects[(i, j)] = obj
        return obj


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, IntMatrix):
        return [list(r) for r in value.entries]
    if isinstance(value, Poly):
        return list(value.coeffs)
    if isinstance(value, Degree):
        return list(value.coords)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MPoly):
        return {",".join(map(str, e)): str(c) for e, c in sorted(value.terms.items())}
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


@dataclass
class CheckResult:
    name: str
    status: str                  # pass | fail | note | inconclusive
    detail: dict = field(default_factory=dict)
    elapsed_ns: int = 0


@dataclass
class VerificationReport:
    chain: tuple[int, ...]
    offset: int
    tool_version: str
    checks: list[CheckResult]
    engine: str | None = ENGINE_ID          # Hom engine id, for provenance

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "chain": list(self.chain),
            "offset": self.offset,
            "tool_version": self.tool_version,
            "provenance": {"tool_version": self.tool_version, "engine": self.engine},
            "checks": [{"name": c.name, "status": c.status,
                        "detail": c.detail, "elapsed_ns": c.elapsed_ns}
                       for c in self.checks],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        if data.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ValueError("unsupported report schema")
        checks = [CheckResult(c["name"], c["status"], c["detail"], c["elapsed_ns"])
                  for c in data["checks"]]
        engine = data.get("provenance", {}).get("engine")
        return cls(tuple(data["chain"]), data["offset"], data["tool_version"], checks,
                   engine)


class _Runner:
    def __init__(self):
        self.checks: list[CheckResult] = []

    def run(self, name, fn):
        t0 = time.perf_counter_ns()
        try:
            detail = fn()
            status = "pass"
            if isinstance(detail, tuple):
                status, detail = detail
            detail = _jsonify(detail or {})
        except (VerificationFailure, GradingError) as exc:
            status = "fail"
            detail = {"error": str(exc)}
            witness = getattr(exc, "witness", None)
            if witness:
                detail["witness"] = _jsonify(witness)
        self.checks.append(CheckResult(name, status, detail,
                                       time.perf_counter_ns() - t0))
        return self.checks[-1]


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Render a report as machine JSON, flat CSV, or human Markdown."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["name,status,elapsed_ns"]
        for c in report.checks:
            lines.append(f"{c.name},{c.status},{c.elapsed_ns}")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = [f"# Verification report for chain {','.join(map(str, report.chain))}",
                 "",
                 f"offset: {report.offset}; tool {report.tool_version}; "
                 f"overall: {'PASS' if report.passed else 'FAIL'}",
                 "",
                 "| check | status | ms |",
                 "| --- | --- | --- |"]
        for c in report.checks:
            lines.append(f"| {c.name} | {c.status} | {c.elapsed_ns // 10 ** 6} |")
        for c in report.checks:
            if c.name == "euler_pairing_matches" and "matrix" in c.detail:
                lines += ["", "Euler matrix (engine):", "", "```"]
                for row in c.detail["matrix"]:
                    lines.append(" ".join(str(x) for x in row))
                lines += ["```"]
            if c.name == "zeta_factorization" and "factors" in c.detail:
                lines += ["", f"det(1 - tM) factorization: {c.detail['factors']}"]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> VerificationReport:
    return VerificationReport.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# hom-table cache
# ---------------------------------------------------------------------------

class HomTableCache:
    """Content-addressed JSON store for computed Hom tables.

    The key hashes the chain, offset, variant, margin, schema version, tool
    version and engine id, so convention and engine changes invalidate
    automatically; unreadable or schema-stale entries are recomputed and
    overwritten.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("CHAINFACT_CACHE_DIR")
        if root is None:
            root = Path.home() / ".cache" / "chainfact"
        self.root = Path(root)

    def _path(self, chain, offset, dual, margin) -> Path:
        key = json.dumps({"chain": list(chain), "offset": offset, "dual": dual,
                          "margin": margin, "schema": 1, "version": __version__,
                          "engine": ENGINE_ID}, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.root / f"homtable-{digest}.json"

    def load(self, chain, offset, dual, margin) -> HomTable | None:
        path = self._path(chain, offset, dual, margin)
        try:
            data = json.loads(path.read_text())
            table = HomTable.from_json_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if (table.chain != tuple(chain) or table.offset != offset
                or table.dual != dual or table.margin != margin):
            return None
        return table

    def store(self, table: HomTable) -> None:
        path = self._path(table.chain, table.offset, table.dual, table.margin)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(table.to_json_dict(), sort_keys=True))
        tmp.replace(path)


def cached_hom_table(f: ChainPolynomial, offset: int = 0, margin: int = 0,
                     dual: bool = False, use_cache: bool = True,
                     cache: HomTableCache | None = None,
                     collection=None) -> tuple[HomTable, bool]:
    """Load a table from the cache or compute and store it.

    Returns (table, cache_hit).  With ``use_cache`` false the table is always
    recomputed, and the fresh result overwrites whatever was stored.
    """
    cache = cache or HomTableCache()
    if use_cache:
        table = cache.load(f.exponents, offset, dual, margin)
        if table is not None:
            return table, True
    table = compute_hom_table(f, offset, margin, dual, collection)
    try:
        cache.store(table)
    except OSError:
        pass
    return table, False


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

TABLE_MARGIN = 3        # powers stored beyond each certified Hom window


class _Run:
    """One run of paper checks on one chain.

    Each check is the method of its report name and returns its detail, or
    (status, detail).  The values several checks share are cached properties,
    computed on first use and kept for the run; one whose computation raises
    is not stored, so every check that reads it fails as a report entry.
    """

    def __init__(self, f: ChainPolynomial, offset: int, use_cache: bool):
        self.f, self.offset, self.use_cache = f, offset, use_cache
        self.nm = numerics(f)

    @cached_property
    def md(self):
        return monodromy_data(self.f)

    @cached_property
    def coll(self) -> list[MatrixFactorization]:
        return build_collection(self.f, self.offset)

    @cached_property
    def table(self) -> tuple[HomTable, bool]:
        """(the collection's Hom table, whether it came from the cache)"""
        return cached_hom_table(self.f, self.offset, TABLE_MARGIN, False,
                                self.use_cache, collection=self.coll)

    @cached_property
    def dual(self) -> tuple[HomTable, bool]:
        """(the Serre-dual table, whether it came from the cache)"""
        return cached_hom_table(self.f, self.offset, TABLE_MARGIN, True,
                                self.use_cache, collection=self.coll)

    @cached_property
    def exc(self) -> dict:
        return check_exceptionality(self.table[0])

    def grading_group(self):
        g = build_grading_group(self.f)
        order = g.quotient_by_total_degree_order()
        if order != self.nm.cum_products[-1]:
            raise VerificationFailure("quotient order differs from the top degree",
                                      {"order": order})
        return {"weights": list(g.weights), "torsion": list(g.torsion_factors),
                "torsion_free": g.is_torsion_free(), "quotient_order": order}

    def zeta_polynomial(self):
        return {"coefficients": zeta_polynomial(self.f).poly, "degree": self.nm.milnor}

    def euler_matrix(self):
        return {"series": list(euler_matrix(self.f).series_coeffs)}

    def companion_root(self):
        return {"size": companion_certificate(zeta_polynomial(self.f))}

    def monodromy_two_routes(self):
        return {"det_one_minus_t": self.md.det_one_minus_t,
                "gcd_exponents": list(self.md.gcd_exponents)}

    def zeta_factorization(self):
        f, md, d = self.f, self.md, self.nm.cum_products
        if not check_zeta_factorization(md, f):
            raise VerificationFailure("factorization product mismatch",
                                      {"charpoly": md.det_one_minus_t})
        factors = " * ".join(
            f"(1-t^{d[i] // md.gcd_exponents[i]})^"
            f"{'+' if (-1) ** (f.n - i) > 0 else '-'}{md.gcd_exponents[i]}"
            for i in range(f.n + 1))
        return {"factors": factors}

    def monodromy_oracle(self):
        reversed_poly = self.md.det_one_minus_t.reversal(self.nm.milnor)
        got = transpose_monodromy_charpoly(transpose(self.f))
        if got != reversed_poly:
            raise VerificationFailure("weighted-homogeneous oracle disagrees",
                                      {"oracle": got, "reversed": reversed_poly})
        return {"charpoly": got}

    def lattice_correspondence(self):
        return {"ok": check_lattice_correspondence(euler_matrix(self.f), self.f)}

    def polarization_integer(self):
        return {"k": polarization_integer(self.f)}

    def collection(self):
        gens, _, _ = collection_splitting(self.f)
        want = 2 ** (len(gens) - 1)
        if any(e.size != want for e in self.coll):
            raise VerificationFailure("collection object of unexpected size",
                                      {"sizes": [e.size for e in self.coll]})
        return {"objects": len(self.coll), "size": want}

    def hom_table(self):
        table, hit = self.table
        return {"entries": len(table.entries), "window_hull": list(table.hull()),
                "cache_hit": hit}

    def exceptionality(self):
        if not self.exc["exceptional"]:
            raise VerificationFailure("collection is not exceptional",
                                      {"failures": self.exc["failures"]})
        return {"strong": self.exc["strong"]}

    def euler_pairing_matches(self):
        engine = euler_pairing(self.table[0])
        want = [list(row) for row in euler_matrix(self.f).matrix.entries]
        if engine != want:
            raise VerificationFailure("Euler pairing differs from the Toeplitz matrix",
                                      {"engine": engine, "matrix": want})
        return {"matrix": engine}

    def serre_symmetry(self):
        table, _ = self.table
        dual, hit = self.dual
        if not serre_symmetry_check(table, dual):
            raise VerificationFailure("Serre symmetry violated on the table")
        return {"cache_hit": hit}

    def nakayama_cartan(self):
        a1, mu = self.f.exponents[0], self.nm.milnor
        table, _ = self.table
        if not self.exc["strong"]:
            raise VerificationFailure("collection is not strong")
        for i in range(mu):
            for j in range(mu):
                want = 1 if 0 <= j - i < a1 else 0
                if table.dim(i, j, 0) != want:
                    raise VerificationFailure(
                        "path-algebra dimension table mismatch",
                        {"i": i, "j": j, "got": table.dim(i, j, 0), "want": want})
        return {"quiver_length": mu, "nilpotency": a1}

    def fullness(self):
        return ("note", {"note": "generation of the whole category is not "
                                 "machine-verified; only its computable "
                                 "consequences are checked"})

    def reduction_inequalities(self):
        f, nm = self.f, self.nm
        n, mu, d = f.n, nm.milnor, nm.cum_products
        if n == 1:
            return {"note": "vacuous for one variable"}
        if n % 2:
            recursion = d[n - 2] * f.exponents[n - 2] * (f.exponents[n - 1] - 1) \
                + nm.milnor_numbers[n - 2]
            if mu != recursion:
                raise VerificationFailure("two-step recursion mismatch",
                                          {"mu": mu, "recursion": recursion})
        bound = sum(d[k] for k in range(n % 2, n - 1, 2))
        if not mu > bound:
            raise VerificationFailure("strict inequality failed",
                                      {"mu": mu, "bound": bound})
        return {"milnor": mu, "bound": bound}


# the report order of each pipeline
INVARIANT_CHECKS = ("grading_group", "zeta_polynomial", "euler_matrix",
                    "companion_root", "monodromy_two_routes", "zeta_factorization",
                    "monodromy_oracle", "lattice_correspondence",
                    "polarization_integer")
MAIN_THEOREM_CHECKS = INVARIANT_CHECKS + (
    "collection", "hom_table", "exceptionality", "euler_pairing_matches",
    "serre_symmetry", "nakayama_cartan", "fullness")
SECTION_CHECKS = ("reduction_inequalities",)

# every paper check but the triangle ones, by report name, in report order
CHECKS = {name: getattr(_Run, name) for name in MAIN_THEOREM_CHECKS + SECTION_CHECKS}
# checks that apply to some chains only; the others apply to every chain
_APPLIES = {"nakayama_cartan": lambda f: f.n == 2}


def run_checks(f: ChainPolynomial, names, offset: int = 0,
               use_cache: bool = True) -> VerificationReport:
    """Run the named checks in order, over values computed once per run."""
    run, r = _Run(f, offset, use_cache), _Runner()
    for name in names:
        if _APPLIES.get(name, lambda _: True)(f):
            r.run(name, lambda: CHECKS[name](run))
    return VerificationReport(f.exponents, offset, __version__, r.checks)


def verify_invariants(f: ChainPolynomial) -> VerificationReport:
    """The matrix-level identity battery (no Hom engine involved)."""
    return run_checks(f, INVARIANT_CHECKS)


def verify_main_theorem(f: ChainPolynomial, offset: int = 0,
                        use_cache: bool = True) -> VerificationReport:
    """Full pipeline: collection, exceptionality, Euler pairing, identities."""
    return run_checks(f, MAIN_THEOREM_CHECKS, offset, use_cache)


def verify_section_inequalities(f: ChainPolynomial) -> VerificationReport:
    """The strict reduction inequalities behind the generation argument."""
    return run_checks(f, SECTION_CHECKS)


def _profiles_agree(probes, left, right, pad: int = 2) -> bool:
    for x in probes:
        w1 = scan_window(x, left)
        w2 = scan_window(x, right)
        lo = min(w1[0], w2[0]) - pad
        hi = max(w1[1], w2[1]) + pad
        for p in range(lo, hi + 1):
            if hom_dim(x, left, None, p) != hom_dim(x, right, None, p):
                return False
    return True


def _search_cone_match(source, target, reference, probes) -> str:
    """Search a morphism whose reduced cone matches the reference profile.

    Tries every basis element of the degree-zero stable Hom space and, for
    small spaces, signed sums of two basis elements; exhaustion is reported
    as inconclusive, never as a refutation.
    """
    basis = morphism_space_basis(source, target)
    if not basis:
        return "inconclusive"
    candidates = list(basis)
    if 2 <= len(basis) <= 3:
        from .mf import MFMorphism
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                for s in (1, -1):
                    phi0 = basis[i].phi0 + (-basis[j].phi0 if s < 0 else basis[j].phi0)
                    phi1 = basis[i].phi1 + (-basis[j].phi1 if s < 0 else basis[j].phi1)
                    candidates.append(MFMorphism(basis[i].source, basis[i].target,
                                                 basis[i].shift, phi0, phi1))
    for phi in candidates:
        c = reduce(cone(phi))
        if _profiles_agree(probes, c, reference):
            return "pass"
    return "inconclusive"


def verify_triangles(f: ChainPolynomial, offset: int = 0) -> VerificationReport:
    """Triangle consequences: Euler additivity plus structural cone checks.

    The probes are the collection objects E_i = E(i * step); the third
    objects are the auxiliary objects Aux(i * deg x1) (even n) and the
    ladder objects L_j(-i * deg x1) (odd n).  ``TriangleFamilies``
    stabilizes each base once (the collection base, Aux, and L_j for each
    width j) and reaches every object by a shift.  Every Euler entry goes
    through one per-run ``EulerForm``, so each canonical key (anchored
    probe, anchored object, twist difference) is scanned and queried once.
    ``ladder_base_object`` still compares an independently stabilized
    width-one ladder object with E_offset.
    """
    r = _Runner()
    nm = numerics(f)
    mu = nm.milnor
    if f.n < 2:
        r.checks.append(CheckResult("triangles", "note",
                                    {"note": "one variable has no triangle lemma"}, 0))
        return VerificationReport(f.exponents, offset, __version__, r.checks)
    structural = mu <= 10 and f.n <= 3
    fam = TriangleFamilies(f)
    euler = EulerForm()
    coll = [fam.collection(offset + i) for i in range(mu)]
    probes = coll

    if f.n % 2 == 0:
        def k_identity():
            bad = []
            for i in range(offset + 1, offset + mu):
                aux = fam.auxiliary(i)
                prev = coll[i - 1 - offset]
                cur = coll[i - offset]
                for x in probes:
                    total = euler(x, prev) - euler(x, cur) + euler(x, aux)
                    if total != 0:
                        bad.append({"i": i, "total": total})
            if bad:
                raise VerificationFailure("Euler additivity failed", {"cases": bad})
            return {"triangles": mu - 1, "probes": len(probes)}

        r.run("triangle_euler_additivity", k_identity)

        def integrality():
            if (mu - 1) % f.exponents[0]:
                raise VerificationFailure("(mu - 1) not divisible by the first exponent",
                                          {"mu": mu})
            return {"reduced_length": (mu - 1) // f.exponents[0]}

        r.run("reduced_collection_integrality", integrality)

        if structural:
            def structure():
                i = offset + 1
                status = _search_cone_match(coll[0], coll[1], fam.auxiliary(i), probes)
                return (status, {"i": i})

            r.run("triangle_structural", structure)
    else:
        a1 = f.exponents[0]

        def ladder_terms(i, j):
            """The triangle's source, two middle objects and cone, signed."""
            return [(1, fam.ladder(i + 1, j)),
                    (-1, fam.ladder(i, j + 1)),
                    (-1, fam.ladder(i + 1, j - 1)),
                    (1, fam.ladder(i, j))]

        def ladder_total(terms, x):
            return sum(sgn * euler(x, obj) for sgn, obj in terms if obj.size)

        i_range = range(offset, offset + min(mu - 1, 3))

        def ladder_identity():
            bad = []
            for i in i_range:
                for j in range(1, a1):
                    terms = ladder_terms(i, j)
                    for x in probes:
                        total = ladder_total(terms, x)
                        if total != 0:
                            bad.append({"i": i, "j": j, "total": total})
            if bad:
                raise VerificationFailure("ladder Euler identity failed",
                                          {"cases": bad})
            return {"ladder_width": a1, "widths_checked": list(range(1, a1))}

        r.run("ladder_euler_additivity", ladder_identity)

        def boundary_erratum():
            # The printed width-a1 instance reads the out-of-category object
            # as zero; its Euler defect is then forced to be the class sum of
            # a1+1 consecutive collection objects, which is nonzero.  Pin the
            # defect exactly so any drift is caught.
            mismatches = []
            boundary_holds = True
            for i in i_range:
                terms = ladder_terms(i, a1)
                classes = [fam.collection(i + k) for k in range(a1 + 1)]
                for x in probes:
                    total = ladder_total(terms, x)
                    predicted = sum(euler(x, e) for e in classes)
                    if total != 0:
                        boundary_holds = False
                    if total != predicted:
                        mismatches.append({"i": i, "total": total,
                                           "predicted": predicted})
            if mismatches:
                raise VerificationFailure(
                    "boundary defect does not match the class-sum prediction",
                    {"cases": mismatches})
            status = "pass" if boundary_holds else "note"
            return (status, {"literal_boundary_instance_holds": boundary_holds,
                             "defect": "sum of a1+1 consecutive collection classes"})

        r.run("ladder_boundary_width_a1", boundary_erratum)

        def base_agrees():
            if ladder_object(f, offset, 1) != coll[0]:
                raise VerificationFailure("width-one ladder object differs from E_i")
            return {}

        r.run("ladder_base_object", base_agrees)

        def integrality():
            d2 = nm.cum_products[2]
            if (mu - a1 + 1) % d2:
                raise VerificationFailure("ladder length quotient not integral",
                                          {"mu": mu, "a1": a1, "d2": d2})
            return {"reduced_length": (mu - a1 + 1) // d2}

        r.run("reduced_collection_integrality", integrality)

        if structural:
            def structure():
                i = offset
                results = []
                for j in range(1, a1):
                    (_, src), (_, mid1), (_, mid2), (_, cone_obj) = ladder_terms(i, j)
                    if mid1.size and mid2.size:
                        target = direct_sum(mid1, mid2)
                    elif mid1.size:
                        target = mid1
                    elif mid2.size:
                        target = mid2
                    else:
                        continue
                    status = _search_cone_match(src, target, cone_obj, probes)
                    results.append({"j": j, "status": status})
                overall = ("pass" if all(x["status"] == "pass" for x in results)
                           else "inconclusive")
                return (overall, {"cases": results})

            r.run("triangle_structural", structure)

    return VerificationReport(f.exponents, offset, __version__, r.checks)
