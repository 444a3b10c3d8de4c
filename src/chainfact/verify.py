"""Orchestration: collection construction, identity pipelines, reports.

This module wires everything together: it builds the distinguished collection
of stabilizations from monomial generators, runs exact checks, and packages
the outcome as a serializable report.  Each paper check is declared once in
``CHECKS``, and ``run_checks`` runs any tuple of them, so a pipeline computes
only what its checks read.
Nothing here does new mathematics; failures bubble up from the lower layers
and land in report entries with witnesses attached.

The module imports only the light layers (``chain``, ``exactmath``,
``invariants``).  The Hom side -- the collection, auxiliary and ladder
builders and the Hom and triangle checks -- imports ``mf`` and ``homcalc``
in the function that first needs them, so a run of the invariants battery
never loads the engine.  Every run computes its Hom tables in memory; nothing
is read from or written to disk.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cached_property

from . import ENGINE_ID, __version__
from .chain import (
    ChainPolynomial,
    Degree,
    GradingError,
    VerificationFailure,
    build_grading_group,
    numerics,
    transpose,
)
from .exactmath import IntMatrix, MPoly, Poly
from .invariants import (
    check_lattice_correspondence,
    check_zeta_factorization,
    companion_certificate,
    euler_matrix,
    monodromy_data,
    polarization_integer,
    transpose_monodromy_charpoly,
    zeta_polynomial,
)

# Annotations may name Hom-side types (MatrixFactorization, HomTable,
# HomTables, EulerForm); they are never evaluated, so they import nothing.

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# collection construction
# ---------------------------------------------------------------------------

def _cofactors(f: ChainPolynomial, gens) -> list[MPoly]:
    """The cofactors h_i with sum(g_i * h_i) = f, derived from the generators.

    Each monomial of f goes to the first generator (read by its leading term)
    that divides it, and a generator's cofactor is the sum of its monomials
    divided by it.  ``stabilize`` refuses generators that are not monomials
    in pairwise disjoint variables.
    """
    leads = [next(iter(g.terms.items())) for g in gens]
    terms = [{} for _ in gens]
    for m in f.monomial_exponents():
        for out, (e, c) in zip(terms, leads):
            if all(a >= b for a, b in zip(m, e)):
                out[tuple(a - b for a, b in zip(m, e))] = Fraction(1) / c
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
    from .mf import stabilize
    gens, cofs, step = collection_splitting(f)
    return stabilize(f, gens, cofs), step


def build_collection(f: ChainPolynomial, offset: int = 0) -> list[MatrixFactorization]:
    """The length-mu twist orbit of the base stabilization."""
    from .mf import shift
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
    from .mf import stabilize
    gens, cofs = auxiliary_splitting(f)
    g = build_grading_group(f)
    return stabilize(f, gens, cofs, i * g.variable_degree(0))


def ladder_object(f: ChainPolynomial, i: int, j: int) -> MatrixFactorization:
    from .mf import stabilize, zero_object
    if j == 0 or j == f.exponents[0] + 1:
        return zero_object(f)
    gens, cofs = ladder_splitting(f, j)
    g = build_grading_group(f)
    return stabilize(f, gens, cofs, -i * g.variable_degree(0))


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


class CheckResult:
    def __init__(self, name: str, status: str, detail: dict, elapsed_ns: int):
        self.name = name
        self.status = status             # pass | fail | note | inconclusive
        self.detail = detail
        self.elapsed_ns = elapsed_ns

    def __eq__(self, other):
        if not isinstance(other, CheckResult):
            return NotImplemented
        return vars(self) == vars(other)


class VerificationReport:
    def __init__(self, chain: tuple[int, ...], offset: int, tool_version: str,
                 checks: list[CheckResult], engine: str | None = ENGINE_ID):
        self.chain = chain
        self.offset = offset
        self.tool_version = tool_version
        self.checks = checks
        self.engine = engine             # Hom engine id, for provenance

    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return vars(self) == vars(other)

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

    The triangle checks read three object families: collection object i is
    base(i * step); for even n, auxiliary object i is Aux(i * deg x1); for
    odd n, ladder object (i, j) is L_j(-i * deg x1), zero for j = 0 and
    j = a1 + 1.  Each base (the collection base, Aux, and L_j for each width
    j = 1..a1) goes through the validating ``stabilize`` once per run; every
    object is then reached with the trusted ``shift``, since
    stabilize(f, gens, cofs, twist) = shift(stabilize(f, gens, cofs), twist).
    Every Euler entry goes through the run's one ``EulerForm``, so each
    canonical key (anchored probe, anchored object, twist difference) is
    scanned and queried once.  Both Hom tables come from the run's one
    ``HomTables``, so each distinct folded Hom query is asked once.
    """

    def __init__(self, f: ChainPolynomial, offset: int):
        self.f, self.offset = f, offset
        self.nm = numerics(f)

    @cached_property
    def md(self):
        return monodromy_data(self.f)

    @cached_property
    def base(self) -> tuple[MatrixFactorization, Degree]:
        """(the collection base, the one-object twist step)"""
        return collection_base(self.f)

    @cached_property
    def aux_base(self) -> MatrixFactorization:
        from .mf import stabilize
        return stabilize(self.f, *auxiliary_splitting(self.f))

    @cached_property
    def ladder_bases(self) -> dict[int, MatrixFactorization]:
        from .mf import stabilize
        return {j: stabilize(self.f, *ladder_splitting(self.f, j))
                for j in range(1, self.f.exponents[0] + 1)}

    @cached_property
    def euler(self) -> EulerForm:
        from .homcalc import EulerForm
        return EulerForm()

    def collection_object(self, i: int) -> MatrixFactorization:
        from .mf import shift
        base, step = self.base
        return shift(base, i * step)

    def auxiliary(self, i: int) -> MatrixFactorization:
        from .mf import shift
        return shift(self.aux_base, i * build_grading_group(self.f).variable_degree(0))

    def ladder(self, i: int, j: int) -> MatrixFactorization:
        from .mf import shift, zero_object
        if j == 0 or j == self.f.exponents[0] + 1:
            return zero_object(self.f)
        return shift(self.ladder_bases[j],
                     -i * build_grading_group(self.f).variable_degree(0))

    @cached_property
    def coll(self) -> list[MatrixFactorization]:
        return [self.collection_object(self.offset + i) for i in range(self.nm.milnor)]

    @cached_property
    def homs(self) -> HomTables:
        """The collection's windows and Hom-query memo, shared by both tables."""
        from .homcalc import HomTables
        return HomTables(self.f, self.coll, TABLE_MARGIN)

    @cached_property
    def table(self) -> HomTable:
        """The collection's Hom table, TABLE_MARGIN powers past each window."""
        return self.homs.table()

    @cached_property
    def dual(self) -> HomTable:
        """The Serre-dual table: the same cells, each by its Serre-dual query."""
        return self.homs.table(dual=True)

    @cached_property
    def exc(self) -> dict:
        from .homcalc import check_exceptionality
        return check_exceptionality(self.table)

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
        return {"entries": self.table.entry_count(),
                "window_hull": list(self.table.hull())}

    def exceptionality(self):
        if not self.exc["exceptional"]:
            raise VerificationFailure("collection is not exceptional",
                                      {"failures": self.exc["failures"]})
        return {"strong": self.exc["strong"]}

    def euler_pairing_matches(self):
        from .homcalc import euler_pairing
        engine = euler_pairing(self.table)
        want = [list(row) for row in euler_matrix(self.f).matrix.entries]
        if engine != want:
            raise VerificationFailure("Euler pairing differs from the Toeplitz matrix",
                                      {"engine": engine, "matrix": want})
        return {"matrix": engine}

    def serre_symmetry(self):
        from .homcalc import serre_symmetry_check
        if not serre_symmetry_check(self.table, self.dual):
            raise VerificationFailure("Serre symmetry violated on the table")
        return {}

    def nakayama_cartan(self):
        a1, mu, table = self.f.exponents[0], self.nm.milnor, self.table
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

    def triangles(self):
        return ("note", {"note": "one variable has no triangle lemma"})

    def triangle_euler_additivity(self):
        mu, coll, bad = self.nm.milnor, self.coll, []
        for k in range(1, mu):
            i = self.offset + k
            aux = self.auxiliary(i)
            for x in coll:
                total = self.euler(x, coll[k - 1]) - self.euler(x, coll[k]) \
                    + self.euler(x, aux)
                if total != 0:
                    bad.append({"i": i, "total": total})
        if bad:
            raise VerificationFailure("Euler additivity failed", {"cases": bad})
        return {"triangles": mu - 1, "probes": len(coll)}

    def _ladder_terms(self, i, j):
        """The triangle's source, two middle objects and cone, signed."""
        return [(1, self.ladder(i + 1, j)), (-1, self.ladder(i, j + 1)),
                (-1, self.ladder(i + 1, j - 1)), (1, self.ladder(i, j))]

    def _ladder_total(self, terms, x):
        return sum(sgn * self.euler(x, obj) for sgn, obj in terms if obj.size)

    def _ladder_rows(self):
        return range(self.offset, self.offset + min(self.nm.milnor - 1, 3))

    def ladder_euler_additivity(self):
        a1, bad = self.f.exponents[0], []
        for i in self._ladder_rows():
            for j in range(1, a1):
                terms = self._ladder_terms(i, j)
                for x in self.coll:
                    total = self._ladder_total(terms, x)
                    if total != 0:
                        bad.append({"i": i, "j": j, "total": total})
        if bad:
            raise VerificationFailure("ladder Euler identity failed", {"cases": bad})
        return {"ladder_width": a1, "widths_checked": list(range(1, a1))}

    def ladder_boundary_width_a1(self):
        # The printed width-a1 instance reads the out-of-category object as
        # zero; its Euler defect is then forced to be the class sum of a1+1
        # consecutive collection objects, which is nonzero.  Pin the defect
        # exactly so any drift is caught.
        a1, mismatches, boundary_holds = self.f.exponents[0], [], True
        for i in self._ladder_rows():
            terms = self._ladder_terms(i, a1)
            classes = [self.collection_object(i + k) for k in range(a1 + 1)]
            for x in self.coll:
                total = self._ladder_total(terms, x)
                predicted = sum(self.euler(x, e) for e in classes)
                if total != 0:
                    boundary_holds = False
                if total != predicted:
                    mismatches.append({"i": i, "total": total, "predicted": predicted})
        if mismatches:
            raise VerificationFailure(
                "boundary defect does not match the class-sum prediction",
                {"cases": mismatches})
        return ("pass" if boundary_holds else "note",
                {"literal_boundary_instance_holds": boundary_holds,
                 "defect": "sum of a1+1 consecutive collection classes"})

    def ladder_base_object(self):
        # an independently stabilized width-one ladder object against E_offset
        if ladder_object(self.f, self.offset, 1) != self.coll[0]:
            raise VerificationFailure("width-one ladder object differs from E_i")
        return {}

    def reduced_collection_integrality(self):
        mu, a1 = self.nm.milnor, self.f.exponents[0]
        if self.f.n % 2 == 0:
            if (mu - 1) % a1:
                raise VerificationFailure("(mu - 1) not divisible by the first exponent",
                                          {"mu": mu})
            return {"reduced_length": (mu - 1) // a1}
        d2 = self.nm.cum_products[2]
        if (mu - a1 + 1) % d2:
            raise VerificationFailure("ladder length quotient not integral",
                                      {"mu": mu, "a1": a1, "d2": d2})
        return {"reduced_length": (mu - a1 + 1) // d2}

    def triangle_structural(self):
        from .mf import direct_sum
        coll = self.coll
        if self.f.n % 2 == 0:
            i = self.offset + 1
            return (_search_cone_match(coll[0], coll[1], self.auxiliary(i), coll),
                    {"i": i})
        results = []
        for j in range(1, self.f.exponents[0]):
            (_, src), (_, mid1), (_, mid2), (_, cone_obj) = \
                self._ladder_terms(self.offset, j)
            middle = [obj for obj in (mid1, mid2) if obj.size]
            if not middle:
                continue
            target = direct_sum(*middle) if len(middle) == 2 else middle[0]
            status = _search_cone_match(src, target, cone_obj, coll)
            results.append({"j": j, "status": status})
        overall = "pass" if all(x["status"] == "pass" for x in results) else "inconclusive"
        return (overall, {"cases": results})


# the report order of each pipeline
INVARIANT_CHECKS = ("grading_group", "zeta_polynomial", "euler_matrix",
                    "companion_root", "monodromy_two_routes", "zeta_factorization",
                    "monodromy_oracle", "lattice_correspondence",
                    "polarization_integer")
MAIN_THEOREM_CHECKS = INVARIANT_CHECKS + (
    "collection", "hom_table", "exceptionality", "euler_pairing_matches",
    "serre_symmetry", "nakayama_cartan", "fullness")
SECTION_CHECKS = ("reduction_inequalities",)
# one order for both parities: _APPLIES keeps each parity's checks
TRIANGLE_CHECKS = ("triangles", "triangle_euler_additivity", "ladder_euler_additivity",
                   "ladder_boundary_width_a1", "ladder_base_object",
                   "reduced_collection_integrality", "triangle_structural")

# every paper check, by report name
CHECKS = {name: getattr(_Run, name)
          for name in MAIN_THEOREM_CHECKS + SECTION_CHECKS + TRIANGLE_CHECKS}
# checks that apply to some chains only; the others apply to every chain
_APPLIES = {
    "nakayama_cartan": lambda f: f.n == 2,
    "triangles": lambda f: f.n == 1,
    "triangle_euler_additivity": lambda f: f.n % 2 == 0,
    **dict.fromkeys(("ladder_euler_additivity", "ladder_boundary_width_a1",
                     "ladder_base_object"), lambda f: f.n >= 3 and f.n % 2 == 1),
    "reduced_collection_integrality": lambda f: f.n >= 2,
    "triangle_structural": lambda f: 2 <= f.n <= 3 and numerics(f).milnor <= 10,
}


def run_checks(f: ChainPolynomial, names, offset: int = 0) -> VerificationReport:
    """Run the named checks in order, over values computed once per run."""
    run, r = _Run(f, offset), _Runner()
    for name in names:
        if _APPLIES.get(name, lambda _: True)(f):
            r.run(name, lambda: CHECKS[name](run))
    return VerificationReport(f.exponents, offset, __version__, r.checks)


def verify_invariants(f: ChainPolynomial) -> VerificationReport:
    """The matrix-level identity battery (no Hom engine involved)."""
    return run_checks(f, INVARIANT_CHECKS)


def verify_main_theorem(f: ChainPolynomial, offset: int = 0) -> VerificationReport:
    """Full pipeline: collection, exceptionality, Euler pairing, identities."""
    return run_checks(f, MAIN_THEOREM_CHECKS, offset)


def verify_section_inequalities(f: ChainPolynomial) -> VerificationReport:
    """The strict reduction inequalities behind the generation argument."""
    return run_checks(f, SECTION_CHECKS)


def _profiles_agree(probes, left, right, pad: int = 2) -> bool:
    from .homcalc import hom_dim, scan_window
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
    from .homcalc import morphism_space_basis
    from .mf import MFMorphism, cone, reduce
    basis = morphism_space_basis(source, target)
    if not basis:
        return "inconclusive"
    candidates = list(basis)
    if 2 <= len(basis) <= 3:
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
    """Triangle consequences: Euler additivity plus structural cone checks."""
    return run_checks(f, TRIANGLE_CHECKS, offset)
