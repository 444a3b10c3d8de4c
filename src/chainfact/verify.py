"""Orchestration: identity pipelines and reports.

Each paper check is the method of its report name on a run, and
``run_checks`` runs any tuple of them, so a pipeline computes only what its
checks read.  Nothing here does new mathematics; failures bubble up from the
lower layers and land in report entries with witnesses attached.

This module imports only ``chain`` and holds the checks of the matrix-level
battery (zeta function, Euler series, monodromy) and the section checks.
The battery itself, ``invariants``, is imported by a run on its first use
(``_Run.battery``), so a run whose checks read none of it, such as
``triangles``, loads neither it nor its series arithmetic.  The checks that
read Hom spaces, and the builders of their objects, live in ``homrun``, the
one importer of the Hom engine; ``run_checks`` imports it only when an
applicable check needs it.  Every run computes its Hom tables in memory;
nothing is read from or written to disk.
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

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def _jsonify(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Degree):
        return list(value.coords)
    if isinstance(value, Fraction):
        return str(value)
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

class _Run:
    """One run of paper checks on one chain.

    Each check is the method of its report name and returns its detail, or
    (status, detail).  The values several checks share are cached properties,
    computed on first use and kept for the run; one whose computation raises
    is not stored, so every check that reads it fails as a report entry.
    The run is the one owner of the battery's values: the zeta polynomial
    (``zeta``), the Euler series (``euler_series``) and the monodromy data
    (``monodromy``); ``invariants`` memoizes nothing, so two runs share
    none of them.  The checks that read Hom spaces are methods of
    ``homrun.HomRun``, a subclass; those here read no Hom-side value.  A
    polynomial goes into a detail as its coefficient tuple.
    """

    def __init__(self, f: ChainPolynomial, offset: int):
        self.f, self.offset = f, offset
        self.nm = numerics(f)

    @cached_property
    def battery(self):
        """The ``invariants`` module, imported on the first check that reads
        it: the triangle checks read none of it."""
        from . import invariants
        return invariants

    @cached_property
    def zeta(self):
        """z(t), the zeta polynomial, as a ``Poly``."""
        return self.battery.zeta_polynomial(self.f)

    @cached_property
    def euler_series(self) -> tuple[int, ...]:
        """c = 1/z mod t^mu, the first row of the Toeplitz Euler matrix."""
        return self.battery.euler_matrix(self.f, self.zeta)

    @cached_property
    def monodromy(self):
        """(det(1 - tM), the gcd exponents) of the certified monodromy M."""
        return self.battery.monodromy_data(self.f, self.zeta, self.euler_series)

    def grading_group(self):
        g = build_grading_group(self.f)
        order = g.quotient_by_total_degree_order()
        if order != self.nm.cum_products[-1]:
            raise VerificationFailure("quotient order differs from the top degree",
                                      {"order": order})
        return {"weights": list(g.weights), "torsion": list(g.torsion_factors),
                "torsion_free": g.is_torsion_free(), "quotient_order": order}

    def zeta_polynomial(self):
        return {"coefficients": self.zeta.coeffs, "degree": self.nm.milnor}

    def euler_matrix(self):
        return {"series": list(self.euler_series)}

    def companion_root(self):
        return {"size": self.battery.companion_certificate(self.zeta, self.f)}

    def monodromy_two_routes(self):
        det, exps = self.monodromy
        return {"det_one_minus_t": det.coeffs, "gcd_exponents": list(exps)}

    def zeta_factorization(self):
        f, (det, exps), d = self.f, self.monodromy, self.nm.cum_products
        if not self.battery.check_zeta_factorization(det, exps, f):
            raise VerificationFailure("factorization product mismatch",
                                      {"charpoly": det.coeffs})
        factors = " * ".join(
            f"(1-t^{d[i] // exps[i]})^{'+' if (-1) ** (f.n - i) > 0 else '-'}{exps[i]}"
            for i in range(f.n + 1))
        return {"factors": factors}

    def monodromy_oracle(self):
        reversed_poly = self.monodromy[0].reversal(self.nm.milnor)
        got = self.battery.transpose_monodromy_charpoly(transpose(self.f))
        if got != reversed_poly:
            raise VerificationFailure("weighted-homogeneous oracle disagrees",
                                      {"oracle": got.coeffs,
                                       "reversed": reversed_poly.coeffs})
        return {"charpoly": got.coeffs}

    def lattice_correspondence(self):
        return {"ok": self.battery.check_lattice_correspondence(self.euler_series,
                                                                self.zeta)}

    def polarization_integer(self):
        return {"k": self.battery.polarization_integer(self.f)}

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
    """Run the named checks in order, over values computed once per run.

    The run is a ``homrun.HomRun`` when some applicable check is not a method
    of ``_Run``: the one place where the Hom side is imported."""
    names = [name for name in names if _APPLIES.get(name, lambda _: True)(f)]
    run_class = _Run
    if not all(hasattr(_Run, name) for name in names):
        from .homrun import HomRun as run_class
    run, r = run_class(f, offset), _Runner()
    for name in names:
        r.run(name, getattr(run, name))
    return VerificationReport(f.exponents, offset, __version__, r.checks)

