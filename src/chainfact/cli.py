"""Command-line interface for running the verification pipelines.

Each subcommand runs exactly the checks it reports: ``CHECKS_RUN`` names them
in report order.  Every subcommand exits 0 exactly when no check failed.
Hom tables are computed in memory on every run, and no run writes a file.

Each process loads only the layers its subcommand runs.  Every subcommand
loads ``chain`` and ``verify``; the rest is imported on first use.

* ``invariants`` and ``monodromy`` load the battery, ``invariants``, and its
  series arithmetic, ``series``, and nothing more.
* ``verify`` and ``euler`` load the battery too, and ``homrun`` with the Hom
  engine behind it (``homcalc``, graded Künneth, on ``mf`` and ``exactmath``).
* ``triangles`` loads ``homrun`` and the engine but not the battery, which
  none of its checks reads; on one variable it runs only a note and loads
  neither.

``run_checks`` imports ``homrun`` before the run, when some check it applies
to the chain reads Hom spaces, and a run imports the battery on the first
check that reads it.
"""

from __future__ import annotations

import argparse
import sys

from .chain import ChainPolynomial
from .verify import (
    INVARIANT_CHECKS,
    MAIN_THEOREM_CHECKS,
    SECTION_CHECKS,
    TRIANGLE_CHECKS,
    emit_report,
    run_checks,
)

CHECKS_RUN = {
    "invariants": INVARIANT_CHECKS + SECTION_CHECKS,
    "verify": MAIN_THEOREM_CHECKS + SECTION_CHECKS,
    "euler": ("euler_matrix", "hom_table", "exceptionality", "euler_pairing_matches"),
    "monodromy": ("zeta_polynomial", "companion_root", "monodromy_two_routes",
                  "zeta_factorization", "monodromy_oracle"),
    "triangles": TRIANGLE_CHECKS,
}


def _add_common(parser, offset=False, no_cache=False):
    parser.add_argument("--chain", required=True,
                        help="comma-separated exponents, e.g. 2,2,3")
    parser.add_argument("--format", choices=("json", "csv", "md"), default="md",
                        dest="fmt", help="report format (default md)")
    if offset:
        parser.add_argument("--offset", type=int, default=0,
                            help="index of the first collection object")
    if no_cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="no effect: Hom tables are always computed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainfact",
        description="exact verification of graded matrix-factorization invariants "
                    "for chain polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser(
        "invariants", help="matrix-level identity battery (no Hom engine)"))
    _add_common(sub.add_parser(
        "verify", help="full pipeline: collection, exceptionality, Euler matrix"),
        offset=True, no_cache=True)
    _add_common(sub.add_parser(
        "euler", help="engine Euler matrix and comparison with the Toeplitz form"),
        offset=True, no_cache=True)
    _add_common(sub.add_parser(
        "monodromy", help="monodromy operator, factorization, transpose oracle"))
    _add_common(sub.add_parser(
        "triangles", help="triangle Euler identities and structural cone checks"),
        offset=True)

    args = parser.parse_args(argv)
    try:
        f = ChainPolynomial.parse(args.chain)
    except ValueError as exc:
        parser.error(str(exc))

    report = run_checks(f, CHECKS_RUN[args.command], getattr(args, "offset", 0))

    sys.stdout.write(emit_report(report, args.fmt))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
