"""Every report of a fixed sweep, pinned by sha256.

The sweep runs ``verify``, ``euler`` and ``triangles`` at offsets 0-3 and
``invariants`` and ``monodromy`` at offset 0 on each of 24 chains, and
renders every report in ``json``, ``csv`` and ``md``: 1 008 reports.  Each
report is made in-process through ``run_checks`` and ``emit_report``, with
every ``elapsed_ns`` set to 0 and the engine id replaced by a placeholder,
so a digest changes exactly when a report's content does.  The digests live
in ``sweep_digests.json``, one per (chain, command, offset, format).

A change that is meant to change reports regenerates the file with
``PYTHONPATH=src python tests/test_sweep.py`` and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chainfact.chain import ChainPolynomial
from chainfact.cli import CHECKS_RUN
from chainfact.verify import emit_report, run_checks

DIGESTS = Path(__file__).with_name("sweep_digests.json")
CHAINS = ("2", "3", "5", "2,2", "2,3", "3,3", "4,4", "4,3", "3,2", "2,2,2", "2,2,3",
          "3,2,2", "2,3,2", "3,3,3", "2,2,2,2", "2,3,2,3", "3,3,3,3", "2,2,2,2,2",
          "4,4,4", "2,3,2,3,2", "3,2,3,2,3", "30,30", "5,5,5,5", "3,3,3,3,3")
OFFSETS = {"verify": range(4), "euler": range(4), "triangles": range(4),
           "invariants": range(1), "monodromy": range(1)}
FORMATS = ("json", "csv", "md")


def sweep_digests(chain: str) -> dict[str, str]:
    """{"chain|command|offset|format": sha256 of the report} for one chain."""
    f, out = ChainPolynomial.parse(chain), {}
    for command, offsets in OFFSETS.items():
        for offset in offsets:
            report = run_checks(f, CHECKS_RUN[command], offset)
            report.engine = "ENGINE"
            for check in report.checks:
                check.elapsed_ns = 0
            for fmt in FORMATS:
                text = emit_report(report, fmt).encode()
                out[f"{chain}|{command}|{offset}|{fmt}"] = hashlib.sha256(text).hexdigest()
    return out


@pytest.mark.parametrize("chain", CHAINS)
def test_sweep_reports_keep_their_digests(chain):
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items()
            if k.split("|")[0] == chain}
    got = sweep_digests(chain)
    assert len(got) == len(want) == 42
    assert sorted(k for k in got if got[k] != want.get(k)) == []


if __name__ == "__main__":
    digests = {}
    for chain in CHAINS:
        digests.update(sweep_digests(chain))
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
