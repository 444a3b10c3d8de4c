#!/usr/bin/env python3
"""chainfact benchmark: one client in a closed loop, one fresh CLI process per chain.

    python3 bench/run.py --workload verify_cold --seed 1 --seconds 40 --trace 0

Each chain of the workload runs as ``python -m chainfact.cli <command> ...``
in a fresh process, one at a time, with the package taken from ``src/`` of
the checkout this file sits in.  A pass runs every chain once; with
``--trace 0`` the run repeats passes while another fits in ``--seconds`` and
reports the median pass.  With ``--trace 1`` it runs one untraced pass and
one pass through ``bench/tracer.py`` and reports per-layer metrics.  Every
report is checked against its golden normalized report.  The last line of
standard output is the JSON result; a results file with provenance goes to
``.bench_out/``.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"
TRACER = BENCH / "tracer.py"

OFFSETS = range(4)          # collection offsets the seed draws from
IMPORT = ["-c", "import chainfact.cli"]
RUN_LIMIT_S = 170           # a run kills what is left after this long

# Keys that normalization drops at any depth: timing, cache state, the offset
# the seed drew, and the report fields reserved for stats and provenance.
DROPPED = frozenset({"elapsed_ns", "cache_hit", "offset", "stats", "provenance"})
# Detail fields that hold an absolute collection index (offset + k); the
# normalized report stores them relative to the offset.
OFFSET_RELATIVE = {"triangle_structural": ("i",)}


@dataclass(frozen=True)
class Workload:
    command: str
    chains: tuple[str, ...]
    flags: tuple[str, ...] = ()
    takes_offset: bool = True


LADDER = ("3,3", "2,2,2", "4,4", "2,2,3", "2,2,2,2", "3,3,3")
WORKLOADS = {
    "verify_cold": Workload("verify", LADDER, ("--no-cache",)),
    "triangles": Workload("triangles", LADDER),
    "invariants_big": Workload("invariants", ("5,5,5,5", "3,3,3,3,3,3", "4,4,4,4,4"),
                               takes_offset=False),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "max_chain_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def milnor(chain: str) -> int:
    """Closed form mu = sum_k (-1)^(n-k) a_1 ... a_k over k = 0..n."""
    exps = [int(a) for a in chain.split(",")]
    n, prod, total = len(exps), 1, (-1) ** len(exps)
    for k, a in enumerate(exps, 1):
        prod *= a
        total += (-1) ** (n - k) * prod
    return total


def normalize(report: dict, offset: int = 0):
    """The report without its DROPPED keys, offset-relative fields rebased."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in DROPPED}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    out = strip(report)
    for check in out.get("checks", ()):
        for key in OFFSET_RELATIVE.get(check.get("name"), ()):
            if isinstance(check.get("detail", {}).get(key), int):
                check["detail"][key] -= offset
    return out


def golden_path(workload: str, chain: str) -> Path:
    return GOLDEN / workload / (chain.replace(",", "_") + ".json")


def verdict_errors(workload: str, chain: str, report: dict) -> list[str]:
    """Why a parsed report is not the paper's PASS, or [] if it is."""
    errors = [f"check {c['name']} failed" for c in report["checks"]
              if c["status"] == "fail"]
    if workload == "verify_cold":
        errors += [f"check {c['name']} served from cache" for c in report["checks"]
                   if c["detail"].get("cache_hit", False) is not False]
    checks = {c["name"]: c for c in report["checks"]}
    mu = milnor(chain)
    for name, key in (("zeta_polynomial", "degree"), ("collection", "objects")):
        if name in checks and checks[name]["detail"].get(key) != mu:
            errors.append(f"{name} {key} is not the Milnor number {mu}")
    return errors


def report_errors(workload: str, chain: str, offset: int, report: dict) -> list[str]:
    """Why a parsed report is wrong, or [] if it matches its golden report."""
    errors = verdict_errors(workload, chain, report)
    golden = json.loads(golden_path(workload, chain).read_text())
    if normalize(report, offset) != golden:
        errors.append("normalized report differs from the golden report")
    return errors


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CHAINFACT_PURE", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               CHAINFACT_CACHE_DIR=str(cache_dir))
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    cache_bytes: int


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], work: Path, deadline: float) -> ChildResult:
    """Run one fresh interpreter; wall and rusage come from os.wait4."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    out_path = work / "stdout.txt"
    try:
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=out,
                                    stdin=subprocess.DEVNULL, env=child_env(cache_dir))
            killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     _kill, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir())
        return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024, out_path.read_text(), cache_bytes)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_chain_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    cache_bytes: int = 0
    elapsed_s: float = 0.0
    setup_s: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    check_s: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_pass(name: str, plan, work: Path, deadline: float, trace: bool) -> Pass:
    """Run every chain once.  Before each chain an untraced pass also times
    one fresh import of chainfact.cli, so the set-up samples spread over the
    whole run instead of catching one moment of a shared host."""
    wl = WORKLOADS[name]
    largest = max((chain for chain, _ in plan), key=milnor)
    res = Pass()
    t0 = time.monotonic()
    for chain, offset in plan:
        if not trace:
            res.setup_s.append(run_child(IMPORT, work, deadline).wall_s)
        cli = [wl.command, "--chain", chain, "--format", "json", *wl.flags]
        if wl.takes_offset:
            cli += ["--offset", str(offset)]
        spans_path = work / "spans.json"
        args = ([str(TRACER), str(spans_path), *cli] if trace
                else ["-m", "chainfact.cli", *cli])
        child = run_child(args, work, deadline)
        res.attempted += 1
        res.wall_s += child.wall_s
        res.cpu_s += child.cpu_s
        res.peak_rss_mb = max(res.peak_rss_mb, child.rss_mb)
        res.cache_bytes += child.cache_bytes
        if chain == largest:
            res.max_chain_s = child.wall_s
        res.chains.append({"chain": chain, "offset": offset, "wall_s": child.wall_s,
                           "cpu_s": child.cpu_s, "rss_mb": child.rss_mb})
        errors = [f"exit code {child.returncode}"] if child.returncode else []
        try:
            report = json.loads(child.stdout)
            errors += report_errors(name, chain, offset, report)
            for check in report["checks"]:
                key = f"verify.check.{check['name']}.s"
                res.check_s[key] = res.check_s.get(key, 0.0) + check["elapsed_ns"] / 1e9
        except (ValueError, KeyError, TypeError, OSError) as exc:
            errors.append(f"unreadable report: {exc!r}")
        if trace and spans_path.exists():
            add_layers(res.layers, spans_path)
        if errors:
            res.failed += 1
            res.errors.append({"chain": chain, "offset": offset, "errors": errors})
    res.elapsed_s = time.monotonic() - t0
    return res


def add_layers(layers: dict, spans_path: Path) -> None:
    """Add one traced child's per-layer numbers into ``layers``."""
    data = json.loads(spans_path.read_text())
    for prefix, st in layer_stats(data["names"], data["spans"]).items():
        for stat in ("calls", "s", "self_s"):
            key = f"{prefix}.{stat}"
            layers[key] = layers.get(key, 0) + st[stat]
    for key, value in data["counters"].items():
        layers[key] = layers.get(key, 0) + value
    spans_path.unlink()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# per-layer metrics reported by a traced run: name -> unit
LAYER_METRICS = {
    "mf.t_power.calls": "count", "mf.t_power.s": "s",
    "mf.poly_mat_mul.calls": "count", "mf.poly_mat_mul.s": "s",
    "homcalc.hom_dim.calls": "count", "homcalc.hom_dim.s": "s",
    "homcalc.hom_dim.self_s": "s", "homcalc.hom_dim.nonzero_ratio": "ratio",
    "homcalc.rank_d.hits": "count", "homcalc.rank_d.misses": "count",
    "homcalc.cell_basis.hits": "count", "homcalc.cell_basis.misses": "count",
    "exactmath.sparse_rank.calls": "count", "exactmath.sparse_rank.s": "s",
    "exactmath.sparse_rank.rows": "count", "exactmath.sparse_rank.nnz": "count",
    "homcalc.scan_window.calls": "count", "homcalc.scan_window.s": "s",
    "homcalc.compute_hom_table.s": "s",
    "chain.monomial_basis.calls": "count", "chain.monomial_basis.s": "s",
    "chain.build_grading_group.s": "s", "exactmath.smith_normal_form.s": "s",
    "mf.stabilize.calls": "count", "mf.stabilize.s": "s", "mf.shift.calls": "count",
    "mf.cone.s": "s", "mf.reduce.s": "s", "homcalc.morphism_space_basis.s": "s",
    "exactmath.kernel_basis.s": "s",
    "exactmath.int_mat_mul.calls": "count", "exactmath.int_mat_mul.s": "s",
    "invariants.monodromy_data.s": "s",
    "invariants.check_lattice_correspondence.s": "s",
    "invariants.companion_matrix.s": "s", "invariants.euler_matrix.s": "s",
    "invariants.transpose_monodromy_charpoly.s": "s",
    "verify.cache_store.s": "s", "verify.cache_store.bytes": "bytes",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}
CHECK_NAMES = (
    "grading_group", "zeta_polynomial", "euler_matrix", "companion_root",
    "monodromy_two_routes", "zeta_factorization", "monodromy_oracle",
    "lattice_correspondence", "polarization_integer", "reduction_inequalities",
    "collection", "hom_table", "exceptionality", "euler_pairing_matches",
    "serre_symmetry", "nakayama_cartan", "fullness",
    "triangle_euler_additivity", "reduced_collection_integrality",
    "triangle_structural", "ladder_euler_additivity", "ladder_boundary_width_a1",
    "ladder_base_object",
)
LAYER_METRICS.update({f"verify.check.{c}.s": "s" for c in CHECK_NAMES})


def layer_metrics(untraced: Pass, traced: Pass) -> dict:
    """Per-layer values of one traced pass; a layer that did not run reads 0."""
    raw = dict(traced.layers)
    calls = raw.get("homcalc.hom_dim.calls", 0)
    raw["homcalc.hom_dim.nonzero_ratio"] = (
        raw.get("homcalc.hom_dim.nonzero", 0) / calls if calls else 0.0)
    raw["verify.cache_store.bytes"] = traced.cache_bytes
    raw["trace.wall_s"] = traced.wall_s
    raw["trace.untraced_wall_s"] = untraced.wall_s
    raw["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    raw.update(untraced.check_s)
    extra = sorted(set(untraced.check_s) - set(LAYER_METRICS))
    if extra:
        print(f"checks without a metric: {extra}", file=sys.stderr)
    return {name: {"value": raw.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def end_to_end_metrics(passes: list[Pass]) -> dict:
    """Medians over the run's passes; setup_s over all its import samples."""
    values = {name: statistics.median(getattr(p, name) for p in passes)
              for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(t for p in passes for t in p.setup_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, plan) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "seed": seed,
            "offsets": {chain: offset for chain, offset in plan}}


def make_plan(name: str, seed: int, chains=None) -> list[tuple[str, int]]:
    """The seed fixes the chain order and each chain's collection offset."""
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    chains = list(chains or wl.chains)
    rng.shuffle(chains)
    return [(c, rng.choice(OFFSETS) if wl.takes_offset else 0) for c in chains]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chains", help="chains separated by ';', e.g. '3,3;2,2,2', "
                                     "replacing the workload's chains (for tests)")
    args = ap.parse_args(argv)

    if not (SRC / "chainfact" / "cli.py").is_file():
        print(f"no chainfact package under {SRC}", file=sys.stderr)
        return 2
    chains = args.chains.split(";") if args.chains else None
    plan = make_plan(args.workload, args.seed, chains)
    missing = [str(golden_path(args.workload, c)) for c, _ in plan
               if not golden_path(args.workload, c).is_file()]
    if missing:
        print(f"golden reports missing: {missing}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            untraced = run_pass(args.workload, plan, work, deadline, trace=False)
            traced = run_pass(args.workload, plan, work, deadline, trace=True)
            passes = [untraced, traced]
            metrics = layer_metrics(untraced, traced)
        else:
            run_child(IMPORT, work, deadline)          # writes the bytecode caches
            budget_end = time.monotonic() + args.seconds
            passes = [run_pass(args.workload, plan, work, deadline, trace=False)]
            while time.monotonic() + passes[-1].elapsed_s <= budget_end:
                passes.append(run_pass(args.workload, plan, work, deadline, trace=False))
            metrics = end_to_end_metrics(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, plan),
              "fail_ratio": failed / attempted,
              "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "setup_s": p.setup_s,
                          "chains": p.chains} for p in passes],
              "errors": [e for p in passes for e in p.errors], **result}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for err in record["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.4f} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']} over {attempted} chain runs; "
          f"{len(passes)} passes; results in {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
