"""Traced chainfact CLI run, and the span arithmetic for its output.

    python bench/tracer.py SPANS.json <chainfact cli arguments...>

runs ``chainfact.cli.main`` in this process after wrapping the public
functions of each layer from outside.  Each wrapped call records a span
(name, start, end, parent).  Spans stay in memory and are written to
SPANS.json, with the ``lru_cache`` statistics of the Hom engine and the
per-call counters, when the run ends.  The exit code is the CLI's.

The module imports nothing from chainfact at import time, so the parent
benchmark and the tests can use ``layer_stats`` without the package.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module that defines it, attribute, metric prefix).  A dotted attribute is
# a method, patched on its class; a plain one is patched in every chainfact
# module that imported it by name.
TARGETS = (
    ("chainfact.chain", "GradingGroup.monomial_basis", "chain.monomial_basis"),
    ("chainfact.chain", "build_grading_group", "chain.build_grading_group"),
    ("chainfact.exactmath", "smith_normal_form", "exactmath.smith_normal_form"),
    ("chainfact.exactmath", "sparse_rank", "exactmath.sparse_rank"),
    ("chainfact.exactmath", "kernel_basis", "exactmath.kernel_basis"),
    ("chainfact.exactmath", "int_mat_mul", "exactmath.int_mat_mul"),
    ("chainfact.mf", "t_power", "mf.t_power"),
    ("chainfact.mf", "poly_mat_mul", "mf.poly_mat_mul"),
    ("chainfact.mf", "stabilize", "mf.stabilize"),
    ("chainfact.mf", "shift", "mf.shift"),
    ("chainfact.mf", "cone", "mf.cone"),
    ("chainfact.mf", "reduce", "mf.reduce"),
    ("chainfact.homcalc", "hom_dim", "homcalc.hom_dim"),
    ("chainfact.homcalc", "scan_window", "homcalc.scan_window"),
    ("chainfact.homcalc", "compute_hom_table", "homcalc.compute_hom_table"),
    ("chainfact.homcalc", "morphism_space_basis", "homcalc.morphism_space_basis"),
    ("chainfact.invariants", "monodromy_data", "invariants.monodromy_data"),
    ("chainfact.invariants", "check_lattice_correspondence",
     "invariants.check_lattice_correspondence"),
    ("chainfact.invariants", "companion_matrix", "invariants.companion_matrix"),
    ("chainfact.invariants", "euler_matrix", "invariants.euler_matrix"),
    ("chainfact.invariants", "transpose_monodromy_charpoly",
     "invariants.transpose_monodromy_charpoly"),
    ("chainfact.verify", "HomTableCache.store", "verify.cache_store"),
)

# lru_cache'd engine functions read through cache_info() at the end of a run
CACHES = (
    ("chainfact.homcalc", "_rank_d", "homcalc.rank_d"),
    ("chainfact.homcalc", "_cell_basis", "homcalc.cell_basis"),
)


def _count_rows(counters, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    counters["exactmath.sparse_rank.rows"] += len(rows)
    counters["exactmath.sparse_rank.nnz"] += sum(
        1 for row in rows for v in row.values() if v)


def _count_nonzero(counters, result):
    counters["homcalc.hom_dim.nonzero"] += result != 0


# prefix -> (hook before the call on its arguments, hook after on its result)
COUNTERS = {
    "exactmath.sparse_rank": (_count_rows, None),
    "homcalc.hom_dim": (None, _count_nonzero),
}
COUNTER_NAMES = ("exactmath.sparse_rank.rows", "exactmath.sparse_rank.nnz",
                 "homcalc.hom_dim.nonzero")


class Tracer:
    """Span recorder; ``spans`` rows are [name index, start ns, end ns, parent]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.missing: list[str] = []
        self._stack = [-1]

    def wrap(self, prefix, fn):
        index = len(self.names)
        self.names.append(prefix)
        before, after = COUNTERS.get(prefix, (None, None))
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            span = [index, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        return traced

    def install(self):
        """Patch every target; a target the package no longer has is listed."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "chainfact" or name.startswith("chainfact.")]
        for module_name, attr, prefix in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(prefix)
                continue
            traced = self.wrap(prefix, original)
            if owner_name:
                setattr(owner, name, traced)
                continue
            for mod in loaded:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, traced)

    def cache_stats(self):
        out = {}
        for module_name, attr, prefix in CACHES:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.missing.append(prefix)
                continue
            info = fn.cache_info()
            out[prefix + ".hits"] = info.hits
            out[prefix + ".misses"] = info.misses
        return out

    def dump(self, path):
        data = {"names": self.names, "spans": self.spans,
                "counters": {**self.counters, **self.cache_stats()},
                "missing": self.missing}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(names, spans):
    """Per name: calls, outermost inclusive time and self time, in seconds.

    ``s`` sums the spans that have no ancestor of the same name, so a
    recursive call is not counted twice.  ``self_s`` is each span's duration
    minus the part of it that its child spans cover.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (k, start, end, parent) in enumerate(spans):
        st = stats[names[k]]
        st["calls"] += 1
        st["self_s"] += (end - start - _covered(children.get(i, ()), start, end)) / 1e9
        while parent >= 0 and spans[parent][0] != k:
            parent = spans[parent][3]
        if parent < 0:
            st["s"] += (end - start) / 1e9
    return stats


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import chainfact.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = chainfact.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
