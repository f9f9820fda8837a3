"""Traced in-process run of one qvlab CLI invocation.

Usage: python perfbench/trace_run.py SUMMARY_JSON -- <qvlab cli argv>

Wraps each layer's public functions at every name a qvlab module binds them
to, runs ``qvlab.cli.main`` in this interpreter and writes a JSON summary:
per-layer self time and call counts, Kahan kernel cells, ``make_path``
calls, the traced wall time and every span as (name, start, end, parent).
Self time of a span is its duration minus the durations of its direct
children, so the layer self times plus ``other`` sum to the traced wall.
The caller runs the CLI at ``--workers 1``: spans recorded in pool workers
would not come back to this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

T_START = time.perf_counter()

# layer -> (module, attribute) pairs; "Class.method" names a method.  Layer
# names follow the module names; "kernels" is qvlab._kernels.
LAYERS = {
    "generators": [("qvlab.generators", n) for n in ("make_path", "generate")],
    "paths": [
        ("qvlab.paths", f"SamplePath.{n}") for n in ("eval_many", "eval_left_many", "jump_times")
    ],
    "partitions": [
        ("qvlab.partitions", "RefinementLadder.dyadic"),
        ("qvlab.partitions", "inclusion_mask"),
    ],
    "kernels": [
        ("qvlab._kernels", n) for n in ("qv_sum", "masked_qv_sum", "masked_abs_sum", "ito_cumsum")
    ],
    "calculus": [
        ("qvlab.calculus", n)
        for n in (
            "zcqv_statistic",
            "cross_statistic",
            "ito_cumulative",
            "covariation_ladder",
            "jump_sum",
            "ucp_exceedance",
        )
    ],
    "decomposition": [("qvlab.decomposition", n) for n in ("decompose", "summarize_zcqv")],
    "call_surface": [
        ("qvlab.call_surface", n)
        for n in (
            "estimate_call_surface",
            "occupation_identity_check",
            "kink_identity_check",
            "monotonicity_check",
        )
    ],
    "report": [
        ("qvlab.cli", "_json_text"),
        ("qvlab.cli", "_verdict_csv"),
        ("qvlab.call_surface", "CallSurface.to_csv"),
        ("qvlab.calculus", "CovariationReport.to_csv"),
        ("qvlab.cli", "_write_outputs"),
    ],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.kernel_cells = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        is_kernel = name.startswith("kernels.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_kernel and len(args) > 1:
                # every kernel takes the value array y second; one cell per increment
                self.kernel_cells += len(args[1]) - 1
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap every target; returns the targets that do not exist."""
        missing = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    missing.append(f"{module_name}.{attr}")
                    continue
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = vars(owner).get(fn_name) if owner is not None else None
                else:
                    owner, raw = module, getattr(module, fn_name, None)
                if raw is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                span_name = f"{layer}.{fn_name}"
                if isinstance(raw, classmethod):
                    setattr(owner, fn_name, classmethod(self.wrap(span_name, raw.__func__)))
                elif owner_name:
                    setattr(owner, fn_name, self.wrap(span_name, raw))
                else:
                    _rebind(raw, self.wrap(span_name, raw))
        return missing

    def layer_totals(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            layer = totals[name.partition(".")[0]]
            layer["self_s"] += (end - start) - inner
            layer["calls"] += 1
        return totals


def _rebind(original, wrapper) -> None:
    """Replace `original` at every name a loaded qvlab module binds it to."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qvlab" or mod_name.startswith("qvlab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, cli_argv = argv[0], argv[2:]
    from qvlab import cli

    tracer = Tracer()
    missing = tracer.install()
    rc = cli.main(cli_argv)
    wall = time.perf_counter() - T_START
    totals = tracer.layer_totals()
    summary = {
        "rc": rc,
        "wall_s": wall,
        "layers": totals,
        "other_self_s": wall - sum(t["self_s"] for t in totals.values()),
        "make_path_calls": sum(1 for s in tracer.spans if s[0] == "generators.make_path"),
        "kernel_cells": tracer.kernel_cells,
        "missing": missing,
        "spans": [[n, s - T_START, e - T_START, p] for n, s, e, p in tracer.spans],
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
