"""Experiment runner.

Subcommands: simulate, qv, decompose, identity, appendix, suite.  Each
takes --config, --seed, --paths, --out, --format and --workers.  --workers
sizes the process pool that decompose, identity and suite start; simulate,
qv and appendix run in one process and ignore it.  The QVLAB_OUT
environment variable overrides the output directory.  Each command
yields its files as (name, text) pairs, and one writer writes each pair as it
comes: simulate yields a block of paths' files at a time, so it never holds
more than one block.  A failed run leaves no partial outputs: when a write
fails, or a later block raises while files are being written, the writer
unlinks the files the run has written and removes the output directory if
the run made it, though a file it overwrote before the failure is not
restored.  Exit status is 0 only when every asserted check passes (expected
failures count as passing when they fail as expected), 1 when one fails, 2 on
bad input or a failed write.

main() returns that status.  The qvlab command runs entry(), which calls
main(), flushes stdio and exits with os._exit: the outputs are closed and any
pool is joined by then, so interpreter teardown is skipped.

Each command imports the layer modules it runs when it runs, and the module
top imports only what resolving the config needs.  So a process loads only
its own command's modules: where bytecode writing is off, every imported
source line is compiled again on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, apply_overrides, load_config
from .errors import ConfigurationError, GenerationError

SUITES = ("tanaka", "moving_kink", "moving_kink_jump", "cross_variation", "zcqv_sum", "negative_control")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _write_outputs(out_dir: str, files) -> None:
    """Write each (name, text) pair of files as it comes, or none: when a
    write or the pairs raise, unlink the files this call has opened and
    remove the directories it made, then re-raise."""
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, text in files:
            with open(out / name, "w") as fh:
                written.append(out / name)
                fh.write(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = apply_overrides(
        cfg,
        seed=args.seed,
        n_paths=args.paths,
        out_dir=args.out,
        workers=args.workers,
        formats=(args.format,) if args.format else None,
    )
    env_out = os.environ.get("QVLAB_OUT")
    if env_out:
        cfg = apply_overrides(cfg, out_dir=env_out)
    cfg.validate()
    return cfg


def _keep(cfg: ExperimentConfig, files):
    """The (name, text) pairs whose suffix, csv or json, cfg.formats keeps."""
    return ((name, text) for name, text in files if name.rpartition(".")[2] in cfg.formats)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: ExperimentConfig, args) -> tuple:
    """Each path's `t,x,jump` file, then manifest.json, yielded a block of
    paths at a time: one block is generated when the writer reaches it and
    freed before the next."""
    from .generators import block_rows, generate

    spec = cfg.generator_spec()
    step = block_rows(spec.n_steps)

    def files():
        for lo in range(0, cfg.n_paths, step):
            ens = generate(spec, min(step, cfg.n_paths - lo), lo)
            for i, text in enumerate(ens.csv_rows(), lo):
                yield f"path_{i:05d}.csv", text
            del ens
        manifest = {
            "generator": spec.kind,
            "n_paths": cfg.n_paths,
            "seed": cfg.seed,
            "horizon": float(spec.grid()[-1]),
            "n_steps": spec.n_steps,
            "config": cfg.report_dict(),
        }
        yield "manifest.json", _json_text(manifest)

    return files(), True


def cmd_qv(cfg: ExperimentConfig, args) -> tuple:
    """Quadratic variation ladder of each path at 65 times, and the per-cell
    medians over paths.

    Working set: one block of paths, the per-path sums (full and zcqv,
    n_paths x n_levels x 65 float64 each, and jumps, n_paths x 65) and
    covariation_ladder's row slabs.  Each block fills its own rows of the
    sums and is freed before the next is generated.
    """
    from .calculus import CovariationSums, covariation_ladder, ucp_exceedance
    from .generators import block_rows, generate
    from .partitions import RefinementLadder

    spec = cfg.generator_spec()
    times = spec.grid()
    horizon = float(times[-1])
    ladder = RefinementLadder(times, cfg.l_min, cfg.l_max)
    t_grid = np.linspace(0.0, horizon, 65)
    per_path = CovariationSums.empty(cfg.n_paths, ladder, t_grid)
    step = block_rows(spec.n_steps)
    for lo in range(0, cfg.n_paths, step):
        hi = min(lo + step, cfg.n_paths)
        ens = generate(spec, hi - lo, lo)
        covariation_ladder(ens, ladder, t_grid, threshold=cfg.jump_threshold, out=per_path.rows(lo, hi))
        del ens
    exceed = ucp_exceedance(per_path.full, cfg.ucp_eps)
    median = per_path.median()
    summary = {
        "experiment": "qv",
        "generator": spec.kind,
        "n_paths": cfg.n_paths,
        "ucp_eps": cfg.ucp_eps,
        "levels": list(per_path.levels),
        "meshes": [float(m) for m in per_path.meshes],
        "exceedance_fraction": exceed,
        "final_t_median_full": [float(v) for v in median.full[:, -1]],
        "config": cfg.report_dict(),
    }
    return {"covariation.csv": per_path.to_csv(median), "summary.json": _json_text(summary)}.items(), True


def _suite_files(cfg: ExperimentConfig, result, report: str, levels: str) -> tuple:
    """The suite result's report, with the config, and its levels CSV."""
    payload = result.to_dict()
    payload["config"] = cfg.report_dict()
    return {report: _json_text(payload), levels: _verdict_csv(result.verdict)}.items(), result.ok


def cmd_decompose(cfg: ExperimentConfig, args) -> tuple:
    from .decomposition import run_decompose

    return _suite_files(cfg, run_decompose(cfg), "verdict.json", "levels.csv")


def _verdict_csv(verdict) -> str:
    lines = ["level,mesh,median_stat,p90_stat"]
    for lv, m, md, p9 in zip(verdict.levels, verdict.meshes, verdict.median_stat, verdict.p90_stat):
        lines.append(f"{lv},{m!r},{md!r},{p9!r}")
    return "\n".join(lines) + "\n"


def cmd_identity(cfg: ExperimentConfig, args) -> tuple:
    from . import call_surface as cs
    from .generators import parse_box

    spec = cfg.generator_spec()
    run = cs.run_identity(
        spec, parse_box(cfg.theta), cfg.n_paths, n_t=cfg.n_t, n_x=cfg.n_x, function=cfg.function,
        workers=cfg.workers, sigma_mult=cfg.sigma_mult,
    )
    mono = cs.monotonicity_check(run.surface, spec, sigma_mult=cfg.sigma_mult)
    report = {
        "experiment": "identity",
        "generator": spec.kind,
        "surface_convexity_defect": cs.convexity_defect(run.surface),
        "monotonicity": mono.to_dict(),
        "identity": run.identity.to_dict(),
        "config": cfg.report_dict(),
    }
    ok = run.identity.passed and (mono.skipped or mono.violations == 0)
    if run.kink is not None:
        report["kink_identity"] = run.kink.to_dict()
        ok = ok and (run.kink.skipped or run.kink.passed)
    return {"surface.csv": run.surface.to_csv(), "identity.json": _json_text(report)}.items(), bool(ok)


def cmd_appendix(cfg: ExperimentConfig, args) -> tuple:
    from .grid_calculus import run_appendix_checks

    report, trace_rows, ok = run_appendix_checks()
    report["config"] = cfg.report_dict()
    lines = ["pair,a,value"]
    for pair, a, v in trace_rows:
        lines.append(f"{pair},{a!r},{v!r}")
    return {"appendix.json": _json_text(report), "trace.csv": "\n".join(lines) + "\n"}.items(), ok


def cmd_suite(cfg: ExperimentConfig, args) -> tuple:
    from .decomposition import run_suite

    name = args.name
    return _suite_files(cfg, run_suite(name, cfg), f"suite_{name}.json", f"suite_{name}_levels.csv")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # subcommand -> cmd_*(cfg, args) -> ((name, text) pairs, ok), which main runs
    commands = {
        "simulate": cmd_simulate,
        "qv": cmd_qv,
        "decompose": cmd_decompose,
        "identity": cmd_identity,
        "appendix": cmd_appendix,
        "suite": cmd_suite,
    }
    for name, run in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--config", help="config file (.json/.yaml)")
        p.add_argument("--seed", type=int)
        p.add_argument("--paths", type=int, dest="paths")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--workers", type=int, help="pool size for decompose, identity and suite")
    sub.choices["suite"].add_argument("name", choices=list(SUITES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        files, ok = args.run(cfg, args)
        _write_outputs(cfg.out_dir, _keep(cfg, files))
    except (ConfigurationError, GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not ok:
        print("asserted checks failed", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """The qvlab command: main(), then exit without interpreter teardown."""
    rc = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":  # pragma: no cover
    entry()
