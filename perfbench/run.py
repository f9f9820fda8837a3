#!/usr/bin/env python3
"""qvlab benchmark: CLI workloads, end-to-end metrics and a traced
per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client runs the workload's ``qvlab`` CLI invocation in a closed loop at
``--workers 1``, one fresh process after another, until ``--seconds`` is
spent (at least three processes).  Every process's outputs are checked and
hashed.  With ``--trace 0`` the run reports the end-to-end metrics, scaled
to a reference machine speed by ``calibration.py`` runs before and after
every timed process (the README says why); with
``--trace 1`` it alternates untraced processes with traced in-process runs
(``trace_run.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A detail record with provenance, all samples and the
output digests is printed just before it and written under
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 12345
DEFAULT_SECONDS = 33
SETUP_REPS = 5
MIN_REPS = 3
CLI_TIMEOUT_S = 150.0
# calibration.py sizes (paths): one about as long as a timed CLI process, one
# about as long as a set-up process.  CAL_REF_S holds the wall time of each
# that defines the reference machine speed: about its time on an unloaded
# 2-core x86-64 VM with Python 3.11 and numpy 2.4.
CAL_PATHS = 100
SETUP_CAL_PATHS = 4
CAL_REF_S = {CAL_PATHS: 0.72, SETUP_CAL_PATHS: 0.215}

SETUP_CODE = (
    "import sys\n"
    "from qvlab import cli\n"
    "cli._resolve_config(cli.build_parser().parse_args(sys.argv[1:]))\n"
)
PROVENANCE_CODE = (
    "import json, platform, numpy, qvlab, qvlab._kernels\n"
    "print(json.dumps({'qvlab_file': qvlab.__file__, 'backend': qvlab._kernels.BACKEND,"
    " 'python': platform.python_version(), 'numpy': numpy.__version__}))\n"
)

LAYERS = (
    "generators",
    "paths",
    "partitions",
    "kernels",
    "calculus",
    "decomposition",
    "call_surface",
    "report",
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("self_s", "s"), ("calls", "count"))},
    "generators.paths_per_requested": "ratio",
    "kernels.cells": "count",
    "kernels.cells_per_s": "1/s",
    "report.bytes": "bytes",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "cli.checks_passed_frac": "fraction",
    "cli.error_rate": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the outputs are right


def _load_json(files: dict, name: str, problems: list):
    if name not in files:
        problems.append(f"missing output {name}")
        return None
    try:
        return json.loads(files[name])
    except ValueError as exc:
        problems.append(f"{name} does not parse: {exc}")
        return None


def _finite_nonneg(values, what: str, problems: list) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            problems.append(f"{what}: {v!r} is not a finite nonnegative number")
            return


def _check_suite(files: dict, name: str, problems: list):
    if f"suite_{name}_levels.csv" not in files:
        problems.append(f"missing output suite_{name}_levels.csv")
    report = _load_json(files, f"suite_{name}.json", problems)
    if report is not None:
        for lv in report["verdict"]["levels"]:
            _finite_nonneg((lv["median_stat"], lv["p90_stat"]), f"level {lv['level']}", problems)
    return report


def check_tanaka(files: dict, n_paths: int) -> list:
    problems = []
    report = _check_suite(files, "tanaka", problems)
    if report is not None:
        # E V_1 = E|W_1| = sqrt(2/pi); band of 4 standard errors of the mean
        target = math.sqrt(2.0 / math.pi)
        band = 4.0 * math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(n_paths)
        mean_v = report["mean_final_v"]
        if not abs(mean_v - target) <= band:
            problems.append(f"mean_final_v {mean_v!r} outside {target:.4f} +- {band:.4f}")
    return problems


def check_kink_jump(files: dict, n_paths: int) -> list:
    problems = []
    _check_suite(files, "moving_kink_jump", problems)
    return problems


def check_identity(files: dict, n_paths: int) -> list:
    problems = []
    report = _load_json(files, "identity.json", problems)
    if report is not None:
        for key in ("identity", "kink_identity"):
            if report.get(key, {}).get("pass") is not True:
                problems.append(f"{key}.pass is not true")
    if "surface.csv" not in files:
        problems.append("missing output surface.csv")
    else:
        rows = files["surface.csv"].decode().splitlines()[1:]
        cells = [float(v) for row in rows for v in row.split(",")[2:]]
        _finite_nonneg(cells, "surface.csv C/stderr", problems)
    return problems


def check_qv(files: dict, n_paths: int) -> list:
    problems = []
    if "covariation.csv" not in files:
        problems.append("missing output covariation.csv")
    summary = _load_json(files, "summary.json", problems)
    if summary is not None:
        finals = summary["final_t_median_full"]
        _finite_nonneg(finals, "final_t_median_full", problems)
        _finite_nonneg(summary["exceedance_fraction"], "exceedance_fraction", problems)
        # Brownian quadratic variation on [0, 1] is 1
        if not abs(finals[-1] - 1.0) <= 0.05:
            problems.append(f"finest final_t_median_full {finals[-1]!r} not within 0.05 of 1")
    return problems


@dataclass(frozen=True)
class Workload:
    command: tuple
    n_paths: int
    check: object
    why: str


WORKLOADS = {
    "tanaka": Workload(
        ("suite", "tanaka"), 200, check_tanaka,
        "kernel-bound: Kahan partition sums dominate; the generator is a vectorized cumsum",
    ),
    "kink_jump": Workload(
        ("suite", "moving_kink_jump"), 50, check_kink_jump,
        "generator-bound: the per-step Euler loop dominates; per path, the same kernel calls as tanaka",
    ),
    "identity": Workload(
        ("identity",), 1000, check_identity,
        "no kernel calls; each path generated three times; writes a 0.95 MB surface.csv",
    ),
    "qv": Workload(
        ("qv",), 200, check_qv,
        "covariation ladder sweep and path lookups; no kernel calls; highest peak RSS",
    ),
}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stderr: str


def child_env(with_program: bool = True) -> dict:
    env = dict(os.environ)
    env.pop("QVLAB_OUT", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if with_program:
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CAL_ENV = child_env(with_program=False)


def calibrate(n_paths: int = CAL_PATHS) -> float:
    """Wall time of one calibration.py process, run without the program on
    its path; it tracks how fast the shared machine runs at this moment."""
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, str(BENCH / "calibration.py"), str(n_paths)], cwd=ROOT, env=CAL_ENV,
        stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise BenchError(f"calibration.py exited {res.returncode}")
    return wall


def spawn(cmd: list, env: dict) -> Proc:
    """Run one process to completion; wall time from spawn to exit, peak RSS
    from its wait4 rusage.  A process past CLI_TIMEOUT_S is killed."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode(errors="replace")
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)


def read_outputs(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def digests(files: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def provenance(env: dict) -> dict:
    if not (SRC / "qvlab" / "cli.py").is_file():
        raise BenchError(f"no qvlab sources under {SRC}")
    res = subprocess.run(
        [sys.executable, "-c", PROVENANCE_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if res.returncode != 0:
        raise BenchError(f"cannot import qvlab from {SRC}: {res.stderr.strip()[-500:]}")
    info = json.loads(res.stdout)
    if not Path(info.pop("qvlab_file")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"qvlab was not imported from {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        platform=platform.platform(),
        git_commit=commit,
    )
    return info


# ---------------------------------------------------------------------------
# one benchmark run


@dataclass
class Run:
    workload: Workload
    seed: int
    n_paths: int
    env: dict
    work: Path
    attempted: int = 0
    failed: int = 0
    checks_passed: int = 0
    problems: list = field(default_factory=list)
    reference: dict | None = None  # output digests of the first process
    n_out: int = 0

    def argv(self, out_dir: Path, workers: int = 1) -> list:
        return [
            *self.workload.command,
            "--seed", str(self.seed),
            "--paths", str(self.n_paths),
            "--workers", str(workers),
            "--out", str(out_dir),
        ]

    def fresh_out(self) -> Path:
        self.n_out += 1
        return self.work / f"out{self.n_out}"

    def record(self, proc: Proc, out_dir: Path, label: str) -> bool:
        """Classify one CLI process and check its outputs; True when it counts
        as a success.  Exit 1 (asserted checks failed) is a valid result."""
        self.attempted += 1
        problems = []
        if proc.rc not in (0, 1):
            problems.append(f"exit status {proc.rc}: {proc.stderr.strip()[-300:]}")
        else:
            files = read_outputs(out_dir)
            sums = digests(files)
            if self.reference is None:
                self.reference = sums
                problems += self.workload.check(files, self.n_paths)
            elif sums != self.reference:
                changed = sorted(k for k in set(sums) | set(self.reference)
                                 if sums.get(k) != self.reference.get(k))
                problems.append(f"outputs differ from the first process: {changed}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            return False
        self.checks_passed += proc.rc == 0
        return True

    def cli(self, label: str, workers: int = 1) -> Proc:
        out = self.fresh_out()
        proc = spawn([sys.executable, "-m", "qvlab.cli", *self.argv(out, workers)], self.env)
        return proc if self.record(proc, out, label) else None

    def traced(self, label: str) -> tuple:
        out = self.fresh_out()
        summary_path = self.work / "trace.json"
        cmd = [sys.executable, str(BENCH / "trace_run.py"), str(summary_path), "--", *self.argv(out)]
        proc = spawn(cmd, self.env)
        out_bytes = sum(len(b) for b in read_outputs(out).values())
        if not self.record(proc, out, label):
            return None, None
        summary = json.loads(summary_path.read_text())
        summary["out_bytes"] = out_bytes
        return proc, summary

    def setup_times(self) -> tuple:
        """Wall times of fresh interpreters that import qvlab.cli and resolve
        the workload's config, with a small calibration before and after each."""
        out = self.work / "setup-out"  # resolved, never written
        times, cals = [], [calibrate(SETUP_CAL_PATHS)]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            res = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *self.argv(out)], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
            )
            times.append(time.perf_counter() - t0)
            if res.returncode != 0:
                self.problems.append(f"setup: exit {res.returncode}: {res.stderr.decode()[-300:]}")
                self.failed += 1
                self.attempted += 1
                break
            cals.append(calibrate(SETUP_CAL_PATHS))
        return times, cals


def at_reference_speed(times: list, cals: list, cal_paths: int = CAL_PATHS) -> float:
    """Median time scaled to the reference machine speed.  cals[i] and
    cals[i + 1] are the calibrations run right before and right after
    times[i]; their mean stands for the machine speed during that process."""
    return CAL_REF_S[cal_paths] * statistics.median(
        t / (0.5 * (before + after)) for t, before, after in zip(times, cals, cals[1:])
    )


def closed_loop(seconds: float, min_iters: int, step) -> None:
    """Call step() until min_iters calls are done and one more call of the
    median length would run past `seconds`."""
    t_begin = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        if step() is False:
            return
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_begin
        if len(lengths) >= min_iters and elapsed + statistics.median(lengths) > seconds:
            return


def measure_end_to_end(run: Run, seconds: float) -> tuple:
    setup, setup_cal = run.setup_times()
    walls, rss, cal = [], [], [calibrate()]

    def step():
        proc = run.cli(f"timed process {len(walls) + 1}")
        if proc is None:
            return False
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        cal.append(calibrate())

    closed_loop(seconds, MIN_REPS, step)
    samples = {
        "wall_s": walls, "calibration_s": cal, "peak_rss_mb": rss,
        "setup_s": setup, "setup_calibration_s": setup_cal,
    }
    metrics = {}
    if walls:
        metrics["wall_s"] = at_reference_speed(walls, cal)
        metrics["peak_rss_mb"] = statistics.median(rss)
    if setup:
        metrics["setup_s"] = at_reference_speed(setup, setup_cal, SETUP_CAL_PATHS)
    metrics["raw_wall_s"] = statistics.median(walls) if walls else None
    metrics["raw_setup_s"] = statistics.median(setup) if setup else None
    return metrics, samples


def measure_per_layer(run: Run, seconds: float) -> tuple:
    untraced, traced, summaries = [], [], []

    def step():
        proc = run.cli(f"untraced process {len(untraced) + 1}")
        if proc is None:
            return False
        untraced.append(proc.wall_s)
        proc, summary = run.traced(f"traced process {len(traced) + 1}")
        if proc is None:
            return False
        traced.append(proc.wall_s)
        summaries.append(summary)

    closed_loop(seconds, 1, step)
    # worker-count contract: the same bytes at --workers 2 (not timed)
    run.cli("--workers 2 process", workers=2)
    rows = [layer_metrics(s, run.n_paths) for s in summaries]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
    if traced:
        metrics["trace.wall_s"] = statistics.median(traced)
        # each traced process against the untraced one right before it
        metrics["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, "per_trace": rows}
    missing = summaries[-1]["missing"] if summaries else []
    spans = summaries[-1]["spans"] if summaries else []
    return metrics, samples, missing, spans


def layer_metrics(summary: dict, n_paths: int) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["layers"][layer]["self_s"]
        m[f"{layer}.calls"] = summary["layers"][layer]["calls"]
    m["generators.paths_per_requested"] = summary["make_path_calls"] / n_paths
    m["kernels.cells"] = summary["kernel_cells"]
    k_self = m["kernels.self_s"]
    m["kernels.cells_per_s"] = summary["kernel_cells"] / k_self if k_self > 0 else 0.0
    m["report.bytes"] = summary["out_bytes"]
    m["other.self_s"] = summary["other_self_s"]
    return m


def _number(value):
    """A metric value as measured, or None when nothing was measured."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, help="override the workload's path count (smoke tests)")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    env = child_env()
    try:
        OUT.mkdir(exist_ok=True)
        prov = provenance(env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, args.seed, args.paths or wl.n_paths, env, work)
    try:
        if args.trace:
            metrics, samples, missing, spans = measure_per_layer(run, args.seconds)
            units = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
            missing, spans = [], []
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cli_runs = run.attempted  # at least one: every loop runs a first process
    error_rate = run.failed / cli_runs
    checks_frac = run.checks_passed / cli_runs
    if args.trace:
        metrics["cli.checks_passed_frac"] = checks_frac
        metrics["cli.error_rate"] = error_rate
    detail = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "command": ["qvlab", *run.argv(Path("<out>"))],
        "n_paths": run.n_paths,
        "calibration_reference_s": {str(k): v for k, v in CAL_REF_S.items()},
        "error_rate": error_rate,
        "checks_passed_frac": checks_frac,
        "outputs_sha256": run.reference,
        "problems": run.problems,
        "untraced_targets": missing,
        "samples": samples,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    for name, unit in units.items():
        print(f"{args.workload} {name} = {_number(metrics.get(name))!r} {unit}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in metrics:
            print(f"{args.workload} {name} = {_number(metrics[name])!r} s (not scaled)")
    print(f"{args.workload} error_rate = {error_rate!r} fraction ({run.failed}/{cli_runs})")
    print(f"{args.workload} checks_passed_frac = {checks_frac!r} fraction")
    for problem in run.problems:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": cli_runs,
        "failed": run.failed,
        "metrics": {name: {"value": _number(metrics.get(name)), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
