"""The benchmark's start-up probes run against this checkout.

perfbench/run.py times a set-up probe per workload (SETUP_CODE: import
qvlab.cli and resolve the workload's config) and reads the program's
provenance (PROVENANCE_CODE) before any timed run.  Both import the
program by name, so a rename or deletion they depend on fails here rather
than in a benchmark run.  The harness is loaded as it is, not edited.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load_harness()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_setup_probe_exits_0(workload, tmp_path):
    wl = bench.WORKLOADS[workload]
    argv = bench.Run(wl, bench.DEFAULT_SEED, wl.n_paths, bench.child_env(), tmp_path).argv(tmp_path / "out")
    res = subprocess.run(
        [sys.executable, "-c", bench.SETUP_CODE, *argv], cwd=bench.ROOT, env=bench.child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert not (tmp_path / "out").exists()


def test_provenance_probe_parses():
    res = subprocess.run(
        [sys.executable, "-c", bench.PROVENANCE_CODE], cwd=bench.ROOT, env=bench.child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    info = json.loads(res.stdout)
    assert Path(info["qvlab_file"]).resolve().is_relative_to(bench.SRC.resolve())
