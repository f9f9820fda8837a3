"""What a process imports: the package's lazy exports and each command's
module footprint.

A `qvlab` process should load only the modules its command runs, so each
footprint test runs the CLI in a fresh interpreter and reads `sys.modules`
when it ends.
"""

import json
import subprocess
import sys

import pytest

import qvlab

LAYERS = {
    "qvlab._kernels",
    "qvlab._parallel",
    "qvlab.calculus",
    "qvlab.call_surface",
    "qvlab.cli",
    "qvlab.config",
    "qvlab.decomposition",
    "qvlab.errors",
    "qvlab.functions",
    "qvlab.generators",
    "qvlab.grid_calculus",
    "qvlab.partitions",
    "qvlab.paths",
}

# loaded by no command at --workers 1
NEVER = {"yaml", "concurrent.futures.process"}

RUN_CLI = """
import json, sys
from qvlab.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _modules(code, *args):
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_bare_import_loads_no_layer():
    loaded = _modules("import json, sys, qvlab; print(json.dumps({'modules': sorted(sys.modules)}))")
    assert not LAYERS & set(loaded["modules"])


@pytest.mark.parametrize(
    "command, absent",
    [
        # numpy's median imports numpy.ma; qv takes its medians without it
        (["qv"], {"qvlab.decomposition", "qvlab.call_surface", "qvlab.grid_calculus", "numpy.ma"}),
        (["identity"], {"qvlab.decomposition", "qvlab.calculus", "qvlab._kernels"}),
        # numpy's percentile imports numpy.ma through np.unique
        (["suite", "moving_kink_jump"], {"qvlab.call_surface", "qvlab.grid_calculus", "numpy.ma"}),
    ],
)
def test_command_loads_only_its_modules(tmp_path, command, absent):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"generator": {"kind": "brownian", "n_steps": 64}, "n_paths": 4,
                               "l_min": 2, "l_max": 6, "n_t": 16, "n_x": 8}))
    run = _modules(RUN_CLI, *command, "--config", str(cfg), "--workers", "1",
                   "--out", str(tmp_path / "out"))
    assert run["rc"] in (0, 1)
    loaded = set(run["modules"])
    assert not absent & loaded
    assert not NEVER & loaded


def test_every_export_resolves():
    namespace = {}
    exec("from qvlab import *", namespace)
    listing = dir(qvlab)
    for name in qvlab.__all__:
        value = getattr(qvlab, name)
        assert namespace[name] is value
        assert name in listing
        if name != "__version__":
            assert value.__module__.startswith("qvlab.")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qvlab.no_such_name
