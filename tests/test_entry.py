"""How a qvlab process ends.

`python -m qvlab.cli` and the `qvlab` console script run cli.entry, which
ends the process with os._exit once main() returns, skipping interpreter
teardown.  Each test here runs the command in a process of its own, in a new
session, and checks that it writes the bytes, the exit code and the stderr of
an in-process main() run with the same arguments, and that no process of its
session is left running once it has exited.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

from qvlab import cli

# 70 paths are two blocks of generators.block_rows(64) = 64 rows, so
# --workers 2 starts a pool; tanaka's checks fail on so few paths
CONFIG = {"generator": {"kind": "brownian", "n_steps": 64}, "n_paths": 70, "l_min": 2, "l_max": 6}

# runs qvlab.cli as __main__ under the start method named by its first argument
LAUNCHER = (
    "import multiprocessing, runpy, sys\n"
    "multiprocessing.set_start_method(sys.argv.pop(1))\n"
    "runpy.run_module('qvlab.cli', run_name='__main__')\n"
)

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads sessions from /proc")


def _session(sid: int) -> list:
    """Pids of the processes whose session id is sid."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


def _command(args) -> tuple:
    """(exit code, stderr) of args run in a new session, once no process of
    that session is left; a session still running after 10 s fails."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
        deadline = time.monotonic() + 10.0
        while _session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = _session(proc.pid)
    finally:
        # a failing run leaves nothing running behind it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert left == []
    return proc.returncode, err


def _in_process(tmp_path, capsys, argv) -> tuple:
    out = tmp_path / "in_process"
    code = cli.main([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, _files(out)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


@needs_proc
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "config, code, err",
    [(CONFIG, 1, "asserted checks failed\n"), ({**CONFIG, "n_paths": 0}, 2, "error: n_paths must be >= 1\n")],
    ids=["checks_fail", "bad_config"],
)
def test_the_command_ends_as_main_returns(tmp_path, capsys, config, code, err, workers):
    (tmp_path / "c.json").write_text(json.dumps(config))
    argv = ["suite", "tanaka", "--config", str(tmp_path / "c.json"), "--workers", workers]
    expected = _in_process(tmp_path, capsys, argv)
    out = tmp_path / "command"
    assert (*_command([sys.executable, "-m", "qvlab.cli", *argv, "--out", str(out)]), _files(out)) == expected
    assert expected[:2] == (code, err)
    assert sorted(expected[2]) == (["suite_tanaka.json", "suite_tanaka_levels.csv"] if code == 1 else [])


@needs_proc
@pytest.mark.parametrize("method", [m for m in ("forkserver", "spawn") if m in multiprocessing.get_all_start_methods()])
def test_the_pool_ends_cleanly_under_each_start_method(tmp_path, capsys, method):
    # a pool finalizer skipped at exit would show as resource_tracker's
    # leaked-semaphore warning on stderr
    (tmp_path / "c.json").write_text(json.dumps(CONFIG))
    argv = ["suite", "tanaka", "--config", str(tmp_path / "c.json"), "--workers", "2"]
    expected = _in_process(tmp_path, capsys, argv)
    out = tmp_path / "command"
    assert (*_command([sys.executable, "-c", LAUNCHER, method, *argv, "--out", str(out)]), _files(out)) == expected
    assert expected[:2] == (1, "asserted checks failed\n")


def test_the_console_script_runs_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qvlab"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is cli.entry

