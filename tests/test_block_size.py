"""Block size never changes the bits.

A block is the span of paths the parent process hands to one task,
generators.block_rows(n_steps) paths: at these small grids 64 rows.  Here
every block is made one row, and each command's outputs must stay byte for
byte those of the default split, at one worker and at two under every pool
start method the platform has (ids `2` for fork, `2-<method>` for the
others).  The block sizes are observed in this process: the spans it
submits to a pool, and the generate calls it makes itself.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from qvlab import call_surface, decomposition, generators
from qvlab.cli import main

CONFIG = {"generator": {"kind": "brownian", "n_steps": 256}, "n_paths": 70, "l_min": 3, "l_max": 8}

COMMANDS = [
    ["qv"],
    ["identity"],
    ["suite", "moving_kink_jump"],
    ["suite", "cross_variation"],
]

RUNS = [pytest.param(1, None, id="1")] + [
    pytest.param(2, m, id="2" if m == "fork" else f"2-{m}") for m in multiprocessing.get_all_start_methods()
]


def _outputs(tmp_path, name, argv, workers):
    out = tmp_path / name
    code = main([*argv, "--config", str(tmp_path / "config.json"), "--workers", str(workers), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("workers, method", RUNS)
def test_one_row_blocks_give_the_same_bytes(tmp_path, monkeypatch, request, argv, workers, method):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    if method is not None:
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        request.addfinalizer(lambda: multiprocessing.set_start_method(saved, force=True))
    default = _outputs(tmp_path, "default", argv, workers)
    # the floor is CHUNK // 8 rows, so both constants go down; block_rows
    # reads them in this process only
    monkeypatch.setattr(generators, "CHUNK", 8)
    monkeypatch.setattr(generators, "BLOCK_CELLS", 1)
    built, submitted = [], []
    generate, submit = generators.generate, ProcessPoolExecutor.submit

    def logged(spec, n_paths, start=0):
        built.append(n_paths)
        return generate(spec, n_paths, start)

    def logged_submit(pool, fn, lo, hi, *args):
        submitted.append(hi - lo)
        return submit(pool, fn, lo, hi, *args)

    # qv imports generate from generators when it runs
    for module in (generators, decomposition, call_surface):
        monkeypatch.setattr(module, "generate", logged)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", logged_submit)
    one_row = _outputs(tmp_path, "one_row", argv, workers)
    assert default[1] and one_row == default
    assert set(built + submitted) == {1}
    # qv reads its blocks in this process; the others run pool tasks
    assert bool(submitted) == (workers > 1 and argv != ["qv"])
