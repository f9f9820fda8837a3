"""Block size never changes the bits.

iter_blocks sizes its blocks by cells: at these small grids a block holds
64 rows.  Here every block is made one row, and each command's outputs must
stay byte for byte those of the default split, at one and two workers.
"""

import json
import os

import pytest

from qvlab import generators
from qvlab.cli import main

CONFIG = {"generator": {"kind": "brownian", "n_steps": 256}, "n_paths": 70, "l_min": 3, "l_max": 8}

COMMANDS = [
    ["qv"],
    ["identity"],
    ["suite", "moving_kink_jump"],
    ["suite", "cross_variation"],
]


def _outputs(tmp_path, name, argv, workers):
    out = tmp_path / name
    code = main([*argv, "--config", str(tmp_path / "config.json"), "--workers", str(workers), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("workers", [1, 2])
def test_one_row_blocks_give_the_same_bytes(tmp_path, monkeypatch, argv, workers):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    default = _outputs(tmp_path, "default", argv, workers)
    # the floor is CHUNK // 8 rows, so both constants go down
    monkeypatch.setattr(generators, "CHUNK", 8)
    monkeypatch.setattr(generators, "BLOCK_CELLS", 1)
    # each block is logged by the process that builds it: pool workers see
    # the patched module only if they were forked from this one
    log = tmp_path / "blocks.log"
    generate = generators.generate

    def logged(spec, n_paths, start=0):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {n_paths}\n")
        return generate(spec, n_paths, start)

    monkeypatch.setattr(generators, "generate", logged)
    one_row = _outputs(tmp_path, "one_row", argv, workers)
    assert default[1] and one_row == default
    pids, rows = zip(*(map(int, line.split()) for line in log.read_text().splitlines()))
    assert set(rows) == {1}
    # qv reads its blocks in this process; the others run pool tasks
    assert (set(pids) != {os.getpid()}) == (workers > 1 and argv != ["qv"])
