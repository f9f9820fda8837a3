"""Peak memory of a suite on a large grid, of qv and of simulate.

A block of paths is sized by cells, so a task's working set does not grow
as 64 rows x n_steps: at 2^15 steps a block holds 8 paths.  With 64-row
blocks the same run peaks at about 38 MB of traced allocations.

qv holds one block, the per-path sums and fixed-size row slabs.  At 200
paths and 4096 steps that peaks at about 3.6 MB of traced allocations; with
every block's sums kept and then stacked, it peaked at 5.9 MB.

simulate holds one block and the file being written.  Building all paths as
one block and holding every file's text until the end, it peaked at 71 MB
of traced allocations at 400 paths and 4096 steps; a block at a time, 2.0 MB.
"""

import json
import tracemalloc

from qvlab.cli import main

MB = 2**20


def _suite_tanaka(tmp_path, name, n_steps, n_paths):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"generator": {"kind": "brownian", "n_steps": n_steps}}))
    argv = ["suite", "tanaka", "--config", str(config), "--paths", str(n_paths), "--workers", "1"]
    return main([*argv, "--out", str(tmp_path / name)])


def test_suite_tanaka_peak_memory_at_2_to_the_15_steps(tmp_path):
    # a small run first, so imports and lazily built module state are not counted
    _suite_tanaka(tmp_path, "warm", 4096, 2)
    tracemalloc.start()
    try:
        _suite_tanaka(tmp_path, "large", 2**15, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "large" / "suite_tanaka.json").is_file()
    assert peak <= 16 * MB, f"peak {peak / MB:.1f} MB"


def test_qv_peak_memory_at_200_paths(tmp_path):
    argv = ["qv", "--workers", "1", "--out"]
    main([*argv, str(tmp_path / "warm"), "--paths", "2"])
    tracemalloc.start()
    try:
        rc = main([*argv, str(tmp_path / "qv"), "--paths", "200"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0 and (tmp_path / "qv" / "covariation.csv").is_file()
    assert peak <= 4.5 * MB, f"peak {peak / MB:.1f} MB"


def test_simulate_peak_memory_does_not_grow_with_paths(tmp_path):
    # bound fixed from the block size: at 4096 steps a block is 31 rows of
    # 4097 float64 values and bool marks.  One file's text is 4097 lines of
    # under 50 characters (0.2 MB); csv_rows builds it from the grid's time
    # fields, formatted once a block (0.3 MB), the row as Python floats
    # (0.13 MB) and one string per line (0.4 MB), while the writer still
    # holds the previous file's text: under 1.5 MB
    block = 31 * 4097 * (8 + 1)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"generator": {"kind": "brownian", "n_steps": 4096}}))
    argv = ["simulate", "--config", str(config), "--workers", "1", "--out"]
    main([*argv, str(tmp_path / "warm"), "--paths", "2"])
    tracemalloc.start()
    try:
        rc = main([*argv, str(tmp_path / "sim"), "--paths", "400"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0 and (tmp_path / "sim" / "path_00399.csv").is_file()
    assert peak <= block + 1.5 * MB, f"peak {peak / MB:.1f} MB"
