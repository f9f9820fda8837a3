import time

import numpy as np
import pytest

from qvlab._parallel import map_chunked


def _rows(lo, hi, scale):
    return np.arange(lo, hi) * scale, np.full(hi - lo, lo)


def test_map_chunked_returns_each_chunks_result_in_chunk_order():
    # 130 = 64 + 64 + 2: the last chunk is short, and the chunks do not
    # depend on the worker count
    for workers in (1, 2):
        parts = map_chunked(_rows, 130, 64, workers, args=(0.5,))
        assert [len(rows) for rows, _ in parts] == [64, 64, 2]
        assert [int(first[0]) for _, first in parts] == [0, 64, 128]
        assert np.concatenate([rows for rows, _ in parts]).tobytes() == (np.arange(130) * 0.5).tobytes()


def _fail_first(lo, hi, out_dir):
    if lo == 0:
        raise ValueError("span 0 fails")
    time.sleep(0.02)
    (out_dir / f"span{lo}").touch()
    return lo


def test_map_chunked_stops_at_the_first_failed_span(tmp_path):
    # span 0 fails at once; the spans the pool has not started are cancelled,
    # so only those already running or queued to a worker leave a file
    with pytest.raises(ValueError, match="span 0 fails"):
        map_chunked(_fail_first, 40, 1, 2, args=(tmp_path,))
    assert len(list(tmp_path.iterdir())) < 20
