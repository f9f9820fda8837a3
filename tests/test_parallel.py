import numpy as np

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
