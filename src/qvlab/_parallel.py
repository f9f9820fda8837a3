"""Deterministic chunked map over path indices.

Work is split into fixed-size chunks that depend only on the task size,
never on the worker count, and results are concatenated in chunk order, so
any reduction downstream sees the same sequence whether the map ran on one
worker or many.  A chunk is one pool task, CHUNK path indices by default;
it is not a block of paths: the task builds its paths through
generators.iter_blocks, whose blocks are sized by cells, so a 64-path task
at 2^16 steps holds 8 paths at a time.  The process-pool machinery is
imported only when a pool is started, so a one-worker run never loads it.
"""

from __future__ import annotations

CHUNK = 64


def _chunks(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def map_chunked(fn, n: int, workers: int = 1, chunk: int = CHUNK, args: tuple = ()):
    """fn(lo, hi, *args) -> list of per-index results for indices lo..hi-1.

    Returns the flat list over 0..n-1 in index order.
    """
    spans = _chunks(n, chunk)
    if workers <= 1 or len(spans) <= 1:
        parts = [fn(lo, hi, *args) for lo, hi in spans]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, lo, hi, *args) for lo, hi in spans]
            parts = [f.result() for f in futures]
    out = []
    for p in parts:
        out.extend(p)
    return out
