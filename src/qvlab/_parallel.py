"""Deterministic chunked map over path indices.

Work is split into fixed-size chunks that depend only on the task size,
never on the worker count.  A chunk is one pool task, CHUNK path indices by
default: fn(lo, hi, *args) returns that chunk's rows as arrays, one row per
path lo .. hi-1, and map_chunked returns the tasks' results in chunk order,
for the caller to concatenate.  So any reduction downstream sees the same
rows in the same order whether the map ran on one worker or many.  A chunk
is not a block of paths: the task builds its paths through
generators.iter_blocks, whose blocks are sized by cells, so a 64-path task
at 2^16 steps holds 8 paths at a time.  The process-pool machinery is
imported only when a pool is started, so a one-worker run never loads it.
"""

from __future__ import annotations

CHUNK = 64


def map_chunked(fn, n: int, workers: int = 1, chunk: int = CHUNK, args: tuple = ()) -> list:
    """[fn(lo, hi, *args) for each chunk lo .. hi-1 of 0 .. n-1], in chunk order."""
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers <= 1 or len(spans) <= 1:
        return [fn(lo, hi, *args) for lo, hi in spans]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, lo, hi, *args) for lo, hi in spans]
        return [f.result() for f in futures]
