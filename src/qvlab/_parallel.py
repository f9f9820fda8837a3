"""Deterministic chunked map over path indices.

The parent process splits 0 .. n-1 into spans of `chunk` consecutive
indices, which depend only on the task size, never on the worker count.  A
span is one pool task: fn(lo, hi, *args) returns that span's rows as arrays,
one row per path lo .. hi-1, and map_chunked returns the tasks' results in
span order, for the caller to concatenate.  So any reduction downstream sees
the same rows in the same order whether the map ran on one worker or many.
Every caller passes generators.block_rows(n_steps) as the chunk, so a task
is one block of paths, sized in the parent: a pool worker never sizes it
again from module state of its own.  The process-pool machinery is imported
only when a pool is started, so a one-worker run never loads it.  The map
stops at the first span whose result raises, in span order, and re-raises
its error; the pool cancels every span it has not started.
"""

from __future__ import annotations


def map_chunked(fn, n: int, chunk: int, workers: int, args: tuple = ()) -> list:
    """[fn(lo, hi, *args) for each span lo .. hi-1 of 0 .. n-1], in span order."""
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers <= 1 or len(spans) <= 1:
        return [fn(lo, hi, *args) for lo, hi in spans]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, lo, hi, *args) for lo, hi in spans]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
