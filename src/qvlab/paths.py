"""Cadlag sample paths on finite time grids.

A path is piecewise constant between grid times: X_t = values[i] for t in
[times[i], times[i+1]), right-continuous with left limits.  This makes
left limits, jump sizes and all partition increments exact, and represents
pure-jump paths without interpolation artifacts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def _check_grid(times: np.ndarray) -> None:
    if times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


class SamplePath:
    """One realized path.

    times: strictly increasing grid starting at 0, ending at the horizon.
    values: cadlag value X_t at each grid time.
    jump_marks: True where the generator declared a genuine jump.
    Each is held as a read-only contiguous array.
    """

    def __init__(self, times, values, jump_marks):
        times = np.ascontiguousarray(np.asarray(times, dtype=np.float64))
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        marks = np.ascontiguousarray(np.asarray(jump_marks, dtype=bool))
        if times.ndim != 1:
            raise ValueError("times must be a nonempty 1-d array")
        _check_grid(times)
        if values.shape != times.shape or marks.shape != times.shape:
            raise ValueError("times, values and jump_marks must have equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        for arr in (times, values, marks):
            arr.setflags(write=False)
        self.times, self.values, self.jump_marks = times, values, marks

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def _check_t(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > self.horizon):
            raise ValueError(f"time outside [0, {self.horizon}]")
        return t

    def eval(self, t: float) -> float:
        """X_t under piecewise-constant cadlag semantics."""
        return float(self.eval_many(np.asarray([t]))[0])

    def eval_many(self, t) -> np.ndarray:
        t = self._check_t(t)
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[idx]

    def eval_left(self, t: float) -> float:
        """Left limit X_{t-}, with the convention X_{0-} = X_0."""
        return float(self.eval_left_many(np.asarray([t]))[0])

    def eval_left_many(self, t) -> np.ndarray:
        t = self._check_t(t)
        # searchsorted('left') points at the grid index itself when t is a
        # grid time, so pos-1 is the previous cell in both the on-grid and
        # interior cases; clamping handles X_{0-} = X_0.
        idx = np.maximum(np.searchsorted(self.times, t, side="left") - 1, 0)
        return self.values[idx]

    def increments(self) -> np.ndarray:
        """Jump sizes dX at each grid time (0 at t=0 by X_{0-} = X_0)."""
        out = np.empty_like(self.values)
        out[0] = 0.0
        out[1:] = self.values[1:] - self.values[:-1]
        return out

    def jump_times(self, threshold: float) -> np.ndarray:
        """Grid times that are marked jumps or have |dX| > threshold."""
        if threshold < 0:
            raise ValueError("threshold must be nonnegative")
        dx = self.increments()
        sel = self.jump_marks | (np.abs(dx) > threshold)
        sel[0] = self.jump_marks[0]
        return self.times[sel]

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "x", "jump"])
        for t, x, j in zip(self.times, self.values, self.jump_marks):
            w.writerow([repr(float(t)), repr(float(x)), int(j)])
        return buf.getvalue()


def path_from_csv(text: str, jump_threshold: float | None = None) -> SamplePath:
    """Parse the `t,x,jump` CSV format; times are rebased to start at 0.

    When jump_threshold is given the file's jump column is ignored and marks
    are re-derived from the threshold rule (ingested data carries no ground
    truth).  Raises ValueError naming the offending row on bad input.
    """
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["t", "x", "jump"]:
        raise ValueError("expected header 't,x,jump'")
    ts, xs, js = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            t, x, j = float(row[0]), float(row[1]), int(float(row[2]))
        except (ValueError, IndexError):
            raise ValueError(f"row {lineno}: malformed record {row!r}") from None
        if not (np.isfinite(t) and np.isfinite(x)):
            raise ValueError(f"row {lineno}: non-finite value")
        if ts and t <= ts[-1]:
            raise ValueError(f"row {lineno}: times not strictly increasing")
        ts.append(t)
        xs.append(x)
        js.append(bool(j))
    if not ts:
        raise ValueError("no data rows")
    times = np.asarray(ts) - ts[0]
    values = np.asarray(xs)
    if jump_threshold is None:
        marks = np.asarray(js, dtype=bool)
    else:
        dx = np.concatenate([[0.0], np.diff(values)])
        marks = np.abs(dx) > jump_threshold
    return SamplePath(times=times, values=values, jump_marks=marks)


class PathEnsemble:
    """Paths on one shared time grid, held as read-only blocks.

    times is the (n_steps+1,) grid; values and marks are (n_paths, n_steps+1)
    blocks whose row i is path i.  The block is checked once, as each row
    SamplePath would check itself: the grid starts at 0 and increases
    strictly, and every value is finite.  The row views are built on first
    use and then kept, so iterating or indexing the ensemble yields the same
    objects, and a caller that reads only the blocks never builds them.
    """

    def __init__(self, times, values, marks):
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        marks = np.asarray(marks, dtype=bool)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("ensemble must contain at least one path")
        if marks.shape != values.shape or values.shape[1:] != times.shape:
            raise ValueError("values and marks must be (n_paths, len(times)) blocks")
        _check_grid(times)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        for arr in (times, values, marks):
            arr.setflags(write=False)
        self.times, self.values, self.marks = times, values, marks

    @cached_property
    def paths(self) -> tuple:
        return tuple(SamplePath(times=self.times, values=v, jump_marks=m) for v, m in zip(self.values, self.marks))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i) -> SamplePath:
        return self.paths[i]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])
