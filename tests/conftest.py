import numpy as np
import pytest

from qvlab.generators import GeneratorSpec, generate


@pytest.fixture(scope="session")
def brownian_200_l12():
    """200 Brownian paths on the level-12 grid (shared across modules)."""
    return generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=12345), 200)


@pytest.fixture(scope="session")
def cp_ensemble():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=4096, jump_rate=3.0, seed=777)
    return generate(spec, 64)


def toy_ensemble(times, rows, marks=None):
    """A PathEnsemble holding `rows` (one row for a flat list) on `times`."""
    from qvlab.paths import PathEnsemble

    values = np.atleast_2d(np.asarray(rows, dtype=float))
    if marks is None:
        marks = np.zeros(values.shape, dtype=bool)
    return PathEnsemble(times=times, values=values, marks=np.atleast_2d(np.asarray(marks, dtype=bool)))


def rows_of(ens, lo, hi):
    """Rows lo .. hi-1 of an ensemble, as an ensemble of their own."""
    from qvlab.paths import PathEnsemble

    return PathEnsemble(times=ens.times, values=ens.values[lo:hi], marks=ens.marks[lo:hi])


# cadlag lookups on one path, a one-row PathEnsemble: the tests' oracles,
# read off the grid with searchsorted, for what the package computes from
# whole grid columns


def _times(path, t):
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > path.horizon):
        raise ValueError(f"time outside [0, {path.horizon}]")
    return t


def value_at(path, t):
    """X_t = values[i] for t in [t_i, t_{i+1}), at a time or an array of times."""
    (values,) = path.values
    return values[np.searchsorted(path.times, _times(path, t), side="right") - 1]


def left_limit(path, t):
    """X_{t-} = values[i] for t in (t_i, t_{i+1}], with X_{0-} = X_0."""
    (values,) = path.values
    return values[np.maximum(np.searchsorted(path.times, _times(path, t), side="left") - 1, 0)]


def increments(path):
    """X_{t_i} - X_{t_i-} at each grid time, 0 at t_0."""
    (values,) = path.values
    return np.diff(values, prepend=values[0])


def jump_times(path, threshold):
    """Grid times that are marked jumps or have |dX| > threshold."""
    (marks,) = path.marks
    return path.times[marks | (np.abs(increments(path)) > threshold)]
