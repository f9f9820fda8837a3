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


def toy_path(times, values, marks=None):
    from qvlab.paths import SamplePath

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if marks is None:
        marks = np.zeros(times.size, dtype=bool)
    return SamplePath(times=times, values=values, jump_marks=np.asarray(marks, dtype=bool))


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
