import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvlab.paths import PathEnsemble

from conftest import increments, jump_times, left_limit, toy_ensemble, value_at


def test_eval_constant_path():
    p = toy_ensemble([0, 1, 2], [3, 3, 3])
    for t in (0.0, 0.3, 1.0, 1.7, 2.0):
        assert value_at(p, t) == 3.0


def test_eval_piecewise_constant():
    p = toy_ensemble([0, 1, 2], [0, 5, 7])
    assert value_at(p, 1.5) == 5.0
    assert value_at(p, 2.0) == 7.0  # right-continuity at the grid time
    assert value_at(p, 0.0) == 0.0


def test_eval_left():
    p = toy_ensemble([0, 1, 2], [0, 5, 7])
    assert left_limit(p, 1.0) == 0.0
    assert left_limit(p, 1.5) == 5.0
    assert left_limit(p, 0.0) == p.values[0, 0]  # X_{0-} = X_0


def test_eval_at_grid_equals_values():
    p = toy_ensemble([0, 0.5, 1.25, 2], [1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(value_at(p, p.times), p.values[0])


def test_eval_domain_errors():
    p = toy_ensemble([0, 1], [0, 1])
    with pytest.raises(ValueError):
        value_at(p, -0.1)
    with pytest.raises(ValueError):
        value_at(p, 1.1)


def test_eval_left_equals_eval_on_previous_cell():
    rng = np.random.default_rng(0)
    p = toy_ensemble(np.arange(11) / 10.0, rng.standard_normal(11))
    # X_{t-} equals X_s for any s in [previous grid time, t)
    for t in (0.35, 0.5, 0.91):
        prev = p.times[np.searchsorted(p.times, t, side="left") - 1]
        for s in np.linspace(prev, t, 5)[:-1]:
            assert left_limit(p, t) == value_at(p, s)


def test_increment_telescoping_exact_on_integer_paths():
    vals = np.asarray([0.0, 5.0, -3.0, 7.0, 2.0])
    p = toy_ensemble(np.arange(5, dtype=float), vals)
    assert increments(p).sum() == vals[-1] - vals[0]


def test_jump_times_threshold_rule():
    marks = [False, True, False, False]
    p = toy_ensemble([0, 1, 2, 3], [0.0, 2.0, 2.5, 2.6], marks)
    assert list(jump_times(p, 0.0)) == [1.0, 2.0, 3.0]
    assert list(jump_times(p, 0.2)) == [1.0, 2.0]  # unmarked 0.5 increment at t=2
    assert list(jump_times(p, 10.0)) == [1.0]  # marked jumps always included


def test_jump_times_empty():
    p = toy_ensemble([0, 1, 2], [0.0, 0.05, 0.1])
    assert jump_times(p, 0.2).size == 0


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30), st.floats(0, 5), st.floats(0, 5))
def test_jump_times_antitone_in_threshold(vals, thr_a, thr_b):
    lo, hi = min(thr_a, thr_b), max(thr_a, thr_b)
    p = toy_ensemble(np.arange(len(vals), dtype=float), np.asarray(vals))
    assert set(jump_times(p, hi)).issubset(set(jump_times(p, lo)))


def test_csv_round_trip_exact():
    rng = np.random.default_rng(3)
    p = toy_ensemble(np.cumsum(np.concatenate([[0], rng.random(20)])), rng.standard_normal(21),
                     rng.random(21) < 0.3)
    (text,) = p.csv_rows()
    header, *lines = text.splitlines()
    assert header == "t,x,jump"
    t, x, jump = zip(*(line.split(",") for line in lines))
    assert np.array_equal(p.times, [float(v) for v in t])
    assert np.array_equal(p.values[0], [float(v) for v in x])
    assert np.array_equal(p.marks[0], [v == "1" for v in jump])
    assert set(jump) <= {"0", "1"}


def test_row_csv_writes_each_row():
    ens = toy_ensemble([0.0, 0.5, 1.0], [[0.0, -0.0, 1e-300], [0.1, 2.0, -3.5]], [[0, 1, 0], [1, 0, 1]])
    assert list(ens.csv_rows()) == [
        "t,x,jump\n0.0,0.0,0\n0.5,-0.0,1\n1.0,1e-300,0\n",
        "t,x,jump\n0.0,0.1,1\n0.5,2.0,0\n1.0,-3.5,1\n",
    ]


@pytest.mark.parametrize(
    "times, values, message",
    [
        ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0], "values must be finite"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, np.inf], "values must be finite"),
        ([0.5, 1.0, 2.0], [0.0, 1.0, 2.0], "times must start at 0"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "times must be strictly increasing"),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "times must be strictly increasing"),
        ([0.0, 1.0], [0.0], "values and marks must be"),
        ([], [], "times must be a nonempty 1-d array"),
    ],
)
def test_ensemble_rejects_what_a_row_path_rejects(times, values, message):
    # each input is one path, a one-row ensemble
    with pytest.raises(ValueError, match=message):
        PathEnsemble(times=times, values=[values], marks=np.zeros((1, len(values)), bool))
