import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvlab.paths import PathEnsemble, SamplePath, path_from_csv

from conftest import toy_path


def test_eval_constant_path():
    p = toy_path([0, 1, 2], [3, 3, 3])
    for t in (0.0, 0.3, 1.0, 1.7, 2.0):
        assert p.eval(t) == 3.0


def test_eval_piecewise_constant():
    p = toy_path([0, 1, 2], [0, 5, 7])
    assert p.eval(1.5) == 5.0
    assert p.eval(2.0) == 7.0  # right-continuity at the grid time
    assert p.eval(0.0) == 0.0


def test_eval_left():
    p = toy_path([0, 1, 2], [0, 5, 7])
    assert p.eval_left(1.0) == 0.0
    assert p.eval_left(1.5) == 5.0
    assert p.eval_left(0.0) == p.values[0]  # X_{0-} = X_0


def test_eval_at_grid_equals_values():
    p = toy_path([0, 0.5, 1.25, 2], [1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(p.eval_many(p.times), p.values)


def test_eval_domain_errors():
    p = toy_path([0, 1], [0, 1])
    with pytest.raises(ValueError):
        p.eval(-0.1)
    with pytest.raises(ValueError):
        p.eval(1.1)


def test_eval_left_equals_eval_on_previous_cell():
    rng = np.random.default_rng(0)
    p = toy_path(np.arange(11) / 10.0, rng.standard_normal(11))
    # X_{t-} equals X_s for any s in [previous grid time, t)
    for t in (0.35, 0.5, 0.91):
        prev = p.times[np.searchsorted(p.times, t, side="left") - 1]
        for s in np.linspace(prev, t, 5)[:-1]:
            assert p.eval_left(t) == p.eval(s)


def test_increment_telescoping_exact_on_integer_paths():
    vals = np.asarray([0.0, 5.0, -3.0, 7.0, 2.0])
    p = toy_path(np.arange(5, dtype=float), vals)
    assert p.increments().sum() == vals[-1] - vals[0]


def test_jump_times_threshold_rule():
    marks = [False, True, False, False]
    p = toy_path([0, 1, 2, 3], [0.0, 2.0, 2.5, 2.6], marks)
    assert list(p.jump_times(0.0)) == [1.0, 2.0, 3.0]
    assert list(p.jump_times(0.2)) == [1.0, 2.0]  # unmarked 0.5 increment at t=2
    assert list(p.jump_times(10.0)) == [1.0]  # marked jumps always included


def test_jump_times_empty():
    p = toy_path([0, 1, 2], [0.0, 0.05, 0.1])
    assert p.jump_times(0.2).size == 0


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=30), st.floats(0, 5), st.floats(0, 5))
def test_jump_times_antitone_in_threshold(vals, thr_a, thr_b):
    lo, hi = min(thr_a, thr_b), max(thr_a, thr_b)
    p = toy_path(np.arange(len(vals), dtype=float), np.asarray(vals))
    assert set(p.jump_times(hi)).issubset(set(p.jump_times(lo)))


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        toy_path([0.5, 1], [0, 0])  # must start at 0
    with pytest.raises(ValueError):
        toy_path([0, 1, 1], [0, 0, 0])  # strictly increasing
    with pytest.raises(ValueError):
        SamplePath(times=np.asarray([0.0, 1.0]), values=np.asarray([0.0]), jump_marks=np.asarray([False, False]))
    with pytest.raises(ValueError):
        toy_path([0, 1], [0, np.nan])


def test_csv_round_trip_exact():
    rng = np.random.default_rng(3)
    p = toy_path(np.cumsum(np.concatenate([[0], rng.random(20)])), rng.standard_normal(21),
                 rng.random(21) < 0.3)
    q = path_from_csv(p.to_csv())
    assert np.array_equal(p.times, q.times)
    assert np.array_equal(p.values, q.values)
    assert np.array_equal(p.jump_marks, q.jump_marks)


def test_csv_rebases_times():
    text = "t,x,jump\n5.0,1.0,0\n6.0,2.0,1\n"
    p = path_from_csv(text)
    assert p.times[0] == 0.0 and p.times[-1] == 1.0


def test_csv_parse_errors_name_the_row():
    with pytest.raises(ValueError, match="row 3"):
        path_from_csv("t,x,jump\n0.0,1.0,0\n0.0,2.0,0\n")
    with pytest.raises(ValueError, match="row 2"):
        path_from_csv("t,x,jump\n0.0,nan,0\n")
    with pytest.raises(ValueError, match="header"):
        path_from_csv("a,b,c\n0,0,0\n")


def test_csv_threshold_rederives_marks():
    text = "t,x,jump\n0.0,0.0,1\n1.0,0.05,1\n2.0,2.0,0\n"
    p = path_from_csv(text, jump_threshold=0.5)
    assert list(p.jump_marks) == [False, False, True]


def _ensemble(times, values):
    values = np.asarray(values, dtype=float)
    return PathEnsemble(times=np.asarray(times, dtype=float), values=values, marks=np.zeros(values.shape, bool))


@pytest.mark.parametrize(
    "times, values, message",
    [
        ([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]], "values must be finite"),
        ([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [0.0, 1.0, np.inf]], "values must be finite"),
        ([0.5, 1.0, 2.0], [[0.0, 1.0, 2.0]], "times must start at 0"),
        ([0.0, 1.0, 1.0], [[0.0, 1.0, 2.0]], "times must be strictly increasing"),
        ([0.0, 2.0, 1.0], [[0.0, 1.0, 2.0]], "times must be strictly increasing"),
    ],
)
def test_ensemble_rejects_what_a_row_path_rejects(times, values, message):
    with pytest.raises(ValueError, match=message):
        _ensemble(times, values)
    with pytest.raises(ValueError, match=message):
        for row in np.asarray(values, dtype=float):
            SamplePath(times=np.asarray(times, dtype=float), values=row, jump_marks=np.zeros(row.size, bool))


def test_ensemble_builds_row_views_on_demand():
    ens = _ensemble([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [0.0, -1.0, 3.0], [0.0, 0.5, 0.5]])
    assert len(ens) == 3
    assert "paths" not in vars(ens)
    rows = list(ens)
    assert "paths" in vars(ens)
    assert all(ens[i] is p for i, p in enumerate(rows))
    assert all(a is b for a, b in zip(ens, rows, strict=True))
    assert all(np.shares_memory(p.values, ens.values) for p in rows)
    assert [p.values.tolist() for p in rows] == ens.values.tolist()
