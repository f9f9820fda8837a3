import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvlab.calculus import jump_grid
from qvlab.partitions import (
    Partition,
    RefinementLadder,
    dyadic_partition,
    dyadic_partition_on_grid,
    inclusion_rows,
)

from conftest import toy_ensemble


def index_set(partition, s, t):
    """The paper's included cell indices k (1-based) for the exclusion times s, sorted."""
    s = np.asarray(s, dtype=float)
    return np.flatnonzero(inclusion_rows(partition, t, 1, np.zeros(s.size, dtype=np.intp), s)[0]) + 1


def test_dyadic_examples():
    p = dyadic_partition(1.0, 0)
    assert list(p.cut_times) == [0.0, 1.0] and p.mesh == 1.0
    p = dyadic_partition(1.0, 2)
    assert list(p.cut_times) == [0.0, 0.25, 0.5, 0.75, 1.0] and p.mesh == 0.25
    p = dyadic_partition(2.0, 1)
    assert list(p.cut_times) == [0.0, 1.0, 2.0] and p.mesh == 1.0


def test_dyadic_mesh_halves_exactly():
    for level in range(0, 10):
        a = dyadic_partition(1.0, level).mesh
        b = dyadic_partition(1.0, level + 1).mesh
        assert a == 2.0 * b


def test_dyadic_on_grid_alignment():
    times = np.arange(17) / 16.0
    p = dyadic_partition_on_grid(times, 2)
    assert np.array_equal(p.cut_times, times[::4])
    with pytest.raises(ValueError):
        dyadic_partition_on_grid(np.arange(11) / 10.0, 2)


def test_index_set_examples():
    p = dyadic_partition(1.0, 2)
    assert set(index_set(p, [], 1.0)) == {1, 2, 3}
    assert set(index_set(p, [0.5], 1.0)) == {1, 3}
    assert set(index_set(p, [0.2, 0.4, 0.6, 0.9], 1.0)) == set()


def test_index_set_no_exclusions_is_all_k_before_t():
    p = dyadic_partition(1.0, 3)
    assert set(index_set(p, [], 0.7)) == {1, 2, 3, 4, 5}


def test_excluded_cells_contain_an_exclusion_time():
    p = dyadic_partition(1.0, 3)
    s = np.asarray([0.3, 0.625, 0.99])
    included = set(index_set(p, s, 1.0))
    cuts = p.cut_times
    for k in range(1, p.n_cells + 1):
        if cuts[k] < 1.0 and k not in included:
            assert np.any((s > cuts[k - 1]) & (s <= cuts[k]))


@given(st.sets(st.floats(0.01, 0.99), max_size=6), st.sets(st.floats(0.01, 0.99), max_size=6))
def test_index_set_antitone_in_s(a, b):
    p = dyadic_partition(1.0, 4)
    small = sorted(a)
    big = sorted(a | b)
    assert set(index_set(p, big, 1.0)).issubset(set(index_set(p, small, 1.0)))


def test_exclusion_set_from_jumps_union():
    # S of a path pair is the union of both paths' jump times
    p1 = toy_ensemble([0.0, 1.0, 2.0], [0, 1, 1], [False, True, False])
    p2 = toy_ensemble([0.0, 1.0, 2.0], [0, 0, 2], [False, False, True])
    sel = jump_grid(p1, np.inf) | jump_grid(p2, np.inf)
    assert list(p1.times[sel[0]]) == [1.0, 2.0]


def test_ladder_meshes_strictly_decreasing():
    ladder = RefinementLadder.dyadic(1.0, 3, 7)
    meshes = ladder.meshes
    assert all(a > b for a, b in zip(meshes, meshes[1:]))
    with pytest.raises(ValueError):
        RefinementLadder(levels=(dyadic_partition(1.0, 3), dyadic_partition(1.0, 3)))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(cut_times=np.asarray([0.5, 1.0]))
    with pytest.raises(ValueError):
        Partition(cut_times=np.asarray([0.0, 0.5, 0.2]))
