import numpy as np
import pytest
from hypothesis import given, strategies as st

from qvlab.calculus import cell_sums, jump_grid
from qvlab.config import ExperimentConfig
from qvlab.decomposition import _block, _common_columns, decompose_block, suites
from qvlab.functions import make_function
from qvlab.generators import generate
from qvlab.partitions import RefinementLadder

from conftest import toy_ensemble

GRID = np.arange(1025) / 1024.0


def level_of(times, level):
    return RefinementLadder(times, level, level).levels[0]


def index_set(level, s, t):
    """The paper's included cell indices k (1-based) for the exclusion times
    s, sorted: s goes into the S mask by the suites' column rule."""
    cols = np.flatnonzero(_common_columns(GRID, s))
    keep = level.cut_times[1:] < t
    keep[level.cells(np.zeros(cols.size, dtype=np.intp), cols)[1]] = False
    return np.flatnonzero(keep) + 1


def test_dyadic_examples():
    p = level_of(np.arange(5) / 4.0, 0)
    assert list(p.cut_times) == [0.0, 1.0] and p.mesh == 1.0
    p = level_of(np.arange(5) / 4.0, 2)
    assert list(p.cut_times) == [0.0, 0.25, 0.5, 0.75, 1.0] and p.mesh == 0.25
    p = level_of(np.arange(3) * 1.0, 1)
    assert list(p.cut_times) == [0.0, 1.0, 2.0] and p.mesh == 1.0


def test_dyadic_mesh_halves_exactly():
    ladder = RefinementLadder(GRID, 0, 10)
    for a, b in zip(ladder.meshes, ladder.meshes[1:]):
        assert a == 2.0 * b


def test_dyadic_on_grid_alignment():
    times = np.arange(17) / 16.0
    p = level_of(times, 2)
    assert np.array_equal(p.cut_times, times[::4])
    assert p.cut == slice(0, 17, 4) and p.idx.tolist() == [0, 4, 8, 12, 16]
    assert np.shares_memory(p.cut_times, times)
    with pytest.raises(ValueError, match="grid with 10 steps is not divisible into 2\\^2 cells"):
        RefinementLadder(np.arange(11) / 10.0, 2, 2)


def test_index_set_examples():
    p = level_of(GRID, 2)
    assert set(index_set(p, [], 1.0)) == {1, 2, 3}
    assert set(index_set(p, [0.5], 1.0)) == {1, 3}
    assert set(index_set(p, [0.2, 0.4, 0.6, 0.9], 1.0)) == set()


def test_index_set_no_exclusions_is_all_k_before_t():
    p = level_of(GRID, 3)
    assert set(index_set(p, [], 0.7)) == {1, 2, 3, 4, 5}


def test_excluded_cells_contain_an_exclusion_time():
    p = level_of(GRID, 3)
    s = np.asarray([0.3, 0.625, 0.99])
    included = set(index_set(p, s, 1.0))
    cuts = p.cut_times
    for k in range(1, p.n_cells + 1):
        if cuts[k] < 1.0 and k not in included:
            assert np.any((s > cuts[k - 1]) & (s <= cuts[k]))


@given(st.sets(st.floats(0.01, 0.99), max_size=6), st.sets(st.floats(0.01, 0.99), max_size=6))
def test_index_set_antitone_in_s(a, b):
    p = level_of(GRID, 4)
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
    ladder = RefinementLadder(GRID, 3, 7)
    meshes = ladder.meshes
    assert all(a > b for a, b in zip(meshes, meshes[1:]))
    assert [lev.level for lev in ladder] == [3, 4, 5, 6, 7]
    with pytest.raises(ValueError, match="l_min must be <= l_max"):
        RefinementLadder(GRID, 3, 2)


def _excluded_by_time(cut_times, n, s_rows, s_times):
    """Time-based oracle of the S-to-cell rule: the time s of row r's S
    excludes cell k (1-based) of row r when tau_{k-1} < s <= tau_k."""
    out = np.zeros((n, cut_times.size - 1), dtype=bool)
    k = np.searchsorted(cut_times, s_times, side="left")
    hit = (k >= 1) & (k <= cut_times.size - 1)
    out[s_rows[hit], k[hit] - 1] = True
    return out


def test_s_mask_cells_match_the_time_rule_on_every_level():
    # the suites' S for moving_kink(k_jump=0.3): each path's marked jumps
    # and the common times, which are f's time jump 0.3 (off the 1024-step
    # grid, and given twice), the grid's first and last times, a time past
    # the grid, and row 0's first jump time (so it is in row 0's S twice)
    cfg = ExperimentConfig(generator={"kind": "jump_diffusion", "n_steps": 1024, "jump_rate": 20.0}, seed=5,
                           l_min=0, l_max=10)
    spec = cfg.generator_spec()
    ens = generate(spec, 6)
    times, n = ens.times, len(ens)
    fexpr = "moving_kink(k_jump=0.3)"
    first_jump = times[np.flatnonzero(ens.marks[0])[0]]
    extra = np.asarray([0.3, 0.0, times[-1], 1.5, first_jump])
    common = np.concatenate([make_function(fexpr).time_jumps, extra])
    assert 0.3 not in times and 1.5 > times[-1]
    cols = _common_columns(times, common)
    assert cols[0] and cols[-1] and cols.sum() == 4
    rows, grid = np.nonzero(ens.marks | cols)
    mark_rows, mark_grid = np.nonzero(ens.marks)
    s_rows = np.concatenate([mark_rows, np.repeat(np.arange(n), common.size)])
    s_times = np.concatenate([times[mark_grid], np.tile(common, n)])
    ladder = RefinementLadder(times, 0, 10)
    suite = suites(cfg)["moving_kink"]._replace(specs=(spec,), function=fexpr, extra_s=tuple(extra))
    stats = _block(0, n, suite, cfg)[0]
    v, _ = decompose_block(make_function(fexpr), ens)
    for i, lev in enumerate(ladder):
        want = _excluded_by_time(lev.cut_times, n, s_rows, s_times)
        got = np.zeros_like(want)
        got[lev.cells(rows, grid)] = True
        assert np.array_equal(got, want), lev.level
        keep = ~want & (lev.cut_times[1:] < times[-1])
        assert stats[:, i].tobytes() == cell_sums(v[:, lev.cut], v[:, lev.cut], keep).tobytes(), lev.level
