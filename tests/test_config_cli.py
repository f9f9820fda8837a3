import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvlab import call_surface, decomposition, generators
from qvlab.cli import main
from qvlab.config import ExperimentConfig, apply_overrides, load_config
from qvlab.errors import ConfigurationError
from qvlab.functions import _REGISTRY
from qvlab.generators import Box, GeneratorSpec, generate, make_path


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qvlab.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_config_round_trip():
    cfg = ExperimentConfig(function="square", n_paths=7, generator={"kind": "brownian", "n_steps": 64})
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n_paths": 3, "wat": 1})


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(l_min=8, l_max=4).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(generator={"kind": "nope"}).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(formats=("xml",)).validate()


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("qv", {"seed": "abc"}, "seed"),
        ("suite tanaka", {"seed": True}, "seed"),
        ("simulate", {"n_paths": 2.0}, "n_paths"),
        ("decompose", {"workers": None}, "workers"),
        ("identity", {"pass_fraction": "x"}, "pass_fraction"),
        ("simulate", {"generator": {"n_steps": "64"}}, "n_steps"),
        ("simulate", {"generator": {"horizon": None}}, "horizon"),
        ("qv", {"generator": "brownian"}, "generator"),
        ("identity", {"n_t": 0}, "n_t"),
        ("identity", {"n_x": 0}, "n_x"),
        ("identity", {"function": 5}, "function"),
        ("qv", {"formats": "csv"}, "formats"),
        ("qv", {"formats": ["csv", "xml"]}, "formats"),
        ("qv", {"l_min": -2, "l_max": 3}, "l_min"),
        # bad numbers that would otherwise read as a verdict or an empty report
        ("identity", {"sigma_mult": -1.0}, "sigma_mult"),
        ("identity", {"sigma_mult": float("nan")}, "sigma_mult"),
        ("qv", {"ucp_eps": float("nan")}, "ucp_eps"),
        ("qv", {"ucp_eps": -1.0}, "ucp_eps"),
        ("qv", {"jump_threshold": float("nan")}, "jump_threshold"),
        ("suite negative_control", {"jump_threshold": -1.0}, "jump_threshold"),
        ("qv", {"jump_threshold": -1.0}, "jump_threshold"),
        ("qv", {"jump_threshold": float("-inf")}, "jump_threshold"),
        ("simulate", {"generator": {"kind": "lamperti_dirichlet", "x_grid_points": 1}}, "x_grid_points"),
        # malformed boxes, refused before any path is generated
        ("identity", {"theta": "box(0.0, 1.0, -1.0, 1.0, 2.0)"}, "theta"),
        ("identity", {"theta": "box(0.0, 1.0, -1.0, 1.0, depth=2.0)"}, "theta"),
        ("identity", {"theta": "box(0.0, 1.0, -1.0, inf)"}, "theta"),
        ("identity", {"theta": "box(1.0, 0.0, -1.0, 1.0)"}, "theta"),
        ("identity", {"theta": "box(0.0, 1.0, 1.0, -1.0)"}, "theta"),
        # non-finite generator reals, refused before a numpy call sees them
        ("simulate", {"generator": {"x0": float("nan")}}, "x0"),
        ("simulate", {"generator": {"horizon": float("inf")}}, "horizon"),
        ("simulate", {"generator": {"kind": "compound_poisson", "jump_rate": float("nan")}}, "jump_rate"),
        # non-finite coefficient parameters, refused naming the field and the
        # expression rather than a path
        ("simulate", {"generator": {"kind": "euler_sde", "sigma": "const(nan)"}}, "sigma: bad coefficient 'const(nan)'"),
        ("simulate", {"generator": {"kind": "euler_sde", "sigma": "linear(inf, 1)"}},
         "sigma: bad coefficient 'linear(inf, 1)'"),
        ("simulate", {"generator": {"kind": "jump_diffusion", "b": "const(c=-inf)"}}, "b: bad coefficient 'const(c=-inf)'"),
        ("simulate", {"generator": {"kind": "lamperti_dirichlet", "sigma_of_x": "abs_shift(0.5, nan)"}},
         "sigma_of_x: bad coefficient 'abs_shift(0.5, nan)'"),
    ],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_a_generator_seed_exits_2_naming_the_top_level_seed_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"generator": {"seed": 1}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: generator.seed is not a config field: set the seed with the top-level seed key\n"
    assert not out.exists()


def test_configs_do_not_share_a_generator_mapping():
    a, b = ExperimentConfig(), ExperimentConfig()
    a.generator["kind"] = "compound_poisson"
    assert b.generator == {} and ExperimentConfig().generator == {}


@pytest.mark.parametrize(
    "record",
    [
        GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=2.0, seed=3),
        ExperimentConfig(generator={"kind": "jump_diffusion", "jump_rate": 2.0}, seed=9, function="relu", n_paths=7),
        ExperimentConfig(),
        Box(0.0, 0.5, -1.0, 2.0),
    ],
    ids=["GeneratorSpec", "ExperimentConfig", "default_ExperimentConfig", "Box"],
)
def test_worker_records_survive_pickling(record):
    # what a --workers 2 pool sends each block task.  A config holds a dict,
    # so it compares by equality only; the default config's dict is the
    # fresh {} that ExperimentConfig puts in place of its default
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    if isinstance(record, ExperimentConfig):
        assert copy == record
    else:
        assert copy == record and hash(copy) == hash(record)


def test_equal_specs_hash_equal():
    a = GeneratorSpec(kind="brownian", n_steps=64, seed=1)
    b = GeneratorSpec(kind="brownian", n_steps=64, seed=1)
    assert a == b and hash(a) == hash(b) and len({a, b, a._replace(seed=2)}) == 2


def test_load_config_json_and_yaml(tmp_path):
    d = {"n_paths": 5, "generator": {"kind": "brownian", "n_steps": 32}}
    pj = tmp_path / "c.json"
    pj.write_text(json.dumps(d))
    assert load_config(str(pj)).n_paths == 5
    py = tmp_path / "c.yaml"
    py.write_text("n_paths: 6\ngenerator:\n  kind: brownian\n  n_steps: 32\n")
    assert load_config(str(py)).n_paths == 6
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(str(tmp_path / "missing.json"))


def test_flag_precedence_over_file(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"n_paths": 5, "seed": 1}))
    cfg = load_config(str(cfg_file))
    cfg = apply_overrides(cfg, n_paths=9, seed=None)
    assert cfg.n_paths == 9 and cfg.seed == 1


def test_config_keys_of_mixed_types_exit_2_naming_them(tmp_path, capsys):
    cfg = tmp_path / "mixed.yaml"
    cfg.write_text("1: 2\nwat: 3\n")
    out = tmp_path / "out"
    assert main(["qv", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['wat', 1]\n"
    assert not out.exists()


def test_an_experiment_key_exits_2_naming_it(tmp_path, capsys):
    # the command names the experiment, so the config holds no field for it
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps({"experiment": "tanaka", "n_paths": 2}))
    out = tmp_path / "out"
    assert main(["qv", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['experiment']\n"
    assert not out.exists()


def test_malformed_config_no_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = tmp_path / "out"
    rc = main(["qv", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".yaml", ".yml"])
def test_malformed_yaml_config_no_outputs(tmp_path, capsys, suffix):
    bad = tmp_path / f"bad{suffix}"
    bad.write_text("n_paths: [4\ngenerator: {kind: brownian\n")
    out = tmp_path / "out"
    rc = main(["qv", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert "malformed config" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_name_nonzero_exit(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generator": {"kind": "mystery"}}))
    out = tmp_path / "out"
    rc = main(["qv", "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("kind", ["euler_sde", "jump_diffusion"])
@pytest.mark.parametrize("field, expr", [("sigma", "const(foo=1)"), ("b", "const(1.0, 2.0)"), ("b", "const(abc)")])
def test_malformed_coefficient_exits_2_naming_it(tmp_path, capsys, kind, field, expr):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generator": {"kind": kind, "n_steps": 64, field: expr}, "n_paths": 2}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(expr) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["compound_poisson", "jump_diffusion"])
@pytest.mark.parametrize("expr", ["normal(mu=5.0, sd=0.1)", "const(1, 2)", "normal(0, inf)", "uniform(nan, 1)", 3])
def test_malformed_jump_law_exits_2_naming_it(tmp_path, capsys, kind, expr):
    cfg = tmp_path / "c.json"
    gen = {"kind": kind, "n_steps": 64, "jump_rate": 2.0, "jump_law": expr}
    cfg.write_text(json.dumps({"generator": gen, "n_paths": 2}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "jump_law" in err and repr(expr) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["decompose", "identity"])
@pytest.mark.parametrize("expr", ["abs(3)", "relu(q=1)", "relu(k=nan)"])
def test_bad_function_expression_exits_2_naming_it(tmp_path, capsys, command, expr):
    # the first two escaped main as a TypeError (exit 1); relu(k=nan) ran and
    # blamed a path for its non-finite V
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generator": {"kind": "brownian", "n_steps": 64}, "n_paths": 4,
                               "l_min": 2, "l_max": 6, "n_t": 16, "n_x": 8, "function": expr}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad function {expr!r}") and "Traceback" not in err
    assert not out.exists()


def _small_gen_config(tmp_path, **extra):
    d = {"generator": {"kind": "brownian", "n_steps": 64}, "n_paths": 2}
    d.update(extra)
    p = tmp_path / "small.json"
    p.write_text(json.dumps(d))
    return str(p)


def test_simulate_writes_each_path_as_make_path_replays_it(tmp_path):
    cfg = _small_gen_config(tmp_path, generator={"kind": "jump_diffusion", "n_steps": 64, "jump_rate": 3.0},
                            n_paths=70)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=3.0, seed=9)
    for i in (0, 63, 64, 69):
        assert (out / f"path_{i:05d}.csv").read_text() == next(make_path(spec, i).csv_rows()), i


def test_output_write_failure_exits_2_without_traceback(tmp_path):
    cfg = _small_gen_config(tmp_path, l_min=3, l_max=6)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    r = run_cli(["qv", "--config", cfg, "--paths", "2", "--out", str(taken)])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, config, taken",
    [
        # qv writes covariation.csv, then summary.json
        ("qv", {"l_min": 3, "l_max": 6}, "summary.json"),
        # simulate writes blocks of 64, 64 and 2 paths at 256 steps; path 100
        # falls in the second block, after the first block's files are written
        ("simulate", {"generator": {"kind": "brownian", "n_steps": 256}, "n_paths": 130}, "path_00100.csv"),
    ],
    ids=["qv", "simulate"],
)
def test_a_failed_write_unlinks_the_files_the_run_wrote(tmp_path, capsys, command, config, taken):
    # a directory holds the name of a file the run writes: the run exits 2
    # and leaves none of its own files behind
    cfg = _small_gen_config(tmp_path, **config)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    (out / "other.txt").write_text("kept\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == sorted(["other.txt", taken])
    assert (out / "other.txt").read_text() == "kept\n"


def test_a_simulate_block_that_fails_leaves_no_output_directory(tmp_path):
    # the first block's Euler step overflows once the drift pushes x past
    # 1.7e308.  The writer has made --out by then, so it removes it again.
    # A subprocess, because the overflow warnings would fail a pytest run
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"generator": {"kind": "euler_sde", "n_steps": 64, "x0": 1.7e308,
                                             "b": "step(1e308, 1e308, 0.0)"}, "n_paths": 130}))
    out = tmp_path / "out"
    r = run_cli(["simulate", "--config", str(cfg), "--seed", "7", "--workers", "1", "--out", str(out)])
    assert r.returncode == 2, r.stderr
    assert "error: non-finite coefficient at (seed=7, path=0, " in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_unknown_suite_is_an_invalid_choice():
    r = run_cli(["suite", "nosuch"])
    assert r.returncode == 2
    assert "invalid choice: 'nosuch'" in r.stderr


def test_env_output_override(tmp_path):
    cfg = _small_gen_config(tmp_path)
    env_out = tmp_path / "env_out"
    r = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "ignored")],
                env_extra={"QVLAB_OUT": str(env_out)})
    assert r.returncode == 0
    assert env_out.exists()
    assert not (tmp_path / "ignored").exists()


def test_format_filter(tmp_path):
    cfg = _small_gen_config(tmp_path, l_min=3, l_max=6)
    out = tmp_path / "jsononly"
    rc = main(["qv", "--config", cfg, "--out", str(out), "--format", "json"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"summary.json"}


def test_suite_expected_fail_exits_zero(tmp_path):
    cfg = _small_gen_config(tmp_path, generator={"kind": "brownian", "n_steps": 1024},
                            n_paths=30, l_min=4, l_max=10)
    out = tmp_path / "neg"
    rc = main(["suite", "negative_control", "--config", cfg, "--out", str(out)])
    assert rc == 0  # the suite asserts the failure
    payload = json.loads((out / "suite_negative_control.json").read_text())
    assert payload["verdict"]["pass"] is False and payload["ok"] is True


def test_suite_zcqv_sum_passes(tmp_path):
    cfg = _small_gen_config(tmp_path, generator={"kind": "brownian", "n_steps": 1024},
                            n_paths=20, l_min=4, l_max=8)
    out = tmp_path / "sum"
    rc = main(["suite", "zcqv_sum", "--config", cfg, "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "suite_zcqv_sum.json").read_text())
    assert payload["verdict"]["pass"] is True


def test_replay_determinism_same_config(tmp_path):
    cfg = _small_gen_config(tmp_path, generator={"kind": "compound_poisson", "n_steps": 512,
                                                 "jump_rate": 3.0},
                            n_paths=25, l_min=4, l_max=8)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["suite", "cross_variation", "--config", cfg, "--out", str(out)])
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_decompose_square_final_v_is_realized_qv(tmp_path):
    # on the grid partition V_1 = X_1^2 - sum 2 X_{k-1} dX = sum (dX)^2 from x0 = 0
    cfg = _small_gen_config(tmp_path, generator={"kind": "brownian", "n_steps": 1024},
                            function="square", n_paths=8, l_min=4, l_max=10)
    out = tmp_path / "sq"
    main(["decompose", "--config", cfg, "--seed", "77", "--out", str(out)])
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["experiment"] == "tanaka" and payload["function"] == "square"
    ens = generate(GeneratorSpec(kind="brownian", n_steps=1024, seed=77), 8)
    realized = np.mean(np.sum(np.diff(ens.values, axis=1) ** 2, axis=1))
    assert abs(payload["mean_final_v"] - realized) <= 1e-12


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_decompose_reports_the_function_it_ran(tmp_path, name):
    cfg = _small_gen_config(tmp_path, generator={"kind": "brownian", "n_steps": 64},
                            function=name, n_paths=2, l_min=2, l_max=6)
    out = tmp_path / name
    assert main(["decompose", "--config", cfg, "--out", str(out)]) in (0, 1)
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["function"] == name
    assert payload["experiment"] == "tanaka"



def test_decompose_runs_the_configured_generator(tmp_path):
    payloads = {}
    for kind in ("brownian", "jump_diffusion"):
        cfg = _small_gen_config(tmp_path, generator={"kind": kind, "n_steps": 256, "jump_rate": 3.0},
                                n_paths=4, l_min=2, l_max=6)
        out = tmp_path / kind
        assert main(["decompose", "--config", cfg, "--out", str(out)]) in (0, 1)
        payloads[kind] = json.loads((out / "verdict.json").read_text())
        assert payloads[kind]["generator"] == kind
        assert payloads[kind]["config"]["generator"]["kind"] == kind
    # same seed, different paths: the jumps reach V
    assert payloads["brownian"]["mean_final_v"] != payloads["jump_diffusion"]["mean_final_v"]


def _identity_config(tmp_path):
    return _small_gen_config(tmp_path, n_paths=130, n_t=32, n_x=16, function="abs")


def test_identity_cli_same_bytes_at_any_worker_count(tmp_path):
    cfg = _identity_config(tmp_path)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["identity", "--config", cfg, "--workers", workers, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outs[0]) == ["identity.json", "surface.csv"]
    assert outs[0] == outs[1]
    report = json.loads(outs[0]["identity.json"])
    assert report["identity"]["n_paths"] == 130 and not report["kink_identity"]["skipped"]


# each command's module and the ensembles it generates; qv and simulate
# import generate from generators when they run
ONCE = [
    pytest.param(["simulate"], generators, 1, id="simulate"),
    pytest.param(["identity"], call_surface, 1, id="identity"),
    pytest.param(["qv"], generators, 1, id="qv"),
    pytest.param(["decompose"], decomposition, 1, id="decompose"),
    pytest.param(["suite", "cross_variation"], decomposition, 2, id="suite cross_variation"),
]


@pytest.mark.parametrize("argv, module, ensembles", ONCE)
def test_each_command_generates_each_path_once(tmp_path, monkeypatch, argv, module, ensembles):
    # at 2048 steps a block holds 63 rows: 130 paths are blocks of 63, 63
    # and 4, one generate call each
    cfg = _small_gen_config(tmp_path, generator={"kind": "brownian", "n_steps": 2048}, n_paths=130,
                            n_t=32, n_x=16, function="abs", l_min=4, l_max=10)
    rows = []
    real = module.generate

    def counting(spec, n_paths, start=0):
        rows.append(n_paths)
        return real(spec, n_paths, start)

    monkeypatch.setattr(module, "generate", counting)
    # the ratio gate may fail at this size (exit 1); 2 would be an error
    assert main([*argv, "--config", cfg, "--workers", "1", "--out", str(tmp_path / "once")]) in (0, 1)
    assert sum(rows) == 130 * ensembles
    assert len(rows) == 3 * ensembles == -(-130 // generators.block_rows(2048)) * ensembles


def test_kink_identity_counts_every_t_cell_before_the_first_step(tmp_path):
    # with 64 path steps under a 256-cell t-grid, the path holds x0 = 0 (on
    # the kink of abs) for the first four t-cells; each one fires on every path
    cfg = _small_gen_config(tmp_path, n_paths=200, function="abs")
    out = tmp_path / "fine_t"
    assert main(["identity", "--config", cfg, "--out", str(out)]) == 0
    kink = json.loads((out / "identity.json").read_text())["kink_identity"]
    assert kink["lhs"] == 4.0 / 256.0
    assert kink["lhs"] <= kink["lhs_budget"]


def test_decompose_names_the_path_behind_a_non_finite_v(tmp_path, capsys):
    # f = x^2 overflows at x0 = 1e160: the error names the path to replay
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"generator": {"kind": "brownian", "n_steps": 256, "x0": 1e160},
                               "n_paths": 4, "function": "square", "l_min": 2, "l_max": 8}))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["decompose", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "o")]) == 2
    assert "non-finite V at (seed=5, path=0)" in capsys.readouterr().err
