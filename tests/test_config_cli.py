import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvlab import generators
from qvlab.cli import main
from qvlab.config import ExperimentConfig, apply_overrides, load_config
from qvlab.errors import ConfigurationError
from qvlab.functions import builtin_library
from qvlab.generators import GeneratorSpec, generate


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qvlab.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_config_round_trip():
    cfg = ExperimentConfig(experiment="qv", n_paths=7, generator={"kind": "brownian", "n_steps": 64})
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


def test_load_config_json_and_yaml(tmp_path):
    d = {"experiment": "qv", "n_paths": 5, "generator": {"kind": "brownian", "n_steps": 32}}
    pj = tmp_path / "c.json"
    pj.write_text(json.dumps(d))
    assert load_config(str(pj)).n_paths == 5
    py = tmp_path / "c.yaml"
    py.write_text("experiment: qv\nn_paths: 6\ngenerator:\n  kind: brownian\n  n_steps: 32\n")
    assert load_config(str(py)).n_paths == 6
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(str(tmp_path / "missing.json"))


def test_flag_precedence_over_file(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"n_paths": 5, "seed": 1}))
    cfg = load_config(str(cfg_file))
    cfg = apply_overrides(cfg, n_paths=9, seed=None)
    assert cfg.n_paths == 9 and cfg.seed == 1


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


def _small_gen_config(tmp_path, **extra):
    d = {"generator": {"kind": "brownian", "n_steps": 64}, "n_paths": 2}
    d.update(extra)
    p = tmp_path / "small.json"
    p.write_text(json.dumps(d))
    return str(p)


def test_simulate_and_ingest_round_trip(tmp_path):
    cfg = _small_gen_config(tmp_path)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
    src = out / "path_00000.csv"
    ing = tmp_path / "ing"
    rc = main(["ingest", str(src), "--config", cfg, "--out", str(ing)])
    assert rc == 0
    assert (ing / "ingested.csv").read_text() == src.read_text()
    stats = json.loads((ing / "ingest.json").read_text())
    assert stats["n_points"] == 65 and stats["n_jumps"] == 0


def test_ingest_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x,jump\n0.0,1.0,0\n0.0,2.0,0\n")
    out = tmp_path / "out"
    rc = main(["ingest", str(bad), "--out", str(out)])
    assert rc == 2 and not out.exists()


def test_output_write_failure_exits_2_without_traceback(tmp_path):
    cfg = _small_gen_config(tmp_path, l_min=3, l_max=6)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    r = run_cli(["qv", "--config", cfg, "--paths", "2", "--out", str(taken)])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert taken.read_text() == "not a directory\n"


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
    cfg = _small_gen_config(tmp_path, experiment="qv", l_min=3, l_max=6)
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
    realized = np.mean([np.sum(np.diff(p.values) ** 2) for p in ens])
    assert abs(payload["mean_final_v"] - realized) <= 1e-12


@pytest.mark.parametrize("name", sorted(builtin_library()))
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


def test_identity_generates_each_path_once(tmp_path, monkeypatch):
    rows = []
    real = generators.generate

    def counting(spec, n_paths, start=0):
        rows.append(n_paths)
        return real(spec, n_paths, start)

    monkeypatch.setattr(generators, "generate", counting)
    out = tmp_path / "once"
    assert main(["identity", "--config", _identity_config(tmp_path), "--out", str(out)]) == 0
    assert sum(rows) == 130


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
