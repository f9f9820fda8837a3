"""Suite, decompose, identity, qv, appendix and simulate outputs pinned byte for byte.

The digests are the sha256 of every output file at small configs
(1024 steps, levels 4-10, 130 paths: blocks of 64, 64 and 2 rows, one
pool task each).  The suite and decompose digests were recorded
from the per-path implementation before the suites ran on blocks of paths,
the identity and qv digests from the path-by-path identity pass and numpy's
median.  They hold at any worker count.  The exit codes are pinned with
them: the ratio gate fails on tanaka, decompose and both moving-kink suites
at this size (an open item), and the three other suites pass.  The Euler
digests (simulate, decompose and the jump suite on constant-coefficient
euler_sde and jump_diffusion configs) were recorded from the step-loop
generator, before constant coefficients took the running sums.  The
entries whose bytes changed when the partition sums moved from a Kahan loop
to the faithfully rounded row sums (the tanaka, moving-kink and decompose
reports, negative_control at seed 9091, qv on jump-diffusion paths and the
Euler decompose and suite reports) were recorded again from that kernel.
The identity reports were recorded again when the pass telescoped the box's
LHS double sum into one hinge row per path: only the Brownian identity.json
at seed 9091 changed, its stderr by 2 ulps.  They were recorded again when
the surface sums moved to faithfully rounded prefix sums over each time's
sorted values: every surface.csv changed, and in identity.json only the
fields read from the surface (surface_convexity_defect at all four, and
kink_identity.rhs by 1 ulp on the Brownian config at seed 12345).  The
jump-diffusion qv covariation.csv entries were recorded again when qv's
jump sums became plain running sums, the rule of its stopped sums: the
jump_sum column moved by at most 2.1e-16 relative and continuous_part by
at most 1.4e-15 absolute; full_sum, zcqv_stat and every summary.json kept
their bytes.  Every simulate digest, the Euler ones too, kept its bytes when
simulate went from one block of all its paths to one block of block_rows
paths at a time.  Every JSON file, and so every Euler and simulate digest,
was recorded again when the reports dropped the keys that nothing read
(median_kink_qv_mass, exploratory_no_exclusion_median and the config's
experiment): each report equals the earlier one without them, and no CSV
changed.  The qv digests at a finite jump_threshold and levels 4-8 were
recorded before qv's jump sums moved into the ladder sweep's slab loop.
REPORT_KEYS pins each report's keys.
"""

import hashlib
import json

import pytest

from qvlab.cli import main

CONFIG = {"generator": {"kind": "brownian", "n_steps": 1024}, "n_paths": 130, "l_min": 4, "l_max": 10}

COMMANDS = {
    "suite tanaka": 1,
    "suite moving_kink": 1,
    "suite moving_kink_jump": 1,
    "suite cross_variation": 0,
    "suite zcqv_sum": 0,
    "suite negative_control": 0,
    "decompose": 1,
}

# each JSON report's top-level keys, by file name, and the config keys that
# every report echoes: a key enters a report only with its entry here
SUITE_KEYS = ("config", "expected_pass", "experiment", "function", "generator", "ok", "verdict")
DECOMPOSED_KEYS = (*SUITE_KEYS, "mean_final_v")
REPORT_KEYS = {
    "suite_tanaka.json": DECOMPOSED_KEYS,
    "suite_moving_kink.json": DECOMPOSED_KEYS,
    "suite_moving_kink_jump.json": DECOMPOSED_KEYS,
    "verdict.json": DECOMPOSED_KEYS,
    "suite_cross_variation.json": SUITE_KEYS,
    "suite_zcqv_sum.json": SUITE_KEYS,
    "suite_negative_control.json": (*SUITE_KEYS, "note"),
    "identity.json": ("config", "experiment", "generator", "identity", "kink_identity", "monotonicity",
                      "surface_convexity_defect"),
    "summary.json": ("config", "exceedance_fraction", "experiment", "final_t_median_full", "generator", "levels",
                     "meshes", "n_paths", "ucp_eps"),
    "appendix.json": ("config", "experiment", "ibp_pass", "ibp_residuals", "ibp_tolerance", "trace_pass"),
    "manifest.json": ("config", "generator", "horizon", "n_paths", "n_steps", "seed"),
}
CONFIG_KEYS = ("formats", "function", "generator", "jump_threshold", "l_max", "l_min", "n_paths", "n_t", "n_x",
               "pass_fraction", "seed", "sigma_mult", "theta", "ucp_eps")


def _assert_keys(out):
    """Each JSON report in out holds its REPORT_KEYS entry and CONFIG_KEYS."""
    for path in out.glob("*.json"):
        report = json.loads(path.read_text())
        assert sorted(report) == sorted(REPORT_KEYS[path.name]), path.name
        assert sorted(report["config"]) == sorted(CONFIG_KEYS), path.name


# seed -> "<command> <output file>" -> sha256
DIGESTS = {
    12345: {
        "suite tanaka suite_tanaka.json":
            "b9593d944e1fcd1cd5d7512495d662a81082c9e1dbf2441859cd952b18215b52",
        "suite tanaka suite_tanaka_levels.csv":
            "087dfa26cd89d85dfa15c511ce413ed07af96a4fc8d7438cea126ebbd7c2095b",
        "suite moving_kink suite_moving_kink.json":
            "5d08752e5cde83b5ebe3083d3fbba5a015ab6e122b582b2139e05cdcd0acddf3",
        "suite moving_kink suite_moving_kink_levels.csv":
            "161d6cd5b46fb2ce0a518647ec818a6cb60bcc00caf3f4e7c402df479ab85372",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "0dce40b287ecad3663a9464fce0a15cfda6618e9e063190f8c86a4f259ff65db",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "50712c860d5e82d517fc11998088de0d8eefd6cc56fc2ca5e0e7c505d36243f6",
        "suite cross_variation suite_cross_variation.json":
            "1337531919db79a7a7f82478afb355d46f0a7f7eabe953b5a6ac9bceaa43cd3e",
        "suite cross_variation suite_cross_variation_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite zcqv_sum suite_zcqv_sum.json":
            "ae139710d91f238661222f60466ba9c64b3dbbe68b324c991a1899ea7903f9e6",
        "suite zcqv_sum suite_zcqv_sum_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite negative_control suite_negative_control.json":
            "37f76f240ecf0efee68501613ddc872255f396f5c545d81c4c5ca88799e4fe57",
        "suite negative_control suite_negative_control_levels.csv":
            "fd89fac9c2f2f2e186f542177d968bbbbebae7043ad147711b037b5ef888f79c",
        "decompose levels.csv":
            "087dfa26cd89d85dfa15c511ce413ed07af96a4fc8d7438cea126ebbd7c2095b",
        "decompose verdict.json":
            "b9593d944e1fcd1cd5d7512495d662a81082c9e1dbf2441859cd952b18215b52",
    },
    9091: {
        "suite tanaka suite_tanaka.json":
            "db1c7b220622eb5af0cdaacc7c3ffac5f7b382c7d95ba742187dbd0dc6564d6f",
        "suite tanaka suite_tanaka_levels.csv":
            "e8eb2063ae686ca5980fb3085b12ed52c79f96d9699a4cda17d0ed59678830d7",
        "suite moving_kink suite_moving_kink.json":
            "9101ecc1f2955c37f6c42c397dd97f860fc9be47458d94862873f0a68ad09393",
        "suite moving_kink suite_moving_kink_levels.csv":
            "aae5736c63cd277d55c6770e851a9dc471122af20a9965a6dcd9482f3cc2d74e",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "6d76513ee114ad3a1046f52f4ca453409075b88f4c4f395d2aabdb7f7052b3dc",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "2f704d12e9e9efb3a1d80664b85e020354534e6cea67026e9ed25ba4b62ceab5",
        "suite cross_variation suite_cross_variation.json":
            "6b3a4adc5dc3a544cc4f6b135a05fa367ec3561df65e312909bd047a84d6b423",
        "suite cross_variation suite_cross_variation_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite zcqv_sum suite_zcqv_sum.json":
            "7004e22a59e003f2805025f4e1e59e95c859c7b21bdf2fa30cc2a51fdaaaa5e8",
        "suite zcqv_sum suite_zcqv_sum_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite negative_control suite_negative_control.json":
            "478c4abcdbdefe8f01c7ae43b9536e140263fb5bbd4da700caea3c3797d03792",
        "suite negative_control suite_negative_control_levels.csv":
            "bf0a55c56dd6e021ec515f5ee78129992ebac4efc069af349a11be5e0049f877",
        "decompose levels.csv":
            "e8eb2063ae686ca5980fb3085b12ed52c79f96d9699a4cda17d0ed59678830d7",
        "decompose verdict.json":
            "db1c7b220622eb5af0cdaacc7c3ffac5f7b382c7d95ba742187dbd0dc6564d6f",
    },
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_suite_and_decompose_reports_keep_their_bytes(tmp_path, seed, workers):
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps(CONFIG))
    got = {}
    for command, rc in COMMANDS.items():
        out = tmp_path / command.replace(" ", "_")
        args = [*command.split(), "--config", str(cfg), "--seed", str(seed), "--workers", workers]
        assert main([*args, "--out", str(out)]) == rc, command
        _assert_keys(out)
        for path in out.iterdir():
            got[f"{command} {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == DIGESTS[seed]



# identity and qv on a Brownian config and on a jump-diffusion config with
# drift, jumps, the abs kink and a box inside the horizon and the x-range,
# so the drift, jump and kink terms are nonzero
PASS_CONFIGS = {
    "brownian": CONFIG,
    "jump_diffusion": {
        "generator": {"kind": "jump_diffusion", "n_steps": 1024, "jump_rate": 4.0, "b": "const(-0.25)"},
        "n_paths": 130, "l_min": 4, "l_max": 10, "function": "abs",
        "theta": "box(0.25, 0.75, -0.5, 1.0)",
    },
}

# config -> seed -> "<command> <output file>" -> sha256
PASS_DIGESTS = {
    "brownian": {
        12345: {
            "identity identity.json":
                "f9fbac87c96e146d62cd8b018608dfa0f72948e5d6d13da7047996586873b19b",
            "identity surface.csv":
                "68ee638029ee2dff3eaebffacaf7ef45d0b0c8a697b8a0d73aa0058658ed03db",
            "qv covariation.csv":
                "cdc5b40875968f350f6476356b6cb45601befc3f70fb33e0218bc8289de4f38b",
            "qv summary.json":
                "5acbba79806addb8904bc9e68eb82340fe3f374a1b415e2570ce4f47a5330b5a",
        },
        9091: {
            "identity identity.json":
                "59af2c40a8aad75d60a5a54eef7ccb3e9c8f9edbe05f53618da639b056a7ba84",
            "identity surface.csv":
                "7c0c89126c1c07fbba36cca246fcc86501eca45fe2a2fca59cae797a6017eb42",
            "qv covariation.csv":
                "2931f6b36ac9fd41b4cec21d8ed4036cc41674966cc14de8b66305e5fdba9947",
            "qv summary.json":
                "91a4c7bcb0d7fc9bd1453c22bd7a2de5320a741dc429d3e42c2a4c9334a1c114",
        },
    },
    "jump_diffusion": {
        12345: {
            "identity identity.json":
                "7c34899158ec7fa14e75376d202b60a702dc017843a73e33d98860a16280d75a",
            "identity surface.csv":
                "c0be83c6a74ce46c5fc263fd759284ce95a37f8eda0f20d1af04ead3906d7892",
            "qv covariation.csv":
                "7341ea037b4eafa351d4e46856179aba846c4a158a34df611e4ca6a94d2c1eb7",
            "qv summary.json":
                "b0203e594b73bd7f5d7f86aa23758b3b4e10eb5d545817b3f6f74c904b2b9aac",
        },
        9091: {
            "identity identity.json":
                "07baf0113fcc58d7600417d7e97a5faa942ffea55e3d4e70dacd0dbc6a12c75b",
            "identity surface.csv":
                "9f8f9771457c29dcd291a5fc6bd0b18ce4f49598b9b91214d46255a97382d13a",
            "qv covariation.csv":
                "ba00f0b1424b7e33d733b67352f00e4bbd383a4397f138f3b7cf2f980ca808a3",
            "qv summary.json":
                "5a0093abd47e7edb33b31df5d514e285877076d3468d540ff5b8f5d3e0df11d9",
        },
    },
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", [12345, 9091])
@pytest.mark.parametrize("config", sorted(PASS_CONFIGS))
def test_identity_and_qv_reports_keep_their_bytes(tmp_path, config, seed, workers):
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps(PASS_CONFIGS[config]))
    got = {}
    for command in ("identity", "qv"):
        out = tmp_path / command
        args = [command, "--config", str(cfg), "--seed", str(seed), "--workers", workers]
        assert main([*args, "--out", str(out)]) == 0, command
        _assert_keys(out)
        for path in out.iterdir():
            got[f"{command} {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PASS_DIGESTS[config][seed]


# qv with S not empty and levels that stop short of the grid: at threshold
# 0.05 about one Brownian increment in nine on the 1024-step grid is in S,
# and level 8 is coarser than the grid's level 10
QV_CONFIG = {**CONFIG, "l_max": 8, "jump_threshold": 0.05}

# seed -> output file -> sha256
QV_DIGESTS = {
    12345: {
        "covariation.csv": "a820f804b1c086287d86f89b512b3a3c7f68745b3c79b74c6eaeadfa367e7db1",
        "summary.json": "58c993d6d52bd939020996c387cf0c36b223f1c90feafd22bb2e41d35bf80872",
    },
    9091: {
        "covariation.csv": "2e7b719c4e38b0939b9feb2e019aab362352676271a4853fa4b98d89c3ff4254",
        "summary.json": "3d7e2b1ad69cb6426c2b371aa8102e6659cac0d8f10e7a0fa61e6f8c00e7dc2e",
    },
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(QV_DIGESTS))
def test_qv_with_a_jump_threshold_keeps_its_bytes(tmp_path, seed, workers):
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps(QV_CONFIG))
    out = tmp_path / "qv"
    assert main(["qv", "--config", str(cfg), "--seed", str(seed), "--workers", workers, "--out", str(out)]) == 0
    _assert_keys(out)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert got == QV_DIGESTS[seed]


# simulate, decompose and the jump suite on Euler paths with constant
# coefficients: 1000 steps is not a multiple of any power of two above 8, so
# the ladder runs levels 1-3.  Every command, simulate too, builds the 130
# rows as blocks of 64, 64 and 2
EULER_CONFIGS = {
    kind: {
        "generator": {"kind": kind, "n_steps": 1000, "sigma": "const(0.7)", "b": "const(-1.3)", "x0": 0.25,
                      **({"jump_rate": 4.0} if kind == "jump_diffusion" else {})},
        "n_paths": 130, "l_min": 1, "l_max": 3,
    }
    for kind in ("euler_sde", "jump_diffusion")
}

EULER_COMMANDS = {"simulate": 0, "decompose": 1, "suite moving_kink_jump": 1}

# config -> seed -> command -> sha256 over the command's output files, each
# file's name and bytes in name order
EULER_DIGESTS = {
    "euler_sde": {
        12345: {
            "simulate":
                "aefb10817b506fd854fc6d70029b705962bdc6e230c5fb5c91ef8dd089196967",
            "decompose":
                "376dc1172fde03968691cd4eb4173d4705f9db35e9c9f01f3e0ee29a547aa0b7",
            "suite moving_kink_jump":
                "32a49adedf56a7079a53aba23ab54982c062b540785fb3aa698b038c5c43263e",
        },
        9091: {
            "simulate":
                "f7dabbfc0326eabb51709c32e2e16a66464201c57b984697f2240e64e6d6cf44",
            "decompose":
                "4ceefa6ea46bc98f4b2c3c68f18024b251357b795f6c40d3f7bc4221827f3e94",
            "suite moving_kink_jump":
                "d06b3b3b975159cdf678640e4f853f87132fe9f24e881e59c3d16a3e058f0476",
        },
    },
    "jump_diffusion": {
        12345: {
            "simulate":
                "d5505f383c1a8df52a37c42ced12652d4ae1a708656568e9c9f7d0c2d3a08c0d",
            "decompose":
                "5e5a550203719c2e71e2c7adee3a4281035dafe7e7e5cb69b4c2e6e95a6e9bd3",
            "suite moving_kink_jump":
                "06fe30943182ce99db478b8e282241d3bcb724de1e5886ff6770d1270387ef6c",
        },
        9091: {
            "simulate":
                "caa2ee5217838fc740894fc5e72aa61a0edeaa9405e0540b48fe70d7424b8e9d",
            "decompose":
                "bdd2b419fb2284599a7ab077f80cd1b83474b8d3605c4c40d5b4f099521eceff",
            "suite moving_kink_jump":
                "3a5db3c94888b9cc5f0a2be99dc4eea1e13440d46e65c730758d3221e0df08e7",
        },
    },
}


def _outputs_digest(out):
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", [12345, 9091])
@pytest.mark.parametrize("config", sorted(EULER_CONFIGS))
def test_euler_reports_keep_their_bytes(tmp_path, config, seed, workers):
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps(EULER_CONFIGS[config]))
    got = {}
    for command, rc in EULER_COMMANDS.items():
        out = tmp_path / command.replace(" ", "_")
        args = [*command.split(), "--config", str(cfg), "--seed", str(seed), "--workers", workers]
        assert main([*args, "--out", str(out)]) == rc, command
        _assert_keys(out)
        got[command] = _outputs_digest(out)
    assert got == EULER_DIGESTS[config][seed]


# the appendix on the default config: trace.csv kept its bytes when the
# kink-mass pairs left appendix.json, which now holds the parts and trace
# checks only
APPENDIX_DIGESTS = {
    "appendix.json": "a8376321bd75a4c46284bb98a5e544789da933c804a27afc6718721dce558dae",
    "trace.csv": "33354b5177c74ddb91acaef3e777d50a5c387fb5faf27f9514ab1bfd4bcde7c2",
}


def test_appendix_report_keeps_its_bytes(tmp_path):
    out = tmp_path / "appendix"
    assert main(["appendix", "--out", str(out)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert got == APPENDIX_DIGESTS
    _assert_keys(out)


# simulate on the three kinds without an Euler step, 130 paths at 256 steps
# (blocks of 64, 64 and 2 rows); recorded before one path became a one-row
# PathEnsemble, when simulate built all 130 rows as one block
SIMULATE_CONFIGS = {
    "brownian": {"generator": {"kind": "brownian", "n_steps": 256, "x0": 0.25}, "n_paths": 130},
    "compound_poisson": {"generator": {"kind": "compound_poisson", "n_steps": 256, "jump_rate": 4.0, "x0": 0.25},
                         "n_paths": 130},
    "lamperti_dirichlet": {"generator": {"kind": "lamperti_dirichlet", "n_steps": 256, "alpha": 0.5},
                           "n_paths": 130},
}

# config -> seed -> sha256 over simulate's output files, as _outputs_digest
SIMULATE_DIGESTS = {
    "brownian": {
        12345: "1ce5a2500340d8178de401d7070817b513b4d2ce2197aaf61493df3650e1bc6d",
        9091: "d1d386b03e6486f7e2f7e063d9f6df04bc2723ac3eeebc444e40bb165167914a",
    },
    "compound_poisson": {
        12345: "dbaf6ffb15789f14a8cd6861b2ad047168c0d34265f64e70cc9e715a5225b063",
        9091: "d71e43a192a80d1477d11c6766b5d3ed9b9472aa004f8701d131eebf0f7cf8b8",
    },
    "lamperti_dirichlet": {
        12345: "5caa194c79e1051a7dda8c95ba33f641ffe5f28e9d75d7a9b650b4dccd972893",
        9091: "10e4da9e505e293af0d16bd43b4ffb9c4b136a7aeafc86bb07aa357624836026",
    },
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", [12345, 9091])
@pytest.mark.parametrize("config", sorted(SIMULATE_CONFIGS))
def test_simulate_files_keep_their_bytes(tmp_path, config, seed, workers):
    cfg = tmp_path / "pinned.json"
    cfg.write_text(json.dumps(SIMULATE_CONFIGS[config]))
    out = tmp_path / "simulate"
    args = ["simulate", "--config", str(cfg), "--seed", str(seed), "--workers", workers]
    assert main([*args, "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 131
    _assert_keys(out)
    assert _outputs_digest(out) == SIMULATE_DIGESTS[config][seed]
