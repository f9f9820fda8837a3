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
paths at a time.
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

# seed -> "<command> <output file>" -> sha256
DIGESTS = {
    12345: {
        "suite tanaka suite_tanaka.json":
            "68f3145d7f133ce06c9b9ffd2d117e70c0345cc0376ad06432e514effa61434f",
        "suite tanaka suite_tanaka_levels.csv":
            "087dfa26cd89d85dfa15c511ce413ed07af96a4fc8d7438cea126ebbd7c2095b",
        "suite moving_kink suite_moving_kink.json":
            "9434cafb324ab1b4538aced22646cc8ba06f09a74ad68862ed0b04a507be186b",
        "suite moving_kink suite_moving_kink_levels.csv":
            "161d6cd5b46fb2ce0a518647ec818a6cb60bcc00caf3f4e7c402df479ab85372",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "9e452bd465ea629eaa3803fef86b7829be63f58a141e6751c02d50bbdbe5a378",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "50712c860d5e82d517fc11998088de0d8eefd6cc56fc2ca5e0e7c505d36243f6",
        "suite cross_variation suite_cross_variation.json":
            "bb23e39ca0fb4a51f1ea22d83e49cb170c343073766103666d4b74ff1a29847e",
        "suite cross_variation suite_cross_variation_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite zcqv_sum suite_zcqv_sum.json":
            "16e022d5213e130d9950b4e069bc503c14b30482dd76a3a91c53304985dba9e6",
        "suite zcqv_sum suite_zcqv_sum_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite negative_control suite_negative_control.json":
            "7f6c0f26164e7c5cd7d96e673b3fe24e4717eb8b1e5dbb4262728d86d55bb14c",
        "suite negative_control suite_negative_control_levels.csv":
            "fd89fac9c2f2f2e186f542177d968bbbbebae7043ad147711b037b5ef888f79c",
        "decompose levels.csv":
            "087dfa26cd89d85dfa15c511ce413ed07af96a4fc8d7438cea126ebbd7c2095b",
        "decompose verdict.json":
            "68f3145d7f133ce06c9b9ffd2d117e70c0345cc0376ad06432e514effa61434f",
    },
    9091: {
        "suite tanaka suite_tanaka.json":
            "bf6008cee6d69f4ff72c42bff66e3ae4d98b40a37d75f73a8b2e059263b18448",
        "suite tanaka suite_tanaka_levels.csv":
            "e8eb2063ae686ca5980fb3085b12ed52c79f96d9699a4cda17d0ed59678830d7",
        "suite moving_kink suite_moving_kink.json":
            "32879d8b7ebebc92832925c3e1854701df14841a7f77a13fec7af0927cc18907",
        "suite moving_kink suite_moving_kink_levels.csv":
            "aae5736c63cd277d55c6770e851a9dc471122af20a9965a6dcd9482f3cc2d74e",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "83a083eca948cb84dbfc2a0573feed13da4c2e79337223e3c2214eadd757d4e3",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "2f704d12e9e9efb3a1d80664b85e020354534e6cea67026e9ed25ba4b62ceab5",
        "suite cross_variation suite_cross_variation.json":
            "e40dce86df704b742df8f54f27dd5a2a8834fbbb3348dcb942cddcb8d39dc75e",
        "suite cross_variation suite_cross_variation_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite zcqv_sum suite_zcqv_sum.json":
            "82e8920666d18d60bdf07b4067b0e3b70f6709654da25896963da813aeb198db",
        "suite zcqv_sum suite_zcqv_sum_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite negative_control suite_negative_control.json":
            "f740e2609cd88e3813a426e557549f18f8cfb98ac98a42bfc87703eb7d20a761",
        "suite negative_control suite_negative_control_levels.csv":
            "bf0a55c56dd6e021ec515f5ee78129992ebac4efc069af349a11be5e0049f877",
        "decompose levels.csv":
            "e8eb2063ae686ca5980fb3085b12ed52c79f96d9699a4cda17d0ed59678830d7",
        "decompose verdict.json":
            "bf6008cee6d69f4ff72c42bff66e3ae4d98b40a37d75f73a8b2e059263b18448",
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
                "0ec60f8c655de7e11c2577091e8f5206d4c96795a6bfb09acb81d452bc08c265",
            "identity surface.csv":
                "68ee638029ee2dff3eaebffacaf7ef45d0b0c8a697b8a0d73aa0058658ed03db",
            "qv covariation.csv":
                "cdc5b40875968f350f6476356b6cb45601befc3f70fb33e0218bc8289de4f38b",
            "qv summary.json":
                "ecac3f76fa30c7ca9c88e805a54bf9dd538f5854664d23f55bebf1204b003ae1",
        },
        9091: {
            "identity identity.json":
                "6f81752b0e97b43bcee760a3ea41de1a398678b1b2a933f9e12d85a6bfbef177",
            "identity surface.csv":
                "7c0c89126c1c07fbba36cca246fcc86501eca45fe2a2fca59cae797a6017eb42",
            "qv covariation.csv":
                "2931f6b36ac9fd41b4cec21d8ed4036cc41674966cc14de8b66305e5fdba9947",
            "qv summary.json":
                "106e7fd8947d00a38b28dd89b543070daaf63a4ecd7a6c00e4d328a483148b56",
        },
    },
    "jump_diffusion": {
        12345: {
            "identity identity.json":
                "652f1e4844243e9213f07150c2c37fb76fe454daef93617bf9c8f25a944499bf",
            "identity surface.csv":
                "c0be83c6a74ce46c5fc263fd759284ce95a37f8eda0f20d1af04ead3906d7892",
            "qv covariation.csv":
                "7341ea037b4eafa351d4e46856179aba846c4a158a34df611e4ca6a94d2c1eb7",
            "qv summary.json":
                "8bdf2abef6927af30b34ca4c53e8acf9cad759e985053482eb17db403bffb61e",
        },
        9091: {
            "identity identity.json":
                "036da2ecd4c212bca1a27d9b39e3d9883c76cdc467d692f600102ce0a74426df",
            "identity surface.csv":
                "9f8f9771457c29dcd291a5fc6bd0b18ce4f49598b9b91214d46255a97382d13a",
            "qv covariation.csv":
                "ba00f0b1424b7e33d733b67352f00e4bbd383a4397f138f3b7cf2f980ca808a3",
            "qv summary.json":
                "781b2411a1b8635c579c213fc9e84c0fd01887324c87ef1cf1781d7ed3902b19",
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
        for path in out.iterdir():
            got[f"{command} {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PASS_DIGESTS[config][seed]


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
                "12e79713f82fa2de39d25e428cd7e7bb616a8f63d7cf752cecd961dec8aab07e",
            "decompose":
                "43b7db85c23c5401debee460bead9bc1a5f69249d3c6a1bc9c67d42c9fa78596",
            "suite moving_kink_jump":
                "a33f7a27e405fb784f1f3ad60164e27106a9e32db5666f1d439277b80cb7c56c",
        },
        9091: {
            "simulate":
                "57ebf74063c187ee838209b9bae0d5ed7caaf6ac4f6cf881c92ee26e7e99b2cc",
            "decompose":
                "fbe2d83758488b7d8e0d4f19b695ec56e4710cc3de9c0d9f9002d29d5a71b77f",
            "suite moving_kink_jump":
                "8296d0ea0e9e7e86a66587c2e40b4224b0983d68e54f8e27b3c9ff6100867d45",
        },
    },
    "jump_diffusion": {
        12345: {
            "simulate":
                "f5b99f7d1904fe7702dc57d2dfb056134220f1db985c4e1daf3c1fa9964e630d",
            "decompose":
                "700ac8f3348aea8bdf35f1398f03ca0b4d053a07e244dba364ddeac56bc9f89b",
            "suite moving_kink_jump":
                "826756d399ee11c1e15fc0a851ebd71f44d4ba9bf1185830bbbe8f6970fe4aeb",
        },
        9091: {
            "simulate":
                "96ff9c8113e2d3fc5a0724cff6e8b2edfdafdc4ffa271ef4d1220a747321e199",
            "decompose":
                "fb9dfb25b68689ea92dda71b60edb2bc4d5ab7efc42dda27a6cc649d5807be9a",
            "suite moving_kink_jump":
                "750d119de75c30f89f18c16b6de78bd27c6005e89f06e734c867efe6a3cc121e",
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
        got[command] = _outputs_digest(out)
    assert got == EULER_DIGESTS[config][seed]


# the appendix on the default config: trace.csv kept its bytes when the
# kink-mass pairs left appendix.json, which now holds the parts and trace
# checks only
APPENDIX_DIGESTS = {
    "appendix.json": "7f9f73b5a806fc594cd5f78b4229d836eacc20bd4f399c320758924e04de1597",
    "trace.csv": "33354b5177c74ddb91acaef3e777d50a5c387fb5faf27f9514ab1bfd4bcde7c2",
}


def test_appendix_report_keeps_its_bytes(tmp_path):
    out = tmp_path / "appendix"
    assert main(["appendix", "--out", str(out)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert got == APPENDIX_DIGESTS
    report = json.loads((out / "appendix.json").read_text())
    assert sorted(report) == ["config", "experiment", "ibp_pass", "ibp_residuals", "ibp_tolerance", "trace_pass"]


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
        12345: "3247a325026245e09ebdf73ab534bdffe7c5534c7dfd27fb19baaff0e51dec73",
        9091: "ca92d974cae1b13204a061ee9e1d8b48da7d4da58254100f22ace92d88123297",
    },
    "compound_poisson": {
        12345: "1c01236e6ac0624d0212d5547b26c69b98756bd37ba9ebcd88ddaf681cc96409",
        9091: "1a7faf559ef53a31186d79ca3e497be4c43851ed9537c71dda562d56a10da91f",
    },
    "lamperti_dirichlet": {
        12345: "85e56d0af65c8c9823be349552ea7dda1141cd3a8cb2551d24652cfd32ed1120",
        9091: "2f4c530f1de573f28589ef07e7405137ac835dc00cabaabc41b82758151928df",
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
    assert _outputs_digest(out) == SIMULATE_DIGESTS[config][seed]
