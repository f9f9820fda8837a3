"""Suite and decompose reports pinned byte for byte.

The digests are the sha256 of every output file at a small config
(1024 steps, levels 4-10, 130 paths: blocks of 64, 64 and 2 rows), recorded
from the per-path implementation before the suites ran on blocks of paths.
They hold at any worker count.  The exit codes are pinned with them: the
ratio gate fails on tanaka, decompose and both moving-kink suites at this
size (an open item), and the three other suites pass.
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
            "1a01a446e37bdd0e16832d6e8626e0287682bcb96c4633e6d09d881fc761906e",
        "suite tanaka suite_tanaka_levels.csv":
            "caafea37f98deeac64d3fd6a287cf3bffc7f713a94d2028762919beda2b6e364",
        "suite moving_kink suite_moving_kink.json":
            "b3b4a2141665fbda788315d51c6e1c53deda228c48f87446f3c457da789fdb99",
        "suite moving_kink suite_moving_kink_levels.csv":
            "98bf7ea5294fd7806ad294d7dc18263d11a6495d229202dd9e76f33ac1a465f6",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "2c01b6f2cbfce42c75abc06b233657f76dc32ad2c94669af16c02f1bc2c946c3",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "c633aec82231a19b4f3e42e529080fbee53dff7c25a4522b3284e7ee3802ede3",
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
            "caafea37f98deeac64d3fd6a287cf3bffc7f713a94d2028762919beda2b6e364",
        "decompose verdict.json":
            "1a01a446e37bdd0e16832d6e8626e0287682bcb96c4633e6d09d881fc761906e",
    },
    9091: {
        "suite tanaka suite_tanaka.json":
            "389799f554cc8fca0ddc87baa983daf29e1d7fe22bc23d80255285691617f77b",
        "suite tanaka suite_tanaka_levels.csv":
            "cc85fa5530a7eed8a40f4ea1beca13a54fe31748d8d64a40d0caf268d0f7d400",
        "suite moving_kink suite_moving_kink.json":
            "a0de7073c51fa0cf132d6dba0850e4551ff5f64ba13e4c688a6ab7950e0887d9",
        "suite moving_kink suite_moving_kink_levels.csv":
            "5de35177711a550462b3c6513d1e73c602afda271a5e50dfff8ab33ad6f134d0",
        "suite moving_kink_jump suite_moving_kink_jump.json":
            "66539d2674766afef663e700d01d4e1e31d3fdc7aceadb6dd3c98e43fa26daab",
        "suite moving_kink_jump suite_moving_kink_jump_levels.csv":
            "b58b2d270c12bfb89326476539211af076b18597153c81fa8e254dca1805c63d",
        "suite cross_variation suite_cross_variation.json":
            "e40dce86df704b742df8f54f27dd5a2a8834fbbb3348dcb942cddcb8d39dc75e",
        "suite cross_variation suite_cross_variation_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite zcqv_sum suite_zcqv_sum.json":
            "82e8920666d18d60bdf07b4067b0e3b70f6709654da25896963da813aeb198db",
        "suite zcqv_sum suite_zcqv_sum_levels.csv":
            "98652f21d275cd08641612f58b794ab4a7b6ccbd105292526fe8fb2e79d1f6fe",
        "suite negative_control suite_negative_control.json":
            "ff08b60a7fee4de17222ab7dd8571f33c3933a28e69a7addb92987f2fb5ba3a3",
        "suite negative_control suite_negative_control_levels.csv":
            "36749f1b80aac430dbf9b63c8db911f03fd37d2260b29e5aa4c8e02321474151",
        "decompose levels.csv":
            "cc85fa5530a7eed8a40f4ea1beca13a54fe31748d8d64a40d0caf268d0f7d400",
        "decompose verdict.json":
            "389799f554cc8fca0ddc87baa983daf29e1d7fe22bc23d80255285691617f77b",
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

