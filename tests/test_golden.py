"""Golden trajectory: the sha256 of every CSV of three short fixed-seed runs.

``configs/train.conf`` runs all six algorithms for 10 rounds,
``configs/mask_vs_weight.conf`` runs 12 harness steps and
``configs/sweep.conf`` runs ``gossip_mask`` for 6 rounds on each of its
four graphs. A change meant to
preserve behaviour leaves every digest as it is; a change that alters the
outputs on purpose updates them and says why.

The digests were taken with numpy 2.4.6 on x86_64. Another numpy build may
round some reductions differently, and then these digests differ while the
algorithms are unchanged.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from gossipmask.cli import parse_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TRAIN = {
    "metrics_gossip_mask.csv":
        "841287fdf3cc69b745be2c02ad03f512a1d6c9791c631938f4ce1718b32521c7",
    "metrics_ind_mask.csv":
        "25ea60eb65cd4eb9b6b3d074952cf7201b42c4295899b82f38c7743379a22aef",
    "metrics_ind_weipru.csv":
        "122b10964898987f99db5b97e21fb865862b75e11493069071daf5781b0882aa",
    "metrics_avr_weipru.csv":
        "e6eda546cd09a4b0ca62cfa688d0f77db8d65f5636ff7aa41ab99323fdf62b8a",
    "metrics_par_weipru.csv":
        "b16ebe4c6acbac89d2e0873b51375d463a11de33667941b6eea7c435f6b6a140",
    "metrics_dsgd.csv":
        "3aab45b0dc0bd796361abfcc8f958f1d78239cad7f37db9f5cc7b89c1d32c01b",
    "sparsity_ind_mask.csv":
        "282567cc836a7a68a3ea3a1f5eb4b7d9fa8977d4d2cdd286696e12c9fbe0b9b9",
    "sparsity_dsgd.csv":
        "e9ca53d33b33500576e7cad05b87511533f94dbdfdc8b1945d8a18b63073831c",
    # these four runs end with the same per-agent, per-layer mask counts
    **{f"sparsity_{alg}.csv":
           "7355c983c9090fd8600ddca35278980231127399af1e2addf1a1715a25d6157e"
       for alg in ("gossip_mask", "ind_weipru", "avr_weipru", "par_weipru")},
}
MASK_VS_WEIGHT = {
    "mask_vs_weight.csv":
        "e9880b7a67b36bbc835f2f5b712eface8b0524f61cd6d0797973fa0bc9c1edca",
}

# taken while sweep.conf ran an experiment of its own, before it became a
# topology list of train: its files keep their names and bytes
SWEEP = {
    "metrics_p0.3.csv":
        "f196883282084204b95fc2d5419a48c0eff396fecbd0322298461b4d7a90291e",
    "metrics_p0.5.csv":
        "ad6b4d8d58e29f0ef2b240d8a3387e783db751daf5ac4939fa2d555414d9eac0",
    "metrics_p0.7.csv":
        "c1db4fbb0e125999e2cf49c0702d3bffb5e58233a6f0114ec294ebcba711d52b",
    "metrics_ring.csv":
        "207720839fd6e2f5a37cbf03ac2200e34c69b067f29fd31dbb88237eb39a3abe",
    "sparsity_p0.3.csv":
        "1eafd8cfbdd857c1d8f35d432e8546277eded49867933a32b0691fd4a4087eef",
    "sparsity_p0.5.csv":
        "d28b05c57c8109e12b70431ddeff0701720b76ef074ade1ca19e4dbf715d2515",
    "sparsity_p0.7.csv":
        "7355c983c9090fd8600ddca35278980231127399af1e2addf1a1715a25d6157e",
    "sparsity_ring.csv":
        "aa518072332639d8cc8fa1eb1290af55a56ebd7908fb19726fd885a09caeb4e5",
}


def _csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def test_golden_trajectory(tmp_path):
    train = parse_config((CONFIGS / "train.conf").read_text())
    train = replace(train, algorithm=("gossip_mask", "ind_mask", "ind_weipru",
                                      "avr_weipru", "par_weipru", "dsgd"),
                    rounds=10, out=str(tmp_path / "train"))
    assert run_experiment(train, quiet=True) == 0
    assert _csv_digests(tmp_path / "train") == TRAIN

    harness = parse_config((CONFIGS / "mask_vs_weight.conf").read_text())
    harness = replace(harness, mask_vs_weight_steps=12,
                      out=str(tmp_path / "mask_vs_weight"))
    assert run_experiment(harness, quiet=True) == 0
    assert _csv_digests(tmp_path / "mask_vs_weight") == MASK_VS_WEIGHT


def test_golden_topology_sweep(tmp_path):
    sweep = parse_config((CONFIGS / "sweep.conf").read_text())
    sweep = replace(sweep, rounds=6, out=str(tmp_path))
    assert run_experiment(sweep, quiet=True) == 0
    assert _csv_digests(tmp_path) == SWEEP
