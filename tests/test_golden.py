"""Golden digests: refactors must leave the run and stream artifacts byte-identical.

The sha256 digests below were recorded from the code before the whole-batch
stream refactor. They pin floating-point results of this numpy/OpenBLAS
build: another BLAS, numpy version or CPU kernel may round matrix products
differently and change the digests without any change to owtt. Re-record
them only for a change that is meant to alter results, and say so.
"""
import hashlib
import json

import pytest

from owtt.cli import main
from owtt.experiment import apply_axis_value, experiment_from_dict, run_experiment

# Default world and run configuration, 8 batches.
WORLD = {"n_batches": 8}

RUN_DIGESTS = {
    "full": {
        "predictions.csv": "d2ff1104b05faa25c8d6e765ae8b184cda56d0d61fe89f5432cb7953a94f6608",
        "trace.csv": "641b5d0adb18a8fa9a2c5bca3e68833a4c44d25210b40e907eb2ed702dbad923",
        "summary.json": "7455e9c36b9e8f5b1d14b239baca62cdd17190d62b900e649c3ac33c122a4367",
    },
    "none": {
        "predictions.csv": "512ac824fc729d707cfa9606fb899edef28f700f4a2983b18bbdbf855ae0dc90",
        "trace.csv": "2dabbd8a98247d742cf3f1fb2fac11eda5ffc6e5b99c6b053befb5c1d7fb32a2",
        "summary.json": "989198a2c2356b7205f9eeafa15aa84eb4561fb196c6f54546da6d203b46a4c7",
    },
}

# Wider adapters and the pool-reading paths, recorded before the objective
# layer fused each loss with its gradient: the benchmark's `wide-saturated`
# world and config at 4 batches, and its `pool-readers` config (discrete
# scores, novel-prototype momentum) on the default world at 8 batches.
CONFIG_DIGESTS = {
    "wide-saturated": (
        {"d_in": 128, "signal_dims": 64, "k_s": 10, "k_t": 10, "batch_size": 512,
         "n_batches": 4},
        {"feature_dim": 64, "batch_size": 512},
        {
            "predictions.csv": "e6dcca37681c90be4f00ca2222da0ee56c251eaefa12e1f249c1e346083ed5a6",
            "trace.csv": "7f51d284f9f528d93a57f7d2051194b738ad9685a232812389eddadb591afe6f",
            "summary.json": "c39f538984aace49236fb13aaeb337d140e9abf2f9e48dc3ffc7a7940cc3b57c",
        },
    ),
    "pool-readers": (
        WORLD,
        {"discrete_mode": True, "novel_momentum": 0.1},
        {
            "predictions.csv": "de18e4e9f65f12905c328119650977ed0ab8ebb708812a408717837b0fff61b2",
            "trace.csv": "b565d13c04e717ff0cc4c18e8907a349b48a7143db21029325dec8d7807dbcf3",
            "summary.json": "da867c981cc5ae89c4e0c01d2b59cd3cdae69c0a9b0fbb67029885fa7963e968",
        },
    ),
    # Both non-adaptive threshold variants on the default world at 8 batches,
    # recorded before the threshold policy moved into one engine function: a
    # fixed threshold (the pool ends at 67) and a clamped adaptive split (the
    # pool fills to its capacity of 100 and evicts).
    "fixed-threshold": (
        WORLD,
        {"fixed_threshold": 0.3},
        {
            "predictions.csv": "c1a62b4c350784e9087668798274e860c9115a99628f5db224d9aba40d594572",
            "trace.csv": "3fe4c7886e9033e2fa566240c273499f31f2a7678820880188e9e21295d6d854",
            "summary.json": "39173f593c007027c1e72a02bef110d9ea0faf1a192e4f70bd694df17336b432",
        },
    ),
    "threshold-clamp": (
        WORLD,
        {"threshold_clamp": [0.2, 0.8]},
        {
            "predictions.csv": "289f630f3e4f2d8f77d781eea74b9c24fc59308c42fd4a5ff1ddf862cf5af2f8",
            "trace.csv": "0a7569c98a4f1c0a78dbcd0e86d98eb10ba2eb79a6ba314af97f41a15be8257b",
            "summary.json": "043802b6a93ded892f0ee5945979725163d6abbfea517d97e1bf7d03979ef4a0",
        },
    ),
}

STREAM_DIGEST = "5851119b6d335534bc0fb0b1b87143f44f4a60579593d9f9dc083dca9c1b8bd4"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("ablation", sorted(RUN_DIGESTS))
def test_run_artifacts_match_golden_digests(tmp_path, monkeypatch, ablation):
    monkeypatch.delenv("OWTT_SEED", raising=False)
    exp = experiment_from_dict({"world": WORLD, "output_dir": str(tmp_path)})
    run_experiment(apply_axis_value(exp, "ablation", ablation))
    digests = {name: sha256(tmp_path / name) for name in RUN_DIGESTS[ablation]}
    assert digests == RUN_DIGESTS[ablation]


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_config_artifacts_match_golden_digests(tmp_path, monkeypatch, name):
    monkeypatch.delenv("OWTT_SEED", raising=False)
    world, run, expected = CONFIG_DIGESTS[name]
    run_experiment(experiment_from_dict({"world": world, "run": run, "output_dir": str(tmp_path)}))
    assert {f: sha256(tmp_path / f) for f in expected} == expected


def test_stream_file_matches_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OWTT_SEED", raising=False)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"world": WORLD, "output_dir": "out"}))
    assert main(["stream", str(path), "--out", str(tmp_path / "stream.owtt")]) == 0
    assert sha256(tmp_path / "stream.owtt") == STREAM_DIGEST
