"""Golden digests: refactors must leave the run and stream artifacts byte-identical.

The sha256 digests below were recorded from the code before the whole-batch
stream refactor. They pin floating-point results of this numpy/OpenBLAS
build: another BLAS, numpy version or CPU kernel may round matrix products
differently and change the digests without any change to owtt. Re-record
them only for a change that is meant to alter results, and say so. The run
and config digests were last re-recorded when ``config_hash`` came to hash
only the fields that differ from their defaults; that moved each file's
provenance line or ``config_hash`` value and nothing else. The five
``summary.json`` digests were last re-recorded when the world's rotation came
to be built as one closed-form product instead of a product of plane
rotations: the matrix moved by at most about 1e-14 per entry, which left the
float32 stream file, every prediction and every trace row unchanged and moved
only the last digits of the float64 score means and score gap in
``summary.json``. The ``full`` and ``pool-readers`` ``summary.json`` digests
were re-recorded again when the rotation's nuisance partners came to have
their signal rows zeroed after the QR (it had leaked rounding into them):
that moved the last digit of the weak score mean and the score gap only.
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
        "predictions.csv": "75c7edba8429d75a367c35496a6874188e1f7d82b1d4cec5a3eb4104053fb880",
        "trace.csv": "ef3071aa6473a3e5c6873bed3c5d7328346b8f7ebf1fdadfd96e2a8ed503abdb",
        "summary.json": "0e73b3557f9981a513f33f66ced2e63cb8872412d983d1e1a967aad161b3d95b",
    },
    "none": {
        "predictions.csv": "c81e2032c0d9dd7e6a79449c74214453d2f293e0b24b2ea69f23d621f25f84d0",
        "trace.csv": "00fe0a8ff678741034730c8dff3f9934689154c54ad85bb202f42191beb1b60d",
        "summary.json": "764aec662cca605195da0d31fc91c3d0ff8bd86f4c288549dd889d621cf218f1",
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
            "predictions.csv": "8bbba259574c0be45e9bb5d89dc8c9fdc7eb3b1c5767e6f9953d904b26a044e6",
            "trace.csv": "d2c774f688e5e3a5073f289babc1799797040f87fe58f8fca9381f90bfc6932a",
            "summary.json": "849f77fb1f8e22bd2eb585bfa81ae2137c35de9e5bc2e02109a73b9ab6b4e078",
        },
    ),
    "pool-readers": (
        WORLD,
        {"discrete_mode": True, "novel_momentum": 0.1},
        {
            "predictions.csv": "583e63572147356883c1419dff672a07b816eb4cc6d058d7f46da020fb315628",
            "trace.csv": "a8aa51b18ff2f3c67ed21a16179510f6bbd29d583c62c999eb375933785a2708",
            "summary.json": "e3408093fd2cbb49519753c1c54618a342224ff195bbfc252f8eb491db92ea44",
        },
    ),
    # A fixed threshold on the default world at 8 batches, recorded before the
    # threshold policy moved into one engine function (the pool ends at 67).
    "fixed-threshold": (
        WORLD,
        {"fixed_threshold": 0.3},
        {
            "predictions.csv": "fedcde9157a2d3a1fff0c30530d9011986e66d23b76e3529a2985b67174ad612",
            "trace.csv": "eafe3264f2ffb7d8d7f90aa2d3cf8348e146847c033027c84f743a4761cae373",
            "summary.json": "28f13ef9df27fa923aefe3c61befe60802f92c4014d5d4b62cd4f6057fcfb649",
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
