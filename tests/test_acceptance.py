"""End-to-end acceptance gates for the engine.

Each criterion pins an oracle equivalence, an analytic identity, or a
behavioral property of the full system at a fixed tolerance. The terminal
summary prints one line per criterion (see conftest).
"""
import time

import numpy as np
import pytest

from oracles import (
    finite_difference_gradient,
    grid_split_minimizer,
    recount_metrics,
    relative_error,
)
from owtt.adapter import embed_backward, embed_batch
from owtt.datagen import WorldSpec, generate_source, generate_stream
from owtt.engine import Engine, PredictionRecord, RunConfig, prediction_columns
from owtt.metrics import REJECT, compute_metrics, score_separation
from owtt.objective import (
    GaussianStats,
    clustering_loss,
    clustering_loss_gradient,
    fit_gaussian,
    kl_divergence,
    kl_gradient,
    update_target_stats,
)
from owtt.prototypes import PrototypePool
from owtt.scoring import ScoreWindow, adaptive_threshold

SEEDS = (0, 1, 2)

BASELINE = dict(enable_clustering=False, enable_expansion=False, enable_alignment=False)
NO_DETECTION = dict(enable_ood_detection=False, **BASELINE)


def run_default(seed, stream=None, world_overrides=None, **config_overrides):
    spec = WorldSpec(seed=seed, **(world_overrides or {}))
    source_values, source_labels = generate_source(spec)
    if stream is None:
        stream = generate_stream(spec)
    config = RunConfig(seed=seed, **config_overrides)
    engine = Engine(config, source_values, source_labels, spec.k_s)
    return engine.run(stream), spec


def batch_gap(result, spec, batch):
    return score_separation(result.outcomes[batch].score, result.hidden[batch], spec.k_s)[2]


@pytest.fixture(scope="module")
def default_runs():
    """Baseline and full-method runs on the default world, three seeds."""
    runs = {}
    for seed in SEEDS:
        baseline, spec = run_default(seed, **BASELINE)
        full, _ = run_default(seed)
        runs[seed] = {"spec": spec, "baseline": baseline, "full": full}
    return runs


# -- 1 ------------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    """Analytic gradients match central finite differences on 20 seeded instances."""
    d_in, d_out, k_s, batch = 6, 4, 3, 8
    started = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(d_out, d_in))
        raw = rng.normal(size=(batch, d_in)) * 2.0
        protos = rng.normal(size=(k_s, d_out))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        pool = PrototypePool(protos, novel_capacity=10)
        n_novel = 2
        for _ in range(n_novel):
            p = rng.normal(size=d_out)
            pool.push_novel(p / np.linalg.norm(p))
        labels = rng.integers(0, k_s + n_novel, size=batch)

        features = embed_batch(raw, weight)
        _, grad_features = clustering_loss_gradient(features, labels, pool, 0.1)
        analytic = embed_backward(grad_features, features, raw, weight)

        def pc_loss(w, labels=labels, pool=pool, raw=raw):
            return clustering_loss(embed_batch(raw, w), labels, pool, 0.1)

        numeric = finite_difference_gradient(pc_loss, weight, step=1e-5)
        assert relative_error(analytic, numeric) < 1e-4

        source_stats = fit_gaussian(rng.normal(size=(40, d_out)) / np.sqrt(d_out))
        if seed % 2 == 0:
            prior = GaussianStats.empty(d_out)
        else:
            warm = rng.normal(size=(16, d_out))
            prior = update_target_stats(
                GaussianStats.empty(d_out),
                warm / np.linalg.norm(warm, axis=1, keepdims=True),
                0.05,
            )
        target = update_target_stats(prior, features, 0.05)
        _, grad_kl = kl_gradient(source_stats, target)
        analytic_kl = embed_backward(grad_kl, features, raw, weight)

        def kl_loss(w, prior=prior, raw=raw):
            z = embed_batch(raw, w)
            return kl_divergence(source_stats, update_target_stats(prior, z, 0.05))

        numeric_kl = finite_difference_gradient(kl_loss, weight, step=1e-5)
        assert relative_error(analytic_kl, numeric_kl) < 1e-4
    assert time.monotonic() - started < 10.0


# -- 2 ------------------------------------------------------------------------------


def test_criterion_02_threshold_oracle():
    """Grid-search threshold equals the exhaustive minimizer on 1000 windows."""
    rng = np.random.default_rng(20_240_817)
    started = time.monotonic()
    for case in range(1000):
        size = int(rng.integers(8, 513))
        kind = case % 4
        if kind == 0:
            scores = rng.uniform(0, 1, size=size)
        elif kind == 1:
            centers = rng.uniform(0.05, 0.95, size=2)
            scores = np.concatenate(
                [
                    rng.normal(centers[0], 0.06, size=size // 2),
                    rng.normal(centers[1], 0.06, size=size - size // 2),
                ]
            ).clip(0, 1)
        elif kind == 2:
            scores = rng.beta(0.4, 0.4, size=size)
        else:
            scores = np.full(size, float(rng.uniform(0, 1)))  # degenerate
        estimate = adaptive_threshold(ScoreWindow(size).push(scores))
        tau_oracle, degenerate = grid_split_minimizer(scores)
        assert estimate.degenerate == degenerate, f"case {case}"
        assert estimate.tau == tau_oracle, f"case {case}"
    assert time.monotonic() - started < 5.0


# -- 3 ------------------------------------------------------------------------------


def test_criterion_03_kl_closed_form():
    """Closed-form Gaussian divergence reproduces the hand-derived cases."""
    def stats(mean, cov):
        return GaussianStats(
            mean=np.asarray(mean, float),
            covariance=np.asarray(cov, float),
            count=1,
        )

    shift = kl_divergence(stats([0.0], [[1.0]]), stats([1.0], [[1.0]]))
    assert shift == pytest.approx(0.5, abs=1e-3)

    widen = kl_divergence(stats([0.0, 0.0], np.eye(2)), stats([0.0, 0.0], 2 * np.eye(2)))
    assert widen == pytest.approx(0.5 * (1.0 - 2.0 + np.log(4.0)), abs=1e-3)


# -- 4 ------------------------------------------------------------------------------


def test_criterion_04_metrics_oracle():
    """Accuracy metrics match a brute-force recount on 100 random record sets."""
    k_s = 4

    def rec(predicted, hidden, batch=0, index=0):
        return PredictionRecord(batch, index, predicted, 0.5, 0.5, hidden)

    weak = [rec(0, 0), rec(1, 1), rec(2, 2), rec(3, 1)]
    strong = [rec(REJECT, 4), rec(REJECT, 5), rec(0, 4), rec(1, 5)]
    hand = compute_metrics(weak + strong, k_s)
    assert (hand.acc_s, hand.acc_n, hand.acc_h) == (0.75, 0.5, 0.6)

    rng = np.random.default_rng(99)
    for _ in range(100):
        records = [
            rec(
                int(rng.choice([REJECT, 0, 1, 2, 3])),
                int(rng.integers(0, k_s + 3)),
                batch=int(rng.integers(0, 5)),
                index=i,
            )
            for i in range(int(rng.integers(1, 80)))
        ]
        report = compute_metrics(records, k_s)
        assert (report.acc_s, report.acc_n, report.acc_h) == recount_metrics(records, k_s)


# -- 5 ------------------------------------------------------------------------------


def test_criterion_05_causality_and_determinism(default_runs):
    """Reruns are bit-identical; a stream prefix yields identical predictions."""
    spec = default_runs[0]["spec"]
    reference = default_runs[0]["full"]

    rerun, _ = run_default(0)
    keys = ("batch", "index", "predicted", "score", "tau")
    expected = prediction_columns(reference.outcomes, reference.hidden)
    columns = prediction_columns(rerun.outcomes, rerun.hidden)
    assert all(np.array_equal(columns[key], expected[key]) for key in keys)
    assert np.array_equal(rerun.engine.weight, reference.engine.weight)

    stream = generate_stream(spec)
    prefix, _ = run_default(0, stream=stream[:10])
    columns = prediction_columns(prefix.outcomes, prefix.hidden)
    cut = expected["batch"] < 10
    assert all(np.array_equal(columns[key], expected[key][cut]) for key in keys)


# -- 6 ------------------------------------------------------------------------------


def test_criterion_06_method_beats_baseline():
    """Full method clears the frozen baseline by 10 points; no detector means 0."""
    started = time.monotonic()
    baseline, _ = run_default(0, **BASELINE)
    full, _ = run_default(0)
    no_detection, _ = run_default(0, **NO_DETECTION)
    elapsed = time.monotonic() - started

    assert full.report.acc_h >= baseline.report.acc_h + 0.10
    assert no_detection.report.acc_n == 0.0
    assert no_detection.report.acc_h == 0.0
    assert full.report.acc_h > no_detection.report.acc_h
    assert elapsed < 60.0


# -- 7 ------------------------------------------------------------------------------


def test_criterion_07_adaptive_vs_fixed_threshold(default_runs):
    """No fixed threshold beats the adaptive one by more than 2 points."""
    for seed in SEEDS:
        adaptive = default_runs[seed]["full"].report.acc_h
        best_fixed = -1.0
        for step in range(1, 10):
            fixed, _ = run_default(seed, fixed_threshold=round(0.1 * step, 1))
            best_fixed = max(best_fixed, fixed.report.acc_h)
        assert adaptive >= best_fixed - 0.02, f"seed {seed}"


# -- 8 ------------------------------------------------------------------------------


def test_criterion_08_ratio_robustness():
    """Final harmonic accuracy varies by at most 8 points across mix ratios."""
    values = []
    for ratio in (0.2, 0.4, 0.6, 0.8, 1.0):
        result, _ = run_default(0, world_overrides={"ratio": ratio})
        values.append(result.report.acc_h)
    assert max(values) - min(values) <= 0.08


# -- 9 ------------------------------------------------------------------------------


def test_criterion_09_score_gap_growth(default_runs):
    """The weak/strong score gap ends strictly wider than it started."""
    for seed in SEEDS:
        spec = default_runs[seed]["spec"]
        full = default_runs[seed]["full"]
        assert batch_gap(full, spec, spec.n_batches - 1) > batch_gap(full, spec, 0), (
            f"seed {seed} (disjoint)"
        )
    for seed in SEEDS:
        near, spec = run_default(
            seed, world_overrides={"strong_mode": "near_clusters", "near_interp": 0.5}
        )
        assert batch_gap(near, spec, spec.n_batches - 1) > batch_gap(near, spec, 0), (
            f"seed {seed} (near_clusters)"
        )


# -- 10 -----------------------------------------------------------------------------


def test_criterion_10_expansion_bound(default_runs):
    """Novel pool never exceeds its capacity; disabled expansion keeps it empty."""
    for seed in SEEDS:
        full = default_runs[seed]["full"]
        assert all(o.pn_size <= 100 for o in full.outcomes)
        baseline = default_runs[seed]["baseline"]
        assert all(o.pn_size == 0 for o in baseline.outcomes)
