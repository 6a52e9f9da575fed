import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cumulative_trace, recount_metrics
from owtt.engine import PredictionRecord
from owtt.errors import EmptyRecords, MissingPopulation
from owtt.metrics import (
    REJECT,
    RunningMetrics,
    compute_metrics,
    cumulative_accuracies,
    harmonic_mean,
    score_histogram,
    score_separation,
)

K_S = 3


def rec(predicted, hidden, score=0.5, batch=0, index=0, tau=0.5):
    return PredictionRecord(
        timestamp=batch,
        index=index,
        predicted_label=predicted,
        ood_score=score,
        threshold_used=tau,
        hidden_label=hidden,
    )


def random_records(rng, n, k_s=K_S, k_t=2, batches=4):
    records = []
    for i in range(n):
        hidden = int(rng.integers(0, k_s + k_t))
        predicted = int(rng.choice([REJECT] + list(range(k_s))))
        records.append(
            rec(
                predicted,
                hidden,
                score=float(rng.uniform()),
                batch=int(rng.integers(0, batches)),
                index=i,
            )
        )
    records.sort(key=lambda r: (r.timestamp, r.index))
    return records


def test_perfect_run_scores_ones():
    records = [rec(0, 0), rec(1, 1), rec(REJECT, K_S), rec(REJECT, K_S + 1)]
    report = compute_metrics(records, K_S)
    assert (report.acc_s, report.acc_n, report.acc_h) == (1.0, 1.0, 1.0)


def test_hand_counted_case():
    weak = [rec(0, 0), rec(1, 1), rec(2, 2), rec(0, 1)]  # 3 of 4 correct
    strong = [rec(REJECT, 3), rec(REJECT, 4), rec(0, 3), rec(1, 4)]  # 2 of 4 rejected
    report = compute_metrics(weak + strong, K_S)
    assert report.acc_s == pytest.approx(0.75)
    assert report.acc_n == pytest.approx(0.5)
    assert report.acc_h == pytest.approx(0.6)


def test_zero_rejections_zero_harmonic():
    records = [rec(0, 0), rec(0, K_S)]
    report = compute_metrics(records, K_S)
    assert report.acc_n == 0.0
    assert report.acc_h == 0.0


def test_absent_strong_population_reports_none():
    report = compute_metrics([rec(0, 0), rec(1, 1)], K_S)
    assert report.acc_s == 1.0
    assert report.acc_n is None
    assert report.acc_h is None


def test_absent_weak_population_reports_none():
    report = compute_metrics([rec(REJECT, K_S)], K_S)
    assert report.acc_s is None
    assert report.acc_h is None


def test_empty_records_raise():
    with pytest.raises(EmptyRecords):
        compute_metrics([], K_S)


def test_matches_brute_force_recount():
    rng = np.random.default_rng(17)
    for _ in range(100):
        records = random_records(rng, int(rng.integers(1, 60)))
        report = compute_metrics(records, K_S)
        expected = recount_metrics(records, K_S)
        assert (report.acc_s, report.acc_n, report.acc_h) == expected


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    records = random_records(rng, 40)
    shuffled = list(records)
    rng.shuffle(shuffled)
    a = compute_metrics(records, K_S)
    b = compute_metrics(shuffled, K_S)
    assert (a.acc_s, a.acc_n, a.acc_h) == (b.acc_s, b.acc_n, b.acc_h)


@settings(max_examples=100, deadline=None)
@given(
    acc_s=st.floats(0, 1, allow_nan=False),
    acc_n=st.floats(0, 1, allow_nan=False),
)
def test_harmonic_mean_symmetric_and_bounded(acc_s, acc_n):
    assert harmonic_mean(acc_s, acc_n) == harmonic_mean(acc_n, acc_s)
    assert harmonic_mean(acc_s, acc_n) <= 2 * min(acc_s, acc_n) + 1e-12


def test_cumulative_trace_final_row_matches_whole_run():
    # RunningMetrics fed one batch of label arrays at a time, and the per-run
    # pass Engine.run makes over the same arrays, against a recount of each prefix.
    rng = np.random.default_rng(11)
    records = random_records(rng, 80, batches=6)
    running = RunningMetrics(K_S)
    trace, predicted, hidden = [], [], []
    for t in sorted({r.timestamp for r in records}):
        batch = [r for r in records if r.timestamp == t]
        predicted.append(np.array([r.predicted_label for r in batch]))
        hidden.append(np.array([r.hidden_label for r in batch]))
        running.update(predicted[-1], hidden[-1])
        trace.append((t, *running.snapshot()))
    rows, report = cumulative_accuracies(predicted, hidden, K_S)
    assert rows == [row[1:] for row in trace] and report == running.report()
    columns = {"batch": np.array([r.timestamp for r in records]),
               "predicted": np.array([r.predicted_label for r in records]),
               "hidden": np.array([r.hidden_label for r in records])}
    assert trace == cumulative_trace(columns, K_S)
    report = compute_metrics(records, K_S)
    final = trace[-1]
    assert final[1:] == (report.acc_s, report.acc_n, report.acc_h)
    assert [row[0] for row in trace] == sorted({r.timestamp for r in records})


def test_score_separation_hand_case():
    scores, hidden = np.array([0.2, 0.2, 0.8]), np.array([0, 1, K_S])
    weak, strong, gap = score_separation(scores, hidden, K_S)
    assert (weak, strong, gap) == (pytest.approx(0.2), pytest.approx(0.8), pytest.approx(0.6))


def test_score_separation_identical_distributions():
    assert score_separation(np.array([0.5, 0.5]), np.array([0, K_S]), K_S)[2] == pytest.approx(0.0)


def test_score_separation_requires_both_populations():
    with pytest.raises(MissingPopulation):
        score_separation(np.array([0.5]), np.array([0]), K_S)


def test_score_separation_and_histogram_refuse_an_empty_column():
    with pytest.raises(EmptyRecords):
        score_separation(np.empty(0), np.empty(0, dtype=int), K_S)
    with pytest.raises(EmptyRecords):
        score_histogram(np.empty(0), np.empty(0, dtype=int), K_S)


def test_score_histogram_counts_and_shape():
    scores, hidden = np.array([0.005, 0.01, 0.99]), np.array([0, 0, K_S])
    edges, weak, strong = score_histogram(scores, hidden, K_S, bins=64)
    assert edges.shape == (65,)
    assert weak.sum() == 2 and strong.sum() == 1
    assert weak[0] == 2 and strong[-1] == 1
