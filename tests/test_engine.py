import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owtt import engine as engine_module
from owtt.adapter import embed_batch, init_adapter
from owtt.datagen import Batch, WorldSpec, generate_source, generate_stream
from owtt.engine import (
    NO_REJECT_TAU,
    Engine,
    RunConfig,
    StageFailure,
    next_threshold,
    select_confident,
)
from owtt.errors import (
    ConfigError, DegenerateEmbedding, EmptyRecords, InvalidSpec, NonFiniteInput
)
from owtt.experiment import ABLATION_VARIANTS
from owtt.metrics import REJECT, compute_metrics
from owtt.prototypes import PrototypePool
from owtt.scoring import ScoreWindow, adaptive_threshold

from oracles import reference_run


def small_world(**kw):
    defaults = dict(n_source=300, n_batches=12, batch_size=32, seed=0)
    defaults.update(kw)
    return WorldSpec(**defaults)


def run_world(spec, **cfg_kw):
    cfg_kw.setdefault("seed", spec.seed)
    cfg_kw.setdefault("batch_size", spec.batch_size)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(**cfg_kw), src_x, src_y, spec.k_s)
    return engine.run(stream)


BASELINE = dict(enable_clustering=False, enable_expansion=False, enable_alignment=False)


# --- config validation ---------------------------------------------------------


def test_expansion_requires_clustering_and_detection():
    with pytest.raises(ConfigError):
        RunConfig(enable_clustering=False).validate()
    with pytest.raises(ConfigError):
        RunConfig(enable_ood_detection=False).validate()


def test_fixed_threshold_and_clamp_are_exclusive():
    with pytest.raises(ConfigError):
        RunConfig(fixed_threshold=0.5, threshold_clamp=(0.4, 1.0)).validate()


def test_bad_ranges_rejected():
    with pytest.raises(ConfigError):
        RunConfig(keep_ratio=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(threshold_clamp=(0.9, 0.1)).validate()


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["learning_rate", "lam", "temperature"])
def test_non_finite_hyper_parameters_rejected(name, value):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(**{name: value}).validate()


# --- crafted two-prototype world: direct threshold semantics ----------------------


def crafted_engine(**cfg_kw):
    """Engine whose prototypes are exactly the 2-D axes."""
    cfg = RunConfig(
        feature_dim=2,
        batch_size=None,
        enable_clustering=False,
        enable_expansion=False,
        enable_alignment=False,
        **cfg_kw,
    )
    source = np.array([[9.0, 0.0], [0.0, 9.0]] * 8)
    labels = np.array([0, 1] * 8)
    engine = Engine(cfg, source, labels, num_known=2)
    # exact axes: overwrite the noisy init so geometry is hand-checkable
    engine.adapter.weight = np.eye(2)
    engine.pool = type(engine.pool)(np.eye(2), novel_capacity=cfg.novel_capacity)
    return engine


def batch_of(vectors):
    return Batch(np.asarray(vectors, dtype=float), np.zeros(len(vectors), dtype=int))


def test_fixed_threshold_splits_scores():
    engine = crafted_engine(fixed_threshold=0.5)
    # scores: 1 - max cosine = 0.4 and 0.6
    batch = batch_of([[0.6, -0.8], [0.4, -np.sqrt(1 - 0.16)]])
    _, scores, tau, predicted = engine.inference_stage(batch.values)
    np.testing.assert_allclose(scores, [0.4, 0.6], atol=1e-9)
    assert tau == 0.5
    assert predicted[0] == 0 and predicted[1] == REJECT


def test_on_prototype_samples_never_rejected():
    engine = crafted_engine()
    values = np.array([[1.0, 0.0], [0.0, 1.0]] * 8)
    _, scores, tau, predicted = engine.inference_stage(values)
    np.testing.assert_allclose(scores, 0.0, atol=1e-9)
    assert not np.any(predicted == REJECT)


def test_detection_off_forces_no_reject_threshold():
    engine = crafted_engine(enable_ood_detection=False)
    values = np.array([[-1.0, 0.0]] * 8)  # raw score 2.0, clamps to 1.0
    _, scores, tau, predicted = engine.inference_stage(values)
    assert tau == NO_REJECT_TAU
    np.testing.assert_allclose(scores, 1.0)
    assert not np.any(predicted == REJECT)


def test_reject_iff_score_at_or_above_threshold():
    engine = crafted_engine(fixed_threshold=0.4)
    batch = batch_of([[0.6, -0.8]])  # score exactly 0.4
    _, scores, tau, predicted = engine.inference_stage(batch.values)
    assert scores[0] == pytest.approx(0.4)
    assert predicted[0] == REJECT  # strict: os >= tau rejects


@pytest.mark.parametrize("clamp", [None, (0.4, 1.0)])
def test_next_threshold_pushes_the_scores_then_applies_the_policy(clamp):
    scores = np.array([0.05, 0.1, 0.7, 0.8, 0.9])
    fixed_window, window = ScoreWindow(8).push([0.2]), ScoreWindow(8).push([0.2])
    assert next_threshold(fixed_window, scores, clamp, 0.3) == 0.3
    assert fixed_window.count == 6
    tau = next_threshold(window, scores, clamp, None)
    assert window.count == 6
    assert tau == adaptive_threshold(window, clamp).tau


# --- confidence-based selection -----------------------------------------------------


def test_selection_hand_case():
    scores = np.array([0.1, 0.4, 0.6, 0.9])
    np.testing.assert_array_equal(select_confident(scores, 0.5, 0.5), [0, 3])


def test_selection_keep_ratio_one_takes_all():
    scores = np.array([0.3, 0.5, 0.7])
    np.testing.assert_array_equal(select_confident(scores, 0.5, 1.0), [0, 1, 2])


def test_selection_rounds_up_and_breaks_ties_by_index():
    scores = np.array([0.4, 0.6, 0.5])  # distances 0.1, 0.1, 0.0
    np.testing.assert_array_equal(select_confident(scores, 0.5, 0.33), [0])
    np.testing.assert_array_equal(select_confident(scores, 0.5, 0.5), [0, 1])


# --- full-run contracts ---------------------------------------------------------------


def record_tuples(result):
    return [
        (r.timestamp, r.index, r.predicted_label, r.ood_score, r.threshold_used, r.hidden_label)
        for r in result.records
    ]


def test_rerun_is_bit_identical():
    spec = small_world()
    a = run_world(spec)
    b = run_world(spec)
    assert record_tuples(a) == record_tuples(b)
    assert np.array_equal(a.engine.adapter.weight, b.engine.adapter.weight)


def test_prefix_invariance():
    spec = small_world(n_batches=12)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    full = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(stream)
    prefix = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(stream[:4])
    cut = [t for t in record_tuples(full) if t[0] < 4]
    assert record_tuples(prefix) == cut


def test_all_toggles_off_leaves_adapter_untouched():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size, **BASELINE), src_x, src_y, spec.k_s)
    before = engine.adapter.weight.copy()
    engine.run(stream)
    np.testing.assert_array_equal(engine.adapter.weight, before)
    assert engine.pool.novel_count == 0


def test_baseline_predictions_are_nearest_prototype():
    spec = small_world(n_batches=2)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size, **BASELINE), src_x, src_y, spec.k_s)
    protos = engine.pool.source_matrix().copy()
    adapter = copy.deepcopy(engine.adapter)
    result = engine.run(stream)

    for t, batch in enumerate(stream):
        nearest = np.argmax(embed_batch(batch.values, adapter) @ protos.T, axis=1)
        for i, rec in enumerate([r for r in result.records if r.timestamp == t]):
            if rec.predicted_label != REJECT:
                assert rec.predicted_label == nearest[i]


def test_detection_off_never_rejects_whole_run():
    spec = small_world()
    result = run_world(spec, enable_ood_detection=False, enable_clustering=False,
                       enable_expansion=False, enable_alignment=False)
    assert all(r.predicted_label != REJECT for r in result.records)
    assert result.report.acc_n == 0.0
    assert result.report.acc_h == 0.0


def test_expansion_disabled_keeps_pool_empty():
    spec = small_world()
    result = run_world(spec, enable_expansion=False)
    assert all(t.pn_size == 0 for t in result.trace)


def test_pool_bounded_by_capacity():
    spec = small_world(n_batches=20)
    result = run_world(spec, novel_capacity=7)
    assert all(t.pn_size <= 7 for t in result.trace)


def test_expansion_pushes_the_pool_at_most_once_per_batch(monkeypatch):
    # A wide-saturated world admits more prototypes per batch than the pool
    # holds, so eviction happens inside a batch; the admissions still reach
    # the pool through one push_novel call.
    pushes, added = [], []
    push_novel, expand = PrototypePool.push_novel, engine_module.expand

    def counting_push(pool, rows):
        pushes.append(len(np.atleast_2d(rows)))
        push_novel(pool, rows)

    def counting_expand(*args):
        before = len(pushes)
        added.append(expand(*args))
        assert len(pushes) - before <= 1
        return added[-1]

    monkeypatch.setattr(PrototypePool, "push_novel", counting_push)
    monkeypatch.setattr(engine_module, "expand", counting_expand)
    spec = WorldSpec(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512,
                     n_batches=3, seed=0)
    run_world(spec, feature_dim=64)
    assert len(added) == 3 and len(pushes) <= 3
    assert sum(added) == sum(pushes) > RunConfig().novel_capacity


def test_novel_momentum_refreshes_the_pool_at_most_once_per_batch(monkeypatch):
    # The benchmark's pool-readers config on the default world: the
    # rejected rows of a batch reach momentum_update_novel as one block.
    blocks, per_batch = [], []
    update, stage = engine_module.momentum_update_novel, Engine.adaptation_stage

    def counting_update(pool, rows, momentum):
        blocks.append(len(rows))
        update(pool, rows, momentum)

    def counting_stage(self, *args):
        before = len(blocks)
        losses = stage(self, *args)
        per_batch.append(len(blocks) - before)
        return losses

    monkeypatch.setattr(engine_module, "momentum_update_novel", counting_update)
    monkeypatch.setattr(Engine, "adaptation_stage", counting_stage)
    run_world(WorldSpec(n_batches=20, seed=0), discrete_mode=True, novel_momentum=0.1)
    assert len(per_batch) == 20 and max(per_batch) == 1
    assert max(blocks) >= 2


def test_rejected_samples_never_update_target_stats():
    # all-strong stream: everything rejected, so alignment never initializes
    spec = small_world(ratio=1.0, rotation_angle=0.0, noise_std=0.1)
    src_x, src_y = generate_source(spec)
    batches = generate_stream(spec)
    strong_only = [
        Batch(b.values[b.hidden >= spec.k_s], b.hidden[b.hidden >= spec.k_s]) for b in batches
    ]
    cfg = RunConfig(seed=0, batch_size=None, fixed_threshold=0.35,
                    enable_expansion=False, enable_clustering=False)
    engine = Engine(cfg, src_x, src_y, spec.k_s)
    result = engine.run(strong_only)
    assert all(r.predicted_label == REJECT for r in result.records)
    assert engine.target_stats.count == 0


def test_hidden_labels_do_not_influence_predictions():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    scrambled = [
        Batch(batch.values, (batch.hidden + 3) % (spec.k_s + spec.k_t)) for batch in stream
    ]
    a = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(stream)
    b = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(scrambled)
    assert [r.predicted_label for r in a.records] == [r.predicted_label for r in b.records]
    assert [r.ood_score for r in a.records] == [r.ood_score for r in b.records]


def test_batch_size_contract_enforced():
    spec = small_world(batch_size=32)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=16), src_x, src_y, spec.k_s)
    with pytest.raises(ConfigError):
        engine.run(stream)


def test_trace_matches_report_at_final_batch():
    spec = small_world()
    result = run_world(spec)
    final = result.trace[-1]
    assert final.acc_s == result.report.acc_s
    assert final.acc_n == result.report.acc_n
    assert final.acc_h == result.report.acc_h


def test_report_equals_a_recount_of_the_records():
    result = run_world(small_world())
    assert result.report == compute_metrics(result.records, result.num_known)


def test_empty_stream_raises_empty_records():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    with pytest.raises(EmptyRecords):
        Engine(RunConfig(seed=0), src_x, src_y, spec.k_s).run([])


def test_losses_recorded_per_batch():
    spec = small_world()
    result = run_world(spec)
    assert len(result.losses) == spec.n_batches
    for bundle in result.losses:
        assert bundle.total == bundle.clustering_loss + bundle.lam * bundle.alignment_loss


def test_discrete_mode_runs_end_to_end():
    spec = small_world()
    result = run_world(spec, discrete_mode=True)
    assert 0.0 <= result.report.acc_h <= 1.0


def test_novel_momentum_mode_runs_end_to_end():
    spec = small_world()
    result = run_world(spec, novel_momentum=0.1)
    assert 0.0 <= result.report.acc_h <= 1.0


# --- non-finite input -------------------------------------------------------------------


def test_nan_in_a_stream_batch_aborts_with_a_typed_cause():
    spec = WorldSpec(n_batches=20, seed=0)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    stream[3].values[0, 5] = np.nan
    engine = Engine(RunConfig(seed=0), src_x, src_y, spec.k_s)
    with pytest.raises(StageFailure) as err:
        engine.run(stream)
    assert err.value.batch_index == 3
    assert isinstance(err.value.cause, NonFiniteInput)
    assert "row 0" in str(err.value.cause)
    assert len(err.value.records) == 3 * spec.batch_size
    assert len(err.value.trace) == 3


# numpy reports the overflow of the squared embedding before the refusal; the
# suite turns RuntimeWarnings into errors, so these tests ignore that message.
OVERFLOW_WARNING = "ignore:overflow encountered in multiply:RuntimeWarning"


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
def test_an_overflowing_stream_row_aborts_with_a_typed_cause():
    spec = WorldSpec(n_batches=5, seed=0)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    stream[3].values[0] *= 1e160  # finite, but its squared embedding norm is not
    engine = Engine(RunConfig(seed=0), src_x, src_y, spec.k_s)
    with pytest.raises(StageFailure) as err:
        engine.run(stream)
    assert err.value.batch_index == 3
    assert isinstance(err.value.cause, NonFiniteInput)
    assert "input row 0 overflows" in str(err.value.cause)
    assert len(err.value.trace) == 3


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
def test_an_overflowing_source_row_fails_engine_construction():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    src_x[7] *= 1e160
    with pytest.raises(NonFiniteInput, match="input row 7 overflows"):
        Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s)


def test_a_tiny_stream_row_aborts_as_a_degenerate_embedding():
    # Policy: a row whose embedding norm falls below NORM_EPS is refused,
    # even though cosine geometry would ignore its scale.
    spec = WorldSpec(n_batches=5, seed=0)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    stream[3].values[0] *= 1e-160
    engine = Engine(RunConfig(seed=0), src_x, src_y, spec.k_s)
    with pytest.raises(StageFailure) as err:
        engine.run(stream)
    assert err.value.batch_index == 3
    assert isinstance(err.value.cause, DegenerateEmbedding)
    assert str(err.value.cause) == "embedding norm 1.264e-159 below 1e-12 at row 0"


def test_inf_in_the_source_values_fails_engine_construction():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    src_x[7, 0] = np.inf
    with pytest.raises(NonFiniteInput, match="row 7"):
        Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda x, y, k: (x, np.where(np.arange(y.size) == 5, k, y)), "source label 5 is 5: need an integer in 0..4"),
        (lambda x, y, k: (x, np.where(np.arange(y.size) == 0, -1, y)), "source label 0 is -1"),
        (lambda x, y, k: (x, y + 0.6), "source label 0 is"),
        (lambda x, y, k: (x, y.astype(float).tolist()[:-1] + [np.nan]), "is nan"),
        (lambda x, y, k: (x, y[:990]), r"\(990,\) source labels for 1000 source rows"),
        (lambda x, y, k: (x[:, 0], y), "must form a 2-D array"),
    ],
    ids=["label_k", "label_negative", "fractional", "nan", "short_labels", "values_1d"],
)
def test_malformed_source_arrays_raise_invalid_spec(corrupt, message):
    spec = WorldSpec(seed=0)
    src_x, src_y = generate_source(spec)
    assert src_x.shape[0] == 1000 and spec.k_s == 5
    bad_x, bad_y = corrupt(src_x, src_y, spec.k_s)
    with pytest.raises(InvalidSpec, match=message):
        Engine(RunConfig(seed=0), bad_x, bad_y, spec.k_s)


def test_an_empty_source_raises_invalid_spec_before_any_statistic():
    with pytest.raises(InvalidSpec, match="at least one source class, got 0"):
        Engine(RunConfig(), np.zeros((0, 32)), np.zeros(0), 0)


def test_integral_float_source_labels_match_int_labels():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    as_int = Engine(RunConfig(seed=0), src_x, src_y, spec.k_s)
    as_float = Engine(RunConfig(seed=0), src_x, src_y.astype(float), spec.k_s)
    np.testing.assert_array_equal(as_float.pool.all_matrix(), as_int.pool.all_matrix())


# --- edge cases ---------------------------------------------------------------------


def engine_state_is_finite(engine):
    pool = engine.pool.all_matrix()
    target = engine.target_stats
    return (
        np.all(np.isfinite(engine.adapter.weight))
        and np.all(np.isfinite(engine.adapter.momentum_buffer))
        and np.all(np.isfinite(pool))
        and np.all(np.isfinite(target.mean))
        and np.all(np.isfinite(target.covariance))
    )


def test_single_sample_batches_run_alignment_with_n_equal_one():
    spec = small_world(n_batches=10, batch_size=8)
    src_x, src_y = generate_source(spec)
    singles = [
        Batch(b.values[i:i + 1], b.hidden[i:i + 1])
        for b in generate_stream(spec)
        for i in range(len(b))
    ]
    cfg = RunConfig(seed=0, batch_size=1)
    engine = Engine(cfg, src_x, src_y, spec.k_s)
    result = engine.run(singles)
    assert len(result.records) == len(singles)
    # Past the warm-up the alignment gradient ran on one-sample batches.
    assert engine.target_stats.count >= 2 * cfg.feature_dim
    assert engine.target_stats.last_blend == cfg.beta
    assert all(np.isfinite(b.total) for b in result.losses)
    assert engine_state_is_finite(engine)


def test_all_reject_stream_leaves_alignment_without_a_gradient():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    engine = Engine(
        RunConfig(seed=0, batch_size=spec.batch_size, fixed_threshold=0.0),
        src_x, src_y, spec.k_s,
    )
    result = engine.run(generate_stream(spec))
    assert all(r.predicted_label == REJECT for r in result.records)
    assert engine.target_stats.count == 0
    assert all(b.alignment_loss == 0.0 for b in result.losses)
    assert engine_state_is_finite(engine)


def test_all_accept_stream_absorbs_every_sample_into_the_target():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    cfg = RunConfig(seed=0, batch_size=spec.batch_size,
                    enable_ood_detection=False, enable_expansion=False)
    engine = Engine(cfg, src_x, src_y, spec.k_s)
    result = engine.run(generate_stream(spec))
    assert all(r.predicted_label != REJECT for r in result.records)
    assert all(t.tau == NO_REJECT_TAU for t in result.trace)
    assert engine.target_stats.count == spec.n_batches * spec.batch_size
    assert all(b.alignment_loss > 0.0 for b in result.losses)
    assert engine_state_is_finite(engine)


@pytest.mark.parametrize("adapt", [False, True])
def test_all_equal_score_window_gives_the_degenerate_threshold(adapt):
    spec = small_world()
    src_x, src_y = generate_source(spec)
    row = generate_stream(spec)[0].values[0]
    same = [
        Batch(np.tile(row, (spec.batch_size, 1)), np.zeros(spec.batch_size, dtype=int))
        for _ in range(spec.n_batches)
    ]
    cfg_kw = {} if adapt else BASELINE
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size, **cfg_kw),
                    src_x, src_y, spec.k_s)
    result = engine.run(same)
    assert result.trace[0].tau == 1.0
    if not adapt:
        # The adapter never moves, so every window holds one repeated score.
        assert len({r.ood_score for r in result.records}) == 1
        assert all(t.tau == 1.0 for t in result.trace)
    assert engine_state_is_finite(engine)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 24),
    n_batches=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.floats(-5.0, 5.0),
    discrete_mode=st.booleans(),
    novel_momentum=st.sampled_from([None, 0.1]),
)
def test_finite_stream_leaves_finite_engine_state(
    seed, batch_size, n_batches, scale, offset, discrete_mode, novel_momentum
):
    spec = WorldSpec(n_source=200, seed=seed)
    src_x, src_y = generate_source(spec)
    rng = np.random.default_rng(seed)
    stream = [
        Batch(rng.normal(size=(batch_size, spec.d_in)) * scale + offset,
              rng.integers(0, spec.k_s + spec.k_t, size=batch_size))
        for _ in range(n_batches)
    ]
    cfg = RunConfig(seed=seed, batch_size=batch_size, discrete_mode=discrete_mode,
                    novel_momentum=novel_momentum)
    engine = Engine(cfg, src_x, src_y, spec.k_s)
    result = engine.run(stream)
    assert len(result.records) == batch_size * n_batches
    assert all(np.isfinite(b.total) for b in result.losses)
    assert engine_state_is_finite(engine)


# --- whole-engine reference -------------------------------------------------------------


REFERENCE_CONFIGS = {
    "full": {},
    "none": ABLATION_VARIANTS["none"],
    "od_pc": ABLATION_VARIANTS["od_pc"],
    "od_da": ABLATION_VARIANTS["od_da"],
    "fixed_0.3": {"fixed_threshold": 0.3},
    "clamp_0.2_0.8": {"threshold_clamp": (0.2, 0.8)},
    "novel_momentum_0.1": {"novel_momentum": 0.1},
    "novel_capacity_5": {"novel_capacity": 5},
    "discrete_mode": {"discrete_mode": True},
}


def assert_matches_reference(spec, config):
    """Run the engine and reference_run on one world; both must agree exactly."""
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    weight = init_adapter(config.feature_dim, spec.d_in, config.learning_rate,
                          config.momentum_coeff, config.seed).weight
    expected = reference_run(config, src_x, src_y, spec.k_s, stream, weight)
    result = Engine(config, src_x, src_y, spec.k_s).run(stream)
    predicted = np.array([r.predicted_label for r in result.records])
    scores = np.array([r.ood_score for r in result.records])
    assert np.array_equal(predicted, np.concatenate(expected.predicted)), "predictions"
    assert np.array_equal(scores, np.concatenate(expected.scores)), "scores"
    assert [t.tau for t in result.trace] == expected.taus, "taus"
    assert [t.pn_size for t in result.trace] == [
        min(n, config.novel_capacity) for n in np.cumsum(expected.added)
    ], "novel counts"
    assert np.array_equal(result.engine.pool.all_matrix(), expected.pool.matrix()), "pool"
    assert np.array_equal(result.engine.adapter.weight, expected.weight), "weight"
    return expected


@pytest.mark.parametrize("name", REFERENCE_CONFIGS)
def test_engine_matches_the_reference_run(name):
    spec = WorldSpec(n_batches=10, seed=list(REFERENCE_CONFIGS).index(name))
    assert_matches_reference(spec, RunConfig(seed=spec.seed, **REFERENCE_CONFIGS[name]))


def test_engine_matches_the_reference_run_when_the_pool_evicts():
    # The benchmark's wide-saturated world: batches admit more prototypes
    # than the pool holds.
    spec = WorldSpec(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512,
                     n_batches=3, seed=0)
    config = RunConfig(feature_dim=64, batch_size=512, seed=0)
    expected = assert_matches_reference(spec, config)
    assert max(expected.added) > config.novel_capacity
