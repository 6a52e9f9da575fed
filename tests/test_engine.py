import re
import dataclasses
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owtt import datagen, engine as engine_module
from owtt.adapter import embed_batch, init_adapter
from owtt.datagen import Batch, WorldSpec, generate_source, generate_stream
from owtt.engine import (
    EXPANSION_FLOOR,
    NO_REJECT_TAU,
    Engine,
    RunConfig,
    StageFailure,
    next_threshold,
    prediction_columns,
    select_confident,
)
from owtt.errors import (
    ConfigError, DegenerateEmbedding, EmptyRecords, InvalidSpec, NonFiniteGradient, NonFiniteInput
)
from owtt.experiment import ABLATION_VARIANTS
from owtt.metrics import REJECT, RunningMetrics
from owtt.prototypes import MAX_NOVEL_CAPACITY, PrototypePool, build_source_prototypes
from owtt.scoring import ScoreWindow, adaptive_threshold

from oracles import cumulative_trace, reference_run


def small_world(**kw):
    defaults = dict(n_source=300, n_batches=12, batch_size=32, seed=0)
    defaults.update(kw)
    return WorldSpec(**defaults)


def columns(result):
    return prediction_columns(result.outcomes, result.hidden)


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
        RunConfig(enable_clustering=False)
    with pytest.raises(ConfigError):
        RunConfig(enable_ood_detection=False)


def test_bad_ranges_rejected():
    with pytest.raises(ConfigError):
        RunConfig(keep_ratio=0.0)
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=-1.0)


def test_a_replaced_run_config_is_checked_again():
    with pytest.raises(ConfigError, match="keep_ratio must lie in"):
        dataclasses.replace(RunConfig(), keep_ratio=0.0)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)


def test_a_novel_capacity_above_the_pool_bound_is_refused():
    RunConfig(novel_capacity=MAX_NOVEL_CAPACITY)
    with pytest.raises(ConfigError, match=f"novel_capacity must be at most {MAX_NOVEL_CAPACITY}"):
        RunConfig(novel_capacity=MAX_NOVEL_CAPACITY + 1)


@pytest.mark.parametrize("feature_dim, d_in, capacity, shape", [
    (2**40, 4, 100, "feature_dim x feature_dim"),
    (20_000, 4, 100, "feature_dim x feature_dim"),
    (8_000, 20_000, 100, "feature_dim x d_in"),
    (4_096, 4, MAX_NOVEL_CAPACITY, r"\(k_s \+ novel_capacity\) x feature_dim"),
])
def test_a_feature_dim_above_the_element_budget_is_refused_before_allocation(
    monkeypatch, feature_dim, d_in, capacity, shape
):
    def allocate(*args, **kwargs):
        raise AssertionError("the adapter was allocated")

    monkeypatch.setattr(engine_module, "init_adapter", allocate)
    config = RunConfig(feature_dim=feature_dim, novel_capacity=capacity)
    with pytest.raises(ConfigError, match=f"feature_dim: {shape} is [0-9]+ elements"):
        Engine(config, np.eye(1, d_in), [0], 1)


@pytest.mark.parametrize("config, batch, message", [
    (dict(lam=1e308), 4, "gradient contains NaN or inf entries"),
    (dict(temperature=5e-324), 0, "gradient contains NaN or inf entries"),
    # The stepped weight stays finite (about 1.2e307), but the next batch's
    # embedding would overflow: the step that made it is refused.
    (dict(learning_rate=1e308), 0,
     "the step leaves the weight's squared norm at inf: lower learning_rate"),
])
def test_an_update_that_overflows_is_refused_by_type_under_any_warning_filter(
    config, batch, message
):
    spec = WorldSpec(n_source=200, n_batches=6, batch_size=16)
    values, labels = generate_source(spec)
    engine = Engine(RunConfig(batch_size=16, **config), values, labels, spec.k_s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would become the cause
        with pytest.raises(StageFailure) as failure:
            engine.run(generate_stream(spec))
    assert failure.value.batch_index == batch
    assert type(failure.value.cause) is NonFiniteGradient
    assert str(failure.value.cause) == message


@pytest.mark.parametrize("config, batch", [(dict(learning_rate=1e308), 0), (dict(lam=1e308), 4)])
def test_a_failed_optimizer_step_leaves_the_weight_and_buffer_bit_identical(config, batch):
    spec = WorldSpec(n_source=200, n_batches=6, batch_size=16)
    values, labels = generate_source(spec)
    engine = Engine(RunConfig(batch_size=16, **config), values, labels, spec.k_s)
    stream = generate_stream(spec)
    for t in range(batch):
        engine.step(stream[t])
    weight, buffer = engine.weight.copy(), engine.momentum_buffer.copy()
    with pytest.raises(StageFailure) as failure:
        engine.step(stream[batch])
    assert type(failure.value.cause) is NonFiniteGradient
    assert engine.weight.tobytes() == weight.tobytes()
    assert engine.momentum_buffer.tobytes() == buffer.tobytes()


@pytest.mark.parametrize("action", ["ignore", "error"])
@pytest.mark.parametrize("part, what", [("values", "source values"), ("labels", "source labels")])
def test_complex_source_arrays_are_refused(action, part, what):
    spec = small_world(n_batches=1)
    values, labels = generate_source(spec)
    if part == "values":
        values = values + 0j
    else:
        labels = labels.astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter(action)  # "ignore": a float cast drops the imaginary part silently
        with pytest.raises(InvalidSpec, match=f"^{what} are complex, not real$"):
            Engine(RunConfig(), values, labels, spec.k_s)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["learning_rate", "lam", "temperature"])
def test_non_finite_hyper_parameters_rejected(name, value):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(**{name: value})


# --- crafted two-prototype world: direct threshold semantics ----------------------


def crafted_engine(**cfg_kw):
    """Engine whose prototypes are exactly the 2-D axes; the stages it does not
    name in ``cfg_kw`` are off."""
    flags = dict(enable_clustering=False, enable_expansion=False, enable_alignment=False)
    cfg = RunConfig(feature_dim=2, batch_size=None, **{**flags, **cfg_kw})
    source = np.array([[9.0, 0.0], [0.0, 9.0]] * 8)
    labels = np.array([0, 1] * 8)
    engine = Engine(cfg, source, labels, num_known=2)
    # exact axes: overwrite the noisy init so geometry is hand-checkable
    engine.weight = np.eye(2)
    engine.pool = type(engine.pool)(np.eye(2), novel_capacity=cfg.novel_capacity)
    return engine


def batch_of(vectors):
    return Batch(np.asarray(vectors, dtype=float), np.zeros(len(vectors), dtype=int))


def test_fixed_threshold_splits_scores():
    engine = crafted_engine(fixed_threshold=0.5)
    # scores: 1 - max cosine = 0.4 and 0.6
    batch = batch_of([[0.6, -0.8], [0.4, -np.sqrt(1 - 0.16)]])
    _, _, scores, tau, predicted = engine.inference_stage(batch.values)
    np.testing.assert_allclose(scores, [0.4, 0.6], atol=1e-9)
    assert tau == 0.5
    assert predicted[0] == 0 and predicted[1] == REJECT


def test_on_prototype_samples_never_rejected():
    engine = crafted_engine()
    values = np.array([[1.0, 0.0], [0.0, 1.0]] * 8)
    _, _, scores, tau, predicted = engine.inference_stage(values)
    np.testing.assert_allclose(scores, 0.0, atol=1e-9)
    assert not np.any(predicted == REJECT)


def test_detection_off_forces_no_reject_threshold():
    engine = crafted_engine(enable_ood_detection=False)
    values = np.array([[-1.0, 0.0]] * 8)  # raw score 2.0, clamps to 1.0
    _, _, scores, tau, predicted = engine.inference_stage(values)
    assert tau == NO_REJECT_TAU
    np.testing.assert_allclose(scores, 1.0)
    assert not np.any(predicted == REJECT)


def test_reject_iff_score_at_or_above_threshold():
    engine = crafted_engine(fixed_threshold=0.4)
    batch = batch_of([[0.6, -0.8]])  # score exactly 0.4
    _, _, scores, tau, predicted = engine.inference_stage(batch.values)
    assert scores[0] == pytest.approx(0.4)
    assert predicted[0] == REJECT  # strict: os >= tau rejects


@pytest.mark.parametrize("floor", [0.0, EXPANSION_FLOOR])
def test_next_threshold_pushes_the_scores_then_applies_the_policy(floor):
    scores = np.array([0.05, 0.1, 0.7, 0.8, 0.9])
    fixed_window, window = ScoreWindow(8).push([0.2]), ScoreWindow(8).push([0.2])
    assert next_threshold(fixed_window, scores, floor, 0.3) == 0.3
    assert fixed_window.count == 6
    tau = next_threshold(window, scores, floor, None)
    assert window.count == 6
    assert tau == adaptive_threshold(window, floor).tau


# Rows whose scores against the axes are 0.4 (the floor, exactly), 0.35, 0.2 and 0.005.
LOW_ROWS = [[0.6, -0.8], [0.65, -np.sqrt(1 - 0.65**2)], [0.8, 0.6], [0.1, 1.0]]


def counting_expansion(monkeypatch):
    """Count the engine's threshold searches and expand calls."""
    calls = {"search": 0, "expand": 0}
    search, expand = engine_module.adaptive_threshold, engine_module.expand

    def counting_search(*args):
        calls["search"] += 1
        return search(*args)

    def counting_expand(*args):
        calls["expand"] += 1
        return expand(*args)

    monkeypatch.setattr(engine_module, "adaptive_threshold", counting_search)
    monkeypatch.setattr(engine_module, "expand", counting_expand)
    return calls


def test_a_batch_at_or_below_the_expansion_floor_skips_the_search_and_expand(monkeypatch):
    engine = crafted_engine(enable_clustering=True, enable_expansion=True)
    calls = counting_expansion(monkeypatch)
    values = np.array(LOW_ROWS * 4)
    outputs = engine.inference_stage(values)  # the inference threshold's search
    assert outputs[2].max() == EXPANSION_FLOOR
    engine.adaptation_stage(values, *outputs)
    assert calls == {"search": 1, "expand": 0}
    assert engine.extended_window.count == 16
    assert engine.pool.novel_count == 0
    # One score above the floor: the search and expand run, and the sample enters.
    values = np.array(LOW_ROWS * 4 + [[-1.0, 0.1]])
    engine.adaptation_stage(values, *engine.inference_stage(values))
    assert calls == {"search": 3, "expand": 1}
    assert engine.extended_window.count == 33
    assert engine.pool.novel_count == 1


def test_a_fixed_expansion_threshold_below_the_floor_still_admits(monkeypatch):
    engine = crafted_engine(enable_clustering=True, enable_expansion=True, fixed_threshold=0.3)
    calls = counting_expansion(monkeypatch)
    values = np.array(LOW_ROWS[1:])  # only the 0.35 row beats 0.3
    engine.adaptation_stage(values, *engine.inference_stage(values))
    assert calls == {"search": 0, "expand": 1}
    np.testing.assert_allclose(engine.pool.novel_matrix(), [LOW_ROWS[1]], atol=1e-12)


def test_an_empty_batch_in_a_free_size_stream_runs_to_the_end():
    spec = small_world(n_batches=5)
    src_x, src_y = generate_source(spec)
    for position in (0, 2):  # at 0 the window is empty, so short: tau is 1.0
        stream = generate_stream(spec)
        stream.insert(position, Batch(np.empty((0, spec.d_in)), np.empty(0)))
        result = Engine(RunConfig(batch_size=None), src_x, src_y, spec.k_s).run(stream)
        assert [o.batch for o in result.outcomes] == [0, 1, 2, 3, 4, 5]
        if position == 0:
            assert result.outcomes[0].tau == 1.0
        sizes = [len(o.predicted) for o in result.outcomes]
        assert sizes == [0 if t == position else spec.batch_size for t in range(6)]
        assert set(columns(result)["batch"].tolist()) == {0, 1, 2, 3, 4, 5} - {position}


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


@pytest.mark.parametrize("keep_ratio, n, count", [
    (0.07, 100, 7),  # 0.07 * 100 is 7.000000000000001
    (0.55, 200, 110),  # 110.00000000000001
    (0.5, 64, 32),
    (0.07, 7, 1),  # 0.49 rounds up
    (0.55, 201, 111),  # 110.55
    (1.0, 3, 3),
])
def test_selection_counts_keep_ratio_as_its_decimal(keep_ratio, n, count):
    scores = np.linspace(0.0, 1.0, n)
    assert len(select_confident(scores, 0.5, keep_ratio)) == count


# --- full-run contracts ---------------------------------------------------------------


def same_columns(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[key], b[key]) for key in a)


def test_rerun_is_bit_identical():
    spec = small_world()
    a = run_world(spec)
    b = run_world(spec)
    assert same_columns(columns(a), columns(b))
    assert np.array_equal(a.engine.weight, b.engine.weight)


def test_prefix_invariance():
    spec = small_world(n_batches=12)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    full = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(stream)
    prefix = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s).run(stream[:4])
    cut = columns(full)["batch"] < 4
    assert same_columns(columns(prefix), {k: v[cut] for k, v in columns(full).items()})


def test_all_toggles_off_leaves_adapter_untouched():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size, **BASELINE), src_x, src_y, spec.k_s)
    before = engine.weight.copy()
    engine.run(stream)
    np.testing.assert_array_equal(engine.weight, before)
    assert engine.pool.novel_count == 0


def test_baseline_predictions_are_nearest_prototype():
    spec = small_world(n_batches=2)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size, **BASELINE), src_x, src_y, spec.k_s)
    protos = engine.pool.source_matrix().copy()
    weight = engine.weight.copy()
    result = engine.run(stream)

    for t, batch in enumerate(stream):
        nearest = np.argmax(embed_batch(batch.values, weight) @ protos.T, axis=1)
        predicted = result.outcomes[t].predicted
        kept = predicted != REJECT
        np.testing.assert_array_equal(predicted[kept], nearest[kept])


def test_detection_off_never_rejects_whole_run():
    spec = small_world()
    result = run_world(spec, enable_ood_detection=False, enable_clustering=False,
                       enable_expansion=False, enable_alignment=False)
    assert (columns(result)["predicted"] != REJECT).all()
    assert result.report.acc_n == 0.0
    assert result.report.acc_h == 0.0


def test_expansion_disabled_keeps_pool_empty():
    spec = small_world()
    result = run_world(spec, enable_expansion=False)
    assert all(o.pn_size == 0 for o in result.outcomes)


def test_pool_bounded_by_capacity():
    spec = small_world(n_batches=20)
    result = run_world(spec, novel_capacity=7)
    assert all(o.pn_size <= 7 for o in result.outcomes)


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
    assert (columns(result)["predicted"] == REJECT).all()
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
    assert all(np.array_equal(columns(a)[k], columns(b)[k]) for k in ("predicted", "score"))


def test_batch_size_contract_enforced():
    spec = small_world(batch_size=32)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(seed=0, batch_size=16), src_x, src_y, spec.k_s)
    with pytest.raises(ConfigError):
        engine.run(stream)


def test_a_stream_narrower_than_the_source_raises_invalid_spec():
    spec = small_world(d_in=32)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(small_world(d_in=16))
    engine = Engine(RunConfig(seed=0, batch_size=spec.batch_size), src_x, src_y, spec.k_s)
    with pytest.raises(InvalidSpec, match="batch 0 has rows of width 16, the source has width 32"):
        engine.run(stream)


def test_trace_matches_report_at_final_batch():
    spec = small_world()
    result = run_world(spec)
    acc_s, acc_n, acc_h = result.accuracies[-1]
    assert acc_s == result.report.acc_s
    assert acc_n == result.report.acc_n
    assert acc_h == result.report.acc_h


@pytest.mark.parametrize("config", [{}, {"discrete_mode": True}, {"fixed_threshold": 0.3}])
def test_every_accuracies_row_is_a_recount_of_the_columns_so_far(config):
    result = run_world(small_world(n_batches=12), **config)
    rows = [(o.batch, *acc) for o, acc in zip(result.outcomes, result.accuracies, strict=True)]
    assert rows == cumulative_trace(columns(result), result.num_known)


def test_report_equals_a_recount_of_the_records():
    result = run_world(small_world())
    recount = RunningMetrics(result.num_known)
    recount.update(columns(result)["predicted"], columns(result)["hidden"])
    assert result.report == recount.report()


def test_empty_stream_raises_empty_records():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    with pytest.raises(EmptyRecords):
        Engine(RunConfig(seed=0), src_x, src_y, spec.k_s).run([])


def test_the_columns_of_no_batches_are_six_empty_arrays_of_the_run_dtypes():
    full = columns(run_world(small_world(n_batches=2)))
    empty = prediction_columns([], [])
    assert list(empty) == list(full) == list(engine_module.COLUMNS)
    assert {name: a.dtype for name, a in empty.items()} == {
        name: a.dtype for name, a in full.items()}
    assert all(a.shape == (0,) for a in empty.values())
    assert len({id(a) for a in empty.values()}) == len(empty)  # no array is shared


def test_losses_recorded_per_batch():
    spec = small_world()
    result = run_world(spec)
    assert len(result.outcomes) == spec.n_batches
    assert all(o.clustering_loss > 0.0 for o in result.outcomes)
    assert all(o.alignment_loss >= 0.0 for o in result.outcomes)
    assert any(o.alignment_loss > 0.0 for o in result.outcomes)


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
    assert len(err.value.outcomes) == len(err.value.hidden) == 3


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
    assert len(err.value.outcomes) == 3


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


@pytest.mark.parametrize("num_known", [5.0, 2.5, True, np.float64(5)],
                         ids=["float", "fraction", "bool", "numpy_float"])
def test_a_class_count_that_is_not_an_integer_raises_invalid_spec(num_known):
    spec = small_world()
    src_x, src_y = generate_source(spec)
    message = f"number of source classes must be an integer, got {num_known!r}"
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        Engine(RunConfig(), src_x, src_y, num_known)
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        build_source_prototypes(src_x, src_y, num_known)


def test_a_numpy_integer_class_count_is_accepted():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    as_numpy = Engine(RunConfig(), src_x, src_y, np.int64(spec.k_s))
    np.testing.assert_array_equal(as_numpy.pool.all_matrix(),
                                  Engine(RunConfig(), src_x, src_y, spec.k_s).pool.all_matrix())


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
        np.all(np.isfinite(engine.weight))
        and np.all(np.isfinite(engine.momentum_buffer))
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
    assert [len(o.predicted) for o in result.outcomes] == [1] * len(singles)
    # Past the warm-up the alignment gradient ran on one-sample batches.
    assert engine.target_stats.count >= 2 * cfg.feature_dim
    assert engine.target_stats.last_blend == cfg.beta
    assert np.isfinite([(o.clustering_loss, o.alignment_loss) for o in result.outcomes]).all()
    assert engine_state_is_finite(engine)


def test_all_reject_stream_leaves_alignment_without_a_gradient():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    engine = Engine(
        RunConfig(seed=0, batch_size=spec.batch_size, fixed_threshold=0.0),
        src_x, src_y, spec.k_s,
    )
    result = engine.run(generate_stream(spec))
    assert (columns(result)["predicted"] == REJECT).all()
    assert engine.target_stats.count == 0
    assert all(o.alignment_loss == 0.0 for o in result.outcomes)
    assert engine_state_is_finite(engine)


def test_all_accept_stream_absorbs_every_sample_into_the_target():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    cfg = RunConfig(seed=0, batch_size=spec.batch_size,
                    enable_ood_detection=False, enable_expansion=False)
    engine = Engine(cfg, src_x, src_y, spec.k_s)
    result = engine.run(generate_stream(spec))
    assert (columns(result)["predicted"] != REJECT).all()
    assert all(o.tau == NO_REJECT_TAU for o in result.outcomes)
    assert engine.target_stats.count == spec.n_batches * spec.batch_size
    assert all(o.alignment_loss > 0.0 for o in result.outcomes)
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
    assert result.outcomes[0].tau == 1.0
    if not adapt:
        # The adapter never moves, so every window holds one repeated score.
        assert np.unique(columns(result)["score"]).size == 1
        assert all(o.tau == 1.0 for o in result.outcomes)
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
    assert len(columns(result)["predicted"]) == batch_size * n_batches
    assert np.isfinite([(o.clustering_loss, o.alignment_loss) for o in result.outcomes]).all()
    assert engine_state_is_finite(engine)


# --- whole-engine reference -------------------------------------------------------------


REFERENCE_CONFIGS = {
    "full": {},
    "none": ABLATION_VARIANTS["none"],
    "od_pc": ABLATION_VARIANTS["od_pc"],
    "od_da": ABLATION_VARIANTS["od_da"],
    "fixed_0.3": {"fixed_threshold": 0.3},
    "novel_momentum_0.1": {"novel_momentum": 0.1},
    "novel_capacity_5": {"novel_capacity": 5},
    "discrete_mode": {"discrete_mode": True},
}


def assert_matches_reference(spec, config):
    """Run the engine and reference_run on one world; both must agree exactly."""
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    weight = init_adapter(config.feature_dim, spec.d_in, config.seed)
    expected = reference_run(config, src_x, src_y, spec.k_s, stream, weight)
    result = Engine(config, src_x, src_y, spec.k_s).run(stream)
    assert np.array_equal(columns(result)["predicted"], np.concatenate(expected.predicted)), \
        "predictions"
    assert np.array_equal(columns(result)["score"], np.concatenate(expected.scores)), "scores"
    assert [o.tau for o in result.outcomes] == expected.taus, "taus"
    assert [o.pn_size for o in result.outcomes] == [
        min(n, config.novel_capacity) for n in np.cumsum(expected.added)
    ], "novel counts"
    assert np.array_equal(result.engine.pool.all_matrix(), expected.pool.matrix()), "pool"
    assert np.array_equal(result.engine.weight, expected.weight), "weight"
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


# --- the per-batch step and the run's columns ------------------------------------------


def outcome_bytes(o):
    return (o.batch, o.predicted.dtype, o.predicted.tobytes(), o.score.tobytes(), o.tau,
            o.pn_size, o.clustering_loss, o.alignment_loss)


@pytest.mark.parametrize("free_size", [False, True], ids=["fixed_size", "free_size"])
def test_a_hand_fold_of_step_equals_run(free_size):
    spec = small_world(n_batches=8)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    if free_size:  # ragged batches, one of them empty
        sizes = [32, 5, 0, 17, 32, 1, 9, 20]
        stream = [Batch(b.values[:n], b.hidden[:n]) for b, n in zip(stream, sizes)]
    config = RunConfig(seed=0, batch_size=None if free_size else spec.batch_size)

    folded = Engine(config, src_x, src_y, spec.k_s)
    running, outcomes, accuracies = RunningMetrics(spec.k_s), [], []
    for batch in stream:
        o = folded.step(batch)
        running.update(o.predicted, batch.hidden)
        outcomes.append(o)
        accuracies.append(running.snapshot())
    result = Engine(config, src_x, src_y, spec.k_s).run(stream)

    assert [outcome_bytes(o) for o in outcomes] == [outcome_bytes(o) for o in result.outcomes]
    assert accuracies == result.accuracies
    assert all(h is batch.hidden for h, batch in zip(result.hidden, stream, strict=True))
    assert folded.batch_index == result.engine.batch_index == len(stream)
    assert folded.pool.all_matrix().tobytes() == result.engine.pool.all_matrix().tobytes()
    assert folded.weight.tobytes() == result.engine.weight.tobytes()


# --- the alignment branch on the run's worker thread -------------------------------------


def wide_world(n_batches=4):
    """The benchmark's wide-saturated world: 512 x 128 values per batch."""
    spec = WorldSpec(d_in=128, signal_dims=64, k_s=10, k_t=10, batch_size=512,
                     n_batches=n_batches, seed=0)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    assert stream[0].values.size >= engine_module.OVERLAP_BATCH_VALUES
    return spec, RunConfig(feature_dim=64, batch_size=512, seed=0), src_x, src_y, stream


def fold_steps(spec, config, src_x, src_y, stream):
    """A fresh engine stepped through ``stream`` outside run, and its outcomes."""
    engine = Engine(config, src_x, src_y, spec.k_s)
    return engine, [engine.step(batch) for batch in stream]


def engine_bytes(engine):
    stats = engine.target_stats
    return (engine.weight.tobytes(), engine.momentum_buffer.tobytes(), stats.count,
            stats.mean.tobytes(), stats.covariance.tobytes(), engine.pool.all_matrix().tobytes())


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(engine_module.datagen, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("switch_interval", [None, 1e-6])
def test_a_wide_run_overlaps_alignment_with_the_bits_of_a_serial_fold(
    monkeypatch, two_cpus, switch_interval
):
    # The 1 µs GIL switch interval makes the two threads take turns often.
    spec, config, src_x, src_y, stream = wide_world()
    threads, branch = [], Engine.alignment_branch

    def recording(self, *args):
        threads.append(threading.current_thread())
        return branch(self, *args)

    monkeypatch.setattr(Engine, "alignment_branch", recording)
    folded, outcomes = fold_steps(spec, config, src_x, src_y, stream)
    assert threads == [threading.current_thread()] * len(stream)
    threads.clear()
    before, interval = threading.active_count(), sys.getswitchinterval()
    try:
        sys.setswitchinterval(switch_interval or interval)
        result = Engine(config, src_x, src_y, spec.k_s).run(stream)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    # One worker thread ran every batch's branch.
    assert len(threads) == len(stream) and len(set(threads)) == 1
    assert threads[0] is not threading.current_thread()
    assert all(o.alignment_loss > 0.0 for o in outcomes)
    assert [outcome_bytes(o) for o in result.outcomes] == [outcome_bytes(o) for o in outcomes]
    assert engine_bytes(result.engine) == engine_bytes(folded)


@pytest.mark.parametrize("k", [0, 2])
def test_an_alignment_error_on_the_worker_fails_its_batch(monkeypatch, two_cpus, k):
    spec, config, src_x, src_y, stream = wide_world()
    error, kl_gradient, threads = ArithmeticError("alignment"), engine_module.kl_gradient, []

    def failing(*args):  # called once per batch
        threads.append(threading.current_thread())
        if len(threads) == k + 1:
            raise error
        return kl_gradient(*args)

    monkeypatch.setattr(engine_module, "kl_gradient", failing)
    before = threading.active_count()
    with pytest.raises(StageFailure) as failure:
        Engine(config, src_x, src_y, spec.k_s).run(stream)
    assert threading.active_count() == before
    assert (failure.value.batch_index, failure.value.cause) == (k, error)
    assert len(failure.value.outcomes) == k
    assert threading.current_thread() not in threads


def test_a_self_training_error_wins_over_the_busy_worker(monkeypatch, two_cpus):
    # On batch 1 the worker holds its branch until self-training has raised,
    # then raises too: the serial order raises the self-training error.
    spec, config, src_x, src_y, stream = wide_world()
    clustering_error, alignment_error = ArithmeticError("clustering"), ArithmeticError("alignment")
    raised, held = threading.Event(), []
    clustering, kl_gradient = engine_module.clustering_loss_gradient, engine_module.kl_gradient

    def failing_clustering(*args):
        if engine.batch_index == 1:
            raised.set()
            raise clustering_error
        return clustering(*args)

    def held_alignment(*args):
        if engine.batch_index == 1:
            held.append(threading.current_thread())
            raised.wait(10)
            raise alignment_error
        return kl_gradient(*args)

    monkeypatch.setattr(engine_module, "clustering_loss_gradient", failing_clustering)
    monkeypatch.setattr(engine_module, "kl_gradient", held_alignment)
    engine = Engine(config, src_x, src_y, spec.k_s)
    before = threading.active_count()
    with pytest.raises(StageFailure) as failure:
        engine.run(stream)
    assert threading.active_count() == before
    assert (failure.value.batch_index, failure.value.cause) == (1, clustering_error)
    assert raised.is_set() and len(held) == 1 and held[0] is not threading.current_thread()


def test_the_worker_runs_the_branch_under_the_adaptation_errstate(monkeypatch, two_cpus):
    # An overflow warns, and the filter makes the warning an error, unless
    # the thread ignores overflow as step does for the adaptation stage.
    spec, config, src_x, src_y, stream = wide_world()
    update, threads = engine_module.update_target_stats, []

    def overflowing(*args):
        threads.append(threading.current_thread())
        assert np.isinf(np.array([1e308]) * 10.0).all()
        return update(*args)

    monkeypatch.setattr(engine_module, "update_target_stats", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        folded, outcomes = fold_steps(spec, config, src_x, src_y, stream)
        result = Engine(config, src_x, src_y, spec.k_s).run(stream)
    assert threading.current_thread() not in threads[len(stream):]
    assert [outcome_bytes(o) for o in result.outcomes] == [outcome_bytes(o) for o in outcomes]
    assert engine_bytes(result.engine) == engine_bytes(folded)


def recording_branch(monkeypatch, failing=None):
    """Patch Engine.alignment_branch to note (thread, its CPU mask) at each call,
    raising ArithmeticError at call ``failing`` (counted from 0); returns the notes."""
    branch, calls = Engine.alignment_branch, []

    def recording(self, *args):
        calls.append((threading.get_ident(), os.sched_getaffinity(0)))
        if len(calls) - 1 == failing:
            raise ArithmeticError("alignment")
        return branch(self, *args)

    monkeypatch.setattr(Engine, "alignment_branch", recording)
    return calls


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.sched_getaffinity and two usable CPUs")
@pytest.mark.parametrize("failing", [None, 2])
def test_the_overlap_worker_runs_off_the_callers_cpu_and_leaves_its_mask(
    monkeypatch, two_cpus, failing
):
    spec, config, src_x, src_y, stream = wide_world()
    lookup, lookups = datagen._sched_getcpu, []

    def recording_lookup():
        lookups.append((threading.get_ident(), lookup()))
        return lookups[-1][1]

    monkeypatch.setattr(datagen, "_sched_getcpu", recording_lookup)
    calls = recording_branch(monkeypatch, failing)
    caller, mask = threading.get_ident(), os.sched_getaffinity(0)
    if failing is None:
        Engine(config, src_x, src_y, spec.k_s).run(stream)
    else:
        with pytest.raises(StageFailure, match="alignment"):
            Engine(config, src_x, src_y, spec.k_s).run(stream)
    assert os.sched_getaffinity(0) == mask
    [(looked_up_on, cpu)] = lookups  # once, when the first overlapped batch starts the worker
    assert looked_up_on == caller and cpu in mask
    assert len(calls) == (len(stream) if failing is None else failing + 1)
    assert calls == [(calls[0][0], mask - {cpu})] * len(calls) and calls[0][0] != caller


def _raise_oserror(*args):
    raise OSError("not here")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("failing", ["lookup", "no_cpu", "affinity"])
def test_an_overlap_whose_pinning_fails_runs_unpinned_with_the_bits_of_a_fold(
    monkeypatch, two_cpus, failing
):
    spec, config, src_x, src_y, stream = wide_world()
    folded, outcomes = fold_steps(spec, config, src_x, src_y, stream)
    if failing == "lookup":
        monkeypatch.setattr(datagen, "_sched_getcpu", _raise_oserror)
    elif failing == "no_cpu":  # the fallback where the C library has no sched_getcpu
        monkeypatch.setattr(datagen, "_sched_getcpu", lambda: -1)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", _raise_oserror)
    calls, mask = recording_branch(monkeypatch), os.sched_getaffinity(0)
    result = Engine(config, src_x, src_y, spec.k_s).run(stream)
    assert calls == [(calls[0][0], mask)] * len(stream) and calls[0][0] != threading.get_ident()
    assert [outcome_bytes(o) for o in result.outcomes] == [outcome_bytes(o) for o in outcomes]
    assert engine_bytes(result.engine) == engine_bytes(folded)


@pytest.mark.parametrize("case", ["default_world", "one_cpu", "no_alignment", "no_clustering",
                                  "step_outside_run"])
def test_alignment_stays_on_the_calling_thread_outside_the_overlap(monkeypatch, two_cpus, case):
    if case == "default_world":  # 64 x 32 values per batch
        spec = WorldSpec(n_batches=3)
        config = RunConfig()
        src_x, src_y = generate_source(spec)
        stream = generate_stream(spec)
        assert stream[0].values.size < engine_module.OVERLAP_BATCH_VALUES
    else:
        spec, config, src_x, src_y, stream = wide_world(n_batches=2)
    if case == "one_cpu":
        monkeypatch.setattr(engine_module.datagen, "_usable_cpus", lambda: 1)
    elif case == "no_alignment":
        config = dataclasses.replace(config, enable_alignment=False)
    elif case == "no_clustering":
        config = dataclasses.replace(config, enable_clustering=False, enable_expansion=False)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    engine = Engine(config, src_x, src_y, spec.k_s)
    if case == "step_outside_run":
        for batch in stream:
            engine.step(batch)
    else:
        engine.run(stream)
    assert engine.batch_index == len(stream)


@pytest.mark.parametrize("position, nan_batch, config", [
    (0, 0, {}),  # the inference stage fails
    (3, 3, {}),
    (0, None, dict(learning_rate=1e308)),  # the adaptation stage fails
    (4, None, dict(lam=1e308)),
])
def test_a_stage_failure_carries_exactly_the_finished_prefix(position, nan_batch, config):
    spec = WorldSpec(n_source=200, n_batches=6, batch_size=16)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    if nan_batch is not None:
        stream[nan_batch].values[0, 2] = np.nan
    config = RunConfig(batch_size=16, **config)
    engine = Engine(config, src_x, src_y, spec.k_s)
    with pytest.raises(StageFailure) as failure:
        engine.run(stream)
    failure = failure.value
    assert failure.batch_index == engine.batch_index == position
    assert [h is b.hidden for h, b in zip(failure.hidden, stream)] == [True] * position
    if position:
        prefix = Engine(config, src_x, src_y, spec.k_s).run(stream[:position])
        assert [outcome_bytes(o) for o in failure.outcomes] == [
            outcome_bytes(o) for o in prefix.outcomes]
        recount = cumulative_trace(prediction_columns(failure.outcomes, failure.hidden), spec.k_s)
        assert recount == [(o.batch, *acc) for o, acc in zip(prefix.outcomes, prefix.accuracies)]
    else:
        assert (failure.outcomes, failure.hidden) == ([], [])


def test_a_stage_failure_from_step_alone_carries_no_prefix():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    stream[1].values[0, 0] = np.nan
    engine = Engine(RunConfig(batch_size=spec.batch_size), src_x, src_y, spec.k_s)
    engine.step(stream[0])
    with pytest.raises(StageFailure) as failure:
        engine.step(stream[1])
    assert (failure.value.outcomes, failure.value.hidden) == ([], [])
    assert failure.value.batch_index == engine.batch_index == 1


def test_a_spent_engine_refuses_every_later_step_and_runs_no_stage():
    # lam=1e308 makes batch 4's alignment gradient overflow; its half-done
    # updates stay, and no later step adds to them.
    spec = WorldSpec(batch_size=16)
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(batch_size=16, lam=1e308), src_x, src_y, spec.k_s)
    with pytest.raises(StageFailure) as first:
        engine.run(stream)
    first = first.value
    assert first.batch_index == 4
    weight = engine.weight.copy()
    assert (engine.plain_window.count, engine.target_stats.count) == (80, 36)
    for batch in (stream[4], stream[5], Batch(stream[5].values[:3], stream[5].hidden[:3])):
        with pytest.raises(StageFailure) as again:
            engine.step(batch)
        assert again.value is not first and again.value.__cause__ is first.cause
        assert (again.value.batch_index, again.value.cause) == (4, first.cause)
        assert (engine.plain_window.count, engine.target_stats.count) == (80, 36)
        assert engine.batch_index == 4 and np.array_equal(engine.weight, weight)


def test_a_malformed_batch_raises_its_own_type_before_any_state_changes():
    spec = small_world()
    src_x, src_y = generate_source(spec)
    stream = generate_stream(spec)
    engine = Engine(RunConfig(batch_size=spec.batch_size), src_x, src_y, spec.k_s)
    engine.step(stream[0])
    weight = engine.weight.copy()
    short = Batch(stream[1].values[:16], stream[1].hidden[:16])
    narrow = Batch(stream[1].values[:, :16], stream[1].hidden)
    with pytest.raises(ConfigError, match="batch 1 has 16 samples, config expects 32"):
        engine.step(short)
    with pytest.raises(InvalidSpec, match="batch 1 has rows of width 16, the source has width 32"):
        engine.step(narrow)
    assert engine.batch_index == 1 and np.array_equal(engine.weight, weight)
    for bad, error in ((short, ConfigError), (narrow, InvalidSpec)):
        fresh = Engine(RunConfig(batch_size=spec.batch_size), src_x, src_y, spec.k_s)
        with pytest.raises(error, match="batch 2 has"):
            fresh.run(stream[:2] + [bad])


def test_the_records_view_is_built_once_on_first_access(monkeypatch):
    built, init = [], engine_module.PredictionRecord.__init__

    def counting_init(record, *fields):
        built.append(fields)
        init(record, *fields)

    monkeypatch.setattr(engine_module.PredictionRecord, "__init__", counting_init)
    spec = small_world(n_batches=4)
    result = run_world(spec)
    assert built == []  # run builds no per-sample record
    records = result.records
    assert len(built) == len(records) == 4 * spec.batch_size
    assert result.records is records and len(built) == len(records)
    rows = [(r.timestamp, r.index, r.predicted_label, r.ood_score, r.threshold_used,
             r.hidden_label) for r in records]
    assert rows == list(zip(*(column.tolist() for column in columns(result).values())))
    types = {tuple(type(value) for value in row) for row in rows}
    assert types == {(int, int, int, float, float, int)}


def test_a_run_retains_a_bounded_number_of_bytes_per_sample():
    import tracemalloc

    spec = WorldSpec(n_batches=100, seed=0)
    src_x, src_y = generate_source(spec)
    template = generate_stream(spec)

    def fresh(n):  # new arrays for every batch, as a generator would make them
        for t in range(n):
            batch = template[t % len(template)]
            yield Batch(batch.values.copy(), batch.hidden.copy())

    def peak(n):
        engine = Engine(RunConfig(seed=0), src_x, src_y, spec.k_s)
        tracemalloc.start()
        try:
            result = engine.run(fresh(n))
            assert len(result.outcomes) == n
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak(2000) - peak(200)) / (1800 * spec.batch_size)
    assert growth <= 40.0, f"{growth:.1f} bytes per sample"
