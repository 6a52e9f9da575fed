import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    brute_force_threshold,
    discrete_scores,
    fifo_window,
    sorted_cumsum_threshold,
)
from owtt.engine import EXPANSION_FLOOR
from owtt.errors import ConfigError, EmptyPrototypeSet, InvalidSpec, NonFiniteInput
from owtt.prototypes import PrototypePool
from owtt.scoring import (
    MIN_WINDOW_SCORES,
    THRESHOLD_GRID,
    TOP_M,
    ScoreWindow,
    adaptive_threshold,
    batch_discrete_scores,
    batch_ood_scores,
    clamp_scores,
    ood_score,
)

SQ2 = np.sqrt(2.0) / 2.0


def make_pool(source, novel=(), capacity=100):
    pool = PrototypePool(np.asarray(source, dtype=float), novel_capacity=capacity)
    for p in novel:
        pool.push_novel(np.asarray(p, dtype=float))
    return pool


# Scores of one feature, as a one-row batch: against source plus novel
# prototypes, in discrete mode, and against the source prototypes alone.
def extended_score(feature, pool):
    return batch_ood_scores(feature[None, :] @ pool.all_matrix().T)[0]


def discrete_score(feature, pool):
    source = feature[None, :] @ pool.source_matrix().T
    return batch_discrete_scores(source, feature[None, :] @ pool.novel_matrix().T,
                                 source.argmax(axis=1))[0]


def plain_score(feature, pool):
    return batch_ood_scores(feature[None, :] @ pool.source_matrix().T)[0]


# --- plain and extended scores -------------------------------------------------


def test_score_zero_on_matching_prototype():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert ood_score(np.array([0.0, 1.0]), protos) == pytest.approx(0.0)


def test_score_one_when_orthogonal_to_all():
    protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert ood_score(np.array([0.0, 0.0, 1.0]), protos) == pytest.approx(1.0)


def test_score_hand_cosine_case():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    feature = np.array([SQ2, SQ2])
    assert ood_score(feature, protos) == pytest.approx(1.0 - SQ2)


def test_empty_prototypes_raise():
    with pytest.raises(EmptyPrototypeSet):
        ood_score(np.array([1.0]), np.empty((0, 1)))


def test_batch_scores_without_prototype_columns_raise():
    with pytest.raises(EmptyPrototypeSet):
        batch_ood_scores(np.empty((3, 0)))


@settings(max_examples=300, deadline=None)
@given(similarities=hnp.arrays(
    np.float64, st.tuples(st.integers(0, 9), st.integers(1, 6)),
    elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0),
))
def test_batch_scores_equal_one_minus_the_row_maxima_bit_for_bit(similarities):
    # Exact ties, signed zeros and one-column tables: a row maximum read at
    # the argmax is the maximum, and 1 - (+0.0) and 1 - (-0.0) are both 1.
    expected = (1.0 - similarities.max(axis=1)).tobytes()
    assert batch_ood_scores(similarities).tobytes() == expected
    assert batch_ood_scores(similarities, similarities.argmax(axis=1)).tobytes() == expected


def test_extended_equals_plain_with_empty_novel_pool():
    pool = make_pool([[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        assert extended_score(v, pool) == plain_score(v, pool)


def test_extended_zero_on_novel_prototype():
    pool = make_pool([[1.0, 0.0]], novel=[[0.0, 1.0]])
    assert extended_score(np.array([0.0, 1.0]), pool) == pytest.approx(0.0)


def test_extended_hand_case():
    pool = make_pool([[1.0, 0.0]], novel=[[0.0, 1.0]])
    assert extended_score(np.array([SQ2, SQ2]), pool) == pytest.approx(1.0 - SQ2)


def test_extended_never_exceeds_plain():
    rng = np.random.default_rng(3)
    source = rng.normal(size=(4, 6))
    source /= np.linalg.norm(source, axis=1, keepdims=True)
    novel = rng.normal(size=(3, 6))
    novel /= np.linalg.norm(novel, axis=1, keepdims=True)
    pool = make_pool(source, novel=list(novel))
    feats = rng.normal(size=(50, 6))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    plain = batch_ood_scores(feats @ source.T)
    extended = batch_ood_scores(feats @ pool.all_matrix().T)
    assert np.all(extended <= plain + 1e-12)


# --- discrete-mode variant -----------------------------------------------------


def test_discrete_falls_back_without_novel_prototypes():
    pool = make_pool([[1.0, 0.0], [0.0, 1.0]])
    v = np.array([SQ2, SQ2])
    assert discrete_score(v, pool) == plain_score(v, pool)


def test_discrete_zero_when_on_source_and_orthogonal_to_novel():
    pool = make_pool([[1.0, 0.0]], novel=[[0.0, 1.0]])
    assert discrete_score(np.array([1.0, 0.0]), pool) == pytest.approx(0.0)


def test_discrete_one_when_on_novel_and_orthogonal_to_source():
    pool = make_pool([[1.0, 0.0]], novel=[[0.0, 1.0]])
    assert discrete_score(np.array([0.0, 1.0]), pool) == pytest.approx(1.0)


def test_discrete_averages_available_novel_when_below_top_m():
    # two novel prototypes, top_m=10: s_u averages both.
    pool = make_pool([[1.0, 0.0, 0.0]], novel=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    v = np.array([0.0, SQ2, SQ2])
    s_u = (SQ2 + SQ2) / 2.0
    expected = s_u * s_u / s_u  # s_s = 0
    assert discrete_score(v, pool) == pytest.approx(expected)


def unit(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_novel=st.integers(0, 20),
    batch=st.integers(1, 20),
    dim=st.integers(2, 6),
    orthogonal=st.booleans(),
)
def test_batch_discrete_scores_match_row_by_row_oracle(seed, n_novel, batch, dim, orthogonal):
    # Covers an empty pool, fewer novel prototypes than TOP_M, more, and a
    # full pool that has evicted its oldest rows (capacity 16).
    rng = np.random.default_rng(seed)
    source = unit(rng, 3, dim)
    novel = unit(rng, n_novel, dim)
    features = unit(rng, batch, dim)
    if orthogonal:
        # The first feature has no affinity to either pool: the total < 1e-12 branch.
        source[:, 0], novel[:, 0] = 0.0, 0.0
        source = np.abs(source) / np.linalg.norm(source, axis=1, keepdims=True)
        novel = np.abs(novel) / np.linalg.norm(novel, axis=1, keepdims=True)
        features[0] = np.eye(dim)[0]
    pool = make_pool(source, novel=list(novel), capacity=16)
    source_sims, novel_sims = features @ pool.source_matrix().T, features @ pool.novel_matrix().T
    expected = discrete_scores(source_sims, novel_sims, TOP_M)
    nearest = source_sims.argmax(axis=1)
    assert np.array_equal(batch_discrete_scores(source_sims, novel_sims, nearest), expected)
    if orthogonal and n_novel:
        assert expected[0] == 0.5


# --- score window ---------------------------------------------------------------


@pytest.mark.parametrize("capacity", [0, -1])
def test_window_capacity_below_one_raises_config_error(capacity):
    with pytest.raises(ConfigError):
        ScoreWindow(capacity)


def test_window_fifo_eviction():
    window = ScoreWindow(3)
    window.push([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(window.values(), [0.2, 0.3, 0.4])


def test_window_push_empty_is_noop():
    window = ScoreWindow(3)
    window.push([0.5])
    window.push([])
    np.testing.assert_allclose(window.values(), [0.5])


def test_window_clamps_scores():
    window = ScoreWindow(4)
    window.push([1.3, -0.2])
    np.testing.assert_allclose(window.values(), [1.0, 0.0])


CLAMP_EDGES = [-0.0, 0.0, -1e-300, 5e-324, 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, -3.0]


def test_clamp_matches_np_clip_bytes_at_the_edges():
    edges = np.array(CLAMP_EDGES)
    assert clamp_scores(edges).tobytes() == np.clip(edges, 0.0, 1.0).tobytes()
    assert np.signbit(clamp_scores(edges)[0])  # -0.0 stays -0.0, as np.clip keeps it
    window = ScoreWindow(16)
    window.push(edges)
    assert window.values().tobytes() == np.clip(edges, 0.0, 1.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_clamp_matches_np_clip_bytes(values):
    scores = np.array(values, dtype=float)
    assert clamp_scores(scores).tobytes() == np.clip(scores, 0.0, 1.0).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_window_push_refuses_a_non_finite_score_and_keeps_its_values(value):
    # Eight 0.1s, eight 0.9s and a NaN once gave a silent, degenerate tau=1.0.
    window = ScoreWindow(32)
    with pytest.raises(NonFiniteInput, match="score 16 "):
        window.push([0.1] * 8 + [0.9] * 8 + [value])
    assert window.count == 0
    window.push([0.1] * 8 + [0.9] * 8)
    before = window.values()
    with pytest.raises(NonFiniteInput, match="score 1 "):
        window.push([0.5, value, 0.3, value])
    np.testing.assert_array_equal(window.values(), before)
    assert adaptive_threshold(window).tau == 0.1


def test_window_push_refuses_a_scalar_before_the_window_changes():
    window = ScoreWindow(4).push([0.2])
    for score in (0.25, np.float64(2.0)):
        with pytest.raises(InvalidSpec, match=re.escape("scores must be 1-D, got shape ()")):
            window.push(score)
    assert window.values().tolist() == [0.2]


@pytest.mark.parametrize("shape", [(2, 2), (0, 3), (1, 1), (3, 1, 2)])
def test_window_push_refuses_scores_that_are_not_1d_before_the_window_changes(shape):
    window = ScoreWindow(8).push([0.2, 0.4])
    with pytest.raises(InvalidSpec, match=re.escape(f"scores must be 1-D, got shape {shape}")):
        window.push(np.full(shape, 0.5))
    assert window.values().tolist() == [0.2, 0.4]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 12),
    pushes=st.lists(
        st.lists(st.floats(-2.0, 3.0, allow_nan=False), max_size=20), max_size=8
    ),
)
def test_window_matches_list_fifo_oracle(capacity, pushes):
    window = ScoreWindow(capacity)
    for push in pushes:
        window.push(push)
        assert window.count <= capacity
    expected = fifo_window(pushes, capacity)
    assert window.count == len(expected)
    assert window.values().tolist() == expected


def test_window_values_is_a_copy():
    window = ScoreWindow(4).push([0.2, 0.4])
    window.values()[0] = 0.9
    assert window.values().tolist() == [0.2, 0.4]


# --- adaptive threshold ----------------------------------------------------------


def window_of(scores, capacity=512):
    return ScoreWindow(capacity).push(scores)


def test_perfectly_separated_clusters_pick_smallest_candidate():
    est = adaptive_threshold(window_of([0.1] * 4 + [0.9] * 4))
    assert not est.degenerate
    assert est.tau == pytest.approx(0.10)


def test_identical_scores_are_degenerate():
    est = adaptive_threshold(window_of([0.5] * 16))
    assert est.degenerate
    assert est.tau == 1.0


def test_below_activation_count_is_degenerate():
    est = adaptive_threshold(window_of([0.1, 0.9] * 3))  # six scores
    assert est.degenerate and est.tau == 1.0
    assert MIN_WINDOW_SCORES == 8


def test_empty_window_is_degenerate():
    est = adaptive_threshold(ScoreWindow(4))
    assert est.degenerate and est.tau == 1.0
    assert brute_force_threshold([]) == (1.0, None, True)


def test_clamp_excluding_every_candidate_is_degenerate():
    scores = np.linspace(0.05, 0.35, 32)
    est = adaptive_threshold(window_of(scores), floor=0.4)
    assert est.degenerate and est.tau == 1.0


def test_clamp_restricts_candidate_range():
    scores = [0.1] * 8 + [0.9] * 8
    est = adaptive_threshold(window_of(scores), floor=0.4)
    assert est.tau == pytest.approx(0.40)


def test_bimodal_mixture_matches_oracle_and_separates_components():
    rng = np.random.default_rng(2024)
    component = rng.integers(0, 2, size=512)
    scores = np.where(
        component == 0,
        rng.normal(0.2, 0.05, size=512),
        rng.normal(0.8, 0.05, size=512),
    ).clip(0.0, 1.0)
    est = adaptive_threshold(window_of(scores))
    tau_oracle, _, degenerate = brute_force_threshold(scores)
    assert not degenerate
    assert est.tau == pytest.approx(tau_oracle)
    misassigned = np.sum((scores > est.tau) != (component == 1))
    assert misassigned / 512 < 0.02


def test_matches_brute_force_oracle_on_random_windows():
    rng = np.random.default_rng(99)
    for _ in range(200):
        size = int(rng.integers(MIN_WINDOW_SCORES, 128))
        if rng.random() < 0.5:
            scores = rng.uniform(0, 1, size=size)
        else:
            centers = rng.uniform(0, 1, size=2)
            scores = np.concatenate(
                [
                    rng.normal(centers[0], 0.08, size=size // 2),
                    rng.normal(centers[1], 0.08, size=size - size // 2),
                ]
            ).clip(0, 1)
        est = adaptive_threshold(window_of(scores))
        tau_oracle, _, degenerate = brute_force_threshold(scores)
        assert est.degenerate == degenerate
        assert est.tau == pytest.approx(tau_oracle)


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=8, max_size=64),
    seed=st.integers(0, 10_000),
)
def test_threshold_invariant_under_permutation(scores, seed):
    rng = np.random.default_rng(seed)
    shuffled = np.array(scores)
    rng.shuffle(shuffled)
    direct = adaptive_threshold(window_of(scores))
    permuted = adaptive_threshold(window_of(shuffled))
    assert direct.tau == permuted.tau
    assert direct.degenerate == permuted.degenerate


@st.composite
def threshold_windows(draw):
    """A filled score window and a floor, built to hit the grid search's edges:
    scores on grid points, all-equal and two-valued windows, scores outside
    [0, 1] before the window clamps them, and floors on the grid or 1e-13 or
    1e-12 off it (the floor's own tolerance)."""
    window = ScoreWindow(draw(st.integers(8, 512)))
    size = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "grid", "equal", "two-valued", "wide", "bimodal"]))
    if kind == "uniform":
        scores = rng.uniform(0.0, 1.0, size)
    elif kind == "grid":
        scores = rng.choice(THRESHOLD_GRID, size)
    elif kind == "equal":
        scores = np.full(size, rng.choice(THRESHOLD_GRID) if rng.random() < 0.5 else rng.random())
    elif kind == "two-valued":
        scores = rng.choice(rng.choice(THRESHOLD_GRID, 2), size)
    elif kind == "wide":
        scores = rng.uniform(-0.5, 1.5, size)
    else:
        centers = rng.uniform(0.0, 1.0, 2)
        scores = rng.normal(centers[rng.integers(0, 2, size)], 0.05)
    window.push(scores)

    grid_point = st.sampled_from(THRESHOLD_GRID.tolist())
    floor = draw(st.one_of(
        st.sampled_from([0.0, EXPANSION_FLOOR, 1.0]),
        grid_point,
        st.builds(lambda g, off: min(max(g + off, 0.0), 1.0), grid_point,
                  st.sampled_from([-1e-12, -1e-13, 1e-13, 1e-12])),
        st.floats(0.0, 1.0),
    ))
    return window, floor


@settings(max_examples=400, deadline=None)
@given(case=threshold_windows())
def test_threshold_equals_sorted_cumsum_oracle_exactly(case):
    window, floor = case
    est = adaptive_threshold(window, floor)
    tau, _, degenerate = sorted_cumsum_threshold(window.values(), (floor, 1.0), MIN_WINDOW_SCORES)
    assert (est.tau, est.degenerate) == (tau, degenerate)
    # The default floor admits every candidate, as no bound at all does.
    est = adaptive_threshold(window)
    tau, _, degenerate = sorted_cumsum_threshold(window.values(), None, MIN_WINDOW_SCORES)
    assert (est.tau, est.degenerate) == (tau, degenerate)


@settings(max_examples=400, deadline=None)
@given(case=threshold_windows())
def test_no_clamped_threshold_lies_below_the_floor(case):
    window, floor = case
    assert adaptive_threshold(window, EXPANSION_FLOOR).tau >= EXPANSION_FLOOR
    assert adaptive_threshold(window, floor).tau >= floor - 1e-12


def test_the_expansion_floor_is_a_grid_point():
    # So the engine's skip of batches scoring at or below it is exact.
    assert EXPANSION_FLOOR in THRESHOLD_GRID.tolist()


@pytest.mark.parametrize("clamp, floor", [((0.4, 1.0), 0.4), ((0.4 + 1e-13, 1.0), 0.4),
                                          ((0.4 + 1e-11, 1.0), 0.41), ((0.0, 1.0), 0.0),
                                          ((1.0, 1.0), 1.0), ((1.5, 2.0), 1.0),
                                          ((0.4 - 1e-13, 1.0), 0.4), ((-0.5, 1.0), 0.0)])
def test_the_floor_is_the_first_candidate_the_clamp_admits(clamp, floor):
    # The search at a floor admits what the oracle's clamp with that lower end
    # admits. Every candidate in [0, 1) splits this window with no variance, so
    # tau is the first one admitted (``floor``); from 1.0 up none is admitted.
    window = window_of([0.0] * 8 + [1.0] * 8)
    est = adaptive_threshold(window, clamp[0])
    assert est.tau == floor == sorted_cumsum_threshold(window.values(), clamp)[0]
    assert est.degenerate == (floor == 1.0)
