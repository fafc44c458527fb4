"""Top-K state and pruning thresholds (§3.1, Algorithm 1)."""
import numpy as np
import pytest

from repro.core.pruning import TopK, prune_mask


def test_threshold_inf_until_full():
    t = TopK(1, 3)
    assert t.dists[0, -1] == np.inf
    t.update(0, np.array([1, 2]), np.array([0.5, 0.2]))
    assert t.dists[0, -1] == np.inf  # only 2 of 3 slots filled
    t.update(0, np.array([3]), np.array([0.9]))
    assert t.dists[0, -1] == pytest.approx(0.9)


def test_threshold_is_kth_best():
    t = TopK(1, 2)
    t.update(0, np.arange(5), np.array([5.0, 1.0, 3.0, 2.0, 4.0]))
    assert t.dists[0, -1] == pytest.approx(2.0)


def test_update_keeps_smallest():
    t = TopK(1, 3)
    t.update(0, np.arange(10), np.arange(10, dtype=float))
    ids, dists = t.ids, t.dists
    np.testing.assert_array_equal(ids[0], [0, 1, 2])
    np.testing.assert_array_equal(dists[0], [0.0, 1.0, 2.0])


def test_result_sorted_and_padded():
    t = TopK(2, 4)
    t.update(0, np.array([3, 1]), np.array([0.3, 0.1]))
    ids, dists = t.ids, t.dists
    assert list(ids[0]) == [1, 3, -1, -1]
    assert dists[0][2] == np.inf
    assert list(ids[1]) == [-1] * 4  # untouched query


def test_queries_independent():
    t = TopK(2, 1)
    t.update(0, np.array([1]), np.array([1.0]))
    t.update(1, np.array([2]), np.array([2.0]))
    assert t.dists[0, -1] == 1.0
    assert t.dists[1, -1] == 2.0


def test_empty_update_noop():
    t = TopK(1, 2)
    t.update(0, np.empty(0, dtype=np.int64), np.empty(0))
    assert t.dists[0, -1] == np.inf


def test_threshold_monotone_nonincreasing():
    t = TopK(1, 2)
    g = np.random.default_rng(0)
    prev = np.inf
    for i in range(20):
        t.update(0, np.array([i]), np.array([g.random() * 10]))
        cur = t.dists[0, -1]
        assert cur <= prev
        prev = cur


def test_prune_mask_strict():
    s = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(prune_mask(s, 2.0), [True, True, False])


def test_prune_mask_keeps_ties():
    # ties with τ² survive (strict > pruning preserves exactness)
    assert prune_mask(np.array([5.0]), 5.0)[0]


def test_pruned_never_in_topk():
    # Property: any candidate whose partial sum exceeds the running τ²
    # cannot appear in the exact top-K.
    g = np.random.default_rng(1)
    x = g.standard_normal((200, 12))
    q = g.standard_normal(12)
    d_full = ((x - q) ** 2).sum(1)
    k = 5
    tau2 = np.sort(d_full)[k - 1]
    partial = ((x[:, :6] - q[:6]) ** 2).sum(1)  # monotone lower bound
    pruned = ~prune_mask(partial, tau2)
    topk = set(np.argsort(d_full)[:k])
    assert topk.isdisjoint(set(np.nonzero(pruned)[0]))
