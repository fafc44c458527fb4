"""Property-based tests (hypothesis) for the pruning/partition math."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.partition import pack_clusters, split_dims
from repro.core.pruning import TopK
from repro.core.router import POLICIES, dim_order
from repro.ivf.kmeans import pairwise_sq_l2

FLOATS = st.floats(-100, 100, allow_nan=False, width=32)


@given(st.integers(1, 512), st.integers(1, 16))
def test_split_dims_partitions_range(dim, bd):
    bd = min(bd, dim)
    bounds = split_dims(dim, bd)
    covered = []
    for lo, hi in bounds:
        covered.extend(range(lo, hi))
    assert covered == list(range(dim))


@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=40),
    st.integers(1, 6),
)
def test_pack_clusters_lpt_bound(weights, b_vec):
    # LPT guarantee: max load <= ideal + max single weight.
    w = np.asarray(weights)
    a = pack_clusters(w, b_vec)
    loads = np.zeros(b_vec)
    for c, v in enumerate(a):
        loads[v] += w[c]
    assert loads.max() <= w.sum() / b_vec + w.max() + 1e-9


@given(
    st.lists(st.lists(FLOATS, min_size=4, max_size=4), min_size=2,
             max_size=30),
    st.integers(1, 4),
)
@settings(max_examples=40)
def test_partial_sums_monotone(rows, b_dim):
    # Monotonicity (§3.1): cumulative partial squared-L2 sums never
    # decrease as more dimension blocks are added.
    x = np.asarray(rows, dtype=np.float32)
    q = x[0]
    bounds = split_dims(x.shape[1], min(b_dim, x.shape[1]))
    s = np.zeros(len(x))
    prev = s.copy()
    for lo, hi in bounds:
        s = s + ((x[:, lo:hi] - q[lo:hi]) ** 2).sum(1)
        assert np.all(s >= prev - 1e-6)
        prev = s.copy()
    full = ((x - q) ** 2).sum(1)
    np.testing.assert_allclose(s, full, rtol=1e-3, atol=1e-3)


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.integers(1, 10),
)
@settings(max_examples=40)
def test_topk_matches_sorted_reference(dists, k):
    t = TopK(1, k)
    t.update(0, np.arange(len(dists)), np.asarray(dists))
    got = t.dists
    want = np.sort(np.asarray(dists))[:k]
    got = got[0][: len(want)]
    np.testing.assert_allclose(got[np.isfinite(got)],
                               want[: np.isfinite(got).sum()])


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
    st.integers(1, 8),
)
@settings(max_examples=40)
def test_topk_threshold_upper_bounds_members(dists, k):
    t = TopK(1, k)
    t.update(0, np.arange(len(dists)), np.asarray(dists))
    res = t.dists
    th = t.dists[0, -1]
    finite = res[0][np.isfinite(res[0])]
    assert np.all(finite <= th + 1e-9)


@given(
    st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=1,
             max_size=20),
)
@settings(max_examples=40)
def test_pairwise_sq_l2_symmetric_psd(rows):
    a = np.asarray(rows, dtype=np.float32)
    d = pairwise_sq_l2(a, a)
    assert d.min() >= 0
    np.testing.assert_allclose(d, d.T, rtol=1e-3, atol=1e-2)


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=40),
    st.integers(1, 8),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_topk_ids_independent_of_arrival_order(levels, k, n_calls, rnd):
    # Tie stability: candidates tied on distance must yield the same ids
    # whatever order (and however split into updates) they arrive in.
    ids = np.arange(len(levels))
    dists = np.asarray(levels, dtype=np.float64)

    def run(order):
        t = TopK(1, k)
        for part in np.array_split(order, n_calls):
            t.update(0, ids[part], dists[part])
        return t.ids, t.dists

    want_ids, want_d = run(ids)
    perm = ids.copy()
    rnd.shuffle(perm)
    got_ids, got_d = run(perm)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_d, want_d)


#: Ids 5 and 9 fill a k = 2 heap at distances 1 and 2; id 7 then ties
#: τ² = 2 and, having the smaller id, displaces id 9.
TIE_CUT = [5, 9, 7] + [i for i in range(72) if i not in (5, 9, 7)]


@given(
    st.lists(st.lists(st.integers(0, 3), max_size=12), min_size=1, max_size=6),
    st.permutations(range(72)),
    st.integers(1, 6),
)
@example([[1, 2], [2]], TIE_CUT, 2)
@settings(max_examples=100)
def test_topk_update_sequence_matches_brute_force(calls, perm, k):
    # Updates with tied distances, each id given once as in a search, keep
    # the k best of the union by (dist, id). A full heap's pre-cut must
    # keep ties: a tied candidate with a smaller id still displaces the
    # k-th entry.
    t = TopK(1, k)
    seen: list[tuple[int, int]] = []
    for call in calls:
        ids = perm[len(seen):len(seen) + len(call)]
        t.update(0, np.array(ids, dtype=np.int64),
                 np.array(call, dtype=np.float64))
        seen += zip(call, ids)
    want = sorted(seen)[:k]
    got_ids, got_d = t.ids, t.dists
    assert got_ids[0].tolist() == [i for _, i in want] + [-1] * (k - len(want))
    assert got_d[0][: len(want)].tolist() == [d for d, _ in want]


@given(
    st.sampled_from(POLICIES),
    st.integers(1, 6),
    st.lists(st.integers(0, 1000), max_size=12),
    st.data(),
)
@settings(max_examples=100)
def test_dim_order_rows_match_single_queries(policy, b_dim, qs, data):
    # The array form orders each query exactly as a call for that query
    # alone would; small integer loads make ties common.
    q = np.asarray(qs, dtype=np.int64)
    loads = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=b_dim, max_size=b_dim),
        min_size=len(q), max_size=len(q))), dtype=np.float64)
    got = dim_order(policy, q, b_dim, loads.reshape(len(q), b_dim))
    assert got.shape == (len(q), b_dim)
    for i, qi in enumerate(q.tolist()):
        np.testing.assert_array_equal(
            got[i], dim_order(policy, qi, b_dim, loads[i]))
        # Reference: the rotation starts at block qi mod B_dim; load_aware
        # sorts blocks by (load, position in that rotation).
        rot = [(b + qi) % b_dim for b in range(b_dim)]
        want = {"static": list(range(b_dim)), "rotate": rot,
                "load_aware": sorted(range(b_dim),
                                     key=lambda b: (loads[i][b], rot[b]))}
        assert got[i].tolist() == want[policy]
