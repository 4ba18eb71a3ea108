import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracles import frontier_oracle, normals_oracle, radius_adjacency_oracle
from regrow.features import (
    FrontierTracker,
    compute_features,
    compute_normals_curvature,
    normalize_inputs,
    passthrough_positions,
    radius_adjacency,
    sample_fixed,
)
from regrow.pointcloud import PointCloud


def cloud_from(points, colors=None, labels=None):
    points = np.asarray(points, dtype=float)
    if colors is None:
        colors = np.full((len(points), 3), 128, dtype=np.uint8)
    return PointCloud(points, colors, labels)


def brute_force_pca(points, i, k):
    """Independent per-point PCA: sorted distances, nearest k (self included)."""
    d = np.linalg.norm(points - points[i], axis=1)
    nbrs = points[np.argsort(d, kind="stable")[:k]]
    centered = nbrs - nbrs.mean(axis=0)
    cov = centered.T @ centered / k
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0, None)
    return evecs[:, 0], evals[0] / evals.sum()


class TestNormalsCurvature:
    def test_planar_points(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), np.zeros(40)])
        normals, curv = compute_normals_curvature(cloud_from(pts), k=8)
        np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert (curv < 1e-9).all()

    def test_sphere_curvature_positive_and_matches_oracle(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=(80, 3))
        pts = vec / np.linalg.norm(vec, axis=1, keepdims=True)
        cloud = cloud_from(pts)
        normals, curv = compute_normals_curvature(cloud, k=8)
        assert (curv > 0).all()
        for i in range(80):
            n_ref, c_ref = brute_force_pca(pts, i, 8)
            diff = min(np.abs(normals[i] - n_ref).max(),
                       np.abs(normals[i] + n_ref).max())
            assert diff < 1e-9  # componentwise, up to sign
            assert curv[i] == pytest.approx(c_ref, abs=1e-9)

    def test_random_cloud_matches_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (60, 3))
        normals, curv = compute_normals_curvature(cloud_from(pts), k=10)
        for i in range(60):
            n_ref, c_ref = brute_force_pca(pts, i, 10)
            diff = min(np.abs(normals[i] - n_ref).max(),
                       np.abs(normals[i] + n_ref).max())
            assert diff < 1e-9
            assert curv[i] == pytest.approx(c_ref, abs=1e-9)

    def test_collinear_fallback(self):
        pts = np.column_stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)])
        normals, curv = compute_normals_curvature(cloud_from(pts), k=5)
        np.testing.assert_array_equal(normals, np.tile([0.0, 0.0, 1.0], (12, 1)))
        np.testing.assert_array_equal(curv, np.zeros(12))

    def test_curvature_range(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 3))
        _, curv = compute_normals_curvature(cloud_from(pts), k=16)
        assert (curv >= 0).all() and (curv <= 1 / 3 + 1e-9).all()

    def test_k_larger_than_n(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            compute_normals_curvature(cloud_from(pts), k=5)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), np.zeros(30)])
        normals, _ = compute_normals_curvature(cloud_from(pts), k=8)
        assert (normals[:, 2] > 0).all()


LINE_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (1.0, 1.0, 0.0), (0.6, 0.0, 0.8),
                   (1.0, 2.0, 3.0))


@st.composite
def pca_clouds(draw):
    """(points, k): grid clouds full of distance ties, float clouds, lines
    and planes (collinear and flat neighborhoods, signed zeros off the line
    or plane), each with some points duplicated, and k anywhere in [3, n]."""
    kind = draw(st.sampled_from(["grid", "float", "line", "plane"]))
    n = draw(st.integers(3, 40))
    grid = st.integers(-4, 4).map(lambda i: i * 0.0625)
    if kind == "grid":
        pts = np.array(draw(st.lists(st.tuples(grid, grid, grid), min_size=n, max_size=n)))
    elif kind == "float":
        pts = np.array(draw(st.lists(float_point, min_size=n, max_size=n)))
    else:
        t = np.array(draw(st.lists(st.one_of(grid, st.floats(-1, 1)), min_size=n, max_size=n)))
        zeros = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
        if kind == "line":
            pts = np.outer(t, draw(st.sampled_from(LINE_DIRECTIONS)))
            pts[pts == 0] = np.broadcast_to(zeros[:, None], pts.shape)[pts == 0]
        else:
            u = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
            pts = np.column_stack([t, u, zeros])
    pts = np.concatenate([pts, pts[:draw(st.integers(0, 3))]])  # duplicates
    return pts, draw(st.integers(3, len(pts)))


class TestNormalsKernel:
    """The column-wise covariance kernel against the einsum it replaced."""

    @given(pca_clouds())
    @settings(max_examples=200, deadline=None)
    def test_matches_einsum_oracle_to_the_byte(self, cloud_k):
        pts, k = cloud_k
        expected = normals_oracle(pts, k)
        for tree in (None, cKDTree(pts)):
            got = compute_normals_curvature(cloud_from(pts), k=k, tree=tree)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestComputeFeatures:
    def test_corner_room_normalized(self):
        pts = [[0, 0, 0], [4, 4, 2.5], [2, 2, 1.25]]
        feats = compute_features(cloud_from(pts), k=3)
        np.testing.assert_allclose(feats[1, 3:6], [1, 1, 1])
        np.testing.assert_allclose(feats[0, 3:6], [0, 0, 0])
        np.testing.assert_allclose(feats[2, 3:6], [0.5, 0.5, 0.5])

    def test_rgb_scaling(self):
        colors = np.array([[255, 0, 0], [0, 128, 0], [0, 0, 0]], dtype=np.uint8)
        feats = compute_features(cloud_from(np.eye(3), colors=colors), k=3)
        np.testing.assert_allclose(feats[0, 6:9], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(feats[1, 6:9], [0.0, 128 / 255, 0.0])

    def test_local_xyz_anchored_to_min_corner(self):
        pts = np.array([[1.0, 2.0, 3.0], [2.0, 2.5, 3.5], [1.5, 2.25, 3.25]])
        feats = compute_features(cloud_from(pts), k=3)
        np.testing.assert_allclose(feats[:, 0:3], pts - pts.min(axis=0))

    def test_flat_extent_gets_half(self):
        pts = np.array([[0, 0, 1.0], [1, 0, 1.0], [0, 1, 1.0]])
        feats = compute_features(cloud_from(pts), k=3)
        np.testing.assert_allclose(feats[:, 5], 0.5)


def tracker_for(pts, radius, members=()):
    indptr, indices = radius_adjacency(pts, radius)
    tracker = FrontierTracker(indptr, indices, len(pts))
    tracker.add(members)
    return tracker


def assert_rows_match(indptr, indices, rows):
    assert len(indptr) == len(rows) + 1 and indptr[0] == 0
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(indices[indptr[i]:indptr[i + 1]], row)


# binary-exact coordinates, so distances and squared radii carry no rounding
# and points exactly at the radius must be excluded
exact_coord = st.integers(0, 12).map(lambda k: k * 0.0625)
exact_point = st.tuples(exact_coord, exact_coord, exact_coord)
float_point = st.tuples(*[st.floats(0, 0.6, allow_nan=False)] * 3)


class TestSpatialIndex:
    """The cKDTree radius adjacency and frontier queries on it."""

    def test_query_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (300, 3))
        indptr, indices = radius_adjacency(pts, 0.1)
        for i in range(0, 300, 13):
            brute = np.flatnonzero(np.linalg.norm(pts - pts[i], axis=1) < 0.1)
            np.testing.assert_array_equal(indices[indptr[i]:indptr[i + 1]],
                                          brute[brute != i])

    def test_strict_inequality_on_line(self):
        # binary-exact spacing so distances are computed without rounding:
        # neighbors at exactly the radius must be excluded
        spacing, radius = 0.0625, 0.125
        pts = np.column_stack([np.arange(21) * spacing, np.zeros(21), np.zeros(21)])
        got = tracker_for(pts, radius, [10]).frontier(np.ones(21, dtype=bool))
        assert got.tolist() == [9, 11]

    def test_nonpositive_radius_rejected(self):
        for radius in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                radius_adjacency(np.zeros((2, 3)), radius)

    def test_pairs_just_inside_radius_kept(self):
        # the tree's candidate radius must not cut off pairs the exact test keeps
        radius = 0.1
        gaps = radius * (1 - np.array([1e-6, 1e-9, 1e-12, 1e-15]))
        pts = np.zeros((2 * len(gaps), 3))
        pts[1::2, 0] = gaps
        pts[:, 1] = np.arange(len(gaps)).repeat(2)  # pairs far apart from each other
        assert_rows_match(*radius_adjacency(pts, radius), radius_adjacency_oracle(pts, radius))
        assert all(((pts[2 * k] - pts[2 * k + 1]) ** 2).sum() < radius ** 2
                   for k in range(len(gaps)))

    def test_query_neighbors_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(20, 200))
            pts = rng.uniform(0, 0.8, (n, 3))
            labels = rng.integers(0, 3, n)
            region = rng.choice(n, size=int(rng.integers(1, 8)), replace=False)
            got = tracker_for(pts, 0.1, region).frontier(labels == 0)
            dmat = np.linalg.norm(pts[:, None, :] - pts[None, region, :], axis=2)
            near = (dmat < 0.1).any(axis=1)
            near[region] = False
            near &= labels == 0
            np.testing.assert_array_equal(got, np.flatnonzero(near))

    def test_whole_cloud_region_has_no_neighbors(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (50, 3))
        assert tracker_for(pts, 0.1, np.arange(50)).frontier().size == 0

    def test_labeled_points_never_returned(self):
        pts = np.array([[0, 0, 0], [0.05, 0, 0], [0.08, 0, 0]])
        labels = np.array([0, 7, 0])
        got = tracker_for(pts, 0.1, [0]).frontier(labels == 0)
        assert got.tolist() == [2]

    def test_neighbor_lists_match_queries(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 0.5, (120, 3))
        assert_rows_match(*radius_adjacency(pts, 0.1), radius_adjacency_oracle(pts, 0.1))

    @given(st.lists(st.one_of(exact_point, float_point), min_size=1, max_size=40),
           st.sampled_from([0.0625, 0.125, 0.1875, 0.1]), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_oracle(self, points, radius, n_dupes):
        pts = np.array(points + points[:n_dupes], dtype=np.float64)  # duplicates at distance 0
        indptr, indices = radius_adjacency(pts, radius)
        assert indptr.dtype == np.int64 and indices.dtype == np.int32
        assert_rows_match(indptr, indices, radius_adjacency_oracle(pts, radius))


class TestFrontierTracker:
    def test_matches_query_neighbors_under_churn(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 0.6, (150, 3))
        labels = rng.integers(0, 2, 150)
        tracker = tracker_for(pts, 0.1)
        members = set()
        eligible = labels == 0
        for step in range(30):
            if members and rng.random() < 0.3:
                drop = rng.choice(sorted(members))
                members.discard(int(drop))
                tracker.remove([int(drop)])
            add = int(rng.integers(0, 150))
            if add not in members:
                members.add(add)
                tracker.add([add])
            got = tracker.frontier(eligible)
            np.testing.assert_array_equal(got, frontier_oracle(pts, members, 0.1, eligible))

    @given(st.lists(exact_point, min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_churn_with_eligibility_matches_oracle(self, points, seed):
        pts = np.array(points, dtype=np.float64)
        n = len(pts)
        rng = np.random.default_rng(seed)
        eligible = rng.random(n) < 0.7
        tracker = tracker_for(pts, 0.125)
        copy_at = int(rng.integers(0, 12))
        members: set[int] = set()
        for step in range(12):
            if step == copy_at:  # a copy evolves independently of its source
                snapshot, tracker = tracker, tracker.copy()
                frozen = (snapshot.member.copy(), snapshot.support.copy())
            out = np.array(sorted(members), dtype=np.int64)
            drop = out[rng.random(out.size) < 0.4]
            fresh = np.setdiff1d(np.arange(n), out)
            new = fresh[rng.random(fresh.size) < 0.3]
            tracker.remove(drop)
            tracker.add(new)
            members = (members - set(drop.tolist())) | set(new.tolist())
            assert tracker.size == len(members)
            np.testing.assert_array_equal(np.flatnonzero(tracker.member), sorted(members))
            np.testing.assert_array_equal(tracker.frontier(eligible),
                                          frontier_oracle(pts, members, 0.125, eligible))
        np.testing.assert_array_equal(snapshot.member, frozen[0])
        np.testing.assert_array_equal(snapshot.support, frozen[1])


class TestSampleFixed:
    def test_oversample_keeps_all_members(self):
        rng = np.random.default_rng(0)
        out = sample_fixed(np.array([3, 7, 11]), 5, rng)
        assert len(out) == 5
        assert set(out) <= {3, 7, 11}
        assert {3, 7, 11} <= set(out)

    def test_subsample_distinct(self):
        rng = np.random.default_rng(1)
        out = sample_fixed(np.arange(600), 512, rng)
        assert len(out) == 512 == len(np.unique(out))

    def test_deterministic(self):
        a = sample_fixed(np.arange(100), 32, np.random.default_rng(42))
        b = sample_fixed(np.arange(100), 32, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_fixed(np.array([], dtype=int), 4, np.random.default_rng(0))

    @given(st.integers(1, 50), st.integers(1, 80), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_always_exact_count_from_set(self, n_avail, count, seed):
        rng = np.random.default_rng(seed)
        avail = np.arange(100, 100 + n_avail)
        out = sample_fixed(avail, count, rng)
        assert len(out) == count
        assert set(out) <= set(avail)


class TestNormalizeInputs:
    def test_median_subtraction_by_hand(self):
        inl = np.zeros((3, 13))
        inl[:, 0] = [1, 2, 3]
        nbr = np.zeros((1, 13))
        nbr[0, 0] = 5
        ni, nn = normalize_inputs(inl, nbr)
        assert ni[:, 0].tolist() == [-1, 0, 1]
        assert nn[0, 0] == 3

    def test_room_columns_pass_through(self):
        rng = np.random.default_rng(2)
        inl = rng.normal(size=(8, 13))
        nbr = rng.normal(size=(4, 13))
        ni, nn = normalize_inputs(inl, nbr)
        np.testing.assert_array_equal(ni[:, 3:6], inl[:, 3:6])
        np.testing.assert_array_equal(nn[:, 3:6], nbr[:, 3:6])

    def test_single_inlier_becomes_zero(self):
        inl = np.arange(13, dtype=float)[None, :]
        nbr = np.ones((2, 13))
        ni, _ = normalize_inputs(inl, nbr)
        cols = [c for c in range(13) if c not in (3, 4, 5)]
        np.testing.assert_array_equal(ni[0, cols], np.zeros(10))
        np.testing.assert_array_equal(ni[0, 3:6], inl[0, 3:6])

    def test_lower_median_for_even_counts(self):
        inl = np.zeros((4, 13))
        inl[:, 2] = [4, 1, 3, 2]
        ni, _ = normalize_inputs(inl, np.zeros((1, 13)))
        assert sorted(ni[:, 2].tolist()) == [-1, 0, 1, 2]

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, n_in, n_nb, seed):
        rng = np.random.default_rng(seed)
        inl = rng.normal(size=(n_in, 13))
        nbr = rng.normal(size=(n_nb, 13))
        a_i, a_n = normalize_inputs(inl, nbr)
        b_i, b_n = normalize_inputs(a_i, a_n)
        np.testing.assert_allclose(b_i, a_i, atol=1e-12)
        np.testing.assert_allclose(b_n, a_n, atol=1e-12)

    def test_passthrough_positions_for_subsets(self):
        assert passthrough_positions((0, 1, 2, 3, 4, 5)) == (3, 4, 5)
        assert passthrough_positions((3, 4, 5, 12)) == (0, 1, 2)
        assert passthrough_positions((0, 1, 2)) == ()
