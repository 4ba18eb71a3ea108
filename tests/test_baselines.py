import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import smoothness_oracle, threshold_oracle
from regrow.baselines import (
    SmoothnessConfig,
    ThresholdConfig,
    grow_smoothness,
    grow_threshold,
)
from regrow.features import (COL_CURVATURE, COL_NORMAL, N_FEATURES, SceneContext,
                             build_context, radius_adjacency)
from regrow.pointcloud import PointCloud


def scene_from(parts):
    """parts: list of (points, instance_id, rgb)."""
    pts = np.vstack([p for p, _, _ in parts])
    gt = np.concatenate([np.full(len(p), inst, dtype=np.int32) for p, inst, _ in parts])
    col = np.vstack([np.tile(np.array(rgb, dtype=np.uint8), (len(p), 1))
                     for p, _, rgb in parts])
    return PointCloud(pts, col, gt)


def plane(nx, ny, spacing=0.05, origin=(0.0, 0.0, 0.0), axis="z"):
    u, v = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing, indexing="ij")
    flat = np.zeros(nx * ny)
    if axis == "z":
        pts = np.column_stack([u.ravel(), v.ravel(), flat])
    elif axis == "y":
        pts = np.column_stack([u.ravel(), flat, v.ravel()])
    else:
        pts = np.column_stack([flat, u.ravel(), v.ravel()])
    return pts + np.asarray(origin)


class TestThresholdBaseline:
    def test_separated_planes_two_instances(self):
        cloud = scene_from([
            (plane(8, 8), 1, (200, 30, 30)),
            (plane(8, 8, origin=(0, 0, 1.0)), 2, (200, 30, 30)),
        ])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_threshold(ctx)
        assert len(np.unique(labels)) == 2
        assert len(np.unique(labels[:64])) == 1

    def test_touching_coplanar_same_color_merged(self):
        # two abutting same-color squares: thresholds cannot see the boundary
        cloud = scene_from([
            (plane(8, 8), 1, (90, 90, 200)),
            (plane(8, 8, origin=(8 * 0.05, 0, 0)), 2, (90, 90, 200)),
        ])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_threshold(ctx)
        assert len(np.unique(labels)) == 1  # undersegmentation by design

    def test_right_angle_junction_split(self):
        # junction gap 0.09 keeps the planes adjacent at delta=0.1 while every
        # PCA neighborhood stays on its own plane, so normals are exactly 90
        # degrees apart and the 30-degree gate blocks every crossing
        cloud = scene_from([
            (plane(20, 20, spacing=0.03), 1, (120, 120, 120)),
            (plane(20, 20, spacing=0.03, origin=(0, 0, 0.09), axis="x"), 2,
             (120, 120, 120)),
        ])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_threshold(ctx, ThresholdConfig(normal_angle_max=30.0))
        assert len(np.unique(labels)) == 2

    def test_color_gate_blocks(self):
        cloud = scene_from([
            (plane(8, 8), 1, (255, 0, 0)),
            (plane(8, 8, origin=(8 * 0.05, 0, 0)), 2, (0, 0, 255)),
        ])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_threshold(ctx)
        assert len(np.unique(labels)) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.5, (150, 3))
        col = rng.integers(0, 255, (150, 3)).astype(np.uint8)
        cloud = PointCloud(pts, col, None)
        ctx = build_context(cloud, delta=0.1, knn=8)
        a = grow_threshold(ctx)
        b = grow_threshold(ctx)
        assert np.array_equal(a, b)

    def test_complete_contiguous_labels(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 0.5, (200, 3))
        col = rng.integers(0, 255, (200, 3)).astype(np.uint8)
        cloud = PointCloud(pts, col, None)
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_threshold(ctx)
        assert (labels > 0).all()
        ids = np.unique(labels)
        assert ids.tolist() == list(range(1, len(ids) + 1))


def sphere_points(r=0.3, spacing=0.04):
    pts = []
    n_lat = max(3, int(round(np.pi * r / spacing)))
    for i in range(n_lat):
        phi = (i + 0.5) * np.pi / n_lat
        ring_r = r * np.sin(phi)
        z = r * np.cos(phi)
        m = max(1, int(round(2 * np.pi * ring_r / spacing)))
        ang = np.arange(m) * (2 * np.pi / m)
        pts.append(np.column_stack([ring_r * np.cos(ang), ring_r * np.sin(ang),
                                    np.full(m, z)]))
    return np.concatenate(pts)


class TestSmoothnessBaseline:
    def test_smooth_sphere_single_instance(self):
        cloud = scene_from([(sphere_points(), 1, (100, 180, 90))])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_smoothness(ctx, SmoothnessConfig(theta_th=10.0, curvature_th=0.2))
        assert len(np.unique(labels)) == 1

    def test_right_angle_blocks_growth(self):
        cloud = scene_from([
            (plane(14, 14), 1, (120, 120, 120)),
            (plane(14, 14, origin=(0, 0, 0.05), axis="x"), 2, (120, 120, 120)),
        ])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_smoothness(ctx, SmoothnessConfig(theta_th=10.0))
        assert len(np.unique(labels)) == 2

    def test_high_curvature_ridge_blocks_front(self):
        # two coplanar strips joined by a sharp fold (tent shape)
        left = plane(10, 8)
        ridge_x = 10 * 0.05
        right = plane(10, 8)
        right_rot = np.column_stack([
            ridge_x + right[:, 0] * np.cos(np.radians(75)),
            right[:, 1],
            right[:, 0] * np.sin(np.radians(75)),
        ])
        cloud = scene_from([(left, 1, (99, 99, 99)),
                            ((right_rot + [0.05, 0, 0.02]), 2, (99, 99, 99))])
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = grow_smoothness(ctx, SmoothnessConfig(theta_th=10.0,
                                                       curvature_th=0.01))
        assert len(np.unique(labels)) >= 2

    def test_deterministic_and_complete(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 0.5, (150, 3))
        col = rng.integers(0, 255, (150, 3)).astype(np.uint8)
        cloud = PointCloud(pts, col, None)
        ctx = build_context(cloud, delta=0.1, knn=8)
        a = grow_smoothness(ctx)
        b = grow_smoothness(ctx)
        assert np.array_equal(a, b)
        assert (a > 0).all()


# angles whose cosine, as the baselines compute it, is exactly the dot
# product of the palette normal (cos a, sin a, 0) with (1, 0, 0)
ANGLES = (10.0, 30.0, 45.0)
NORMALS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0),
           (0.6, 0.8, 0.0), (0.0, 0.6, 0.8)] + [
    (math.cos(math.radians(a)), math.sin(math.radians(a)), 0.0) for a in ANGLES]
# colors 0.25 apart sit exactly at the default color gate
RGB = [(0.0, 0.0, 0.0), (0.25, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.25, 0.0), (1.0, 1.0, 1.0)]
CURVATURES = (0.0, 0.01, 0.05, 0.1, 0.2)  # 0.05 is the default curvature gate


@st.composite
def baseline_scenes(draw, nan_normals=False):
    """A context on a coarse grid (duplicate points, isolated far points)
    whose normals, colors and curvatures come from a few palette entries, so
    joins hit the gates exactly and seeds tie on curvature; with
    `nan_normals`, some points' normals are NaN."""
    n = draw(st.integers(1, 40))
    side = draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side),
                                    st.integers(0, 1)), min_size=n, max_size=n))
    pos = np.array(cells, dtype=np.float64) * 0.05
    far = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pos[far] += np.arange(n)[far][:, None] * 10.0
    curv_mode = draw(st.sampled_from(["mixed", "all-low", "all-high"]))
    curv_pool = {"mixed": CURVATURES, "all-low": (0.0, 0.01), "all-high": (0.1, 0.2)}[curv_mode]

    def column(pool):
        few = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        return [draw(st.sampled_from(few)) for _ in range(n)]

    feats = np.zeros((n, N_FEATURES))
    feats[:, 6:9] = column(RGB)
    feats[:, 9:12] = column(NORMALS)
    feats[:, 12] = column(curv_pool)
    if nan_normals:
        feats[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))), 9:12] = np.nan
    indptr, indices = radius_adjacency(pos, 0.1)
    cloud = PointCloud(pos, np.zeros((n, 3), dtype=np.uint8))
    return SceneContext(cloud, feats, indptr, indices)


class TestAgainstFloodOracle:
    @given(baseline_scenes(), st.sampled_from(ANGLES), st.sampled_from((0.25, 0.5)),
           st.sampled_from((1, 2, 3, 10)))
    @settings(max_examples=150, deadline=None)
    def test_threshold_matches_oracle(self, ctx, angle, color, min_segment):
        cfg = ThresholdConfig(normal_angle_max=angle, color_dist_max=color,
                              min_segment=min_segment)
        labels = grow_threshold(ctx, cfg)
        expected = threshold_oracle(ctx, cfg)
        assert labels.dtype == expected.dtype
        np.testing.assert_array_equal(labels, expected)

    @given(baseline_scenes(), st.sampled_from(ANGLES), st.sampled_from((0.01, 0.05, 0.1)),
           st.sampled_from((1, 2, 3, 10)))
    @settings(max_examples=150, deadline=None)
    def test_smoothness_matches_oracle(self, ctx, angle, curvature, min_segment):
        cfg = SmoothnessConfig(theta_th=angle, curvature_th=curvature, min_segment=min_segment)
        labels = grow_smoothness(ctx, cfg)
        expected = smoothness_oracle(ctx, cfg)
        assert labels.dtype == expected.dtype
        np.testing.assert_array_equal(labels, expected)

    @given(baseline_scenes(nan_normals=True), st.sampled_from(ANGLES),
           st.sampled_from((0.25, 0.5)), st.sampled_from((1, 3)))
    @settings(max_examples=60, deadline=None)
    def test_threshold_with_nan_normals_matches_oracle(self, ctx, angle, color, min_segment):
        # a NaN normal passes the normal gate from either end of an edge
        cfg = ThresholdConfig(normal_angle_max=angle, color_dist_max=color,
                              min_segment=min_segment)
        np.testing.assert_array_equal(grow_threshold(ctx, cfg), threshold_oracle(ctx, cfg))

    def test_nan_normal_joins_from_either_end(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.1, 0.0, 0.0]])
        for nan_point in range(3):
            feats = np.zeros((3, N_FEATURES))
            feats[:, COL_NORMAL] = (1.0, 0.0, 0.0)
            feats[nan_point, COL_NORMAL] = np.nan
            ctx = SceneContext(PointCloud(pts, np.zeros((3, 3), dtype=np.uint8)), feats,
                               *radius_adjacency(pts, 0.06))
            cfg = ThresholdConfig(min_segment=1)
            labels = grow_threshold(ctx, cfg)
            assert labels.tolist() == [1, 1, 1]
            np.testing.assert_array_equal(labels, threshold_oracle(ctx, cfg))

    def test_high_point_joins_a_core_on_either_side(self):
        # a high-curvature point joins the core next to it whether its index
        # is below or above the core's, i.e. through both edge orientations
        pts = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [1.0, 0.0, 0.0], [1.05, 0.0, 0.0]])
        feats = np.zeros((4, N_FEATURES))
        feats[:, COL_NORMAL] = (0.0, 0.0, 1.0)
        feats[:, COL_CURVATURE] = (0.2, 0.0, 0.0, 0.2)  # high, low | low, high
        ctx = SceneContext(PointCloud(pts, np.zeros((4, 3), dtype=np.uint8)), feats,
                           *radius_adjacency(pts, 0.1))
        cfg = SmoothnessConfig(min_segment=1)
        labels = grow_smoothness(ctx, cfg)
        assert labels.tolist() == [1, 1, 2, 2]
        np.testing.assert_array_equal(labels, smoothness_oracle(ctx, cfg))

    def test_room_matches_oracle(self):
        # PCA normals and curvatures of a cluttered scene, two settings per baseline
        rng = np.random.default_rng(5)
        pts = np.vstack([plane(10, 10), plane(10, 10, origin=(0, 0, 0.05), axis="x"),
                         sphere_points(r=0.2) + 0.6, rng.uniform(0, 0.6, (80, 3))])
        col = rng.integers(0, 256, (len(pts), 3)).astype(np.uint8)
        col[:200] = (120, 120, 120)
        ctx = build_context(PointCloud(pts, col), delta=0.1, knn=8)
        for min_segment in (1, 10):
            for cfg in (ThresholdConfig(min_segment=min_segment),
                        ThresholdConfig(normal_angle_max=10.0, color_dist_max=1.0,
                                        min_segment=min_segment)):
                np.testing.assert_array_equal(grow_threshold(ctx, cfg), threshold_oracle(ctx, cfg))
            for cfg in (SmoothnessConfig(min_segment=min_segment),
                        SmoothnessConfig(theta_th=30.0, curvature_th=0.01,
                                         min_segment=min_segment)):
                np.testing.assert_array_equal(grow_smoothness(ctx, cfg),
                                              smoothness_oracle(ctx, cfg))
