import numpy as np
import pytest

from regrow.features import build_context
from regrow.grow import (
    GrowConfig,
    grow_region,
    grow_step,
    reassign_small_segments,
    segment_scene,
    select_seed,
)
from regrow.network import Predictor, TrainConfig, train
from regrow.pointcloud import PointCloud
from oracles import Sized, frontier_oracle
from regrow.simulate import RegionState, SimConfig, generate_dataset


class StubPredictor:
    """Fixed-probability predictor for exercising the control flow."""

    def __init__(self, remove=0.0, add=1.0):
        self.remove = remove
        self.add = add

    def __call__(self, xi, xn):
        return (np.full(len(xi), self.remove, dtype=np.float64),
                np.full(len(xn), self.add, dtype=np.float64))


class OscillatingPredictor:
    """Admits everything while expelling everything: sizes stop growing."""

    def __call__(self, xi, xn):
        return np.full(len(xi), 0.9), np.full(len(xn), 0.9)


def grid_scene(nx=8, ny=8, spacing=0.05, z=0.0, origin=(0.0, 0.0), instance=1):
    xs, ys = np.meshgrid(np.arange(nx) * spacing + origin[0],
                         np.arange(ny) * spacing + origin[1], indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(nx * ny, z)])
    colors = np.full((len(pts), 3), 120, dtype=np.uint8)
    return pts, np.full(len(pts), instance, dtype=np.int32), colors


def two_plane_scene():
    a_pts, a_gt, a_col = grid_scene(instance=1)
    b_pts, b_gt, b_col = grid_scene(instance=2)
    b_pts = b_pts + np.array([0.0, 0.0, 1.0])  # far above, gap >> delta
    cloud = PointCloud(np.vstack([a_pts, b_pts]), np.vstack([a_col, b_col]),
                       np.concatenate([a_gt, b_gt]))
    return cloud


def region(ctx, members):
    """A region state seeded at the first of `members`."""
    return RegionState(ctx.new_tracker(members), members[0])


def member_set(mask):
    return set(np.flatnonzero(mask).tolist())


def step_region(ctx, predictor, state, labels, cfg, rng, sampled=False):
    frontier = state.tracker.frontier(np.asarray(labels) == 0)
    return grow_step(ctx, predictor, state, frontier, cfg, rng, sampled)


class TestSelectSeed:
    def test_minimum_curvature(self):
        assert select_seed(np.array([0.2, 0.0, 0.1]), np.zeros(3, dtype=int)) == 1

    def test_labeled_points_skipped(self):
        assert select_seed(np.array([0.2, 0.0, 0.1]), np.array([0, 5, 0])) == 2

    def test_tie_breaks_to_lowest_index(self):
        assert select_seed(np.array([0.3, 0.1, 0.1]), np.zeros(3, dtype=int)) == 1

    def test_flat_scene_seed_on_plane_interior(self):
        pts, gt, col = grid_scene(nx=10, ny=10)
        bump = np.array([[0.225, 0.225, 0.05]])  # off-plane point raises local curvature
        cloud = PointCloud(np.vstack([pts, bump]),
                           np.vstack([col, [[120, 120, 120]]]), None)
        ctx = build_context(cloud, delta=0.1, knn=8)
        seed = select_seed(ctx.features[:, 12], np.zeros(cloud.n_points, dtype=int))
        assert seed < 100  # one of the flat grid points, not the bump


class TestGrowStep:
    def test_no_predictions_leaves_members(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        state = region(ctx, [0, 1])
        added, _, _ = step_region(ctx, Sized(StubPredictor(remove=0.2, add=0.2), 8, 8), state,
                                  np.zeros(cloud.n_points, dtype=int), GrowConfig(),
                                  np.random.default_rng(0))
        assert member_set(state.tracker.member) == {0, 1}
        assert state.step == 0 and state.tracker.size == 2
        assert added.size == 0

    def test_add_all_joins_every_candidate(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = np.zeros(cloud.n_points, dtype=int)
        state = region(ctx, [0])
        added, _, _ = step_region(ctx, Sized(StubPredictor(add=0.9), 8, 16), state, labels,
                                  GrowConfig(), np.random.default_rng(0))
        cand = frontier_oracle(cloud.positions, [0], 0.1, labels == 0)
        assert set(added) == set(cand)  # all candidates fit within J slots
        assert member_set(state.tracker.member) == {0} | set(cand.tolist())

    def test_no_frontier_signals_terminal(self):
        pts = np.array([[0, 0, 0], [5, 5, 5], [9, 9, 9]], dtype=float)
        cloud = PointCloud(pts, np.full((3, 3), 9, np.uint8), None)
        ctx = build_context(cloud, delta=0.1, knn=3)
        state = region(ctx, [0])
        assert state.tracker.frontier(np.ones(3, dtype=bool)).size == 0
        res = grow_region(ctx, Sized(StubPredictor(), 4, 4), 0, np.zeros(3, dtype=int),
                          GrowConfig(), np.random.default_rng(0))
        assert res.inferences == 0 and member_set(res.members) == {0}

    def test_seed_never_removed(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        state = region(ctx, [0, 1, 8])
        step_region(ctx, Sized(StubPredictor(remove=0.99, add=0.99), 8, 8), state,
                    np.zeros(cloud.n_points, dtype=int), GrowConfig(),
                    np.random.default_rng(0))
        assert state.tracker.member[0]

    def test_stochastic_loglik_near_zero_for_certain_probs(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        state = region(ctx, [0, 1])
        # probabilities at the clamp bounds: sampled bits agree almost surely
        stub = Sized(StubPredictor(remove=1e-7, add=1 - 1e-7), 8, 8)
        _, _, loglik = step_region(ctx, stub, state, np.zeros(cloud.n_points, dtype=int),
                                   GrowConfig(), np.random.default_rng(0), sampled=True)
        assert loglik == pytest.approx(0.0, abs=1e-4)
        assert loglik <= 0


class TestGrowRegion:
    def test_isolated_point_terminates_immediately(self):
        pts = np.array([[0, 0, 0], [5, 5, 5], [9, 9, 9]], dtype=float)
        cloud = PointCloud(pts, np.full((3, 3), 9, np.uint8), None)
        ctx = build_context(cloud, delta=0.1, knn=3)
        res = grow_region(ctx, Sized(StubPredictor(), 4, 4), 0, np.zeros(3, dtype=int),
                          GrowConfig(), np.random.default_rng(0))
        assert member_set(res.members) == {0}
        assert res.step <= 1

    def test_oscillator_terminates_by_stagnation(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        res = grow_region(ctx, Sized(OscillatingPredictor(), 16, 16), 0,
                          np.zeros(cloud.n_points, dtype=int), GrowConfig(),
                          np.random.default_rng(0))
        assert res.step < 500 and not res.capped

    def test_add_all_covers_connected_component(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        res = grow_region(ctx, Sized(StubPredictor(add=0.9), 16, 16), 0,
                          np.zeros(cloud.n_points, dtype=int), GrowConfig(),
                          np.random.default_rng(0))
        assert member_set(res.members) == set(range(64))  # exactly the first plane

    def test_step_cap(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        res = grow_region(ctx, Sized(StubPredictor(add=0.9), 4, 4), 0,
                          np.zeros(cloud.n_points, dtype=int), GrowConfig(max_steps=2),
                          np.random.default_rng(0))
        assert res.capped and res.step == 2

    @pytest.mark.parametrize("field", ["max_steps"])
    def test_size_below_one_is_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            GrowConfig(**{field: 0})

    @pytest.mark.parametrize("name", ["bogus", "Random", ""])
    def test_unknown_seed_selection_is_rejected(self, name):
        with pytest.raises(ValueError, match="seed_selection must be 'curvature' or 'random'"):
            GrowConfig(seed_selection=name)


class TestReassignment:
    def test_small_fragment_absorbed(self):
        pts, _, col = grid_scene(nx=12, ny=12)
        frag_pts = pts[:9] + np.array([0.0, 0.0, 0.02])
        cloud = PointCloud(np.vstack([pts, frag_pts]),
                           np.vstack([col, col[:9]]), None)
        labels = np.concatenate([np.ones(144, dtype=np.int32),
                                 np.full(9, 2, dtype=np.int32)])
        out = reassign_small_segments(cloud, labels, min_segment=10)
        assert (out == 1).all()

    def test_threshold_is_strict(self):
        pts, _, col = grid_scene(nx=5, ny=4)  # 20 points
        cloud = PointCloud(pts, col, None)
        labels = np.concatenate([np.ones(10, dtype=np.int32),
                                 np.full(10, 2, dtype=np.int32)])
        out = reassign_small_segments(cloud, labels, min_segment=10)
        assert len(np.unique(out)) == 2  # a 10-point segment survives

    def test_no_small_segments_is_identity_up_to_relabel(self):
        pts, _, col = grid_scene(nx=8, ny=8)
        cloud = PointCloud(pts, col, None)
        labels = np.concatenate([np.full(32, 7, np.int32), np.full(32, 3, np.int32)])
        out = reassign_small_segments(cloud, labels, min_segment=10)
        assert out[:32].tolist() == [1] * 32
        assert out[32:].tolist() == [2] * 32

    def test_fallback_single_instance(self):
        pts, _, col = grid_scene(nx=3, ny=3)  # 9 points, all fragments
        cloud = PointCloud(pts, col, None)
        labels = np.array([1, 1, 1, 1, 2, 2, 3, 3, 3], dtype=np.int32)
        out = reassign_small_segments(cloud, labels, min_segment=10)
        assert (out == 1).all()

    def test_zeros_rejected(self):
        pts, _, col = grid_scene(nx=3, ny=3)
        cloud = PointCloud(pts, col, None)
        with pytest.raises(ValueError):
            reassign_small_segments(cloud, np.zeros(9, dtype=np.int32))


def train_competent_predictor(tmp_path, cloud, epochs=60):
    """Overfit a small network on one scene's simulation."""
    path = tmp_path / "scene.bin"
    cfg = SimConfig(i_size=32, j_size=32, alpha_range=(0.0, 0.2), seed=0)
    generate_dataset([cloud], cfg, path)
    tc = TrainConfig((16, 16, 16, 16, 32), (32, 16, 1), epochs=epochs,
                     batch_size=64, lr=0.003, seed=0)
    params, losses = train(path, tc)
    return Predictor(params), losses


class TestSegmentScene:
    def test_overfit_net_recovers_single_instance(self, tmp_path):
        pts, gt, col = grid_scene(nx=8, ny=8)
        cloud = PointCloud(pts, col, gt)
        predictor, losses = train_competent_predictor(tmp_path, cloud)
        assert losses[-1] < losses[0]
        ctx = build_context(cloud, delta=0.1, knn=8)
        res = grow_region(ctx, predictor, 0, np.zeros(cloud.n_points, dtype=int),
                          GrowConfig(), np.random.default_rng(0))
        assert member_set(res.members) == set(range(64))

    def test_two_planes_two_instances(self, tmp_path):
        cloud = two_plane_scene()
        predictor, _ = train_competent_predictor(tmp_path, cloud)
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels, stats = segment_scene(ctx, predictor, GrowConfig(),
                                      rng=np.random.default_rng(0))
        assert stats["instances"] == 2
        assert len(np.unique(labels[:64])) == 1
        assert len(np.unique(labels[64:])) == 1

    def test_degenerate_stub_single_fallback_instance(self):
        pts, gt, col = grid_scene(nx=6, ny=6)
        cloud = PointCloud(pts, col, gt)
        ctx = build_context(cloud, delta=0.1, knn=8)
        # always-remove stub: every region stays at its seed, all undersized
        labels, stats = segment_scene(ctx, Sized(StubPredictor(remove=0.9, add=0.1), 8, 8),
                                      GrowConfig(), rng=np.random.default_rng(0))
        assert (labels == 1).all()

    def test_labels_complete_and_contiguous(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.6, (120, 3))
        cloud = PointCloud(pts, np.full((120, 3), 50, np.uint8), None)
        ctx = build_context(cloud, delta=0.1, knn=6)
        labels, _ = segment_scene(ctx, Sized(StubPredictor(add=0.9), 8, 8), GrowConfig(),
                                  rng=np.random.default_rng(1))
        assert (labels > 0).all()
        ids = np.unique(labels)
        assert ids.tolist() == list(range(1, len(ids) + 1))
