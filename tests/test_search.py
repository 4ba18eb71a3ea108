import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Sized, segment_oracle
from regrow.features import build_context
from regrow.grow import GrowConfig, grow_region, segment_scene
from regrow.pointcloud import PointCloud
from regrow.search import STRATEGIES, SearchConfig, run_search
from test_acceptance import _ConstPredictor, _RandomPredictor
from test_golden import feature_predictor
from test_grow import StubPredictor, member_set, two_plane_scene


class NoisyPredictor:
    """Probabilities around 0.7 so stochastic rollouts genuinely vary."""

    def __init__(self, add=0.7, remove=0.1):
        self.add = add
        self.remove = remove

    def __call__(self, xi, xn):
        return (np.full(len(xi), self.remove), np.full(len(xn), self.add))


class TestSearchConfig:
    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(strategy="simulated-annealing")
        with pytest.raises(ValueError):
            SearchConfig(strategy="rr_np")

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)


class TestAccumulateLoglik:
    def test_monotone_nonincreasing_over_rollout(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        res = grow_region(ctx, Sized(NoisyPredictor(), 8, 8), 0,
                          np.zeros(cloud.n_points, dtype=int), GrowConfig(),
                          np.random.default_rng(0), sampled=True)
        assert res.loglik <= 0.0


class TestRunSearch:
    def setup_method(self):
        self.cloud = two_plane_scene()
        self.ctx = build_context(self.cloud, delta=0.1, knn=8)
        self.labels = np.zeros(self.cloud.n_points, dtype=int)
        self.cfg = GrowConfig()

    def test_greedy_deterministic(self):
        results = [run_search(self.ctx, Sized(StubPredictor(add=0.9), 16, 16), 0, self.labels,
                              self.cfg, SearchConfig("greedy"),
                              np.random.default_rng(s)) for s in range(3)]
        first = results[0].members
        assert all(np.array_equal(r.members, first) for r in results)

    def test_single_restart_equals_one_rollout(self):
        scfg = SearchConfig("rr-np", restarts=1)
        rng = np.random.default_rng(7)
        got = run_search(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels, self.cfg,
                         scfg, rng)
        rng2 = np.random.default_rng(7)
        child = rng2.spawn(1)[0]
        expect = grow_region(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels,
                             self.cfg, child, sampled=True)
        np.testing.assert_array_equal(got.members, expect.members)

    def test_rr_np_winner_at_least_mean_size(self):
        rng = np.random.default_rng(3)
        scfg = SearchConfig("rr-np", restarts=10)
        got = run_search(self.ctx, Sized(NoisyPredictor(add=0.6), 16, 16), 0, self.labels,
                         self.cfg, scfg, rng)
        sizes = []
        rng2 = np.random.default_rng(3)
        for child in rng2.spawn(10):
            res = grow_region(self.ctx, Sized(NoisyPredictor(add=0.6), 16, 16), 0, self.labels,
                              self.cfg, child, sampled=True)
            sizes.append(int(res.members.sum()))
        assert got.members.sum() == max(sizes)
        assert got.members.sum() >= np.mean(sizes)

    def test_rr_ml_picks_max_loglik(self):
        rng = np.random.default_rng(4)
        scfg = SearchConfig("rr-ml", restarts=6)
        got = run_search(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels, self.cfg,
                         scfg, rng)
        logliks = []
        rng2 = np.random.default_rng(4)
        for child in rng2.spawn(6):
            res = grow_region(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels,
                              self.cfg, child, sampled=True)
            logliks.append(res.loglik)
        assert got.loglik == pytest.approx(max(logliks))

    def test_restart_inferences_accumulate(self):
        greedy = run_search(self.ctx, Sized(NoisyPredictor(add=0.95), 16, 16), 0, self.labels,
                            self.cfg, SearchConfig("greedy"),
                            np.random.default_rng(0))
        rr = run_search(self.ctx, Sized(NoisyPredictor(add=0.95), 16, 16), 0, self.labels,
                        self.cfg, SearchConfig("rr-np", restarts=10),
                        np.random.default_rng(0))
        assert rr.inferences >= 5 * greedy.inferences

    def test_beam_search_returns_region(self):
        for strategy in ("bs-ml", "bs-np"):
            got = run_search(self.ctx, Sized(NoisyPredictor(add=0.8), 16, 16), 0, self.labels,
                             self.cfg, SearchConfig(strategy, beam_width=3,
                                                    expansions=3),
                             np.random.default_rng(5))
            assert got.members[0]
            assert member_set(got.members) <= set(range(64))  # never leaves the component

    def test_beam_deterministic_given_seed(self):
        scfg = SearchConfig("bs-np", beam_width=2, expansions=2)
        a = run_search(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels, self.cfg,
                       scfg, np.random.default_rng(9))
        b = run_search(self.ctx, Sized(NoisyPredictor(), 16, 16), 0, self.labels, self.cfg,
                       scfg, np.random.default_rng(9))
        assert np.array_equal(a.members, b.members) and a.loglik == b.loglik


class TestBeamInternals:
    def test_beam_reports_step_fractions(self):
        # the winning rollout's add/remove fractions reach the scene stats
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        _, stats = segment_scene(ctx, Sized(NoisyPredictor(add=0.8), 16, 16), GrowConfig(),
                                 SearchConfig("bs-np", beam_width=2, expansions=2),
                                 rng=np.random.default_rng(0))
        assert stats["mean_add_fraction"] > 0


    def test_live_pool_bounded(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = np.zeros(cloud.n_points, dtype=int)
        cfg = GrowConfig()
        scfg = SearchConfig("bs-np", beam_width=2, expansions=3)
        got = run_search(ctx, Sized(NoisyPredictor(), 8, 8), 0, labels, cfg, scfg,
                         np.random.default_rng(1))
        # 2 live states expanded 3x each -> at most 6 inferences per round;
        # rounds are bounded by the step cap, so the total stays moderate
        assert got.inferences <= 6 * (cfg.max_steps + 2)


class TestSizeTrend:
    def test_rr_np_size_at_least_greedy_in_half_the_seeds(self):
        cloud = two_plane_scene()
        ctx = build_context(cloud, delta=0.1, knn=8)
        labels = np.zeros(cloud.n_points, dtype=int)
        cfg = GrowConfig()
        predictor = Sized(NoisyPredictor(add=0.7), 16, 16)
        wins = 0
        for seed in range(10):
            greedy = run_search(ctx, predictor, 0, labels, cfg,
                                SearchConfig("greedy"), np.random.default_rng(seed))
            rr = run_search(ctx, predictor, 0, labels, cfg,
                            SearchConfig("rr-np", restarts=10),
                            np.random.default_rng(seed))
            wins += rr.members.sum() >= greedy.members.sum()
        assert wins >= 5


# the stubs of acceptance C6, each made fresh per run from a trial number
C6_STUBS = {
    "add": lambda t: _ConstPredictor(0.0, 0.99),
    "remove": lambda t: _ConstPredictor(0.99, 0.0),
    "oscillate": lambda t: _ConstPredictor(0.95, 0.95),
    "random": _RandomPredictor,
}


def random_scene(rng, n):
    pts = rng.uniform(0, rng.uniform(0.2, 0.5), (n, 3))
    return PointCloud(pts, rng.integers(0, 256, (n, 3)).astype(np.uint8), None)


class TestStochasticSegmentation:
    """C6 runs `segment_scene`'s default greedy search only; the four
    sampling strategies grow with sampled steps on the same stubs."""

    @pytest.mark.parametrize("stub", sorted(C6_STUBS))
    @pytest.mark.parametrize("strategy", ["rr-ml", "rr-np", "bs-ml", "bs-np"])
    def test_terminates_and_labels_every_point(self, strategy, stub):
        for trial in range(3):
            rng = np.random.default_rng(7000 + trial)
            cloud = random_scene(rng, int(rng.integers(20, 80)))
            ctx = build_context(cloud, delta=0.1, knn=8)
            i_size, j_size = int(rng.integers(4, 17)), int(rng.integers(4, 17))
            labels, stats = segment_scene(
                ctx, Sized(C6_STUBS[stub](trial), i_size, j_size), GrowConfig(),
                SearchConfig(strategy, restarts=3, beam_width=2, expansions=2),
                rng=np.random.default_rng(trial))
            assert (labels > 0).all()
            assert np.unique(labels).tolist() == list(range(1, stats["instances"] + 1))


@st.composite
def segmentation_cases(draw):
    """A small scene, possibly of 1-3 points, with duplicates and points
    farther than delta from all others, and one configuration of every knob
    that the growth loop reads."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 40)))
    coord = st.integers(0, draw(st.integers(1, 6))).map(lambda k: k * 0.05)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
    pts += [(5.0 + 3.0 * i, 5.0, 5.0) for i in range(draw(st.integers(0, 2)))]  # isolated
    colors = draw(st.lists(st.integers(0, 255), min_size=3 * len(pts), max_size=3 * len(pts)))
    cloud = PointCloud(np.array(pts, dtype=float),
                       np.array(colors, dtype=np.uint8).reshape(-1, 3), None)
    sizes = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    grow_cfg = GrowConfig(max_steps=draw(st.sampled_from([2, 500])),
                          min_segment=draw(st.integers(1, 4)),
                          use_remove_mask=draw(st.booleans()),
                          seed_selection=draw(st.sampled_from(["curvature", "random"])))
    search_cfg = SearchConfig(draw(st.sampled_from(STRATEGIES)),
                              restarts=draw(st.integers(1, 3)),
                              beam_width=draw(st.integers(1, 3)),
                              expansions=draw(st.integers(1, 3)))
    predictor = draw(st.sampled_from(["add", "remove", "oscillate", "random", "features"]))
    return cloud, sizes, grow_cfg, search_cfg, predictor, draw(st.integers(0, 2**32 - 1))


class TestSegmentationOracle:
    @given(segmentation_cases())
    @settings(max_examples=150, deadline=None)
    def test_labels_and_stats_match_rollout_loop(self, case):
        cloud, sizes, grow_cfg, search_cfg, name, seed = case
        ctx = build_context(cloud, delta=0.1, knn=min(8, cloud.n_points))

        def predictor():
            return Sized(feature_predictor if name == "features" else C6_STUBS[name](seed),
                         *sizes)

        labels, stats = segment_scene(ctx, predictor(), grow_cfg, search_cfg,
                                      np.random.default_rng(seed))
        want_labels, want_stats = segment_oracle(ctx, predictor(), grow_cfg, search_cfg,
                                                 np.random.default_rng(seed))
        np.testing.assert_array_equal(labels, want_labels)
        assert stats == want_stats
