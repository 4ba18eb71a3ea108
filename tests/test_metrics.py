import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ami_oracle, ari_oracle, emi_oracle, nmi_oracle
from regrow.metrics import (
    ami,
    ari,
    build_contingency,
    expected_mutual_information,
    match_and_score,
    nmi,
    per_room_average,
    score_scene,
    write_metrics_csv,
)


class TestContingency:
    def test_diagonal(self):
        c = build_contingency([1, 1, 2, 2], [1, 1, 2, 2])
        assert c.counts.tolist() == [[2, 0], [0, 2]]

    def test_four_singletons(self):
        c = build_contingency([1, 1, 1, 1], [1, 2, 3, 4])
        assert c.counts.tolist() == [[1, 1, 1, 1]]

    def test_sums_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            gt = rng.integers(1, 5, n)
            pred = rng.integers(1, 5, n)
            c = build_contingency(gt, pred)
            assert c.counts.sum() == c.n == n
            np.testing.assert_array_equal(c.counts.sum(axis=1), c.row_sums)
            np.testing.assert_array_equal(c.counts.sum(axis=0), c.col_sums)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_contingency([1, 2], [1, 2, 3])


class TestClusteringIndices:
    def test_identical_labelings_give_one(self):
        c = build_contingency([1, 1, 2, 3], [5, 5, 9, 7])
        assert nmi(c) == 1.0
        assert ami(c) == 1.0
        assert ari(c) == 1.0

    def test_independent_crossing_case(self):
        gt = [1, 1, 2, 2]
        pred = [1, 2, 1, 2]
        c = build_contingency(gt, pred)
        assert nmi(c) == pytest.approx(0.0, abs=1e-12)
        assert ari(c) == pytest.approx(ari_oracle(gt, pred), abs=1e-12)

    def test_hand_ari_zero(self):
        c = build_contingency([1, 1, 1, 1], [1, 1, 2, 2])
        assert ari(c) == pytest.approx(0.0, abs=1e-12)

    def test_n_below_two_rejected(self):
        c = build_contingency([1], [1])
        for fn in (nmi, ami, ari):
            with pytest.raises(ValueError):
                fn(c)

    def test_random_cases_match_oracles(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 14))
            gt = rng.integers(1, 4, n)
            pred = rng.integers(1, 4, n)
            c = build_contingency(gt, pred)
            assert ari(c) == pytest.approx(ari_oracle(gt, pred), abs=1e-9)
            assert nmi(c) == pytest.approx(nmi_oracle(gt, pred), abs=1e-9)
            assert ami(c) == pytest.approx(ami_oracle(gt, pred), abs=1e-9)

    @given(st.tuples(st.integers(2, 80), st.sampled_from([3, 12])).flatmap(
        lambda nk: st.lists(st.tuples(st.integers(1, nk[1]), st.integers(1, nk[1])),
                            min_size=nk[0], max_size=nk[0])))
    @settings(max_examples=200, deadline=None)
    def test_expected_mutual_information_matches_oracle(self, pairs):
        gt, pred = zip(*pairs)
        emi = expected_mutual_information(build_contingency(gt, pred))
        assert emi == pytest.approx(emi_oracle(gt, pred), rel=1e-12, abs=1e-15)

    def test_random_labelings_near_zero_ari(self):
        rng = np.random.default_rng(2)
        vals = []
        for _ in range(100):
            gt = rng.integers(1, 4, 60)
            pred = rng.integers(1, 4, 60)
            vals.append(ari(build_contingency(gt, pred)))
        assert -0.05 <= np.mean(vals) <= 0.05

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=10),
           st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, gt, seed):
        rng = np.random.default_rng(seed)
        gt = np.array(gt)
        pred = rng.integers(1, 4, len(gt))
        perm = rng.permutation(4) + 10
        c0 = build_contingency(gt, pred)
        c1 = build_contingency(perm[gt - 1], pred)
        c2 = build_contingency(gt, perm[pred - 1])
        for fn in (nmi, ami, ari):
            assert fn(c1) == pytest.approx(fn(c0), abs=1e-12)
            assert fn(c2) == pytest.approx(fn(c0), abs=1e-12)


class TestDetectionScores:
    def test_perfect_prediction(self):
        gt = np.array([1] * 30 + [2] * 30)
        out = match_and_score(build_contingency(gt, gt))
        assert out == {"precision": 1.0, "recall": 1.0, "miou": 1.0}

    def test_partial_overlap_below_threshold(self):
        gt = np.ones(100, dtype=int)
        gt[75:] = 2
        pred = np.full(100, 3)
        pred[:25] = 4
        # prediction 3 covers gt-1 points 25..74 plus all of gt-2:
        # IOU(gt1, pred3) = 50/100, not > 0.5, so no true positive for gt 1
        out = match_and_score(build_contingency(gt, pred))
        assert out["recall"] == pytest.approx(0.0)

    def test_hand_iou_one_third(self):
        gt = np.ones(75, dtype=int)
        gt[:25] = 2  # gt segment "1" = points 25..74
        pred = np.ones(75, dtype=int)
        pred[50:] = 2  # pred segment "1" = points 0..49
        # overlap 25, union 75 -> IOU = 1/3 -> not a true positive
        c = build_contingency(gt, pred)
        inter = 25
        union = 50 + 50 - 25
        assert inter / union == pytest.approx(1 / 3)
        out = match_and_score(c)
        assert out["recall"] < 1.0

    def test_counts_with_unmatched(self):
        gt = np.array([1] * 20 + [2] * 20 + [3] * 20)
        pred = np.array([1] * 20 + [2] * 40)
        # pred 1 matches gt 1 exactly; pred 2 has IOU 0.5 with gt 2+3 (not > 0.5)
        out = match_and_score(build_contingency(gt, pred))
        assert out["precision"] == pytest.approx(1 / 2)
        assert out["recall"] == pytest.approx(1 / 3)

    def test_miou_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            gt = rng.integers(1, 4, n)
            pred = rng.integers(1, 4, n)
            out = match_and_score(build_contingency(gt, pred))
            assert 0.0 <= out["miou"] <= 1.0
            assert out["miou"] >= 0.5 * out["recall"] - 1e-12


class TestAggregation:
    def test_single_scene(self):
        means, stds = per_room_average([{"ari": 0.5}])
        assert means["ari"] == 0.5 and stds["ari"] == 0.0

    def test_two_scene_hand_case(self):
        means, stds = per_room_average([{"ari": 0.6}, {"ari": 0.8}])
        assert means["ari"] == pytest.approx(0.7)
        assert stds["ari"] == pytest.approx(0.1)  # population std

    def test_order_independent(self):
        recs = [{"ari": 0.1}, {"ari": 0.9}, {"ari": 0.4}]
        a, _ = per_room_average(recs)
        b, _ = per_room_average(recs[::-1])
        assert a["ari"] == pytest.approx(b["ari"], abs=1e-15)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = [score_scene([1, 1, 2, 2], [1, 1, 2, 2]),
                score_scene([1, 1, 2, 2], [1, 2, 1, 2])]
        write_metrics_csv(path, ["a", "b"], recs)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 + 2  # header + scenes + mean + std
        assert lines[0].startswith("scene,nmi,ami,ari")
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")
