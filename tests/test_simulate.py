import re
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (dataset_oracle, delta_components_oracle, instance_closure_oracle,
                     oracle_next_region, training_sample_oracle)
from regrow import network, simulate
from regrow.features import InputSpec, build_context
from regrow.network import TrainConfig, train
from regrow.pointcloud import PointCloud
from regrow.simulate import (
    DatasetError,
    DatasetReader,
    DatasetWriter,
    RegionState,
    SimConfig,
    augment_scene,
    corrupt_region,
    decayed_alpha,
    generate_dataset,
    instance_closure,
    make_training_sample,
    new_record,
    simulate_instance,
)


def region(ctx, members, seed=None):
    members = sorted(members)
    return RegionState(ctx.new_tracker(members), members[0] if seed is None else seed)


def member_set(state):
    return set(np.flatnonzero(state.tracker.member).tolist())


def line_scene(n=21, spacing=0.05, instance=1):
    pts = np.column_stack([np.arange(n) * spacing, np.zeros(n), np.zeros(n)])
    colors = np.full((n, 3), 100, dtype=np.uint8)
    return PointCloud(pts, colors, np.full(n, instance, dtype=np.int32))


def two_blob_scene():
    """Two instances: a short line and a nearby second line within delta."""
    a = np.column_stack([np.arange(6) * 0.05, np.zeros(6), np.zeros(6)])
    b = np.column_stack([np.arange(6) * 0.05, np.full(6, 0.08), np.zeros(6)])
    pts = np.vstack([a, b])
    colors = np.full((12, 3), 100, dtype=np.uint8)
    gt = np.array([1] * 6 + [2] * 6, dtype=np.int32)
    return PointCloud(pts, colors, gt)


@st.composite
def labeled_clouds(draw):
    """Small clouds on a 0.05 grid (so pairs sit exactly at the radius) with
    duplicate points and 1-3 interleaved instances."""
    n = draw(st.integers(1, 40))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=n, max_size=n))
    gt = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    seed = draw(st.integers(0, n - 1))
    delta = draw(st.sampled_from([0.05, 0.1, 0.12]))
    pts = np.array(cells, dtype=float) * 0.05
    return PointCloud(pts, np.full((n, 3), 80, np.uint8), np.array(gt, np.int32)), seed, delta


class TestInstanceClosure:
    @settings(max_examples=60, deadline=None)
    @given(labeled_clouds())
    def test_matches_brute_force_closure(self, case):
        cloud, seed, delta = case
        ctx = build_context(cloud, delta=delta, features=np.zeros((cloud.n_points, 13)))
        expected = instance_closure_oracle(cloud.positions, cloud.gt_instance, seed, delta)
        np.testing.assert_array_equal(instance_closure(ctx, seed), expected)


class TestOracleGrowth:
    def test_line_grows_one_point_per_step(self):
        cloud = line_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        state = region(ctx, {0})
        oracle_next_region(ctx, state)
        # from the leftmost point only the +0.05 neighbor is strictly inside 0.1
        assert member_set(state) == {0, 1}
        assert state.step == 1

    def test_fixed_point_at_closure(self):
        cloud = line_scene(n=5)
        ctx = build_context(cloud, delta=0.1, knn=4)
        state = region(ctx, set(range(5)))
        oracle_next_region(ctx, state)
        assert member_set(state) == set(range(5))

    def test_line_step_count(self):
        cloud = line_scene(n=21, spacing=0.05)
        ctx = build_context(cloud, delta=0.1, knn=4)
        state = region(ctx, {0})
        closure = instance_closure(ctx, 0)
        assert closure.all()  # the whole line is one delta-connected instance
        steps = 0
        while not np.array_equal(state.tracker.member, closure):
            oracle_next_region(ctx, state)
            steps += 1
            assert steps <= 21
        assert steps <= int(np.ceil(1.0 / 0.05))

    def test_requires_labels(self):
        cloud = line_scene()
        cloud = PointCloud(cloud.positions, cloud.colors, None)
        ctx = build_context(cloud, delta=0.1, knn=4)
        with pytest.raises(ValueError):
            oracle_next_region(ctx, region(ctx, {0}))

    def test_monotone_and_converges_to_component(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            pts = rng.uniform(0, 0.5, (60, 3))
            gt = rng.integers(1, 3, 60).astype(np.int32)
            cloud = PointCloud(pts, np.full((60, 3), 80, np.uint8), gt)
            ctx = build_context(cloud, delta=0.12, knn=4)
            seed = int(rng.integers(60))
            expected = delta_components_oracle(pts, gt == gt[seed], seed, 0.12)
            state = region(ctx, {seed})
            for _ in range(100):
                before = member_set(state)
                oracle_next_region(ctx, state)
                assert before <= member_set(state)
                if member_set(state) == before:
                    break
            assert member_set(state) == expected


class TestCorruptRegion:
    def test_alpha_zero_equals_oracle(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        clean = region(ctx, {0, 1})
        oracle_next_region(ctx, clean)
        noisy = region(ctx, {0, 1})
        corrupt_region(ctx, noisy, 0.0, np.random.default_rng(0))
        assert member_set(noisy) == member_set(clean)
        np.testing.assert_array_equal(noisy.tracker.support, clean.tracker.support)

    def test_alpha_one_extremes(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        noisy = region(ctx, {0})
        corrupt_region(ctx, noisy, 1.0, np.random.default_rng(0))
        # all correct frontier dropped, every wrong in-range point added
        assert 1 not in member_set(noisy)
        assert 6 in member_set(noisy)  # the second instance's point right across
        assert 0 in member_set(noisy)

    def test_alpha_zero_removes_wrong_members(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        state = region(ctx, {0, 6})  # 6 belongs to the other instance
        corrupt_region(ctx, state, 0.0, np.random.default_rng(0))
        assert 6 not in member_set(state)

    def test_drop_fraction_matches_alpha(self):
        cloud = line_scene(n=3, spacing=0.05)
        ctx = build_context(cloud, delta=0.2, knn=3)
        rng = np.random.default_rng(5)
        dropped = 0
        trials = 1000
        for _ in range(trials):
            out = region(ctx, {1})
            corrupt_region(ctx, out, 0.3, rng)
            dropped += (0 not in member_set(out)) + (2 not in member_set(out))
        assert dropped / (2 * trials) == pytest.approx(0.3, abs=0.05)

    def test_schedule_decay(self):
        alpha = partial(decayed_alpha, 0.25, 0.01)
        assert alpha(0) == 0.25
        assert alpha(10) == pytest.approx(0.15)
        assert alpha(100) == 0.0
        assert all(alpha(k) >= alpha(k + 1) for k in range(60))


@st.composite
def sample_cases(draw):
    """(ctx, region, spec, seed, meta): a labeled cloud with its features,
    a region of any members around a seed among them, any input spec, a
    random stream's seed and any int32 meta triple."""
    cloud, seed, delta = draw(labeled_clouds())
    ctx = build_context(cloud, delta=delta, knn=draw(st.integers(3, 8)))
    others = draw(st.sets(st.integers(0, cloud.n_points - 1), max_size=cloud.n_points))
    cols = tuple(sorted(draw(st.sets(st.integers(0, 12), min_size=1))))
    spec = SimConfig(i_size=draw(st.integers(1, 12)), j_size=draw(st.integers(1, 12)),
                     feature_columns=cols, normalize=draw(st.booleans()))
    meta = tuple(draw(st.integers(-2**31, 2**31 - 1)) for _ in range(3))
    return ctx, region(ctx, others | {seed}, seed), spec, draw(st.integers(0, 2**32 - 1)), meta


class TestTrainingSamples:
    def test_clean_state_has_no_removals(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        sample = make_training_sample(ctx, region(ctx, {0, 1}), SimConfig(i_size=8, j_size=8),
                                      np.random.default_rng(0))
        assert sample["remove_target"].sum() == 0
        assert sample["inlier_features"].shape == (8, 13)

    def test_wrong_member_marked_for_removal(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        sample = make_training_sample(ctx, region(ctx, {0, 6}), SimConfig(i_size=8, j_size=8),
                                      np.random.default_rng(0))
        assert sample["remove_target"].sum() > 0

    def test_add_targets_follow_instance(self):
        cloud = two_blob_scene()
        ctx = build_context(cloud, delta=0.1, knn=4)
        rng = np.random.default_rng(1)
        state = region(ctx, {0, 1, 2})
        frontier_gt = cloud.gt_instance
        for _ in range(5):
            sample = make_training_sample(ctx, state, SimConfig(i_size=8, j_size=16), rng)
            assert sample is not None
            # reconstruct: every slot's target equals gt membership of its point
            assert set(np.unique(sample["add_target"])) <= {0, 1}

    def test_skip_signal_when_isolated(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        cloud = PointCloud(pts, np.full((2, 3), 10, np.uint8),
                           np.array([1, 2], dtype=np.int32))
        ctx = build_context(cloud, delta=0.1, knn=2)
        out = make_training_sample(ctx, region(ctx, {0}), SimConfig(i_size=4, j_size=4),
                                   np.random.default_rng(0))
        assert out is None

    @given(sample_cases())
    @settings(max_examples=80, deadline=None)
    def test_record_fields_match_the_astype_oracle(self, case):
        ctx, state, spec, seed, meta = case
        record = make_training_sample(ctx, state, spec, np.random.default_rng(seed), meta)
        expected = training_sample_oracle(ctx, state, spec, np.random.default_rng(seed), meta)
        if expected is None:
            assert record is None
            return
        assert record.dtype == simulate.record_dtype(spec.i_size, spec.j_size, spec.n_features)
        assert record.shape == () and record["length"] == record.itemsize - 4
        for name, array in zip(record.dtype.names[1:], expected):
            assert record[name].dtype == array.dtype and record[name].shape == array.shape
            assert record[name].tobytes() == array.tobytes(), name


class TestAugment:
    def test_identity_case(self):
        cloud = line_scene()
        rng = np.random.default_rng(5)  # draws: no flip, 0 turns
        assert rng.random() >= 0.5 and int(rng.integers(0, 4)) == 0
        out = augment_scene(cloud, np.random.default_rng(5))
        np.testing.assert_allclose(out.positions, cloud.positions)

    def test_rotation_by_hand(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5]])
        cloud = PointCloud(pts, np.full((2, 3), 50, np.uint8),
                           np.array([1, 1], dtype=np.int32))
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            flip = rng.random() < 0.5
            turns = int(rng.integers(0, 4))
            out = augment_scene(cloud, np.random.default_rng(seed))
            rel = out.positions[1] - out.positions[0]
            base = np.array([2.0, 1.0, 0.5]) if flip else np.array([1.0, 2.0, 0.5])
            for _ in range(turns):
                base = np.array([-base[1], base[0], base[2]])
            np.testing.assert_allclose(rel, base, atol=1e-12)
            assert out.positions.min(axis=0).tolist() == [0.0, 0.0, 0.0]
            seen.add((flip, turns))
        assert len(seen) == 8  # all transform variants exercised

    def test_labels_and_colors_untouched(self):
        cloud = two_blob_scene()
        out = augment_scene(cloud, np.random.default_rng(3))
        assert np.array_equal(out.gt_instance, cloud.gt_instance)
        assert np.array_equal(out.colors, cloud.colors)


class TestGenerateDataset:
    def test_tiny_instance_short_simulation(self, tmp_path):
        # one instance whose whole extent fits inside delta, no noise
        pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.0, 0.05, 0]])
        cloud = PointCloud(pts, np.full((3, 3), 10, np.uint8),
                           np.array([1, 1, 1], dtype=np.int32))
        cfg = SimConfig(i_size=4, j_size=4, alpha_range=(0.0, 0.0), seed=0)
        n = generate_dataset([cloud], cfg, tmp_path / "d.bin")
        assert n <= 2

    def test_sample_count_lower_bound(self, tmp_path):
        # binary-exact spacing keeps hops strictly below the radius
        spacing, delta = 0.0625, 0.125
        cloud = line_scene(n=21, spacing=spacing)  # 1.25 m long line
        cfg = SimConfig(i_size=4, j_size=4, delta=delta, alpha_range=(0.0, 0.0), seed=1)
        ctx = build_context(cloud, delta=delta, knn=4)
        rng = np.random.default_rng(1)
        samples = list(simulate_instance(ctx, 1, cfg, rng))
        # the region must take at least diameter/delta growth steps
        assert len(samples) + 1 >= int(np.ceil(20 * spacing / delta))

    def test_alpha_never_increases(self):
        vals = [decayed_alpha(0.4, SimConfig().decay, k) for k in range(80)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dataset_roundtrip(self, tmp_path):
        cloud = two_blob_scene()
        cfg = SimConfig(i_size=6, j_size=5, alpha_range=(0.2, 0.4), seed=3)
        path = tmp_path / "d.bin"
        n = generate_dataset([cloud], cfg, path)
        with DatasetReader(path) as ds:
            xi, xn, remove, _add, meta = ds.read(np.arange(len(ds)))
        assert len(ds) == n > 0
        assert xi.shape[1:] == (6, 13)
        assert xn.shape[1:] == (5, 13)
        assert set(np.unique(remove)) <= {0, 1}
        assert meta[:, 1].min() >= 1

    def test_truncated_dataset_rejected(self, tmp_path):
        cloud = two_blob_scene()
        cfg = SimConfig(i_size=6, j_size=5, seed=3)
        path = tmp_path / "d.bin"
        generate_dataset([cloud], cfg, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(DatasetError):
            DatasetReader(path)

    @pytest.mark.parametrize("damage", ["header-only", "version", "length", "partial"])
    def test_corrupt_dataset_rejected(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        raw = bytearray(path.read_bytes())
        record = 4 + 4 * (6 + 5) * 13 + 6 + 5 + 12
        assert len(raw) >= 20 + 2 * record
        if damage == "header-only":
            raw = raw[:20]
        elif damage == "version":
            raw[4:8] = np.array([3], "<u4").tobytes()
        elif damage == "length":
            # the second record claims one byte more; the file size is unchanged
            raw[20 + record:24 + record] = np.array([record - 3], "<u4").tobytes()
        else:
            raw = raw[:20 + record + 4]
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError):
            DatasetReader(path)
        # refused when train opens the file, before any training step
        steps = []
        monkeypatch.setattr(network, "forward_batch", lambda *a, **k: steps.append(a))
        with pytest.raises(DatasetError):
            train(path, TrainConfig((4, 4, 4, 4, 8), (4, 4, 1), epochs=1))
        assert steps == []

    def test_length_checked_in_every_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "d.bin"
        n = generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        record = simulate.record_dtype(6, 5, 13).itemsize
        raw = bytearray(path.read_bytes())
        last = 20 + (n - 1) * record
        raw[last:last + 4] = np.array([record - 3], "<u4").tobytes()
        path.write_bytes(bytes(raw))
        # one record per chunk, so the damaged record is in the last chunk read
        monkeypatch.setattr(simulate, "DATASET_CHECK_BYTES", record)
        with pytest.raises(DatasetError, match="inconsistent record length"):
            DatasetReader(path)

    @pytest.mark.parametrize("field,value,what", [
        ("add_target", 7, "target byte other than 0 or 1"),
        ("remove_target", 2, "target byte other than 0 or 1"),
        ("neighbor_features", np.inf, "non-finite feature"),
        ("inlier_features", np.nan, "non-finite feature"),
    ])
    def test_bad_record_is_refused_at_open(self, tmp_path, monkeypatch, field, value, what):
        path = tmp_path / "d.bin"
        n = generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        head = np.frombuffer(path.read_bytes(), np.uint8, 20)
        records = np.frombuffer(path.read_bytes(), simulate.record_dtype(6, 5, 13),
                                offset=20).copy()
        records[field][n - 2].flat[1] = value
        path.write_bytes(head.tobytes() + records.tobytes())
        # two records per chunk, so the bad record need not start its chunk
        monkeypatch.setattr(simulate, "DATASET_CHECK_BYTES", 2 * records.itemsize)
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: record {n - 2}: "
                                               f"{what}$"):
            DatasetReader(path)

    def test_steps_per_instance_same_order_as_reference_ratio(self, tmp_path):
        # large-scale runs average on the order of twenty-odd samples per
        # instance; the decaying mistake schedule should keep synthetic data
        # in the same ballpark
        cloud = two_blob_scene()
        cfg = SimConfig(i_size=6, j_size=6, alpha_range=(0.2, 0.4), seed=4)
        n = generate_dataset([cloud], cfg, tmp_path / "d.bin")
        per_instance = n / 2
        assert 2.2 <= per_instance <= 220

    def test_deterministic_bytes(self, tmp_path):
        cloud = two_blob_scene()
        cfg = SimConfig(i_size=6, j_size=5, alpha_range=(0.1, 0.3), seed=9)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        generate_dataset([cloud], cfg, a)
        generate_dataset([cloud], cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_every_sample_satisfies_target_invariants(self, tmp_path):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 0.4, (50, 3))
        gt = rng.integers(1, 3, 50).astype(np.int32)
        cloud = PointCloud(pts, np.full((50, 3), 90, np.uint8), gt)
        ctx = build_context(cloud, delta=0.12, knn=4)
        cfg = SimConfig(i_size=8, j_size=8, alpha_range=(0.3, 0.3), seed=2)
        for inst in (1, 2):
            state = region(ctx, {int(np.flatnonzero(gt == inst)[0])})
            rng2 = np.random.default_rng(7)
            for _ in range(10):
                members = np.flatnonzero(state.tracker.member)
                sample = make_training_sample(ctx, state, cfg, rng2)
                if sample is None:
                    break
                assert sample["length"] == sample.itemsize - 4
                for name in ("remove_target", "add_target"):
                    assert set(np.unique(sample[name])) <= {0, 1}
                if (gt[members] == inst).all():
                    assert not sample["remove_target"].any()
                corrupt_region(ctx, state, decayed_alpha(0.3, cfg.decay, state.step), rng2)


@st.composite
def sample_batches(draw, max_count=5):
    """(spec, records): a `SimConfig` with any strictly ascending, non-empty
    set of feature columns and either normalization, and records of its
    shapes."""
    i, j = (draw(st.integers(1, 8)) for _ in range(2))
    cols = tuple(sorted(draw(st.sets(st.integers(0, 12), min_size=1))))
    spec = SimConfig(i_size=i, j_size=j, feature_columns=cols, normalize=draw(st.booleans()))
    f = len(cols)
    count = draw(st.integers(1, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = [new_record(spec) for _ in range(count)]
    for record in samples:
        record["inlier_features"] = rng.normal(size=(i, f))
        record["neighbor_features"] = rng.normal(size=(j, f))
        record["remove_target"] = rng.integers(0, 2, i)
        record["add_target"] = rng.integers(0, 2, j)
        record["meta"] = rng.integers(-2**31, 2**31, 3)
    return spec, samples


class TestDatasetFile:
    @given(sample_batches())
    @settings(max_examples=60, deadline=None)
    def test_loader_matches_struct_oracle(self, batch):
        spec, samples = batch
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.bin"
            with DatasetWriter(path, spec) as writer:
                for sample in samples:
                    writer.write(sample)
            with DatasetReader(path) as ds:
                got = ds.read(np.arange(len(ds)))
            expected = dataset_oracle(path)
        # the header gives back the input spec it was written with
        assert len(ds) == len(samples)
        assert ds.spec == InputSpec(spec.i_size, spec.j_size, spec.feature_columns,
                                    spec.normalize)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(got[4], [s["meta"] for s in samples])

    @given(sample_batches(max_count=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reader_matches_oracle_for_any_indices(self, batch, data):
        spec, samples = batch
        count = len(samples)
        lo = data.draw(st.integers(0, count - 1))
        hi = data.draw(st.integers(lo + 1, count))
        perm = np.array(data.draw(st.permutations(range(count))))
        selections = {
            "permutation slice": perm[lo:hi],
            "adjacent run": np.arange(lo, hi),
            "single index": np.array([data.draw(st.integers(0, count - 1))]),
            "whole file": np.arange(count),
            "repeats": np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=1,
                                                   max_size=2 * count))),
        }
        order = data.draw(st.permutations(list(selections)))
        record = simulate.record_dtype(spec.i_size, spec.j_size,
                                       len(spec.feature_columns)).itemsize
        chunk = data.draw(st.integers(1, count + 1)) * record
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.bin"
            with DatasetWriter(path, spec) as writer:
                for sample in samples:
                    writer.write(sample)
            with mock.patch.object(simulate, "DATASET_CHECK_BYTES", chunk), \
                    DatasetReader(path) as ds:
                # all read from one open reader, and compared only afterwards,
                # so that a batch reusing the buffer cannot alter an earlier one
                got = {name: ds.read(selections[name]) for name in order}
            expected = dataset_oracle(path)
        for name, sel in selections.items():
            for a, rows in zip(got[name], expected):
                assert a.flags.c_contiguous, name
                assert a.dtype == rows.dtype and a.shape == (len(sel), *rows.shape[1:]), name
                assert a.tobytes() == rows[sel].tobytes(), name

    def test_read_after_truncation_is_refused(self, tmp_path):
        path = tmp_path / "d.bin"
        n = generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        raw = path.read_bytes()
        with DatasetReader(path) as ds:
            path.write_bytes(raw[:-7])
            # the last record comes back short; the others read whole, but
            # from a file that changed since it was opened
            with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: short read"):
                ds.read([0, n - 1])
            with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: the file changed"):
                ds.read([0])

    def test_index_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        n = generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        with DatasetReader(path) as ds:
            for sel in ([n], [-1], [0, n]):
                with pytest.raises(IndexError):
                    ds.read(sel)

    def test_interrupted_write_keeps_previous_dataset(self, tmp_path, monkeypatch):
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        before = path.read_bytes()
        simulate_instance = simulate.simulate_instance

        def first_record_then_fail(*args, **kwargs):
            yield next(simulate_instance(*args, **kwargs))
            raise KeyboardInterrupt("interrupted after the first record")

        monkeypatch.setattr(simulate, "simulate_instance", first_record_then_fail)
        with pytest.raises(KeyboardInterrupt):
            generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=4), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin"]

    def test_wrong_sample_shape_rejected(self, tmp_path):
        spec = SimConfig(i_size=4, j_size=5, feature_columns=(0, 1, 2))
        others = [replace(spec, j_size=1), replace(spec, i_size=3),
                  replace(spec, feature_columns=(0, 1)),
                  replace(spec, feature_columns=(0, 1, 5, 6))]
        with DatasetWriter(tmp_path / "d.bin", spec) as writer:
            for other in others:
                with pytest.raises(DatasetError, match="is not the header's"):
                    writer.write(new_record(other))
            with pytest.raises(DatasetError):
                writer.write(np.zeros(new_record(spec).itemsize, np.uint8))
        assert (tmp_path / "d.bin").stat().st_size == 20  # the header alone


class TestInputSpecHeader:
    @pytest.mark.parametrize("cols", [(), (1, 0), (0, 0, 1), (12, 13), (-1, 0)],
                             ids=["empty", "descending", "repeated", "above-12", "negative"])
    def test_columns_the_header_cannot_record_are_refused(self, cols):
        with pytest.raises(ValueError, match="strictly ascending within 0..12"):
            SimConfig(feature_columns=cols)

    @pytest.mark.parametrize("cols,normalize,word", [
        (None, True, 0x80001FFF), (None, False, 0x1FFF), ((0, 1, 2, 3, 4, 5), True, 0x8000003F),
        ((12,), False, 0x1000)])
    def test_spec_word(self, tmp_path, cols, normalize, word):
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3,
                                                       feature_columns=cols or tuple(range(13)),
                                                       normalize=normalize), path)
        assert path.read_bytes()[:20] == b"RGDS" + np.array([2, 6, 5, word], "<u4").tobytes()

    @pytest.mark.parametrize("word", [0, 0x80000000, 0x80002001, 0x40000001],
                             ids=["no-column", "normalize-only", "bit-13", "bit-30"])
    def test_bad_spec_word_is_refused(self, tmp_path, word):
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = np.array([word], "<u4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: spec word"):
            DatasetReader(path)

    def test_version_1_file_is_refused_before_any_training_step(self, tmp_path, monkeypatch):
        # the version 1 header, whose last word is F, held no input spec
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + np.array([1, 6, 5, 13], "<u4").tobytes() + raw[20:])
        steps = []
        monkeypatch.setattr(network, "forward_batch", lambda *a, **k: steps.append(a))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: unsupported "
                                               r"dataset version 1 .* re-run `regrow simulate`"):
            train(path, TrainConfig((4, 4, 4, 4, 8), (4, 4, 1), epochs=1))
        assert steps == []

    # (0, 1, 2, 12) is no prefix of the 13 columns, so a count of F cannot stand in for it
    @pytest.mark.parametrize("cols,normalize", [(tuple(range(13)), False), ((0, 1, 2, 12), True)],
                             ids=["raw", "xyz-curvature"])
    def test_train_takes_the_spec_from_the_dataset(self, tmp_path, cols, normalize):
        path = tmp_path / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3,
                                                       feature_columns=cols,
                                                       normalize=normalize), path)
        params, _ = train(path, TrainConfig((4, 4, 4, 4, 8), (4, 4, 1), epochs=1))
        assert (params.i_size, params.j_size, params.feature_columns, params.normalize) == \
            (6, 5, cols, normalize)


def _dataset_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.bin"
        generate_dataset([two_blob_scene()], SimConfig(i_size=6, j_size=5, seed=3), path)
        return path.read_bytes()


DATASET = _dataset_bytes()
FIRST_TARGET = 20 + 4 + 4 * (6 + 5) * 13  # record 0's first remove_target byte


class TestMutatedDataset:
    @given(at=st.integers(0, len(DATASET) - 1), value=st.integers(0, 255))
    @example(at=FIRST_TARGET, value=7)
    @settings(max_examples=300, deadline=None)
    def test_one_mutated_byte_is_refused_or_round_trips(self, at, value):
        """A dataset with one byte changed is refused, or its records hold
        finite features and 0/1 targets and, written back through
        `DatasetWriter` with the reader's spec, give the same bytes."""
        raw = bytearray(DATASET)
        raw[at] = value
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "d.bin", Path(tmp) / "again.bin"
            path.write_bytes(bytes(raw))
            try:
                with DatasetReader(path) as reader:
                    spec, fields = reader.spec, reader.read(np.arange(len(reader)))
            except DatasetError:
                return
            xi, xn, remove, add, meta = fields
            assert np.isfinite(xi).all() and np.isfinite(xn).all()
            assert remove.max() <= 1 and add.max() <= 1
            with DatasetWriter(again, spec) as writer:
                for k in range(len(meta)):
                    record = new_record(spec)
                    record["inlier_features"], record["neighbor_features"] = xi[k], xn[k]
                    record["remove_target"], record["add_target"] = remove[k], add[k]
                    record["meta"] = meta[k]
                    writer.write(record)
            assert again.read_bytes() == bytes(raw)
