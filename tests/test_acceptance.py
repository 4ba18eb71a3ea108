"""Acceptance suite: every release criterion checked at its stated tolerance.

Each criterion prints one `ACCEPTANCE Cn: PASS/FAIL` line (run pytest with -s
to see them live). The end-to-end criteria share one session-scoped pipeline:
40 synthetic training rooms, 20 test rooms, the desk-scale network with
I = J = 128 trained for 10 epochs.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (Sized, ami_oracle, ari_oracle, delta_components_oracle, nmi_oracle,
                     oracle_next_region)
from regrow import baselines, metrics, search, synth
from regrow.features import FEATURE_SUBSETS, build_context
from regrow.grow import GrowConfig, segment_scene
from regrow.metrics import ami, ari, build_contingency, nmi
from regrow.network import (
    Predictor,
    TrainConfig,
    backward,
    batch_loss,
    forward_batch,
    init_params,
    param_tensors,
    train,
)
from regrow.pointcloud import PointCloud, load_scene
from regrow.simulate import RegionState, SimConfig, generate_dataset


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def _piece_signature(cache):
    """Which affine piece of the network the evaluation landed on.

    The loss is piecewise smooth: pieces are delimited by rectifier sign
    flips and max-pool argmax changes. Central differences are only a valid
    derivative oracle when both probe points stay on the same piece as the
    base point, so probes that land on different pieces must be discarded.
    """
    sig = []
    for key in ("zi", "zn"):
        for z in cache[key]:
            sig.append((z > 0).tobytes())
    for key in ("ui", "un"):
        for z in cache[key][:-1]:
            sig.append((z > 0).tobytes())
    sig.append(cache["argi"].tobytes())
    sig.append(cache["argn"].tobytes())
    return tuple(sig)


class TestC1GradientCorrectness:
    def test_gradients_match_finite_differences(self):
        started = time.time()
        h = 1e-5  # 64-bit check build
        worst = 0.0
        rng = np.random.default_rng(2024)
        skipped = 0
        probed = 0
        for draw in range(20):
            params = init_params((8, 8, 8, 8, 16), (8, 8, 1), skip_layer=2,
                                 i_size=8, j_size=8, seed=draw, dtype=np.float64)
            xi = rng.normal(size=(8, 13))
            xn = rng.normal(size=(8, 13))
            rt = rng.integers(0, 2, 8).astype(float)
            at = rng.integers(0, 2, 8).astype(float)
            _, _, cache = forward_batch(params, xi[None], xn[None], want_cache=True)
            base_sig = _piece_signature(cache)
            grads = backward(params, cache, rt[None], at[None])
            fd, an = [], []
            for (_, tensor), (_, g) in zip(param_tensors(params), param_tensors(grads)):
                stride = max(1, tensor.size // 3)
                for index in range(0, tensor.size, stride):
                    orig = tensor.flat[index]
                    tensor.flat[index] = orig + h
                    p_r, p_a, c_up = forward_batch(params, xi[None], xn[None],
                                                   want_cache=True)
                    up = batch_loss(p_r, p_a, rt[None], at[None])
                    sig_up = _piece_signature(c_up)
                    tensor.flat[index] = orig - h
                    p_r, p_a, c_down = forward_batch(params, xi[None], xn[None],
                                                     want_cache=True)
                    down = batch_loss(p_r, p_a, rt[None], at[None])
                    sig_down = _piece_signature(c_down)
                    tensor.flat[index] = orig
                    probed += 1
                    if sig_up != base_sig or sig_down != base_sig:
                        skipped += 1  # probe crossed a kink: FD is undefined
                        continue
                    fd.append((up - down) / (2 * h))
                    an.append(g.flat[index])
            fd = np.array(fd)
            an = np.array(an)
            rel = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), np.linalg.norm(an))
            worst = max(worst, rel)
        elapsed = time.time() - started
        _report("C1 gradient-correctness",
                worst < 1e-3 and elapsed < 60 and skipped < 0.1 * probed,
                f"(worst rel err {worst:.2e} over 20 draws, "
                f"{skipped}/{probed} kink-crossing probes excluded, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: clustering metrics vs brute-force oracles
# ---------------------------------------------------------------------------

def _all_tables(n: int, rows: int, cols: int):
    """Every contingency table with the given shape summing to n."""
    cells = rows * cols

    def rec(remaining, idx):
        if idx == cells - 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, idx + 1):
                yield (v,) + rest

    yield from rec(n, 0)


def _check_triple(gt, pred, tol=1e-9):
    c = build_contingency(np.asarray(gt), np.asarray(pred))
    assert abs(ari(c) - ari_oracle(gt, pred)) < tol
    assert abs(nmi(c) - nmi_oracle(gt, pred)) < tol
    assert abs(ami(c) - ami_oracle(gt, pred)) < tol


class TestC2MetricOracles:
    def test_exhaustive_and_random_agreement(self):
        # literal product over all label arrays for small n
        pairs = 0
        for n in range(2, 5):
            for gt in itertools.product(range(3), repeat=n):
                for pred in itertools.product(range(3), repeat=n):
                    _check_triple(gt, pred)
                    pairs += 1
        # every contingency class for n <= 8 into <= 3 clusters per side; a
        # table fixes both labelings up to point order, and all three indices
        # are functions of the table, so this covers every labeling pair
        tables = 0
        for n in range(2, 9):
            for flat in _all_tables(n, 3, 3):
                m = np.array(flat).reshape(3, 3)
                gt, pred = [], []
                for i in range(3):
                    for j in range(3):
                        gt += [i] * m[i, j]
                        pred += [j] * m[i, j]
                _check_triple(gt, pred)
                tables += 1
        # random larger cases
        rng = np.random.default_rng(7)
        for _ in range(1000):
            gt = rng.integers(1, 5, 12)
            pred = rng.integers(1, 5, 12)
            _check_triple(list(gt), list(pred))
        # identity and the hand-worked case
        c = build_contingency([4, 4, 9, 9, 1], [2, 2, 3, 3, 8])
        exact_ones = nmi(c) == 1.0 and ami(c) == 1.0 and ari(c) == 1.0
        hand = ari(build_contingency([1, 1, 1, 1], [1, 1, 2, 2]))
        _report("C2 metric-oracle-equivalence",
                exact_ones and abs(hand) < 1e-12,
                f"({pairs} label pairs, {tables} contingency classes, 1000 random n=12)")


# ---------------------------------------------------------------------------
# Criterion 3: noiseless simulation converges to the reachable instance set
# ---------------------------------------------------------------------------

_C3_SPACING = 0.033
_C3_DELTA = 0.1


def _line_instance(rng):
    length = rng.uniform(0.3, 1.8)
    n = int(length / _C3_SPACING) + 1
    pts = np.column_stack([np.arange(n) * _C3_SPACING, np.zeros(n), np.zeros(n)])
    yaw = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(yaw), np.sin(yaw)
    return pts @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]).T


def _rect_instance(rng):
    a, b = rng.uniform(0.2, 0.9, 2)
    na, nb = int(a / _C3_SPACING) + 1, int(b / _C3_SPACING) + 1
    u, v = np.meshgrid(np.arange(na) * _C3_SPACING, np.arange(nb) * _C3_SPACING,
                       indexing="ij")
    return np.column_stack([u.ravel(), v.ravel(), np.zeros(u.size)])


def _box_instance(rng):
    side = rng.uniform(0.1, 0.22)
    n = int(side / _C3_SPACING) + 1
    g = np.arange(n) * _C3_SPACING
    faces = []
    for fixed_axis in range(3):
        for val in (0.0, side):
            u, v = np.meshgrid(g, g, indexing="ij")
            pts = np.zeros((u.size, 3))
            axes = [a for a in range(3) if a != fixed_axis]
            pts[:, axes[0]] = u.ravel()
            pts[:, axes[1]] = v.ravel()
            pts[:, fixed_axis] = val
            faces.append(pts)
    return np.unique(np.concatenate(faces).round(9), axis=0)


class TestC3SimulatorConvergence:
    def test_hundred_instances(self):
        makers = [_line_instance, _rect_instance, _box_instance]
        worst_ratio = 0.0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            pts = makers[trial % 3](rng)
            gt = np.ones(len(pts), dtype=np.int32)
            if trial % 2 == 0:  # adjacent distractor instance within delta
                off = pts + np.array([0.0, 0.0, 0.05])
                pts = np.vstack([pts, off])
                gt = np.concatenate([gt, np.full(len(off), 2, dtype=np.int32)])
            cloud = PointCloud(pts, np.full((len(pts), 3), 100, np.uint8), gt)
            ctx = build_context(cloud, delta=_C3_DELTA, knn=min(8, len(pts)))
            inst_pts = np.flatnonzero(gt == 1)
            seed = int(rng.choice(inst_pts))
            expected = delta_components_oracle(pts, gt == 1, seed, _C3_DELTA)
            sub = pts[inst_pts]
            diameter = 0.0
            for i in range(0, len(sub), 512):
                d = np.linalg.norm(sub[i:i + 512, None, :] - sub[None, :, :], axis=2)
                diameter = max(diameter, float(d.max()))
            bound = int(np.ceil(diameter / _C3_DELTA)) + 2
            state = RegionState(ctx.new_tracker([seed]), seed)
            steps = 0
            while set(np.flatnonzero(state.tracker.member).tolist()) != expected:
                before = state.tracker.member.copy()
                oracle_next_region(ctx, state)
                assert not np.array_equal(state.tracker.member, before), \
                    f"trial {trial}: converged to the wrong set"
                steps += 1
                assert steps <= bound, f"trial {trial}: {steps} steps > bound {bound}"
            worst_ratio = max(worst_ratio, steps / bound)
        _report("C3 simulator-convergence", True,
                f"(100 instances, worst steps/bound {worst_ratio:.2f})")


# ---------------------------------------------------------------------------
# Shared end-to-end pipeline for criteria 4, 5, 7
# ---------------------------------------------------------------------------

ROOMS = synth.RoomConfig(extent=(2.4, 2.4, 1.4), spacing=0.045, n_objects=(6, 10))
# the desk-scale network's encoder and decoder widths
DESK_ENC_WIDTHS = (32, 32, 32, 64, 128)
DESK_DEC_WIDTHS = (64, 32, 1)
DESK_TRAIN = dict(enc_widths=DESK_ENC_WIDTHS,
                  dec_widths=DESK_DEC_WIDTHS,
                  epochs=10, batch_size=100, lr=0.001, seed=0)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    timings = {}

    t0 = time.time()
    train_paths, test_paths = synth.generate_split(ROOMS, 40, 20, root / "data",
                                                   base_seed=11)
    timings["synth"] = time.time() - t0

    t0 = time.time()
    sim = SimConfig(i_size=128, j_size=128, seed=5)
    n_samples = generate_dataset(train_paths, sim, root / "train.bin")
    timings["simulate"] = time.time() - t0

    t0 = time.time()
    params, losses = train(root / "train.bin",
                           TrainConfig(checkpoint=str(root / "model.ckpt"),
                                       **DESK_TRAIN))
    timings["train"] = time.time() - t0

    predictor = Predictor(params)
    grow_cfg = GrowConfig()
    rr_cfg = search.SearchConfig(strategy="rr-np", restarts=10)

    recs = {"greedy": [], "threshold": [], "rr_np": []}
    t0 = time.time()
    contexts = []
    for path in test_paths:
        cloud = load_scene(path)
        ctx = build_context(cloud)
        contexts.append((path, cloud, ctx))
        labels, stats = segment_scene(ctx, predictor, grow_cfg,
                                      rng=np.random.default_rng(17))
        rec = metrics.score_scene(cloud.gt_instance, labels)
        rec["steps"] = stats["steps_per_region"]
        recs["greedy"].append(rec)
        recs["threshold"].append(
            metrics.score_scene(cloud.gt_instance, baselines.grow_threshold(ctx)))
    timings["segment_and_baseline"] = time.time() - t0

    t0 = time.time()
    for path, cloud, ctx in contexts:
        labels, stats = segment_scene(ctx, predictor, grow_cfg, rr_cfg,
                                      rng=np.random.default_rng(17))
        rec = metrics.score_scene(cloud.gt_instance, labels)
        rec["steps"] = stats["steps_per_region"]
        recs["rr_np"].append(rec)
    timings["rr_np"] = time.time() - t0

    summary = {k: metrics.per_room_average(v)[0] for k, v in recs.items()}
    return {
        "root": root,
        "train_paths": train_paths,
        "test_paths": test_paths,
        "contexts": contexts,
        "summary": summary,
        "losses": losses,
        "n_samples": n_samples,
        "timings": timings,
    }


class TestC4EndToEndLearning:
    def test_learned_grower_beats_threshold_baseline(self, pipeline):
        s = pipeline["summary"]
        core = (pipeline["timings"]["synth"] + pipeline["timings"]["simulate"]
                + pipeline["timings"]["train"]
                + pipeline["timings"]["segment_and_baseline"])
        ari_margin = s["greedy"]["ari"] - s["threshold"]["ari"]
        recall_margin = s["greedy"]["recall"] - s["threshold"]["recall"]
        ok = ari_margin >= 0.05 and recall_margin >= 0.05 and core < 1800
        _report("C4 end-to-end-learning-signal", ok,
                f"(ARI {s['greedy']['ari']:.3f} vs {s['threshold']['ari']:.3f} "
                f"margin {ari_margin:+.3f}; recall {s['greedy']['recall']:.3f} vs "
                f"{s['threshold']['recall']:.3f} margin {recall_margin:+.3f}; "
                f"pipeline {core:.0f}s)")


class TestC5LocalSearchTrend:
    def test_random_restart_np_matches_table_shape(self, pipeline):
        s = pipeline["summary"]
        ari_ok = s["rr_np"]["ari"] >= s["greedy"]["ari"] - 0.01
        steps_ok = s["greedy"]["steps"] * 5 <= s["rr_np"]["steps"]
        _report("C5 local-search-trend", ari_ok and steps_ok,
                f"(ARI rr-np {s['rr_np']['ari']:.3f} vs greedy {s['greedy']['ari']:.3f}; "
                f"steps {s['greedy']['steps']:.1f} x5 <= {s['rr_np']['steps']:.1f})")


# ---------------------------------------------------------------------------
# Criterion 6: termination and totality under adversarial predictors
# ---------------------------------------------------------------------------

class _ConstPredictor:
    def __init__(self, remove, add):
        self.remove = remove
        self.add = add

    def __call__(self, xi, xn):
        return (np.full(len(xi), self.remove, dtype=np.float64),
                np.full(len(xn), self.add, dtype=np.float64))


class _RandomPredictor:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, xi, xn):
        return self.rng.uniform(0.01, 0.99, len(xi)), self.rng.uniform(0.01, 0.99, len(xn))


class TestC6TerminationTotality:
    def test_fuzz_random_scenes_with_adversarial_stubs(self):
        stubs = [
            lambda t: _ConstPredictor(0.0, 0.99),   # always add
            lambda t: _ConstPredictor(0.99, 0.0),   # always remove
            lambda t: _ConstPredictor(0.95, 0.95),  # oscillator: add+expel
            lambda t: _RandomPredictor(t),
        ]
        capped_total = 0
        for trial in range(200):
            rng = np.random.default_rng(5000 + trial)
            n = int(rng.integers(40, 260))
            scale = rng.uniform(0.3, 1.0)
            pts = rng.uniform(0, scale, (n, 3))
            colors = rng.integers(0, 256, (n, 3)).astype(np.uint8)
            cloud = PointCloud(pts, colors, None)
            delta = float(rng.uniform(0.08, 0.15))
            ctx = build_context(cloud, delta=delta, knn=min(8, n))
            i_size, j_size = int(rng.integers(4, 33)), int(rng.integers(4, 33))
            labels, stats = segment_scene(ctx, Sized(stubs[trial % 4](trial), i_size, j_size),
                                          GrowConfig(max_steps=500),
                                          rng=np.random.default_rng(trial))
            assert (labels > 0).all(), f"trial {trial}: incomplete labels"
            ids = np.unique(labels)
            assert ids.tolist() == list(range(1, len(ids) + 1)), \
                f"trial {trial}: ids not contiguous"
            capped_total += stats["capped_regions"]
        _report("C6 termination-totality", True,
                f"(200 scenes, 4 stub predictors, {capped_total} step-cap hits)")


# ---------------------------------------------------------------------------
# Criterion 7: ablation harness fidelity
# ---------------------------------------------------------------------------

class TestC7AblationHarness:
    def test_knob_set_complete(self):
        from regrow.cli import _ABLATION_KNOBS
        expected = {"full", "no-remove", "random-seed", "no-normalize",
                    "only-xyz", "xyz-rgb", "i128-j128", "i256-j256"}
        assert set(_ABLATION_KNOBS) == expected

    def test_only_xyz_not_better_than_full(self, pipeline):
        root = pipeline["root"]
        cols = FEATURE_SUBSETS["xyz"]
        sim = SimConfig(i_size=128, j_size=128, seed=5, feature_columns=cols)
        generate_dataset(pipeline["train_paths"], sim, root / "train_xyz.bin")
        params, _ = train(root / "train_xyz.bin", TrainConfig(**DESK_TRAIN))
        predictor = Predictor(params)
        cfg = GrowConfig()
        recs = []
        for _path, cloud, ctx in pipeline["contexts"]:
            labels, _stats = segment_scene(ctx, predictor, cfg,
                                           rng=np.random.default_rng(17))
            recs.append(metrics.score_scene(cloud.gt_instance, labels))
        xyz_ari = metrics.per_room_average(recs)[0]["ari"]
        full_ari = pipeline["summary"]["greedy"]["ari"]
        _report("C7 ablation-harness-fidelity", xyz_ari <= full_ari,
                f"(only-XYZ ARI {xyz_ari:.3f} <= full ARI {full_ari:.3f})")

    def test_ablate_command_runs_a_knob(self, tmp_path):
        from regrow.cli import main
        data = tmp_path / "data"
        code = main(["synth", "--out", str(data), "--train", "2", "--test", "1",
                     "--seed", "3", "--extent", "1.4", "1.4", "0.9",
                     "--spacing", "0.06", "--objects-min", "1", "--objects-max", "2"])
        assert code == 0
        code = main(["ablate", "--train-scenes", str(data / "train"),
                     "--test-scenes", str(data / "test"),
                     "--workdir", str(tmp_path / "work"), "--knob", "no-remove",
                     "--i", "32", "--j", "32", "--epochs", "2",
                     "--enc-widths", "16", "16", "16", "16", "32",
                     "--dec-widths", "32", "16", "1", "--seed", "0"])
        assert code == 0
        assert (tmp_path / "work" / "no-remove" / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# Criterion 8: bit-reproducibility of the pipeline commands
# ---------------------------------------------------------------------------

def _cli(*args):
    # the child does not see pytest's pythonpath, so src goes on PYTHONPATH
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-m", "regrow.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestC8Determinism:
    def test_simulate_train_segment_bit_reproducible(self, tmp_path):
        subset = tmp_path / "scenes"
        small = synth.RoomConfig(extent=(1.6, 1.6, 1.0), spacing=0.05,
                                 n_objects=(2, 4))
        synth.generate_split(small, 3, 0, subset.parent, base_seed=77)
        subset = subset.parent / "train"

        sim_hashes, train_hashes, seg_hashes = [], [], []
        for run_id in ("r1", "r2"):
            d = tmp_path / run_id
            d.mkdir()
            _cli("simulate", "--scenes", str(subset), "--out", str(d / "ds.bin"),
                 "--i", "32", "--j", "32", "--seed", "21")
            sim_hashes.append(_sha(d / "ds.bin"))
            _cli("train", "--dataset", str(d / "ds.bin"), "--out", str(d / "m.ckpt"),
                 "--enc-widths", "16", "16", "16", "16", "32",
                 "--dec-widths", "32", "16", "1", "--epochs", "2",
                 "--batch", "64", "--seed", "3")
            train_hashes.append(_sha(d / "m.ckpt"))
            _cli("segment", "--scenes", str(next(subset.glob("*.txt"))),
                 "--model", str(d / "m.ckpt"), "--out", str(d / "pred"),
                 "--strategy", "greedy", "--seed", "13")
            seg_hashes.append(_sha(next((d / "pred").glob("*.labels"))))

        ok = (sim_hashes[0] == sim_hashes[1] and train_hashes[0] == train_hashes[1]
              and seg_hashes[0] == seg_hashes[1])
        _report("C8 determinism", ok,
                f"(simulate {sim_hashes[0][:12]}, train {train_hashes[0][:12]}, "
                f"segment {seg_hashes[0][:12]} identical across runs)")
