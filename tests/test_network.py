import contextlib
import copy
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adam_oracle,
    backward_oracle,
    concat_decoder_oracle,
    forward_oracle,
    param_tensors,
    zeros_like_params,
)
from regrow import network
from regrow.network import (
    AdamState,
    CheckpointError,
    Predictor,
    TrainConfig,
    adam_step,
    backward,
    batch_loss,
    forward_batch,
    init_params,
    load_params,
    save_params,
    train,
)
from regrow.simulate import (DatasetError, DatasetWriter, SimConfig, TrainingSample,
                             generate_dataset)
from regrow.pointcloud import PointCloud

TINY_ENC = (8, 8, 8, 8, 16)
TINY_DEC = (8, 8, 1)


def tiny_params(seed=0, dtype=np.float32, n_features=13):
    return init_params(TINY_ENC, TINY_DEC, skip_layer=2, i_size=8, j_size=8,
                       feature_columns=tuple(range(n_features)), seed=seed, dtype=dtype)


def random_inputs(rng, i=8, j=8, f=13):
    return rng.normal(size=(i, f)), rng.normal(size=(j, f))


def forward(params, inliers, neighbors):
    """One sample through forward_batch: (remove_prob (I,), add_prob (J,))."""
    p_remove, p_add = forward_batch(params, inliers[None], neighbors[None])
    return p_remove[0], p_add[0]


def bce_loss(remove_prob, add_prob, remove_target, add_target):
    """batch_loss of one sample: mean removal BCE plus mean addition BCE."""
    return batch_loss(np.asarray(remove_prob)[None], np.asarray(add_prob)[None],
                      np.asarray(remove_target)[None], np.asarray(add_target)[None])


def numeric_gradient(params, xi, xn, rt, at, tensor, index, h):
    """Central finite difference of the loss wrt one scalar parameter."""
    orig = tensor.flat[index]
    tensor.flat[index] = orig + h
    p_r, p_a = forward_batch(params, xi[None], xn[None])
    up = batch_loss(p_r, p_a, rt[None], at[None])
    tensor.flat[index] = orig - h
    p_r, p_a = forward_batch(params, xi[None], xn[None])
    down = batch_loss(p_r, p_a, rt[None], at[None])
    tensor.flat[index] = orig
    return (up - down) / (2 * h)


class TestForward:
    def test_shapes_and_range(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        xi, xn = random_inputs(rng)
        remove_prob, add_prob = forward(params, xi, xn)
        assert remove_prob.shape == (8,)
        assert add_prob.shape == (8,)
        assert ((remove_prob > 0) & (remove_prob < 1)).all()
        assert ((add_prob > 0) & (add_prob < 1)).all()

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            forward(params, np.zeros((8, 12)), np.zeros((8, 13)))

    def test_inlier_permutation_equivariance(self):
        params = tiny_params(seed=3)
        rng = np.random.default_rng(1)
        xi, xn = random_inputs(rng)
        perm = rng.permutation(8)
        base_remove, base_add = forward(params, xi, xn)
        shuffled_remove, shuffled_add = forward(params, xi[perm], xn)
        np.testing.assert_allclose(shuffled_remove, base_remove[perm], rtol=1e-6)
        np.testing.assert_allclose(shuffled_add, base_add, rtol=1e-6)

    def test_duplicate_points_equal_probs(self):
        params = tiny_params(seed=4)
        rng = np.random.default_rng(2)
        xi, xn = random_inputs(rng)
        xi[3] = xi[0]
        remove_prob, _ = forward(params, xi, xn)
        assert remove_prob[3] == pytest.approx(remove_prob[0], rel=1e-6)


class TestLoss:
    def test_hand_value(self):
        loss = bce_loss(np.array([0.5]), np.array([0.5]), np.array([1]), np.array([0]))
        assert loss == pytest.approx(2 * np.log(2), rel=1e-9)

    def test_perfect_predictions_near_zero(self):
        loss = bce_loss(np.full(4, 1 - 1e-7), np.full(4, 1e-7), np.ones(4), np.zeros(4))
        assert loss < 1e-5

    def test_symmetry_under_flip(self):
        rng = np.random.default_rng(3)
        p_r = rng.uniform(0.1, 0.9, 6)
        p_a = rng.uniform(0.1, 0.9, 6)
        t_r = rng.integers(0, 2, 6)
        t_a = rng.integers(0, 2, 6)
        a = bce_loss(p_r, p_a, t_r, t_a)
        b = bce_loss(1 - p_r, 1 - p_a, 1 - t_r, 1 - t_a)
        assert a == pytest.approx(b, rel=1e-12)

    def test_loss_finite_for_extreme_logits(self):
        params = tiny_params()
        for _, t in param_tensors(params):
            t *= 50.0
        rng = np.random.default_rng(4)
        xi, xn = random_inputs(rng)
        loss = bce_loss(*forward(params, xi, xn), np.ones(8), np.ones(8))
        assert np.isfinite(loss)


class TestBackward:
    def test_zero_weights_finite_gradients(self):
        params = tiny_params()
        for _, t in param_tensors(params):
            t[...] = 0.0
        rng = np.random.default_rng(5)
        xi, xn = random_inputs(rng)
        _, _, cache = forward_batch(params, xi[None], xn[None], want_cache=True)
        grads = backward(params, cache, np.ones((1, 8)), np.zeros((1, 8)))
        for _, g in param_tensors(grads):
            assert np.isfinite(g).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for draw in range(3):
            params = tiny_params(seed=draw, dtype=np.float64)
            xi, xn = random_inputs(rng)
            rt = rng.integers(0, 2, 8).astype(float)
            at = rng.integers(0, 2, 8).astype(float)
            _, _, cache = forward_batch(params, xi[None], xn[None], want_cache=True)
            grads = backward(params, cache, rt[None], at[None])
            fd = []
            an = []
            for (_, tensor), (_, gtensor) in zip(param_tensors(params), param_tensors(grads)):
                for index in range(0, tensor.size, max(1, tensor.size // 4)):
                    fd.append(numeric_gradient(params, xi, xn, rt, at, tensor, index, 1e-5))
                    an.append(gtensor.flat[index])
            fd = np.array(fd)
            an = np.array(an)
            rel = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), np.linalg.norm(an))
            assert rel < 1e-3

    def test_zero_gradient_at_stationary_point(self):
        # constant inputs + final bias at the logit of the target mean makes
        # predictions equal targets exactly, so every gradient vanishes
        params = tiny_params(seed=9, dtype=np.float64)
        for bp in (params.inlier, params.neighbor):
            bp.dec_w[-1][...] = 0.0
            bp.dec_b[-1][...] = 0.0  # logit 0 -> p = 0.5
        xi = np.ones((8, 13))
        xn = np.ones((8, 13))
        rt = np.full(8, 0.5)
        at = np.full(8, 0.5)
        _, _, cache = forward_batch(params, xi[None], xn[None], want_cache=True)
        grads = backward(params, cache, rt[None], at[None])
        for _, g in param_tensors(grads):
            np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = tiny_params(seed=1)
        state = AdamState.init(params, lr=0.01)
        before = [t.copy() for _, t in param_tensors(params)]
        adam_step(state, params, zeros_like_params(params))
        for (_, t), b in zip(param_tensors(params), before):
            np.testing.assert_array_equal(t, b)

    def test_first_step_moves_by_lr(self):
        params = tiny_params(seed=2)
        state = AdamState.init(params, lr=0.01)
        grads = zeros_like_params(params)
        for _, g in param_tensors(grads):
            g[...] = 0.7
        before = [t.copy() for _, t in param_tensors(params)]
        adam_step(state, params, grads)
        for (_, t), b in zip(param_tensors(params), before):
            np.testing.assert_allclose(b - t, 0.01, rtol=1e-4)

    def test_two_steps_decrease_quadratic(self):
        # one-parameter sanity: f(x) = (x - 3)^2 from x = 0
        params = tiny_params(seed=3)
        tensors = [t for _, t in param_tensors(params)]
        x = tensors[0]
        x[...] = 0.0
        state = AdamState.init(params, lr=0.1)
        grads = zeros_like_params(params)
        gt = [t for _, t in param_tensors(grads)]

        def f():
            return float(((x - 3.0) ** 2).sum())

        start = f()
        for _ in range(2):
            gt[0][...] = 2 * (x - 3.0)
            adam_step(state, params, grads)
        assert f() < start


def build_tiny_dataset(tmp_path, n_scenes=1):
    rng = np.random.default_rng(0)
    scenes = []
    for s in range(n_scenes):
        pts = rng.uniform(0, 0.4, (40, 3))
        gt = rng.integers(1, 3, 40).astype(np.int32)
        scenes.append(PointCloud(pts, np.full((40, 3), 128, np.uint8), gt))
    path = tmp_path / "tiny.bin"
    cfg = SimConfig(i_size=8, j_size=8, delta=0.15, knn=4,
                    alpha_range=(0.1, 0.3), seed=0)
    generate_dataset(scenes, cfg, path)
    return path


class TestTrain:
    def test_overfit_one_batch(self, tmp_path):
        path = build_tiny_dataset(tmp_path)
        cfg = TrainConfig(TINY_ENC, TINY_DEC, epochs=200, batch_size=1000,
                          lr=0.003, seed=0)
        _, losses = train(path, cfg)
        assert losses[-1] < 0.5 * losses[0]

    def test_training_deterministic(self, tmp_path):
        path = build_tiny_dataset(tmp_path)
        cfg = TrainConfig(TINY_ENC, TINY_DEC, epochs=3, batch_size=16, seed=5)
        _, a = train(path, cfg)
        _, b = train(path, cfg)
        assert a == b  # bitwise identical loss curve

    def test_loss_nonincreasing_on_fixed_batch(self, tmp_path):
        path = build_tiny_dataset(tmp_path)
        cfg = TrainConfig(TINY_ENC, TINY_DEC, epochs=40, batch_size=1000,
                          lr=0.001, seed=1)
        _, losses = train(path, cfg)
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a * 1.01)
        assert violations <= len(losses) // 10

    @pytest.mark.parametrize("change", ["truncated", "same-size rewrite"])
    def test_dataset_changed_while_training_is_refused(self, tmp_path, change):
        path = build_tiny_dataset(tmp_path)
        raw = path.read_bytes()
        cfg = TrainConfig(TINY_ENC, TINY_DEC, epochs=3, batch_size=16, seed=5)
        reported = []

        def report(epoch, *_):
            reported.append(epoch)
            if change == "truncated":
                path.write_bytes(raw[:-7])
            else:
                stat = os.stat(path)
                path.write_bytes(raw[:20] + bytes(len(raw) - 20))
                # a later mtime, whatever the file system's timestamp granularity
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        with pytest.raises(DatasetError, match=re.escape(str(path))):
            train(path, cfg, report)
        assert reported == [1]


def write_random_dataset(path, count, i_size=64, j_size=64, n_features=13):
    rng = np.random.default_rng(count)
    spec = SimConfig(i_size=i_size, j_size=j_size, feature_columns=tuple(range(n_features)))
    with DatasetWriter(path, spec) as writer:
        for k in range(count):
            writer.write(TrainingSample(
                rng.normal(size=(i_size, n_features)).astype(np.float32),
                rng.normal(size=(j_size, n_features)).astype(np.float32),
                rng.integers(0, 2, i_size).astype(np.uint8),
                rng.integers(0, 2, j_size).astype(np.uint8), (0, 0, k)))


TRAIN_PEAK_RSS = """
import resource, sys
from regrow.network import TrainConfig, train
train(sys.argv[1], TrainConfig((8, 8, 8, 8, 16), (8, 8, 1), epochs=1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestTrainMemory:
    # the large dataset is 36.7 MB larger than the small one; read whole into
    # one array, it raised the child's peak by about 28 MB
    MARGIN_KB = 8 * 1024

    def test_peak_rss_does_not_grow_with_the_dataset(self, tmp_path):
        # the child does not see pytest's pythonpath, so src goes on PYTHONPATH
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "OPENBLAS_NUM_THREADS": "1"}
        peak_kb = {}
        for name, count in (("small", 600), ("large", 6000)):
            path = tmp_path / f"{name}.bin"
            write_random_dataset(path, count)
            proc = subprocess.run([sys.executable, "-c", TRAIN_PEAK_RSS, str(path)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            peak_kb[name] = int(proc.stdout.split()[-1])
            path.unlink()
        assert peak_kb["large"] - peak_kb["small"] < self.MARGIN_KB, peak_kb


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = tiny_params(seed=7)
        rng = np.random.default_rng(8)
        xi, xn = random_inputs(rng)
        before_remove, before_add = forward(params, xi, xn)
        path = tmp_path / "p.ckpt"
        save_params(params, path)
        after_remove, after_add = forward(load_params(path), xi, xn)
        np.testing.assert_array_equal(before_remove, after_remove)
        np.testing.assert_array_equal(before_add, after_add)

    def test_loaded_float32_checkpoint_matches_concat_oracle(self, tmp_path):
        # the checkpoint keeps the (skip + 2G, out) layout of decoder layer 1,
        # so a saved model predicts as the tiled-concat network did
        params = init_params((32, 32, 32, 64, 128), (64, 32, 1), i_size=128, j_size=128,
                             seed=14)
        rng = np.random.default_rng(15)
        for _, t in param_tensors(params):
            t += rng.normal(scale=0.05, size=t.shape).astype(np.float32)
        path = tmp_path / "p.ckpt"
        save_params(params, path)
        xi = rng.normal(size=(3, 128, 13))
        xn = rng.normal(size=(3, 128, 13))
        got = forward_batch(load_params(path), xi, xn)
        expected = concat_decoder_oracle(params, xi.astype(np.float32), xn.astype(np.float32))
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_truncated_rejected(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "p.ckpt"
        save_params(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(CheckpointError):
            load_params(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: raw + b"\x00" * 4, "trailing bytes"),
        (lambda raw: raw[:4] + np.array([2], "<u4").tobytes() + raw[8:], "version 2"),
    ])
    def test_trailing_bytes_or_other_version_rejected(self, tmp_path, edit, message):
        path = tmp_path / "p.ckpt"
        save_params(tiny_params(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            load_params(path)

    @pytest.mark.parametrize("empty", ["enc", "dec", "cols"])
    def test_zero_layer_or_column_count_rejected(self, tmp_path, empty):
        lists = {"enc": list(TINY_ENC), "dec": list(TINY_DEC), "cols": list(range(13))}
        lists[empty] = []
        header = [1, 13, 8, 8, len(lists["enc"]), *lists["enc"],
                  len(lists["dec"]), *lists["dec"], 2, len(lists["cols"]), *lists["cols"], 1]
        path = tmp_path / "p.ckpt"
        path.write_bytes(b"RGNW" + np.array(header, "<u4").tobytes() + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_params(path)

    @pytest.mark.parametrize("word", [2, 3], ids=["i_size", "j_size"])
    def test_set_size_below_one_is_refused(self, tmp_path, word):
        # a hand-edited header whose I or J (uint32 word 2 or 3) is 0
        path = tmp_path / "p.ckpt"
        save_params(tiny_params(), path)
        raw = bytearray(path.read_bytes())
        raw[4 + 4 * word:8 + 4 * word] = bytes(4)
        path.write_bytes(bytes(raw))
        name = ("i_size", "j_size")[word - 2]
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: {name} must be >= 1, got 0$"):
            load_params(path)

    @pytest.mark.parametrize("cols", [(0, 1, 20), (0, 1, 1)], ids=["above-12", "repeated"])
    def test_column_outside_the_features_is_refused(self, tmp_path, cols):
        # a hand-edited header: the last of the 13 column words, then F = 3
        path = tmp_path / "p.ckpt"
        save_params(tiny_params(n_features=3), path)
        words = np.frombuffer(path.read_bytes()[4:], "<u4").copy()
        at = 1 + 4 + len(TINY_ENC) + 1 + len(TINY_DEC) + 1  # the column count
        assert words[at:at + 4].tolist() == [3, 0, 1, 2]
        words[at + 1:at + 4] = cols
        path.write_bytes(b"RGNW" + words.tobytes())
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: feature_columns "
                                                  "must be strictly ascending within 0..12"):
            load_params(path)

    @pytest.mark.parametrize("cols", [(0, 1, 20), (0, 1, 1), (-1, 0, 1)],
                             ids=["above-12", "repeated", "negative"])
    def test_init_params_refuses_a_column_outside_the_features(self, cols):
        with pytest.raises(ValueError, match="must be strictly ascending within 0..12"):
            init_params(TINY_ENC, TINY_DEC, feature_columns=cols)

    def test_oversized_header_is_truncated_not_allocated(self, tmp_path):
        # widths are checked against the file's size before any tensor exists
        header = [1, 13, 8, 8, 5, *[1 << 20] * 5, 3, 8, 8, 1, 2, 13, *range(13), 1]
        path = tmp_path / "p.ckpt"
        path.write_bytes(b"RGNW" + np.array(header, "<u4").tobytes() + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "p.ckpt"
        save_params(tiny_params(seed=1), path)
        before = path.read_bytes()
        body = tiny_params().flat.nbytes
        opened = network.atomic_open

        class HalfBody:
            """Writes the header, then half the parameter vector, then stops."""
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                if len(data) == body:
                    self.fh.write(data[:body // 2])
                    raise KeyboardInterrupt("interrupted in the parameter vector")
                return self.fh.write(data)

        @contextlib.contextmanager
        def interrupted_open(target, mode):
            with opened(target, mode) as fh:
                yield HalfBody(fh)

        monkeypatch.setattr(network, "atomic_open", interrupted_open)
        with pytest.raises(KeyboardInterrupt):
            save_params(tiny_params(seed=2), path)
        assert path.read_bytes() == before
        load_params(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.ckpt"]

    def test_normalize_word_other_than_zero_or_one_is_refused(self, tmp_path):
        path = tmp_path / "p.ckpt"
        params = init_params(TINY_ENC, TINY_DEC, feature_columns=(0, 1, 2), normalize=False)
        save_params(params, path)
        words = np.frombuffer(path.read_bytes()[4:], "<u4").copy()
        at = words.size - params.flat.size - 1  # the last header word: normalize
        assert words[at] == 0
        words[at] = 7
        path.write_bytes(b"RGNW" + words.tobytes())
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: normalize word "
                                                  "must be 0 or 1, got 7$"):
            load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_is_refused(self, tmp_path, value):
        params = tiny_params()
        params.inlier.dec_w[1][3, 2] = value
        path = tmp_path / "p.ckpt"
        save_params(params, path)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: non-finite"):
            load_params(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 50)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_header_self_describes(self, tmp_path):
        params = init_params((4, 4, 4, 4, 8), (4, 4, 1), skip_layer=3,
                             i_size=32, j_size=16, feature_columns=(0, 1, 2, 3, 4, 5),
                             normalize=False, seed=0)
        path = tmp_path / "p.ckpt"
        save_params(params, path)
        back = load_params(path)
        assert back.enc_widths == (4, 4, 4, 4, 8)
        assert back.dec_widths == (4, 4, 1)
        assert back.skip_layer == 3
        assert back.n_features == 6
        assert (back.i_size, back.j_size) == (32, 16)
        assert back.feature_columns == (0, 1, 2, 3, 4, 5)
        assert back.normalize is False


class TestPredictor:
    def test_matches_forward(self):
        params = tiny_params(seed=11)
        rng = np.random.default_rng(12)
        xi, xn = random_inputs(rng)
        remove_prob, add_prob = forward(params, xi, xn)
        p_r, p_a = Predictor(params)(xi, xn)
        np.testing.assert_allclose(p_r, remove_prob, rtol=1e-6)
        np.testing.assert_allclose(p_a, add_prob, rtol=1e-6)


class TestMaxPoolRouting:
    def test_gradient_goes_to_first_index_on_ties(self):
        # two identical points tie in the pool; the first index must receive
        # the whole gradient and the duplicate none
        params = tiny_params(seed=13, dtype=np.float64)
        xi = np.random.default_rng(0).normal(size=(8, 13))
        xi[5] = xi[2]  # duplicate -> pooled features tie between rows 2 and 5
        xn = np.random.default_rng(1).normal(size=(8, 13))
        _, _, cache = forward_batch(params, xi[None], xn[None], want_cache=True)
        pooled = cache["ai"][-1][0]
        winners = cache["argi"][0]
        tie_features = np.flatnonzero(
            np.isclose(pooled[2], pooled[5])
            & (pooled[2] == pooled.max(axis=0)))
        assert tie_features.size > 0
        assert (winners[tie_features] <= 2).all()  # never the later duplicate


def piece_signature(cache):
    """Rectifier signs, pool winners and clamped outputs: the smooth piece of
    the loss an evaluation lands on."""
    sig = [(z > 0).tobytes() for key in ("zi", "zn") for z in cache[key]]
    sig += [(z > 0).tobytes() for key in ("ui", "un") for z in cache[key][:-1]]
    sig += [cache["argi"].tobytes(), cache["argn"].tobytes(),
            (cache["raw_i"] != cache["p_remove"]).tobytes(),
            (cache["raw_n"] != cache["p_add"]).tobytes()]
    return tuple(sig)


@st.composite
def folded_head_cases(draw):
    enc = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    dec = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2))) + (1,)
    skip = draw(st.integers(1, len(enc)))
    n_features = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 4))
    i_size = draw(st.integers(1, 16))
    j_size = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(batch, i_size, n_features))
    xn = rng.normal(size=(batch, j_size, n_features))
    for x in (xi, xn):  # duplicated points make max-pool ties
        n_dup = draw(st.integers(0, x.shape[1] - 1))
        src = rng.integers(0, x.shape[1], n_dup)
        dst = rng.integers(0, x.shape[1], n_dup)
        x[:, dst] = x[:, src]
    params = init_params(enc, dec, skip, i_size, j_size, tuple(range(n_features)), seed=seed,
                         dtype=np.float64)
    for name, tensor in param_tensors(params):
        if name.endswith(".b"):  # init_params zeroes biases; exercise them too
            tensor[...] = rng.normal(scale=0.3, size=tensor.shape)
    rt = rng.integers(0, 2, (batch, i_size)).astype(float)
    at = rng.integers(0, 2, (batch, j_size)).astype(float)
    return params, xi, xn, rt, at


class TestFoldedDecoder:
    """The global vector enters decoder layer 1 as a per-sample bias; it must
    give the tiled-concat network's outputs and exact gradients for B > 1."""

    @settings(max_examples=40, deadline=None)
    @given(folded_head_cases())
    def test_matches_concat_oracle(self, case):
        params, xi, xn, _, _ = case
        p_remove, p_add = forward_batch(params, xi, xn)
        o_remove, o_add = concat_decoder_oracle(params, xi, xn)
        np.testing.assert_allclose(p_remove, o_remove, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_add, o_add, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(folded_head_cases())
    def test_backward_matches_finite_differences(self, case):
        params, xi, xn, rt, at = case
        h = 1e-6
        _, _, cache = forward_batch(params, xi, xn, want_cache=True)
        base = piece_signature(cache)
        grads = backward(params, cache, rt, at)
        fd, an = [], []
        for (_, tensor), (_, g) in zip(param_tensors(params), param_tensors(grads)):
            for index in range(tensor.size):
                orig = tensor.flat[index]
                losses = []
                for value in (orig + h, orig - h):
                    tensor.flat[index] = value
                    p_r, p_a, c = forward_batch(params, xi, xn, want_cache=True)
                    losses.append((batch_loss(p_r, p_a, rt, at), piece_signature(c)))
                tensor.flat[index] = orig
                if losses[0][1] != base or losses[1][1] != base:
                    continue  # the probe crossed a kink: no derivative to compare
                fd.append((losses[0][0] - losses[1][0]) / (2 * h))
                an.append(g.flat[index])
        fd = np.array(fd)
        an = np.array(an)
        scale = max(np.linalg.norm(fd), np.linalg.norm(an), 1e-8)
        assert np.linalg.norm(fd - an) / scale < 1e-5


@st.composite
def training_step_cases(draw):
    """Small widths, every skip layer, B 1-4 and point counts on both sides of
    the 256-point switch in the pool argmax, with duplicated points (pool
    ties), all-negative encoder columns and, rarely, a NaN feature."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    enc = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
    dec = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=2))) + (1,)
    skip = draw(st.integers(1, len(enc)))
    n_features = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 4))
    sizes = st.one_of(st.integers(1, 24), st.integers(240, 300))
    i_size, j_size = draw(sizes), draw(sizes)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(batch, i_size, n_features))
    xn = rng.normal(size=(batch, j_size, n_features))
    for x in (xi, xn):
        n_dup = draw(st.integers(0, x.shape[1] - 1))
        x[:, rng.integers(0, x.shape[1], n_dup)] = x[:, rng.integers(0, x.shape[1], n_dup)]
    if draw(st.integers(0, 9)) == 0:
        xi[rng.integers(batch), rng.integers(i_size), rng.integers(n_features)] = np.nan
    params = init_params(enc, dec, skip, i_size, j_size, tuple(range(n_features)), seed=seed,
                         dtype=dtype)
    for name, tensor in param_tensors(params):
        if name.endswith(".b"):
            tensor[...] = rng.normal(scale=0.3, size=tensor.shape)
    for bp in (params.inlier, params.neighbor):
        for b in bp.enc_b:  # columns rectified to zero at every point
            b[rng.random(b.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -1e3
    rt = rng.integers(0, 2, (batch, i_size)).astype(np.uint8)
    at = rng.integers(0, 2, (batch, j_size)).astype(np.uint8)
    return params, xi, xn, rt, at


def assert_same_bytes(got, expected, what):
    assert got.dtype == expected.dtype and got.shape == expected.shape, what
    assert got.tobytes() == expected.tobytes(), what


class TestTrainingStepOracle:
    """The training step rectifies in place, masks by the outputs' signs,
    writes each gradient as its matmul returns it and runs Adam through two
    scratch arrays; every BLAS call is the oracle's, so probabilities, pool
    winners, gradients and updated parameters must equal the oracle's bytes,
    signed zeros and NaNs included."""

    @settings(max_examples=80, deadline=None)
    @given(training_step_cases())
    def test_forward_and_backward_match_oracle(self, case):
        params, xi, xn, rt, at = case
        p_remove, p_add, cache = forward_batch(params, xi, xn, want_cache=True)
        o_remove, o_add, o_cache = forward_oracle(params, xi, xn)
        assert_same_bytes(p_remove, o_remove, "remove_prob")
        assert_same_bytes(p_add, o_add, "add_prob")
        assert_same_bytes(cache["argi"], o_cache["argi"], "argi")
        assert_same_bytes(cache["argn"], o_cache["argn"], "argn")
        grads = backward(params, cache, rt, at)
        expected = backward_oracle(params, o_cache, rt, at)
        for (name, g), (_, e) in zip(param_tensors(grads), param_tensors(expected)):
            assert_same_bytes(g, e, name)

    @settings(max_examples=30, deadline=None)
    @given(training_step_cases())
    def test_three_adam_steps_match_oracle(self, case):
        params, xi, xn, rt, at = case
        mirror = copy.deepcopy(params)
        state = AdamState.init(params, lr=0.01)
        o_state = AdamState.init(mirror, lr=0.01)
        for _ in range(3):
            _, _, cache = forward_batch(params, xi, xn, want_cache=True)
            adam_step(state, params, backward(params, cache, rt, at))
            _, _, o_cache = forward_oracle(mirror, xi, xn)
            adam_oracle(o_state, mirror, backward_oracle(mirror, o_cache, rt, at))
            for (name, p), (_, o) in zip(param_tensors(params), param_tensors(mirror)):
                assert_same_bytes(p, o, name)
            assert_same_bytes(state.m, o_state.m, "first moments")
            assert_same_bytes(state.v, o_state.v, "second moments")


class TestOneLayout:
    """Every tensor is a view of the one parameter vector, at the running
    offset of checkpoint order; the checkpoint body, the gradients and a deep
    copy follow that vector."""

    @settings(max_examples=40, deadline=None)
    @given(training_step_cases())
    def test_tensors_checkpoint_and_gradients_follow_the_vector(self, case):
        params, xi, xn, rt, at = case
        flat = params.flat
        offset = 0
        for name, tensor in param_tensors(params):
            assert tensor.base is flat and tensor.flags.c_contiguous, name
            assert tensor.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
            offset += tensor.size
        assert offset == flat.size
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.ckpt"
            save_params(params, path)
            raw = path.read_bytes()
            assert raw[len(raw) - 4 * flat.size:] == flat.astype("<f4").tobytes()
            assert_same_bytes(load_params(path).flat, flat.astype(np.float32), "loaded vector")
        _, _, cache = forward_batch(params, xi, xn, want_cache=True)
        _, _, o_cache = forward_oracle(params, xi, xn)
        expected = backward_oracle(params, o_cache, rt, at)
        assert_same_bytes(backward(params, cache, rt, at).flat,
                          np.concatenate([g.ravel() for _, g in param_tensors(expected)]),
                          "gradient vector")

    @settings(max_examples=20, deadline=None)
    @given(training_step_cases())
    def test_deep_copy_follows_its_own_vector(self, case):
        params = case[0]
        before = params.flat.copy()
        mirror = copy.deepcopy(params)
        assert not np.shares_memory(mirror.flat, params.flat)
        mirror.flat[:] = 2.5
        for (name, t), (_, c) in zip(param_tensors(params), param_tensors(mirror)):
            assert (c == 2.5).all() and not np.shares_memory(c, params.flat), name
        assert_same_bytes(params.flat, before, "original vector")


@pytest.fixture(scope="class", params=[0, math.inf], ids=["always-split", "never-split"])
def branch_schedule(request):
    """Every call splits its branches over two threads (0) or none does (inf).
    Class-scoped, restored by hand: Hypothesis tests cannot take monkeypatch."""
    saved = network.SPLIT_MIN_MACS
    network.SPLIT_MIN_MACS = request.param
    yield request.param
    network.SPLIT_MIN_MACS = saved


@pytest.mark.usefixtures("branch_schedule")
class TestTrainingStepOracleBothSchedules(TestTrainingStepOracle):
    """The oracle's bytes whether the branches run on one thread or two."""


def small_batch(batch=2, seed=0):
    params = init_params(TINY_ENC, TINY_DEC, 2, i_size=24, j_size=20, seed=seed)
    rng = np.random.default_rng(seed)
    return (params, rng.normal(size=(batch, 24, 13)), rng.normal(size=(batch, 20, 13)),
            rng.integers(0, 2, (batch, 24)).astype(np.uint8),
            rng.integers(0, 2, (batch, 20)).astype(np.uint8))


def split_step(params, xi, xn, rt, at):
    """Probabilities and gradient bytes of one training step."""
    p_remove, p_add, cache = forward_batch(params, xi, xn, want_cache=True)
    grads = backward(params, cache, rt, at)
    return p_remove.tobytes() + p_add.tobytes() + b"".join(
        g.tobytes() for _, g in param_tensors(grads))


class TestBranchSplit:
    @pytest.mark.parametrize("threshold,on_worker", [(0, True), (math.inf, False)])
    def test_neighbor_half_runs_on_the_branch_thread(self, monkeypatch, threshold, on_worker):
        monkeypatch.setattr(network, "SPLIT_MIN_MACS", threshold)
        seen = {}
        halves = {"_encode": network._encode, "_decode": network._decode,
                  "_decoder_backward": network._decoder_backward,
                  "_encoder_backward": network._encoder_backward}

        def spy(name, fn):
            def half(bp, *args):
                branch = "inlier" if bp is params.inlier else "neighbor"
                seen[name, branch] = threading.current_thread() is threading.main_thread()
                return fn(bp, *args)
            return half

        for name, fn in halves.items():
            monkeypatch.setattr(network, name, spy(name, fn))
        params, xi, xn, rt, at = small_batch()
        split_step(params, xi, xn, rt, at)
        assert seen == {(name, branch): branch == "inlier" or not on_worker
                        for name in halves for branch in ("inlier", "neighbor")}

    def test_worker_error_reaches_the_caller_and_the_next_step_runs(self, monkeypatch):
        monkeypatch.setattr(network, "SPLIT_MIN_MACS", 0)
        params, xi, xn, rt, at = small_batch()
        expected = split_step(params, xi, xn, rt, at)
        decode = network._decode

        def failing_decode(bp, *args):
            if bp is params.neighbor:
                raise FloatingPointError("neighbor half failed")
            return decode(bp, *args)

        monkeypatch.setattr(network, "_decode", failing_decode)
        with pytest.raises(FloatingPointError, match="neighbor half failed"):
            forward_batch(params, xi, xn)
        monkeypatch.setattr(network, "_decode", decode)
        assert split_step(params, xi, xn, rt, at) == expected

    def test_forked_child_takes_a_split_step(self, monkeypatch):
        """A forked child (as under `segment --jobs`) has no branch thread of
        its own; reusing the parent's executor would hang its first split."""
        monkeypatch.setattr(network, "SPLIT_MIN_MACS", 0)
        params, xi, xn, rt, at = small_batch()
        expected = split_step(params, xi, xn, rt, at)  # starts this process's thread
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            send.send_bytes(split_step(params, xi, xn, rt, at))

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        try:
            assert receive.poll(30), "the child's split step did not finish"
            assert receive.recv_bytes() == expected
        finally:
            proc.kill()
            proc.join(10)
        assert not proc.is_alive()
