"""Golden SHA-256 digests of simulator, segmentation, baseline and training outputs.

The simulator and segmentation digests were recorded from the implementation
that predates the shared region engine (tracked member bitmask plus cKDTree
radius adjacency), the baseline digests from the per-edge flood fills that
predate the connected-component baselines, and the checkpoint digest from the
training step that kept pre-activations and accumulated gradients into zeroed
arrays; any refactor of simulation, growing, search, the baselines or the
training step must reproduce them byte for byte.
Segmentation uses a deterministic NumPy predictor, so changes to the network's
float arithmetic cannot move the label digests. The checkpoint digest does
depend on it, and on the BLAS kernels: it was recorded with OpenBLAS 0.3.31
(Haswell kernels) in float32, and another BLAS build may round differently.
"""

import hashlib

import numpy as np
import pytest

from regrow import synth
from regrow.baselines import SmoothnessConfig, ThresholdConfig, grow_smoothness, grow_threshold
from regrow.features import build_context
from regrow.grow import GrowConfig, segment_scene
from regrow.network import TrainConfig, train
from regrow.search import SearchConfig
from regrow.simulate import SimConfig, generate_dataset

ROOM = synth.RoomConfig(extent=(1.2, 1.2, 0.8), spacing=0.06, n_objects=(2, 3))

DATASET_SHA256 = "bb81a0f7a0d19c0a6752210b082a1176ec8fc74e7fc1753c710bc5c192d15cdc"
CHECKPOINT_SHA256 = "2d472dc05fe9d422939cd09cf8949d9d0acf42f57461e0d2d35cd7bd10f4f109"
LABELS_SHA256 = {
    "greedy": "78d971328505ce45a1861e09d5699294e8a124eb9764bf44f67164a731ce9ff7",
    "bs-np": "ad3deb565d8ac1fd074a3678effdbfc287a0d70aac8376d4a2d7a68260ed8617",
}

BASELINE_SHA256 = {
    ("threshold", 10): "668efc6fd823ccbe6f877580252f4cb05991c79655db2db565653831e069eba9",
    ("threshold", 1): "e73c6aa3e7921bebd021ea6214d6feba2b00e4054f9996468e517964cc133099",
    ("smoothness", 10): "d221713f6e3bc983d5ccb33b29acaa52cd70043e9cde4d43c033ab7421958b94",
    ("smoothness", 1): "05204dba12aeaf02484064d427da34594206beeaa1fc8724420fc694271c5abb",
}


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def feature_predictor(xi, xn):
    """Admit neighbors whose normal matches the region's median normal and
    expel inliers whose normal strays from it (inputs are median-normalized,
    so the normal columns hold the deviation); curvature sharpens both."""
    dev_in = np.abs(xi[:, 9:12]).sum(axis=1) + 4.0 * np.abs(xi[:, 12])
    dev_nb = np.abs(xn[:, 9:12]).sum(axis=1) + 4.0 * np.abs(xn[:, 12])
    p_remove = np.clip(_sigmoid(12.0 * (dev_in - 0.3)), 1e-6, 1 - 1e-6)
    p_add = np.clip(_sigmoid(12.0 * (0.8 - dev_nb)), 1e-6, 1 - 1e-6)
    return p_remove, p_add


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_dataset(tmp_path):
    cloud = synth.generate_room(ROOM, seed=3)
    path = tmp_path / "golden.bin"
    cfg = SimConfig(i_size=16, j_size=16, alpha_range=(0.2, 0.4), seed=7)
    assert generate_dataset([cloud], cfg, path) > 0
    return path


def test_dataset_bytes_match_golden(tmp_path):
    assert _sha256(_golden_dataset(tmp_path).read_bytes()) == DATASET_SHA256


def test_trained_checkpoint_matches_golden(tmp_path):
    # 183 samples in batches of 20: nine full batches and a short one per epoch
    checkpoint = tmp_path / "golden.ckpt"
    cfg = TrainConfig((8, 8, 8, 16, 32), (16, 8, 1), skip_layer=2, lr=0.003,
                      batch_size=20, epochs=2, seed=0, checkpoint=str(checkpoint))
    train(_golden_dataset(tmp_path), cfg)
    assert _sha256(checkpoint.read_bytes()) == CHECKPOINT_SHA256


@pytest.mark.parametrize("strategy", ["greedy", "bs-np"])
def test_segment_labels_match_golden(strategy):
    ctx = build_context(synth.generate_room(ROOM, seed=4), delta=0.1, knn=8)
    labels, stats = segment_scene(
        ctx, feature_predictor, GrowConfig(i_size=16, j_size=16),
        SearchConfig(strategy, beam_width=2, expansions=2),
        rng=np.random.default_rng(11))
    assert stats["instances"] > 1
    assert _sha256(labels.astype("<i4").tobytes()) == LABELS_SHA256[strategy]


@pytest.mark.parametrize("method,min_segment", sorted(BASELINE_SHA256))
def test_baseline_labels_match_golden(method, min_segment):
    ctx = build_context(synth.generate_room(ROOM, seed=4), delta=0.1, knn=8)
    if method == "threshold":
        labels = grow_threshold(ctx, ThresholdConfig(min_segment=min_segment))
    else:
        labels = grow_smoothness(ctx, SmoothnessConfig(min_segment=min_segment))
    assert _sha256(labels.astype("<i4").tobytes()) == BASELINE_SHA256[method, min_segment]
