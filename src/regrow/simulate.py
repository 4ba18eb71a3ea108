"""Region-growing simulation on labeled scenes to produce training samples.

For every object instance a region is grown from a random seed point. The
intended next region adds every in-radius point of the same instance and
removes wrong-instance members; each of those decisions is independently
flipped with a mistake probability that decays per step, so the network sees
noisy intermediate regions. Targets are always computed against ground truth.

Dataset file layout (little endian):

    magic b"RGDS", uint32 version, uint32 I, uint32 J, uint32 F
    per record: uint32 payload length, then
        inlier features  I*F float32
        neighbor features J*F float32
        remove targets   I uint8
        add targets      J uint8
        meta             3 int32 (scene, instance, step)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .features import (
    FrontierTracker,
    SceneContext,
    build_context,
    normalize_inputs,
    passthrough_positions,
    sample_fixed,
)
from .pointcloud import PointCloud

SIM_STEP_CAP = 500


@dataclass
class NoiseSchedule:
    """Per-step mistake probability: alpha0 decayed linearly, floored at 0."""

    alpha0: float
    decay: float = 0.01

    def alpha(self, step: int) -> float:
        return max(0.0, self.alpha0 - self.decay * step)


@dataclass
class RegionState:
    """Evolving region: the tracked member mask plus step bookkeeping.

    The seed is always a member. Growth functions update the state in place.
    """

    tracker: FrontierTracker
    seed: int
    step: int = 0
    stagnant_steps: int = 0
    loglik: float = 0.0


@dataclass
class TrainingSample:
    inlier_features: np.ndarray    # (I, F) float32, normalized
    neighbor_features: np.ndarray  # (J, F) float32, normalized
    remove_target: np.ndarray      # (I,) uint8
    add_target: np.ndarray         # (J,) uint8
    meta: tuple[int, int, int]     # (scene, instance, step)


@dataclass
class SimConfig:
    i_size: int = 512
    j_size: int = 512
    delta: float = 0.1
    knn: int = 16
    alpha_range: tuple[float, float] = (0.2, 0.4)
    decay: float = 0.01
    augment_copies: int = 1
    feature_columns: tuple[int, ...] | None = None
    normalize: bool = True
    seed: int = 0


def oracle_next_region(ctx: SceneContext, state: RegionState) -> None:
    """Noiseless growth step: absorb in-radius points of the seed's instance."""
    gt = ctx.cloud.gt_instance
    if gt is None:
        raise ValueError("simulation requires ground-truth instance labels")
    frontier = state.tracker.frontier()
    state.tracker.add(frontier[gt[frontier] == gt[state.seed]])
    state.step += 1


def corrupt_region(ctx: SceneContext, state: RegionState, schedule: NoiseSchedule,
                   rng: np.random.Generator) -> None:
    """One noisy growth step with mistake probability alpha(step).

    Correct frontier points are each dropped with probability alpha, wrong
    frontier points each added with probability alpha, and wrong members are
    each removed with probability 1 - alpha (the mistake being to retain them).
    """
    gt = ctx.cloud.gt_instance
    if gt is None:
        raise ValueError("simulation requires ground-truth instance labels")
    inst = int(gt[state.seed])
    alpha = schedule.alpha(state.step)
    frontier = state.tracker.frontier()
    right = gt[frontier] == inst
    correct = frontier[right]
    wrong = frontier[~right]
    members = np.flatnonzero(state.tracker.member)
    wrong_members = members[gt[members] != inst]

    added = correct[rng.random(correct.size) >= alpha]
    added_wrong = wrong[rng.random(wrong.size) < alpha]
    state.tracker.remove(wrong_members[rng.random(wrong_members.size) >= alpha])
    state.tracker.add(np.concatenate([added, added_wrong]))
    state.step += 1


def make_training_sample(ctx: SceneContext, state: RegionState, i_size: int,
                         j_size: int, rng: np.random.Generator,
                         feature_columns=None, normalize: bool = True,
                         meta: tuple[int, int, int] = (0, 0, 0)) -> TrainingSample | None:
    """Fixed-size sample with targets from ground truth, or None when the
    region has no neighbor candidates (skip signal)."""
    gt = ctx.cloud.gt_instance
    if gt is None:
        raise ValueError("training samples require ground-truth instance labels")
    inst = int(gt[state.seed])
    frontier = state.tracker.frontier()
    if frontier.size == 0:
        return None
    inl = sample_fixed(np.flatnonzero(state.tracker.member), i_size, rng)
    nbr = sample_fixed(frontier, j_size, rng)

    cols = tuple(feature_columns) if feature_columns is not None else tuple(range(ctx.features.shape[1]))
    xi = ctx.features[inl][:, cols]
    xn = ctx.features[nbr][:, cols]
    if normalize:
        xi, xn = normalize_inputs(xi, xn, passthrough=passthrough_positions(cols))
    remove = (gt[inl] != inst).astype(np.uint8)
    add = (gt[nbr] == inst).astype(np.uint8)
    return TrainingSample(xi.astype(np.float32), xn.astype(np.float32), remove, add, meta)


def augment_scene(cloud: PointCloud, rng: np.random.Generator) -> PointCloud:
    """Random x/y swap (p = 1/2) then a 0/90/180/270 degree rotation about z.

    Positions are re-anchored so the min corner sits at the origin; colors and
    labels are untouched.
    """
    pos = cloud.positions.copy()
    if rng.random() < 0.5:
        pos = pos[:, [1, 0, 2]]
    quarter_turns = int(rng.integers(0, 4))
    for _ in range(quarter_turns):
        pos = np.column_stack([-pos[:, 1], pos[:, 0], pos[:, 2]])
    pos -= pos.min(axis=0)
    return cloud.with_positions(pos)


def instance_closure(ctx: SceneContext, seed: int) -> np.ndarray:
    """Mask of the seed's instance points reachable from it by in-radius hops."""
    # imported here, as only simulation needs it: at module level it added
    # about 8 MB to the peak RSS of commands that never simulate
    from scipy.sparse.csgraph import breadth_first_order

    gt = ctx.cloud.gt_instance
    inst = np.flatnonzero(gt == gt[seed])
    n = ctx.n_points
    adjacency = csr_matrix((np.ones(len(ctx.adj_indices), dtype=np.int8),
                            ctx.adj_indices, ctx.adj_indptr), shape=(n, n))
    order = breadth_first_order(adjacency[inst][:, inst], np.searchsorted(inst, seed),
                                return_predecessors=False)
    mask = np.zeros(n, dtype=bool)
    mask[inst[order]] = True
    return mask


def simulate_instance(ctx: SceneContext, instance_id: int, cfg: SimConfig,
                      rng: np.random.Generator, scene_key: int = 0):
    """Yield the training samples of one instance's full noisy simulation."""
    gt = ctx.cloud.gt_instance
    inst_points = np.flatnonzero(gt == instance_id)
    seed = int(rng.choice(inst_points))
    alpha0 = float(rng.uniform(*cfg.alpha_range))
    schedule = NoiseSchedule(alpha0, cfg.decay)
    closure = instance_closure(ctx, seed)
    state = RegionState(ctx.new_tracker([seed]), seed)
    while True:
        sample = make_training_sample(
            ctx, state, cfg.i_size, cfg.j_size, rng,
            feature_columns=cfg.feature_columns, normalize=cfg.normalize,
            meta=(scene_key, int(instance_id), state.step))
        if sample is not None:
            yield sample
        if (schedule.alpha(state.step) == 0.0 and np.array_equal(state.tracker.member, closure)) \
                or state.step >= SIM_STEP_CAP:
            return
        corrupt_region(ctx, state, schedule, rng)


def generate_dataset(scenes, cfg: SimConfig, out_path) -> int:
    """Simulate every (scene copy, instance) pair and stream samples to disk.

    `scenes` is a sequence of PointCloud objects or paths. Each simulation
    draws from its own random stream keyed by (seed, scene, copy, instance),
    so output is deterministic and independent of evaluation order.
    Returns the number of samples written.
    """
    from .pointcloud import load_scene

    n_cols = len(cfg.feature_columns) if cfg.feature_columns is not None else 13
    written = 0
    with DatasetWriter(out_path, cfg.i_size, cfg.j_size, n_cols) as writer:
        for scene_id, scene in enumerate(scenes):
            cloud = scene if isinstance(scene, PointCloud) else load_scene(scene)
            for copy in range(cfg.augment_copies):
                aug_rng = np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(scene_id, copy, 0)))
                aug = augment_scene(cloud, aug_rng)
                ctx = build_context(aug, delta=cfg.delta, knn=cfg.knn)
                scene_key = scene_id * cfg.augment_copies + copy
                for inst in np.unique(aug.gt_instance):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(cfg.seed, spawn_key=(scene_id, copy, int(inst))))
                    for sample in simulate_instance(ctx, int(inst), cfg, rng, scene_key):
                        writer.write(sample)
                        written += 1
    return written


DATASET_MAGIC = b"RGDS"
DATASET_VERSION = 1


class DatasetError(ValueError):
    """A dataset file is malformed or inconsistent."""


class DatasetWriter:
    def __init__(self, path, i_size: int, j_size: int, n_features: int):
        self.path = Path(path)
        self.i_size = i_size
        self.j_size = j_size
        self.n_features = n_features
        self._fh = open(self.path, "wb")
        self._fh.write(DATASET_MAGIC)
        self._fh.write(struct.pack("<IIII", DATASET_VERSION, i_size, j_size, n_features))

    def write(self, sample: TrainingSample) -> None:
        xi = np.ascontiguousarray(sample.inlier_features, dtype="<f4")
        xn = np.ascontiguousarray(sample.neighbor_features, dtype="<f4")
        if xi.shape != (self.i_size, self.n_features) or xn.shape != (self.j_size, self.n_features):
            raise DatasetError(
                f"sample shapes {xi.shape}/{xn.shape} do not match header "
                f"({self.i_size}/{self.j_size} x {self.n_features})")
        rm = np.ascontiguousarray(sample.remove_target, dtype=np.uint8)
        ad = np.ascontiguousarray(sample.add_target, dtype=np.uint8)
        meta = np.asarray(sample.meta, dtype="<i4")
        payload = xi.tobytes() + xn.tobytes() + rm.tobytes() + ad.tobytes() + meta.tobytes()
        self._fh.write(struct.pack("<I", len(payload)))
        self._fh.write(payload)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class Dataset:
    inlier_features: np.ndarray    # (S, I, F) float32
    neighbor_features: np.ndarray  # (S, J, F) float32
    remove_target: np.ndarray      # (S, I) uint8
    add_target: np.ndarray         # (S, J) uint8
    meta: np.ndarray               # (S, 3) int32
    i_size: int
    j_size: int
    n_features: int

    def __len__(self) -> int:
        return self.inlier_features.shape[0]


def load_dataset(path) -> Dataset:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != DATASET_MAGIC:
        raise DatasetError(f"{path}: not a training dataset file")
    version, i_size, j_size, n_feat = struct.unpack("<IIII", raw[4:20])
    if version != DATASET_VERSION:
        raise DatasetError(f"{path}: unsupported dataset version {version}")
    record = 4 * (i_size + j_size) * n_feat + i_size + j_size + 12
    xi_list, xn_list, rm_list, ad_list, meta_list = [], [], [], [], []
    off = 20
    while off < len(raw):
        if off + 4 > len(raw):
            raise DatasetError(f"{path}: truncated record header")
        (length,) = struct.unpack_from("<I", raw, off)
        off += 4
        if length != record or off + length > len(raw):
            raise DatasetError(f"{path}: truncated or inconsistent record")
        buf = raw[off:off + length]
        off += length
        p = 0
        xi = np.frombuffer(buf, "<f4", i_size * n_feat, p).reshape(i_size, n_feat)
        p += 4 * i_size * n_feat
        xn = np.frombuffer(buf, "<f4", j_size * n_feat, p).reshape(j_size, n_feat)
        p += 4 * j_size * n_feat
        rm = np.frombuffer(buf, np.uint8, i_size, p)
        p += i_size
        ad = np.frombuffer(buf, np.uint8, j_size, p)
        p += j_size
        meta = np.frombuffer(buf, "<i4", 3, p)
        xi_list.append(xi)
        xn_list.append(xn)
        rm_list.append(rm)
        ad_list.append(ad)
        meta_list.append(meta)
    if not xi_list:
        raise DatasetError(f"{path}: dataset contains no samples")
    return Dataset(
        np.stack(xi_list), np.stack(xn_list), np.stack(rm_list), np.stack(ad_list),
        np.stack(meta_list).astype(np.int32), i_size, j_size, n_feat)
