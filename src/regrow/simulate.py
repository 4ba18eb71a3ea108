"""Region-growing simulation on labeled scenes to produce training samples.

For every object instance a region is grown from a random seed point. The
intended next region adds every in-radius point of the same instance and
removes wrong-instance members; each of those decisions is independently
flipped with a mistake probability that decays per step, so the network sees
noisy intermediate regions. Targets are always computed against ground truth.

A dataset file is the magic b"RGDS", a little-endian uint32 header of
version, I, J and F, then whole records of `record_dtype(I, J, F)`, the one
definition of the record layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .features import (DEFAULT_DELTA, DEFAULT_KNN, N_FEATURES, FrontierTracker, SceneContext,
                       build_context, region_inputs)
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
    delta: float = DEFAULT_DELTA
    knn: int = DEFAULT_KNN
    alpha_range: tuple[float, float] = (0.2, 0.4)
    decay: float = 0.01
    augment_copies: int = 1
    feature_columns: tuple[int, ...] | None = None
    normalize: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("i_size", "j_size", "augment_copies"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.alpha_range[0] > self.alpha_range[1]:
            raise ValueError(f"alpha_range must have min <= max, got {self.alpha_range}")


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
    inl, nbr, xi, xn = region_inputs(ctx, np.flatnonzero(state.tracker.member), frontier,
                                     i_size, j_size, rng, feature_columns, normalize)
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

    n_cols = len(cfg.feature_columns) if cfg.feature_columns is not None else N_FEATURES
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
DATASET_HEADER_BYTES = 20  # magic and four uint32 words


def record_dtype(i_size: int, j_size: int, n_features: int) -> np.dtype:
    """One packed dataset record: `length`, the byte size of the fields after
    it, then the fields of `TrainingSample` and `Dataset`, in their order."""
    return np.dtype([
        ("length", "<u4"),
        ("inlier_features", "<f4", (i_size, n_features)),
        ("neighbor_features", "<f4", (j_size, n_features)),
        ("remove_target", "u1", (i_size,)),
        ("add_target", "u1", (j_size,)),
        ("meta", "<i4", (3,)),  # (scene, instance, step)
    ])


class DatasetError(ValueError):
    """A dataset file is malformed or inconsistent."""


class DatasetWriter:
    def __init__(self, path, i_size: int, j_size: int, n_features: int):
        self._record = np.zeros((), record_dtype(i_size, j_size, n_features))
        self._record["length"] = self._record.itemsize - 4
        self._fh = open(path, "wb")
        self._fh.write(DATASET_MAGIC)
        self._fh.write(np.array([DATASET_VERSION, i_size, j_size, n_features], "<u4").tobytes())

    def write(self, sample: TrainingSample) -> None:
        rec = self._record
        for name in rec.dtype.names[1:]:
            value = getattr(sample, name)
            # field assignment broadcasts, so a wrong shape must be caught here
            if np.shape(value) != rec[name].shape:
                raise DatasetError(f"sample {name} shape {np.shape(value)} does not match "
                                   f"the header's {rec[name].shape}")
            rec[name] = value
        self._fh.write(rec.tobytes())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class Dataset:
    """Fields are views into the records read from the file."""

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
    """Read every record in one call (not memory-mapped: that peaks no lower,
    and a file rewritten while mapped faults on access)."""
    with open(path, "rb") as fh:
        head = fh.read(DATASET_HEADER_BYTES)
        if len(head) < DATASET_HEADER_BYTES or head[:4] != DATASET_MAGIC:
            raise DatasetError(f"{path}: not a training dataset file")
        version, i_size, j_size, n_feat = np.frombuffer(head, "<u4", offset=4).tolist()
        if version != DATASET_VERSION:
            raise DatasetError(f"{path}: unsupported dataset version {version}")
        try:
            rec = record_dtype(i_size, j_size, n_feat)
        except ValueError as exc:
            raise DatasetError(f"{path}: sizes {i_size}/{j_size}/{n_feat} out of range") from exc
        body = os.fstat(fh.fileno()).st_size - DATASET_HEADER_BYTES
        if body == 0:
            raise DatasetError(f"{path}: dataset contains no samples")
        if body % rec.itemsize:
            raise DatasetError(f"{path}: truncated record")
        records = np.fromfile(fh, rec)
    if (records["length"] != rec.itemsize - 4).any():
        raise DatasetError(f"{path}: inconsistent record length")
    return Dataset(*(records[name] for name in rec.names[1:]), i_size, j_size, n_feat)
