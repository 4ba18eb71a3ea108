"""Region-growing simulation on labeled scenes to produce training samples.

For every object instance a region (a `features.RegionState`, the record
that inference-time growth and search also use) is grown from a random seed
point. The intended next region adds every in-radius point of the same
instance and removes wrong-instance members; each of those decisions is
independently flipped with a mistake probability that decays per step, so the
network sees noisy intermediate regions. Targets are always computed against
ground truth. `SimConfig` is the `features.InputSpec` its samples follow.

A dataset file is the magic b"RGDS", a little-endian uint32 header of
version 2, I, J and the spec word (bit c set for each feature column c,
bit 31 for median-normalized inputs), then whole records of
`record_dtype(I, J, F)` for F columns. `DatasetWriter` streams samples into
it and `DatasetReader` reads them back a batch at a time, so neither holds
the whole file in memory; the reader checks the header as an `InputSpec`.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .features import (DEFAULT_DELTA, DEFAULT_KNN, N_FEATURES, InputSpec, RegionState,
                       SceneContext, build_context, region_inputs)
from .pointcloud import PointCloud, atomic_open

SIM_STEP_CAP = 500


@dataclass
class NoiseSchedule:
    """Per-step mistake probability: alpha0 decayed linearly, floored at 0."""

    alpha0: float
    decay: float = 0.01

    def alpha(self, step: int) -> float:
        return max(0.0, self.alpha0 - self.decay * step)


@dataclass
class TrainingSample:
    inlier_features: np.ndarray    # (I, F) float32, normalized
    neighbor_features: np.ndarray  # (J, F) float32, normalized
    remove_target: np.ndarray      # (I,) uint8
    add_target: np.ndarray         # (J,) uint8
    meta: tuple[int, int, int]     # (scene, instance, step)


@dataclass
class SimConfig(InputSpec):
    delta: float = DEFAULT_DELTA
    knn: int = DEFAULT_KNN
    alpha_range: tuple[float, float] = (0.2, 0.4)
    decay: float = 0.01
    augment_copies: int = 1
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.augment_copies < 1:
            raise ValueError(f"augment_copies must be >= 1, got {self.augment_copies}")
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
    members = np.flatnonzero(state.members)
    wrong_members = members[gt[members] != inst]

    added = correct[rng.random(correct.size) >= alpha]
    added_wrong = wrong[rng.random(wrong.size) < alpha]
    state.tracker.remove(wrong_members[rng.random(wrong_members.size) >= alpha])
    state.tracker.add(np.concatenate([added, added_wrong]))
    state.step += 1


def make_training_sample(ctx: SceneContext, state: RegionState, cfg: SimConfig,
                         rng: np.random.Generator,
                         meta: tuple[int, int, int] = (0, 0, 0)) -> TrainingSample | None:
    """Fixed-size sample with targets from ground truth, or None when the
    region has no neighbor candidates (skip signal). `cfg` gives the network
    input spec (`features.region_inputs`)."""
    gt = ctx.cloud.gt_instance
    if gt is None:
        raise ValueError("training samples require ground-truth instance labels")
    inst = int(gt[state.seed])
    frontier = state.tracker.frontier()
    if frontier.size == 0:
        return None
    inl, nbr, xi, xn = region_inputs(ctx, np.flatnonzero(state.members), frontier, cfg, rng)
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
        sample = make_training_sample(ctx, state, cfg, rng,
                                      meta=(scene_key, int(instance_id), state.step))
        if sample is not None:
            yield sample
        if (schedule.alpha(state.step) == 0.0 and np.array_equal(state.members, closure)) \
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

    written = 0
    with DatasetWriter(out_path, cfg) as writer:
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
DATASET_VERSION = 2
DATASET_HEADER_BYTES = 20  # magic and four uint32 words
DATASET_NORMALIZED = 1 << 31  # the spec word's bit for median-normalized inputs
DATASET_CHECK_BYTES = 4 << 20  # read at a time by the open-time record check


def record_dtype(i_size: int, j_size: int, n_features: int) -> np.dtype:
    """One packed dataset record: `length`, the byte size of the fields after
    it, then the fields of `TrainingSample`, in their order."""
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
    """Streams records into a temporary file that replaces `path` on a clean
    close and is removed on an exception (`pointcloud.atomic_open`)."""

    def __init__(self, path, spec: InputSpec):
        word = sum(1 << c for c in spec.feature_columns) | (DATASET_NORMALIZED * spec.normalize)
        self._record = np.zeros((), record_dtype(spec.i_size, spec.j_size, spec.n_features))
        self._record["length"] = self._record.itemsize - 4
        with ExitStack() as stack:
            self._fh = stack.enter_context(atomic_open(path, "wb"))
            header = np.array([DATASET_VERSION, spec.i_size, spec.j_size, word], "<u4")
            self._fh.write(DATASET_MAGIC + header.tobytes())
            self._file = stack.pop_all()

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
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._file.__exit__(*exc)


class DatasetReader:
    """An open dataset file whose records are read one batch at a time, so
    the memory it holds does not grow with the file.

    Opening checks the header, the size and every record's `length`, reading
    the records a chunk at a time. `read` makes one positioned read per run
    of adjacent records into one reusable buffer. The file is not
    memory-mapped, as a file rewritten while mapped faults on access; instead
    each read refuses a file whose size or mtime changed since it was opened,
    or that comes back short, so that no batch mixes two files.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        try:
            self._check()
        except BaseException:
            self._fh.close()
            raise

    def _check(self) -> None:
        path = self.path
        head = self._fh.read(DATASET_HEADER_BYTES)
        if len(head) < DATASET_HEADER_BYTES or head[:4] != DATASET_MAGIC:
            raise DatasetError(f"{path}: not a training dataset file")
        version, i_size, j_size, word = np.frombuffer(head, "<u4", offset=4).tolist()
        if version != DATASET_VERSION:  # version 1 did not record the input spec
            raise DatasetError(f"{path}: unsupported dataset version {version} (this program "
                               f"reads {DATASET_VERSION}); re-run `regrow simulate`")
        if not 0 < word & ~DATASET_NORMALIZED < 1 << N_FEATURES:
            raise DatasetError(f"{path}: spec word {word:#010x} names no feature column or "
                               f"a bit outside 0..{N_FEATURES - 1} and 31")
        cols = tuple(c for c in range(N_FEATURES) if word >> c & 1)
        try:
            self.spec = InputSpec(i_size, j_size, cols, bool(word & DATASET_NORMALIZED))
            self._rec = record_dtype(i_size, j_size, len(cols))
        except ValueError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        stat = os.fstat(self._fh.fileno())
        self._stamp = (stat.st_size, stat.st_mtime_ns)
        body = stat.st_size - DATASET_HEADER_BYTES
        if body == 0:
            raise DatasetError(f"{path}: dataset contains no samples")
        if body % self._rec.itemsize:
            raise DatasetError(f"{path}: truncated record")
        self._len = body // self._rec.itemsize
        self._buf = np.empty(0, np.uint8)
        chunk = max(1, DATASET_CHECK_BYTES // self._rec.itemsize)
        for first in range(0, self._len, chunk):
            records = self._read_runs([first], [min(chunk, self._len - first)])
            if (records["length"] != self._rec.itemsize - 4).any():
                raise DatasetError(f"{path}: inconsistent record length")
        self._buf = np.empty(0, np.uint8)  # let the chunk go; reads size their own

    def __len__(self) -> int:
        return self._len

    def read(self, sel) -> tuple[np.ndarray, ...]:
        """The records at indices `sel`, in `sel` order, as one contiguous
        array per field after `length`: inlier_features (B, I, F),
        neighbor_features (B, J, F), remove_target (B, I), add_target (B, J)
        and meta (B, 3)."""
        uniq, where = np.unique(sel, return_inverse=True)
        if uniq.size and (uniq[0] < 0 or uniq[-1] >= self._len):
            raise IndexError(f"record index out of range for {self._len} records")
        starts = np.flatnonzero(np.diff(uniq, prepend=-2) != 1)
        records = self._read_runs(uniq[starts].tolist(),
                                  np.diff(np.append(starts, uniq.size)).tolist())
        return tuple(records[name][where] for name in self._rec.names[1:])

    def _read_runs(self, firsts, counts) -> np.ndarray:
        """Records `first .. first + count - 1` of each run, back to back, from
        the file as it was opened."""
        size = self._rec.itemsize
        total = sum(counts) * size
        if self._buf.size < total:
            self._buf = np.empty(total, np.uint8)
        at = 0
        for first, count in zip(firsts, counts):
            want = count * size
            got = os.preadv(self._fh.fileno(), [self._buf[at:at + want]],
                            DATASET_HEADER_BYTES + first * size)
            if got != want:
                raise DatasetError(f"{self.path}: short read; the file changed since it "
                                   "was opened")
            at += want
        stat = os.fstat(self._fh.fileno())
        if (stat.st_size, stat.st_mtime_ns) != self._stamp:
            raise DatasetError(f"{self.path}: the file changed since it was opened")
        return self._buf[:total].view(self._rec)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
