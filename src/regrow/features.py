"""Per-point features, the cKDTree radius adjacency, the region engine
(`FrontierTracker`), the one record of a growing region (`RegionState`), the
network input spec (`InputSpec`) and network input prep (`region_inputs`).

Each point gets 13 feature columns:

    0..2   local XYZ, translated so the scene min corner is the origin (m)
    3..5   room-normalized XYZ in [0, 1] (local XYZ / scene extent)
    6..8   RGB scaled to [0, 1]
    9..11  unit surface normal from local PCA
    12     curvature lam0 / (lam0 + lam1 + lam2), in [0, 1/3]

One k-d tree per scene serves both the PCA neighborhoods and the radius
adjacency, a CSR pair of int64 row pointers and int32 column ids. The PCA
runs in blocks of `PCA_BLOCK` points: `build_context` builds the adjacency on
the calling thread while the process's worker thread (`worker.worker`) takes
blocks in order, and the calling thread then takes back the blocks not yet
started. Every value is per point, so the bytes do not depend on the split.
"""

from __future__ import annotations

from concurrent.futures import wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from .worker import worker

N_FEATURES = 13
COL_ROOM = (3, 4, 5)
COL_RGB = (6, 7, 8)
COL_NORMAL = (9, 10, 11)
COL_CURVATURE = 12

DEFAULT_DELTA = 0.1   # neighbor radius in meters
DEFAULT_KNN = 16      # PCA neighborhood size
PCA_BLOCK = 4096      # points per block of the PCA normals

# Named feature subsets used by the ablation harness.
FEATURE_SUBSETS = {
    "full": tuple(range(N_FEATURES)),
    "xyz": (0, 1, 2, 3, 4, 5),
    "xyz-rgb": (0, 1, 2, 3, 4, 5, 6, 7, 8),
}


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (k, B) array, added in row order. NumPy's
    `sum(axis=0)` does the same for B > 1, but for B = 1 it sums pairwise and
    rounds differently."""
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def _pca_block(tree, pts, k: int, lo: int, hi: int, evals, evecs) -> None:
    """Eigenvalues (ascending) and eigenvectors of the neighborhood covariances
    of points lo..hi-1, written into rows lo..hi-1 of `evals` and `evecs`. It
    may run on the worker thread, so it calls no public function of regrow."""
    _, idx = tree.query(pts[lo:hi], k=k)
    # (k, B) gathers: each sum adds a point's neighbors in neighbor order
    idx = np.ascontiguousarray(idx.T)
    centered = []
    for c in range(3):
        g = pts[:, c][idx]
        g -= _row_sum(g) / k
        centered.append(g)
    cov = np.empty((hi - lo, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            cov[:, i, j] = cov[:, j, i] = _row_sum(centered[i] * centered[j]) / k
    evals[lo:hi], evecs[lo:hi] = np.linalg.eigh(cov)


def _run_blocks(blocks, meanwhile=None) -> None:
    """Run every block. The worker thread takes them in order while this
    thread runs `meanwhile` and then takes back, from the last, each block the
    worker has not started. Returns once every block has finished; an error
    raised in a block or in `meanwhile` reaches the caller."""
    futures = [worker().submit(block) for block in blocks]
    try:
        if meanwhile is not None:
            meanwhile()
        for block, future in zip(blocks[::-1], futures[::-1]):
            if not future.cancel():
                break  # the worker has started this block, and so every earlier one
            block()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)  # no block outlives the call
    for future in futures:
        if not future.cancelled():
            future.result()


def compute_normals_curvature(cloud, k: int = DEFAULT_KNN, tree: cKDTree | None = None,
                              meanwhile=None):
    """PCA normals and curvature over each point's k-nearest neighborhood.

    The neighborhood of a point includes the point itself. The normal is the
    eigenvector of the smallest covariance eigenvalue, sign-flipped so that
    nz >= 0 (ties: nx >= 0, then ny >= 0). Degenerate neighborhoods (rank < 2)
    fall back to normal (0, 0, 1) with curvature 0. `tree`, a k-d tree over
    the positions, is queried when given. The covariances sum over each
    neighborhood in neighbor order, as `tests/oracles.py::normals_oracle` does.

    The points are split into blocks of `PCA_BLOCK` (see `_run_blocks`):
    `meanwhile`, a callable, runs on the calling thread while the worker
    thread computes blocks. Every value is per point, so the split changes
    no byte of the result.

    Returns:
        (normals (N, 3), curvature (N,)) float64 arrays.
    """
    pts = cloud.positions
    n = pts.shape[0]
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    tree = cKDTree(pts) if tree is None else tree
    evals = np.empty((n, 3))  # ascending eigenvalues
    evecs = np.empty((n, 3, 3))
    _run_blocks([partial(_pca_block, tree, pts, k, lo, min(lo + PCA_BLOCK, n), evals, evecs)
                 for lo in range(0, n, PCA_BLOCK)], meanwhile)
    lam = np.clip(evals, 0.0, None)
    total = lam.sum(axis=1)
    normals = evecs[:, :, 0].copy()
    safe_total = np.where(total > 0, total, 1.0)
    curvature = np.where(total > 0, lam[:, 0] / safe_total, 0.0)

    # rank < 2: second eigenvalue vanishes relative to the largest
    degenerate = (total <= 0) | (lam[:, 1] <= 1e-9 * lam[:, 2])
    normals[degenerate] = (0.0, 0.0, 1.0)
    curvature[degenerate] = 0.0

    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals /= np.where(norms > 0, norms, 1.0)
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    flip = (nz < 0) | ((nz == 0) & (nx < 0)) | ((nz == 0) & (nx == 0) & (ny < 0))
    normals[flip] *= -1.0
    return normals, np.clip(curvature, 0.0, None)


def compute_features(cloud, k: int = DEFAULT_KNN, tree: cKDTree | None = None,
                     meanwhile=None) -> np.ndarray:
    """Full (N, 13) feature matrix for a scene (`tree`, `meanwhile`: see the
    normals; `meanwhile` runs also when the scene is too small for PCA)."""
    lo, hi = cloud.bounds
    local = cloud.positions - lo
    extent = hi - lo
    room = np.where(extent > 0, local / np.where(extent > 0, extent, 1.0), 0.5)
    rgb = cloud.colors.astype(np.float64) / 255.0
    if cloud.n_points < 3:
        # PCA needs at least 3 points; use the degenerate fallback
        normals = np.tile([0.0, 0.0, 1.0], (cloud.n_points, 1))
        curvature = np.zeros(cloud.n_points)
        if meanwhile is not None:
            meanwhile()
    else:
        normals, curvature = compute_normals_curvature(cloud, min(k, cloud.n_points), tree,
                                                       meanwhile)
    feats = np.empty((cloud.n_points, N_FEATURES), dtype=np.float64)
    feats[:, 0:3] = local
    feats[:, 3:6] = room
    feats[:, 6:9] = rgb
    feats[:, 9:12] = normals
    feats[:, 12] = curvature
    return feats


def radius_adjacency(positions: np.ndarray, delta: float = DEFAULT_DELTA,
                     tree: cKDTree | None = None):
    """CSR adjacency (int64 indptr, int32 indices): for every point, the other
    points strictly within `delta`, each row sorted ascending. `tree`, a k-d
    tree over `positions`, proposes the pairs when given.

    The k-d tree proposes pairs with a hair of slack on the radius; the exact
    test is the squared coordinate difference summed in x, y, z order against
    delta**2, so the relation is symmetric and independent of the tree. The
    test gathers from three contiguous coordinate columns, with the rounding
    of `((p - q) ** 2).sum(axis=1)`. To bound memory, pairs are filtered in
    chunks straight into one int64 key per directed edge (row * n + col), and
    sorting the keys yields the CSR.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pts = np.asarray(positions, dtype=np.float64)
    n = pts.shape[0]
    x, y, z = (np.ascontiguousarray(pts[:, c]) for c in range(3))
    tree = cKDTree(pts) if tree is None else tree
    pairs = tree.query_pairs(delta * (1 + 1e-9), output_type="ndarray")
    m = len(pairs)
    keys = np.empty(2 * m, dtype=np.int64)  # forward keys first, reversed from m on
    kept = 0
    for lo in range(0, m, 1 << 16):
        p = pairs[lo:lo + (1 << 16)].astype(np.int64, copy=False)
        a, b = p[:, 0], p[:, 1]
        d = x[a] - x[b]
        d2 = d * d
        d = y[a] - y[b]
        d2 += d * d
        d = z[a] - z[b]
        d2 += d * d
        p = p[d2 < delta * delta]
        keys[kept:kept + len(p)] = p[:, 0] * n + p[:, 1]
        keys[m + kept:m + kept + len(p)] = p[:, 1] * n + p[:, 0]
        kept += len(p)
    del pairs
    if kept < m:
        keys[kept:2 * kept] = keys[m:m + kept]
        keys = keys[:2 * kept]
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= n
    return indptr, keys.astype(np.int32)


class FrontierTracker:
    """A region as a member bitmask over the scene's points.

    Every point also keeps `support`, the count of members adjacent to it in
    the radius adjacency, so the frontier (non-members with positive support)
    is one vectorized test and membership changes cost O(degree). `size` is
    the member count. `add` takes distinct non-members, `remove` members.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int):
        self._indptr = indptr
        self._indices = indices
        self._n = n
        self.support = np.zeros(n, dtype=np.int32)
        self.member = np.zeros(n, dtype=bool)
        self.size = 0

    def _update(self, ids, sign: int) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        self.member[ids] = sign > 0
        self.size += sign * ids.size
        starts = self._indptr[ids]
        lengths = self._indptr[ids + 1] - starts
        ends = np.cumsum(lengths)
        touched = self._indices[np.repeat(starts - ends + lengths, lengths)
                                + np.arange(ends[-1])]
        if touched.size:
            counts = np.bincount(touched, minlength=self._n).astype(np.int32)
            self.support += counts if sign > 0 else -counts

    def add(self, ids) -> None:
        self._update(ids, 1)

    def remove(self, ids) -> None:
        self._update(ids, -1)

    def frontier(self, eligible: np.ndarray | None = None) -> np.ndarray:
        """Sorted non-members adjacent to the region, optionally restricted."""
        mask = (self.support > 0) & ~self.member
        if eligible is not None:
            mask &= eligible
        return np.flatnonzero(mask)

    def copy(self) -> "FrontierTracker":
        dup = FrontierTracker.__new__(FrontierTracker)
        dup._indptr = self._indptr
        dup._indices = self._indices
        dup._n = self._n
        dup.support = self.support.copy()
        dup.member = self.member.copy()
        dup.size = self.size
        return dup


@dataclass
class RegionState:
    """The one record of a region grown from a seed, used by simulation,
    growth and search: the tracked members, the bookkeeping of its steps and
    the statistics of its predicted steps.

    The seed is always a member. Growth functions update the state in place.
    """

    tracker: FrontierTracker
    seed: int
    step: int = 0
    stagnant_steps: int = 0
    loglik: float = 0.0
    inferences: int = 0
    capped: bool = False
    add_fractions: list[float] = field(default_factory=list)
    remove_fractions: list[float] = field(default_factory=list)

    @property
    def members(self) -> np.ndarray:
        """Bool mask over the scene's points."""
        return self.tracker.member

    def copy(self) -> "RegionState":
        return replace(self, tracker=self.tracker.copy(), add_fractions=list(self.add_fractions),
                       remove_fractions=list(self.remove_fractions))


def sample_fixed(indices, count: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly `count` indices drawn from a nonempty sorted array of distinct
    indices.

    When the set is large enough this is a uniform sample without replacement;
    otherwise every member appears once and the rest are resampled uniformly
    with replacement.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot sample from an empty index set")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if idx.size >= count:
        return rng.choice(idx, size=count, replace=False)
    extra = rng.choice(idx, size=count - idx.size, replace=True)
    return np.concatenate([idx, extra])


def normalize_inputs(inliers: np.ndarray, neighbors: np.ndarray, passthrough=COL_ROOM):
    """Subtract the inlier per-column median from both sets.

    The median is the lower median (deterministic for even counts) and the
    passthrough columns (room-normalized XYZ by default) are left unchanged.
    """
    inliers = np.asarray(inliers, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.float64)
    n = inliers.shape[0]
    med = np.sort(inliers, axis=0)[(n - 1) // 2].copy()
    if passthrough:
        med[list(passthrough)] = 0.0
    return inliers - med, neighbors - med


def passthrough_positions(columns) -> tuple[int, ...]:
    """Positions of the room-normalized columns within a feature subset."""
    return tuple(i for i, c in enumerate(columns) if c in COL_ROOM)


@dataclass
class InputSpec:
    """The network's input: `i_size` region and `j_size` frontier points, each
    as `feature_columns` (strictly ascending within 0..12), median-normalized
    when `normalize`. The one place that checks a spec."""

    i_size: int = 512
    j_size: int = 512
    feature_columns: tuple[int, ...] = tuple(range(N_FEATURES))
    normalize: bool = True

    def __post_init__(self):
        for name in ("i_size", "j_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        cols = self.feature_columns
        if not cols or list(cols) != sorted({*cols} & {*range(N_FEATURES)}):
            raise ValueError("feature_columns must be strictly ascending within "
                             f"0..{N_FEATURES - 1}, got {cols}")

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)


def region_inputs(ctx: SceneContext, members, frontier, spec: InputSpec, rng: np.random.Generator):
    """Sampled member and frontier indices (members drawn first) and their
    feature columns, median-normalized when `spec` asks: (inl, nbr, xi, xn)."""
    inl = sample_fixed(members, spec.i_size, rng)
    nbr = sample_fixed(frontier, spec.j_size, rng)
    cols = spec.feature_columns
    xi = ctx.features[inl][:, cols]
    xn = ctx.features[nbr][:, cols]
    if spec.normalize:
        xi, xn = normalize_inputs(xi, xn, passthrough=passthrough_positions(cols))
    return inl, nbr, xi, xn


@dataclass
class SceneContext:
    """A scene bundled with everything region growing needs repeatedly."""

    cloud: "PointCloud"  # noqa: F821
    features: np.ndarray
    adj_indptr: np.ndarray
    adj_indices: np.ndarray

    @property
    def n_points(self) -> int:
        return self.cloud.n_points

    def new_tracker(self, members=()) -> FrontierTracker:
        """A region over this scene's adjacency holding `members`."""
        tracker = FrontierTracker(self.adj_indptr, self.adj_indices, self.n_points)
        tracker.add(members)
        return tracker


def build_context(cloud, delta: float = DEFAULT_DELTA, knn: int = DEFAULT_KNN,
                  features: np.ndarray | None = None,
                  adjacency: tuple[np.ndarray, np.ndarray] | None = None) -> SceneContext:
    """A scene's context; the features and the CSR radius adjacency
    (indptr, indices) are computed unless given, from one shared k-d tree.
    When both are computed, this thread builds the adjacency while the worker
    thread computes the PCA blocks."""
    tree = None if features is not None and adjacency is not None else cKDTree(cloud.positions)

    def build_adjacency():
        nonlocal adjacency
        adjacency = radius_adjacency(cloud.positions, delta, tree=tree)

    if features is None:
        features = compute_features(cloud, k=min(knn, cloud.n_points), tree=tree,
                                    meanwhile=build_adjacency if adjacency is None else None)
    if adjacency is None:
        build_adjacency()
    indptr, indices = adjacency
    return SceneContext(cloud, features, indptr, indices)
