"""Classical threshold-driven region growing baselines.

Both baselines are the seeded flood fill of classical region growing: seeds
are taken in (curvature, index) order among unlabeled points, and a front
point admits every unlabeled radius neighbor that passes the join test. They
are computed here as array programs over the join-filtered radius adjacency,
which give the flood fill's labels exactly:

- Threshold: every admitted point extends the front and the join test is
  symmetric, so the regions are the connected components of the join graph,
  numbered in the order of their first point in seed order.
- Smoothness: only low-curvature points extend the front, and they are all
  seeded before any high-curvature point. The regions are the components of
  the join graph between low points (cores); each high point joins the
  earliest core it shares a join edge with; a high point left over seeds a
  region of itself and its unlabeled join neighbors.

The join tests take their dot products with `np.vecdot`, whose inner loop is
the one `a @ b` uses for two vectors, so a join exactly at a threshold is
decided as the scalar test decides it. Both tests are symmetric bit for bit
(`q . p == p . q` and `(q - p) . (q - p) == (p - q) . (p - q)`), so each
undirected pair of the radius adjacency is tested once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import COL_CURVATURE, COL_NORMAL, COL_RGB, SceneContext
from .grow import DEFAULT_MIN_SEGMENT, first_rank, reassign_small_segments

_EDGE_CHUNK = 1 << 16


@dataclass
class ThresholdConfig:
    normal_angle_max: float = 30.0   # degrees
    color_dist_max: float = 0.25     # unit-scaled RGB distance
    min_segment: int = DEFAULT_MIN_SEGMENT


@dataclass
class SmoothnessConfig:
    theta_th: float = 10.0           # degrees
    curvature_th: float = 0.05
    min_segment: int = DEFAULT_MIN_SEGMENT


def _joined_edges(ctx: SceneContext, columns, join):
    """(rows, cols, mask): each undirected edge of the radius adjacency once,
    as its CSR entry with col > row, in CSR order, and `join(x[row], x[col])`
    for it, where x is `columns` of the features; evaluated on 64k-edge
    chunks so no gather spans all edges."""
    indices = ctx.adj_indices
    rows = np.repeat(np.arange(ctx.n_points, dtype=np.int32), np.diff(ctx.adj_indptr))
    upper = indices > rows
    rows, cols = rows[upper], indices[upper]
    x = np.ascontiguousarray(ctx.features[:, list(columns)])
    mask = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _EDGE_CHUNK):
        hi = lo + _EDGE_CHUNK
        mask[lo:hi] = join(np.take(x, rows[lo:hi], axis=0), np.take(x, cols[lo:hi], axis=0))
    return rows, cols, mask


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component id per point of the undirected graph on n points
    whose edges (rows, cols) come in CSR order, as `_joined_edges` gives them."""
    # imported here, as only the baselines need it (see simulate.instance_closure)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), cols, indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _seed_order(ctx: SceneContext) -> np.ndarray:
    """Points in seed order: ascending curvature, ties by index."""
    return np.argsort(ctx.features[:, COL_CURVATURE], kind="stable")


def grow_threshold(ctx: SceneContext, cfg: ThresholdConfig | None = None) -> np.ndarray:
    """Region growing on raw features: a neighbor joins when its normal is
    within an angle threshold of the front point's and their colors are close."""
    cfg = cfg or ThresholdConfig()
    cos_th = math.cos(math.radians(cfg.normal_angle_max))
    max_col2 = cfg.color_dist_max ** 2

    def join(q, p):
        # not `>= cos_th`: a NaN dot product passes, as in the flood fill
        d = q[:, 3:] - p[:, 3:]
        return ~(np.abs(np.vecdot(q[:, :3], p[:, :3])) < cos_th) \
            & (np.vecdot(d, d) <= max_col2)

    rows, cols, keep = _joined_edges(ctx, COL_NORMAL + COL_RGB, join)
    components = _components(ctx.n_points, rows[keep], cols[keep])
    labels = first_rank(components, _seed_order(ctx))[components]
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)


def grow_smoothness(ctx: SceneContext, cfg: SmoothnessConfig | None = None) -> np.ndarray:
    """Smoothness-constrained growing: neighbors join within a normal-angle
    threshold but only low-curvature points extend the growth front."""
    cfg = cfg or SmoothnessConfig()
    low = ctx.features[:, COL_CURVATURE] <= cfg.curvature_th
    cos_th = math.cos(math.radians(cfg.theta_th))
    n = ctx.n_points

    def join(q, p):
        return np.abs(np.vecdot(q, p)) >= cos_th

    rows, cols, joined = _joined_edges(ctx, COL_NORMAL, join)
    rows, cols = rows[joined], cols[joined]
    low_row, low_col = low[rows], low[cols]
    core = low_row & low_col
    components = _components(n, rows[core], cols[core])
    order = _seed_order(ctx)
    labels = np.where(low, first_rank(components, order[low[order]])[components], 0)

    # each high point takes the earliest core it shares a join edge with, the
    # edge read in whichever orientation puts the high point first
    mixed = low_row != low_col
    high_end = np.where(low_row, cols, rows)[mixed]
    core_end = np.where(low_row, rows, cols)[mixed]
    none = np.iinfo(np.int32).max
    earliest = np.full(n, none, dtype=np.int32)
    np.minimum.at(earliest, high_end, labels[core_end])
    labels = np.where(earliest < none, earliest, labels)

    # the rest seed, in order, a region of themselves and their unlabeled
    # join neighbors, their rows' joins tested here
    normals = ctx.features[:, COL_NORMAL]
    indptr, indices = ctx.adj_indptr, ctx.adj_indices
    next_id = labels.max() + 1
    for seed in order[labels[order] == 0]:
        if labels[seed]:
            continue
        nbrs = indices[indptr[seed]:indptr[seed + 1]]
        nbrs = nbrs[labels[nbrs] == 0]
        labels[nbrs[join(normals[seed], normals[nbrs])]] = next_id
        labels[seed] = next_id
        next_id += 1
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)
