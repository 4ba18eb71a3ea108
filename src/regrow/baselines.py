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
decided as the scalar test decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import COL_CURVATURE, COL_NORMAL, COL_RGB, SceneContext
from .grow import DEFAULT_MIN_SEGMENT, reassign_small_segments

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


def _edge_rows(ctx: SceneContext) -> np.ndarray:
    """Row (front point) of every directed edge of the radius adjacency."""
    return np.repeat(np.arange(ctx.n_points, dtype=np.int32), np.diff(ctx.adj_indptr))


def _join_mask(ctx: SceneContext, rows: np.ndarray, columns, join) -> np.ndarray:
    """`join(x[q], x[p])` for every directed edge (q, p) of the radius
    adjacency, where x is `columns` of the features; evaluated on 64k-edge
    chunks so no gather spans all edges."""
    x = np.ascontiguousarray(ctx.features[:, list(columns)])
    mask = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _EDGE_CHUNK):
        hi = lo + _EDGE_CHUNK
        mask[lo:hi] = join(np.take(x, rows[lo:hi], axis=0),
                           np.take(x, ctx.adj_indices[lo:hi], axis=0))
    return mask


def _components(ctx: SceneContext, keep: np.ndarray) -> np.ndarray:
    """Connected-component id per point over the adjacency's `keep` edges,
    which must form a symmetric relation."""
    # imported here, as only the baselines need it (see simulate.instance_closure)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = ctx.n_points
    indptr = np.concatenate(([0], np.cumsum(keep)))[ctx.adj_indptr]
    graph = csr_matrix((np.ones(indptr[-1], dtype=np.int8), ctx.adj_indices[keep], indptr),
                       shape=(n, n))
    # on a symmetric graph the strong components are the components, and
    # scipy finds them without building the transpose
    return connected_components(graph, directed=True, connection="strong")[1]


def _seed_rank(components: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per component id, the 1-based rank of its first point in `order`
    (0 for components without a point there)."""
    ids, first = np.unique(components[order], return_index=True)
    rank = np.zeros(components.max() + 1, dtype=np.int32)
    rank[ids[np.argsort(first)]] = np.arange(1, len(ids) + 1, dtype=np.int32)
    return rank


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

    keep = _join_mask(ctx, _edge_rows(ctx), COL_NORMAL + COL_RGB, join)
    components = _components(ctx, keep)
    labels = _seed_rank(components, _seed_order(ctx))[components]
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)


def grow_smoothness(ctx: SceneContext, cfg: SmoothnessConfig | None = None) -> np.ndarray:
    """Smoothness-constrained growing: neighbors join within a normal-angle
    threshold but only low-curvature points extend the growth front."""
    cfg = cfg or SmoothnessConfig()
    low = ctx.features[:, COL_CURVATURE] <= cfg.curvature_th
    cos_th = math.cos(math.radians(cfg.theta_th))
    indptr, indices = ctx.adj_indptr, ctx.adj_indices

    rows = _edge_rows(ctx)
    join = _join_mask(ctx, rows, COL_NORMAL,
                      lambda q, p: np.abs(np.vecdot(q, p)) >= cos_th)
    low_row, low_col = low[rows], low[indices]
    components = _components(ctx, join & low_row & low_col)
    order = _seed_order(ctx)
    labels = np.where(low, _seed_rank(components, order[low[order]])[components], 0)

    # each high point takes the earliest core it shares a join edge with
    edges = np.flatnonzero(join & ~low_row & low_col)
    none = np.iinfo(np.int32).max
    earliest = np.full(ctx.n_points, none, dtype=np.int32)
    np.minimum.at(earliest, rows[edges], labels[indices[edges]])
    labels = np.where(earliest < none, earliest, labels)

    # the rest seed, in order, a region of themselves and their unlabeled
    # join neighbors
    next_id = labels.max() + 1
    for seed in order[labels[order] == 0]:
        if labels[seed]:
            continue
        row = slice(indptr[seed], indptr[seed + 1])
        nbrs = indices[row][join[row]]
        labels[nbrs[labels[nbrs] == 0]] = next_id
        labels[seed] = next_id
        next_id += 1
    return reassign_small_segments(ctx.cloud, labels, cfg.min_segment)
