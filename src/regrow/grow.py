"""Inference-time segmentation by repeated learned region growing.

A region, one `features.RegionState`, starts at the unlabeled point of minimum
curvature and is grown by alternating removal of predicted outliers and
admission of predicted neighbor points until no candidates remain, no
additions are predicted, or the region stops expanding for two consecutive
steps. Grown regions claim fresh instance ids; undersized ones are merged
into their nearest surviving instance.

The predictor is a callable whose `params` are the network's input spec, a
`features.InputSpec`, as the `NetworkParams` of `network.Predictor` are; the
search strategy decides whether steps are greedy or sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .features import COL_CURVATURE, RegionState, SceneContext, region_inputs

MASK_THRESHOLD = 0.5
DEFAULT_STEP_CAP = 500
DEFAULT_MIN_SEGMENT = 10


@dataclass
class GrowConfig:
    max_steps: int = DEFAULT_STEP_CAP
    min_segment: int = DEFAULT_MIN_SEGMENT
    use_remove_mask: bool = True
    seed_selection: str = "curvature"  # curvature | random

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.seed_selection not in ("curvature", "random"):
            raise ValueError("seed_selection must be 'curvature' or 'random', "
                             f"got {self.seed_selection!r}")


def select_seed(curvature: np.ndarray, labels: np.ndarray) -> int:
    """Unlabeled point with minimum curvature; ties go to the lowest index."""
    unlabeled = np.flatnonzero(np.asarray(labels) == 0)
    if unlabeled.size == 0:
        raise ValueError("no unlabeled points left to seed from")
    return int(unlabeled[np.argmin(np.asarray(curvature)[unlabeled])])


def _vote(ids: np.ndarray, bits: np.ndarray, majority: bool) -> np.ndarray:
    """Reduce per-slot decisions to per-point decisions.

    Resampled points may occupy several slots: removal needs at least half of
    a point's slots voting yes, addition needs a single yes vote.
    """
    uniq, inverse = np.unique(ids, return_inverse=True)
    yes = np.bincount(inverse, weights=bits.astype(np.float64))
    if majority:
        total = np.bincount(inverse)
        return uniq[2 * yes >= total]
    return uniq[yes >= 1]


def grow_step(ctx: SceneContext, predictor, state: RegionState, frontier: np.ndarray,
              cfg: GrowConfig, rng: np.random.Generator,
              sampled: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """One prediction-driven update of the region from its nonempty frontier;
    returns (added, removed, loglik) of the step. A greedy step takes the
    decisions more likely than `MASK_THRESHOLD`, a `sampled` one draws them.

    The state is updated in place. An empty predicted add set leaves it
    untouched (the caller treats that as a termination signal).
    """
    tracker = state.tracker
    inl, nbr, xi, xn = region_inputs(ctx, np.flatnonzero(tracker.member), frontier,
                                     predictor.params, rng)
    p_remove, p_add = predictor(xi, xn)

    if sampled:
        remove_bits = rng.random(p_remove.size) < p_remove
        add_bits = rng.random(p_add.size) < p_add
        chosen = np.concatenate([
            np.where(remove_bits, p_remove, 1.0 - p_remove),
            np.where(add_bits, p_add, 1.0 - p_add),
        ])
        loglik = float(np.log(chosen).sum())
    else:
        remove_bits = p_remove > MASK_THRESHOLD
        add_bits = p_add > MASK_THRESHOLD
        loglik = 0.0

    if not cfg.use_remove_mask:
        remove_bits = np.zeros_like(remove_bits)

    added = _vote(nbr, add_bits, majority=False)
    if added.size == 0:
        return added, np.empty(0, dtype=np.int64), loglik
    removed = _vote(inl, remove_bits, majority=True)
    removed = removed[removed != state.seed]  # the seed is never removed

    size = tracker.size
    tracker.remove(removed)
    tracker.add(added)
    state.step += 1
    state.stagnant_steps = 0 if tracker.size > size else min(state.stagnant_steps + 1, 2)
    state.loglik += loglik
    return added, removed, loglik


def advance(ctx: SceneContext, predictor, state: RegionState, eligible: np.ndarray,
            cfg: GrowConfig, rng: np.random.Generator, sampled: bool = False) -> bool:
    """One growth step of the region and its step statistics; False once a
    termination condition has fired."""
    if state.step >= cfg.max_steps:
        state.capped = True
        return False
    frontier = state.tracker.frontier(eligible)
    if frontier.size == 0:
        return False
    size = state.tracker.size
    added, removed, _ = grow_step(ctx, predictor, state, frontier, cfg, rng, sampled)
    state.inferences += 1
    if added.size == 0:
        return False  # predicted add set is empty
    state.add_fractions.append(added.size / min(predictor.params.j_size, frontier.size))
    state.remove_fractions.append(removed.size / min(predictor.params.i_size, size))
    return state.stagnant_steps < 2  # no expansion for two consecutive steps


def grow_region(ctx: SceneContext, predictor, seed: int, labels, cfg: GrowConfig,
                rng: np.random.Generator, sampled: bool = False) -> RegionState:
    """Grow from one seed until a termination condition fires."""
    eligible = np.asarray(labels) == 0
    state = RegionState(ctx.new_tracker([seed]), seed)
    while advance(ctx, predictor, state, eligible, cfg, rng, sampled):
        pass
    return state


def reassign_small_segments(cloud, labels: np.ndarray,
                            min_segment: int = DEFAULT_MIN_SEGMENT) -> np.ndarray:
    """Merge undersized segments into surviving ones by nearest neighbor.

    Every point of a segment smaller than `min_segment` takes the label of its
    Euclidean nearest neighbor among points of surviving (large enough)
    segments. If nothing survives, the largest fragment is promoted instead.
    Output ids are relabeled to a contiguous 1..M by order of first occurrence.
    """
    labels = np.asarray(labels, dtype=np.int32).copy()
    if (labels == 0).any():
        raise ValueError("labels must be complete before reassignment")
    ids, counts = np.unique(labels, return_counts=True)
    surviving = ids[counts >= min_segment]
    if surviving.size == 0:
        surviving = np.array([ids[np.argmax(counts)]])
    small_mask = ~np.isin(labels, surviving)
    if small_mask.any():
        big_idx = np.flatnonzero(~small_mask)
        tree = cKDTree(cloud.positions[big_idx])
        _, nearest = tree.query(cloud.positions[small_mask])
        labels[small_mask] = labels[big_idx[nearest]]
    return first_rank(labels)[labels]


def first_rank(ids: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Per id in [0, ids.max()], the 1-based rank of its first occurrence in
    `ids[order]` (in `ids` when no order is given), 0 for ids absent there."""
    uniq, first = np.unique(ids if order is None else ids[order], return_index=True)
    rank = np.zeros(ids.max() + 1, dtype=np.int32)
    rank[uniq[np.argsort(first)]] = np.arange(1, len(uniq) + 1, dtype=np.int32)
    return rank


def segment_scene(ctx: SceneContext, predictor, grow_cfg: GrowConfig,
                  search_cfg=None, rng: np.random.Generator | None = None):
    """Segment a whole scene; returns (labels, stats).

    Every outer iteration seeds a new region, grows it (optionally through a
    local-search strategy) and permanently assigns a fresh instance id, so the
    loop always terminates. Undersized regions are merged afterwards.
    """
    from .search import SearchConfig, run_search

    if rng is None:
        rng = np.random.default_rng(0)
    if search_cfg is None:
        search_cfg = SearchConfig(strategy="greedy")
    curvature = ctx.features[:, COL_CURVATURE]
    labels = np.zeros(ctx.n_points, dtype=np.int32)
    total_inferences = 0
    regions = 0
    capped_regions = 0
    add_fracs = []
    remove_fracs = []
    while True:
        unlabeled = np.flatnonzero(labels == 0)
        if unlabeled.size == 0:
            break
        if grow_cfg.seed_selection == "random":
            seed = int(rng.choice(unlabeled))
        else:
            seed = select_seed(curvature, labels)
        region = run_search(ctx, predictor, seed, labels, grow_cfg, search_cfg, rng)
        regions += 1
        labels[region.members] = regions
        total_inferences += region.inferences
        capped_regions += int(region.capped)
        add_fracs.append(float(np.mean(region.add_fractions)) if region.add_fractions else 0.0)
        remove_fracs.append(float(np.mean(region.remove_fractions))
                            if region.remove_fractions else 0.0)
    final = reassign_small_segments(ctx.cloud, labels, grow_cfg.min_segment)
    stats = {
        "regions_grown": regions,
        "instances": int(final.max()),
        "inferences": total_inferences,
        "steps_per_region": total_inferences / max(regions, 1),
        "capped_regions": capped_regions,
        "mean_add_fraction": float(np.mean(add_fracs)) if add_fracs else 0.0,
        "mean_remove_fraction": float(np.mean(remove_fracs)) if remove_fracs else 0.0,
    }
    return final, stats
