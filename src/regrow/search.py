"""Local-search strategies over region-growing rollouts.

Five ways to turn one seed into a final region, a `features.RegionState`: a
single greedy rollout, random restarts with the winner picked by summed
log-likelihood (ML) or by final region size (NP), and beam search under the
same two criteria. Every rollout and beam entry is a `RegionState` too. The
greedy strategy grows greedily, the other four with sampled steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import RegionState, SceneContext
from .grow import GrowConfig, advance, grow_region

STRATEGIES = ("greedy", "rr-ml", "rr-np", "bs-ml", "bs-np")


@dataclass
class SearchConfig:
    strategy: str = "greedy"
    restarts: int = 10
    beam_width: int = 3
    expansions: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.restarts < 1 or self.beam_width < 1 or self.expansions < 1:
            raise ValueError("restarts, beam_width and expansions must all be >= 1")


def _criterion(region: RegionState, kind: str) -> float:
    return region.loglik if kind == "ml" else float(region.tracker.size)


def run_search(ctx: SceneContext, predictor, seed: int, labels,
               grow_cfg: GrowConfig, search_cfg: SearchConfig,
               rng: np.random.Generator) -> RegionState:
    """Find the best final region for one seed under the configured strategy;
    its `inferences` count every rollout the search ran."""
    if search_cfg.strategy == "greedy":
        return grow_region(ctx, predictor, seed, labels, grow_cfg, rng)
    kind = search_cfg.strategy[-2:]  # "ml" or "np"
    search = _random_restart if search_cfg.strategy.startswith("rr") else _beam_search
    return search(ctx, predictor, seed, labels, grow_cfg, search_cfg, kind, rng)


def _random_restart(ctx, predictor, seed, labels, grow_cfg, search_cfg, kind, rng):
    regions = [grow_region(ctx, predictor, seed, labels, grow_cfg, child, sampled=True)
               for child in rng.spawn(search_cfg.restarts)]
    best = max(regions, key=lambda r: _criterion(r, kind))  # max keeps the first of equals
    best.inferences = sum(r.inferences for r in regions)
    return best


def _beam_search(ctx, predictor, seed, labels, grow_cfg, search_cfg, kind, rng):
    """Track up to K live regions, expanding each a few times per round."""
    eligible = np.asarray(labels) == 0
    live = [RegionState(ctx.new_tracker([seed]), seed)]
    finished: list[RegionState] = []
    inferences = 0
    while live:
        children: list[RegionState] = []
        for parent in live:
            for child_rng in rng.spawn(search_cfg.expansions):
                child = parent.copy()
                alive = advance(ctx, predictor, child, eligible, grow_cfg, child_rng,
                                sampled=True)
                inferences += child.inferences - parent.inferences
                (children if alive else finished).append(child)
        # deduplicate identical regions (exact bitmask), then prune to the K best
        unique: dict[bytes, RegionState] = {}
        for child in children:
            unique.setdefault(child.members.tobytes(), child)
        live = sorted(unique.values(), key=lambda r: -_criterion(r, kind))[:search_cfg.beam_width]
    best = max(finished, key=lambda r: _criterion(r, kind))
    best.inferences = inferences
    return best
