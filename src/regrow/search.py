"""Local-search strategies over region-growing rollouts.

Five ways to turn one seed into a final region, a `features.RegionState`: a
single greedy rollout, random restarts with the winner picked by summed
log-likelihood (ML) or by final region size (NP), and beam search under the
same two criteria. All five run as one loop of rounds over the live regions,
each drawing from its own random stream. The greedy strategy grows greedily,
the other four with sampled steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import RegionState, SceneContext
from .grow import GrowConfig, advance

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
    """The best final region for one seed under the configured strategy,
    found in rounds in which every live region takes one `advance` on its own
    stream: one region on `rng` (greedy), one per spawned stream (restarts) or
    the `beam_width` best distinct copies of the last round's regions, one copy
    per spawned stream (beam). The winner's `inferences` count every step."""
    kind = search_cfg.strategy[-2:]  # "ml" or "np"
    beam, sampled = search_cfg.strategy.startswith("bs"), search_cfg.strategy != "greedy"
    eligible = np.asarray(labels) == 0
    streams = rng.spawn(search_cfg.restarts) if search_cfg.strategy.startswith("rr") else [rng]
    live = [(RegionState(ctx.new_tracker([seed]), seed), stream) for stream in streams]
    finished = [] if beam else [region for region, _ in live]  # restarts in restart order
    inferences = 0
    while live:
        if beam:  # all spawns in live order, before any child steps
            live = [(region.copy(), child) for region, _ in live
                    for child in rng.spawn(search_cfg.expansions)]
        alive = []
        for region, stream in live:
            before = region.inferences
            if advance(ctx, predictor, region, eligible, grow_cfg, stream, sampled):
                alive.append((region, stream))
            elif beam:
                finished.append(region)
            inferences += region.inferences - before
        if beam:  # deduplicate identical regions (exact bitmask), then prune to the K best
            unique: dict[bytes, tuple] = {}
            for pair in alive:
                unique.setdefault(pair[0].members.tobytes(), pair)  # the stable sort keeps firsts
            alive = sorted(unique.values(),
                           key=lambda pair: -_criterion(pair[0], kind))[:search_cfg.beam_width]
        live = alive
    best = max(finished, key=lambda r: _criterion(r, kind))  # max keeps the first of equals
    best.inferences = inferences
    return best
