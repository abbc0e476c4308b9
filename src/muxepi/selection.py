"""Choosing which nodes never participate in awareness diffusion.

Rankings are computed on the awareness layer, where the selected nodes are
silenced, from the centralities it caches. Ties break by ascending node index
so every strategy is a total, reproducible order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph

STRATEGIES = (
    "random",
    "degree_top",
    "degree_bottom",
    "betweenness_top",
    "betweenness_bottom",
    "clustering_top",
    "clustering_bottom",
)

__all__ = ["STRATEGIES", "OmegaSpec", "select_omega", "write_omega_set"]


@dataclass(frozen=True)
class OmegaSpec:
    """How to pick the silenced node set.

    Exactly one of count (absolute) or fraction (of N) must be given.
    """

    strategy: str
    count: int | None = None
    fraction: float | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidArgumentError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if (self.count is None) == (self.fraction is None):
            raise InvalidArgumentError("give exactly one of count or fraction")
        if self.count is not None and self.count < 0:
            raise InvalidArgumentError(f"count must be >= 0, got {self.count}")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise InvalidArgumentError(f"fraction must be in [0,1], got {self.fraction}")

    def resolved_size(self, n: int) -> int:
        if self.count is not None:
            if self.count > n:
                raise InvalidArgumentError(f"count {self.count} exceeds {n} nodes")
            return self.count
        return int(round(self.fraction * n))


def select_omega(spec: OmegaSpec, awareness: Graph, seed=None) -> np.ndarray:
    """The selected node indices as a sorted int64 array; only `random` reads `seed`."""
    n = awareness.node_count
    k = spec.resolved_size(n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if spec.strategy == "random":
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    measure, end = spec.strategy.rsplit("_", 1)
    score = awareness.centrality(measure)
    order = np.argsort(-score if end == "top" else score, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def write_omega_set(nodes, path) -> None:
    """One node index per line, for audit and replay."""
    with open(path, "w", encoding="ascii") as fh:
        for i in nodes:
            fh.write(f"{int(i)}\n")
