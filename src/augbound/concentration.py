"""Concentration estimation: how much of each class sits in one tight part.

For a threshold ``delta``, build per class the graph whose vertices are the
class samples and whose edges join samples with augmented distance at most
``delta``. A clique in that graph is a certified "main part": every pair in
it is within ``delta`` under some view pair. The concentration level sigma
is the smallest, over classes, of |main part| / |class|.

A graph needs only which side of ``delta`` each distance lies on, so the
estimators take ``augment.distance_levels`` once per class for the whole
grid: a pair at level k (k deltas below its distance) is an edge of the
graphs from deltas[k] on.

One branch-and-bound search serves both modes. The exact mode runs it to
completion and returns the lexicographically smallest maximum clique; it
refuses a class of more than ``EXACT_CLIQUE_BUDGET`` = 32 samples, and the
estimators check every class size before any distance is computed. The
``dual_approx`` mode runs it under a budget of ``APPROX_NODE_BUDGET``
search nodes and returns the incumbent: a maximal clique, never larger than
the maximum, and equal to the exact answer when the search finishes within
the budget (always at 8 vertices or fewer).

A budgeted search can return a smaller clique on a graph with more edges,
so its estimate could dip as ``delta`` grows though the optimum cannot. A
clique at one delta is a clique at every larger one, so each class keeps
its previous certificate whenever the search finds a smaller clique, with
no check. An outside baseline estimate, such as one under a leaner
augmentation set, seeds the first delta: its part of each class is checked
once, against the first graph, and kept only when it is a clique there and
larger than the search's result.

The module does no file IO. ``experiments.stage_concentration`` writes each
estimate to ``concentration.csv``, one row per delta and class, the
main-part members included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .augment import AugmentationSet, distance_levels
from .core import Dataset

__all__ = [
    "ThresholdGraph",
    "ConcentrationEstimate",
    "build_threshold_graph",
    "exact_max_clique",
    "approx_max_clique",
    "estimate_sigma",
    "sigma_delta_curve",
]

EXACT_CLIQUE_BUDGET = 32
APPROX_NODE_BUDGET = 256


@dataclass(frozen=True)
class ThresholdGraph:
    """Intra-class proximity graph at a fixed distance threshold."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if np.any(np.diag(adj)):
            raise ValueError("threshold graph has no self-loops")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


def build_threshold_graph(distances: np.ndarray, delta: float) -> ThresholdGraph:
    """Edges join nodes whose distance is at most ``delta``."""
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distance matrix must be square")
    adjacency = distances <= delta
    np.fill_diagonal(adjacency, False)
    return ThresholdGraph(adjacency)


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Row i as an int whose bit j is set when i and j are adjacent."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _search(graph: ThresholdGraph, node_budget: int | None) -> tuple[int, ...]:
    """Largest clique found by branch and bound, as sorted local vertex indices.

    Vertices are explored in ascending order, so a complete search returns
    the lexicographically smallest maximum clique. After ``node_budget``
    nodes no further sibling branch is taken, but a node always enters its
    first one. So the first descent completes, and the incumbent is maximal:
    it was last set at a leaf, and a vertex that could extend it would head
    an earlier sibling branch, searched in full, holding a larger clique.

    The search runs on an explicit stack, one entry per node of the current
    path holding its candidates not yet branched on, so its depth is not
    bounded by Python's recursion limit. It visits the nodes of the
    recursive search (``tests/oracles.py``) in the same order.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("empty graph has no clique")
    adj = _adjacency_masks(graph.adjacency)
    limit = math.inf if node_budget is None else node_budget
    best: list[int] = []
    path = [0] * n
    depth = size = 0
    stack = [(1 << n) - 1]
    nodes = 1
    while True:
        cand = stack[-1]
        if cand and depth + cand.bit_count() > size:
            # Branch on the lowest candidate; the node keeps those above it.
            low = cand & -cand
            cand ^= low
            stack[-1] = cand
            v = low.bit_length() - 1
            path[depth] = v
            depth += 1
            nodes += 1
            if depth > size:
                best, size = path[:depth], depth
            stack.append(cand & adj[v])
            continue
        # The node is done; once the budget is spent its parent takes no further branch.
        stack.pop()
        if not stack or nodes >= limit:
            return tuple(best)
        depth -= 1


def _check_exact_budget(num_nodes: int) -> None:
    """Refuse an exact search over more than ``EXACT_CLIQUE_BUDGET`` vertices."""
    if num_nodes > EXACT_CLIQUE_BUDGET:
        raise ValueError(
            f"graph has {num_nodes} nodes, over the exact budget of "
            f"{EXACT_CLIQUE_BUDGET}; use the dual_approx mode"
        )


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "dual_approx"):
        raise ValueError(f"unknown concentration mode {mode!r}")


def exact_max_clique(graph: ThresholdGraph) -> tuple[int, ...]:
    """Lexicographically smallest maximum clique; refuses graphs beyond the
    vertex budget, where approx_max_clique applies."""
    _check_exact_budget(graph.num_nodes)
    return _search(graph, None)


def approx_max_clique(graph: ThresholdGraph) -> tuple[int, ...]:
    """The exact search's incumbent after ``APPROX_NODE_BUDGET`` nodes.

    A maximal clique, never larger than the maximum, and the exact answer
    whenever the search finishes within the budget (a graph of at most 8
    vertices has at most 2^8 search nodes).
    """
    return _search(graph, APPROX_NODE_BUDGET)


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Certified concentration level at one threshold.

    ``main_parts`` holds dataset-level sample indices per class; each part
    is a clique of its class graph, so the per-class sigma values are
    attained by explicit certificates rather than being mere scores.
    ``per_class_sigma`` is each part's size over its class's size in
    ``class_sizes``; ``sigma`` is the smallest per-class value.
    """

    delta: float
    main_parts: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    mode: Literal["exact", "dual_approx"]

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if len(self.main_parts) != len(self.class_sizes):
            raise ValueError("main parts and class sizes must align")
        if not self.main_parts:
            raise ValueError("estimate needs at least one class")
        if any(not 0 < len(p) <= n for p, n in zip(self.main_parts, self.class_sizes)):
            raise ValueError("a main part must be non-empty and no larger than its class")
        for k, part in enumerate(self.main_parts):
            if len(set(part)) != len(part):
                raise ValueError(f"the main part of class {k} repeats a member")

    @property
    def per_class_sigma(self) -> tuple[float, ...]:
        return tuple(len(p) / n for p, n in zip(self.main_parts, self.class_sizes))

    @property
    def sigma(self) -> float:
        return min(self.per_class_sigma)


def _curve(
    dataset: Dataset,
    aug: AugmentationSet,
    deltas: list[float],
    mode: Literal["exact", "dual_approx"],
    baseline: ConcentrationEstimate | None,
) -> list[ConcentrationEstimate]:
    """Estimates along ascending ``deltas``; each class's step keeps its
    previous certificate, the first one the baseline's part, where the
    search finds a smaller clique.

    Inputs are checked before any distance work: the mode, then in exact
    mode each class size against the vertex budget, in class order, then
    the thresholds, which the first class's ``distance_levels`` call checks
    first. A baseline part is carried only where it lies in its class and
    each of its pairs is at level 0, a clique of the first graph.
    """
    _check_mode(mode)
    if not deltas:
        return []
    class_ids = [dataset.class_indices(k) for k in range(dataset.num_classes)]
    if mode == "exact":
        for ids in class_ids:
            _check_exact_budget(ids.size)
    levels = [distance_levels(dataset.features[ids], aug, deltas) for ids in class_ids]
    carried: list[tuple[int, ...] | None] = [None] * dataset.num_classes
    if baseline is not None:
        for k, part in enumerate(baseline.main_parts[: dataset.num_classes]):
            local = np.flatnonzero(np.isin(class_ids[k], part))
            if local.size == len(part) and not levels[k][np.ix_(local, local)].any():
                carried[k] = tuple(int(v) for v in local)
    search = exact_max_clique if mode == "exact" else approx_max_clique
    sizes = tuple(int(ids.size) for ids in class_ids)
    out: list[ConcentrationEstimate] = []
    for step, delta in enumerate(deltas):
        parts: list[tuple[int, ...]] = []
        for k, ids in enumerate(class_ids):
            clique = search(build_threshold_graph(levels[k], step))
            # A carried part is a clique of this graph too: this delta is
            # no smaller than the one it was certified at.
            kept = carried[k]
            if kept is not None and len(kept) > len(clique):
                clique = kept
            carried[k] = clique
            parts.append(tuple(int(ids[v]) for v in clique))
        out.append(
            ConcentrationEstimate(
                delta=delta, main_parts=tuple(parts), class_sizes=sizes, mode=mode
            )
        )
    return out


def estimate_sigma(
    dataset: Dataset,
    aug: AugmentationSet,
    delta: float,
    mode: Literal["exact", "dual_approx"] = "exact",
    baseline: ConcentrationEstimate | None = None,
) -> ConcentrationEstimate:
    """Concentration level of the dataset at threshold ``delta``.

    With a ``baseline``, its per-class main parts are checked against the
    class graphs at ``delta`` and kept when they are cliques and larger;
    chain estimates through baselines when sweeping nested augmentation
    sets so the reported sigma cannot dip for spurious reasons.
    """
    return _curve(dataset, aug, [float(delta)], mode, baseline)[0]


def sigma_delta_curve(
    dataset: Dataset,
    aug: AugmentationSet,
    deltas: list[float] | np.ndarray,
    mode: Literal["exact", "dual_approx"] = "exact",
) -> list[ConcentrationEstimate]:
    """Concentration estimates across an ascending threshold grid.

    The distance levels of each class are computed once for the whole grid
    (``distance_levels``), and each threshold's graph is read from them. Each
    step starts from the previous certificate, so sigma is non-decreasing
    along the curve in both modes.
    """
    return _curve(dataset, aug, [float(d) for d in deltas], mode, None)
