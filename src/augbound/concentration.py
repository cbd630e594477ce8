"""Concentration estimation: how much of each class sits in one tight part.

For a threshold ``delta``, build per class the graph whose vertices are the
class samples and whose edges join samples with augmented distance at most
``delta``. A clique in that graph is a certified "main part": every pair in
it is within ``delta`` under some view pair. The concentration level sigma
is the smallest, over classes, of |main part| / |class|.

Two clique engines are provided. The exact one is a branch-and-bound search
(vertex budget 32) that returns the lexicographically smallest maximum
clique. The approximate one takes the complement graph, covers it with a
greedy maximal matching (a 2-approximate vertex cover), and returns the
uncovered vertices, which always form a clique of the original graph. The
approximate size never exceeds the exact one.

Greedy matchings are not monotone under edge deletion, so the raw
approximate estimate can dip as ``delta`` grows even though the true
optimum cannot. Estimation therefore accepts a baseline estimate whose main
parts are revalidated against the current graph and kept when they are
larger; a part certified at a smaller threshold (or a leaner augmentation
set) stays certified, which restores monotonicity without giving up on
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .augment import AugmentationSet, distance_matrix
from .core import Dataset

__all__ = [
    "ThresholdGraph",
    "ConcentrationEstimate",
    "build_threshold_graph",
    "exact_max_clique",
    "approx_max_clique",
    "estimate_sigma",
    "sigma_delta_curve",
    "save_concentration",
    "load_concentration",
]

EXACT_CLIQUE_BUDGET = 32


@dataclass(frozen=True)
class ThresholdGraph:
    """Intra-class proximity graph at a fixed distance threshold."""

    adjacency: np.ndarray
    node_ids: tuple[int, ...]
    delta: float
    class_id: int | None = None

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if adj.shape[0] != len(self.node_ids):
            raise ValueError("node_ids must match adjacency size")
        if np.any(np.diag(adj)):
            raise ValueError("threshold graph has no self-loops")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "node_ids", tuple(int(i) for i in self.node_ids))

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


def build_threshold_graph(
    distances: np.ndarray,
    delta: float,
    node_ids: tuple[int, ...] | None = None,
    class_id: int | None = None,
) -> ThresholdGraph:
    """Edges join nodes whose distance is at most ``delta``."""
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distance matrix must be square")
    adjacency = distances <= delta
    np.fill_diagonal(adjacency, False)
    if node_ids is None:
        node_ids = tuple(range(distances.shape[0]))
    return ThresholdGraph(adjacency, node_ids, float(delta), class_id)


def _adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Row i as an int whose bit j is set when i and j are adjacent."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def exact_max_clique(graph: ThresholdGraph) -> tuple[int, ...]:
    """Maximum clique by branch and bound, as sorted local vertex indices.

    Vertices are explored in ascending order, so among all maximum cliques
    the lexicographically smallest index list is found first and returned.
    Refuses graphs beyond the vertex budget; use approx_max_clique there.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("empty graph has no clique")
    if n > EXACT_CLIQUE_BUDGET:
        raise ValueError(
            f"graph has {n} nodes, over the exact budget of {EXACT_CLIQUE_BUDGET}; "
            "use the dual_approx mode"
        )
    adj = _adjacency_masks(graph.adjacency)
    best: list[int] = []

    def extend(current: list[int], candidates: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = current.copy()
        cand = candidates
        while cand:
            if len(current) + cand.bit_count() <= len(best):
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            current.append(v)
            extend(current, cand & adj[v])
            current.pop()

    extend([], (1 << n) - 1)
    return tuple(best)


def approx_max_clique(graph: ThresholdGraph) -> tuple[int, ...]:
    """Clique from the complement's 2-approximate vertex cover.

    Walk the complement's edges in lexicographic order, greedily building a
    maximal matching; matched endpoints form the cover and the rest is an
    independent set of the complement, i.e. a clique here. Never larger
    than the true maximum; clamped to a single vertex when the cover takes
    everything.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("empty graph has no clique")
    complement = ~graph.adjacency
    np.fill_diagonal(complement, False)
    covered = np.zeros(n, dtype=bool)
    for i in range(n):
        if covered[i]:
            continue
        for j in np.flatnonzero(complement[i, i + 1 :]) + i + 1:
            if not covered[j]:
                covered[i] = covered[j] = True
                break
    clique = tuple(int(v) for v in np.flatnonzero(~covered))
    return clique if clique else (0,)


def _is_clique(adjacency: np.ndarray, members: np.ndarray) -> bool:
    if members.size <= 1:
        return True
    sub = adjacency[np.ix_(members, members)]
    return bool(np.all(sub | np.eye(members.size, dtype=bool)))


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Certified concentration level at one threshold.

    ``main_parts`` holds dataset-level sample indices per class; each part
    is a clique of its class graph, so the per-class sigma values are
    attained by explicit certificates rather than being mere scores.
    """

    delta: float
    sigma: float
    per_class_sigma: tuple[float, ...]
    main_parts: tuple[tuple[int, ...], ...]
    mode: Literal["exact", "dual_approx"]

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "dual_approx"):
            raise ValueError(f"unknown concentration mode {self.mode!r}")
        if len(self.per_class_sigma) != len(self.main_parts):
            raise ValueError("per-class sigma and main parts must align")
        if not self.per_class_sigma:
            raise ValueError("estimate needs at least one class")
        if any(not 0.0 < s <= 1.0 for s in self.per_class_sigma):
            raise ValueError("per-class sigma must lie in (0, 1]")
        if self.sigma != min(self.per_class_sigma):
            raise ValueError("sigma must equal the smallest per-class value")


def _class_clique(
    distances: np.ndarray,
    delta: float,
    mode: str,
    baseline_local: tuple[int, ...] | None,
) -> tuple[int, ...]:
    graph = build_threshold_graph(distances, delta)
    if mode == "exact":
        clique = exact_max_clique(graph)
    else:
        clique = approx_max_clique(graph)
    if baseline_local:
        members = np.asarray(baseline_local, dtype=np.int64)
        if members.max(initial=-1) < graph.num_nodes and _is_clique(graph.adjacency, members):
            if len(baseline_local) > len(clique):
                clique = tuple(sorted(int(i) for i in baseline_local))
    return clique


def estimate_sigma(
    dataset: Dataset,
    aug: AugmentationSet,
    delta: float,
    mode: Literal["exact", "dual_approx"] = "exact",
    baseline: ConcentrationEstimate | None = None,
) -> ConcentrationEstimate:
    """Concentration level of the dataset at threshold ``delta``.

    With a ``baseline``, its per-class main parts are revalidated against
    the current class graphs and kept when still certified and larger;
    chain estimates through baselines when sweeping nested augmentation
    sets so the reported sigma cannot dip for spurious reasons.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    per_class: list[float] = []
    parts: list[tuple[int, ...]] = []
    for k in range(dataset.num_classes):
        ids = dataset.class_indices(k)
        dists = distance_matrix(dataset, aug, class_filter=k)
        baseline_local: tuple[int, ...] | None = None
        if baseline is not None and k < len(baseline.main_parts):
            id_to_local = {int(v): i for i, v in enumerate(ids)}
            mapped = [id_to_local.get(int(v)) for v in baseline.main_parts[k]]
            if all(v is not None for v in mapped):
                baseline_local = tuple(mapped)  # type: ignore[arg-type]
        clique = _class_clique(dists, delta, mode, baseline_local)
        per_class.append(len(clique) / ids.size)
        parts.append(tuple(int(ids[v]) for v in clique))
    return ConcentrationEstimate(
        delta=float(delta),
        sigma=min(per_class),
        per_class_sigma=tuple(per_class),
        main_parts=tuple(parts),
        mode=mode,
    )


def sigma_delta_curve(
    dataset: Dataset,
    aug: AugmentationSet,
    deltas: list[float] | np.ndarray,
    mode: Literal["exact", "dual_approx"] = "exact",
) -> list[ConcentrationEstimate]:
    """Concentration estimates across an ascending threshold grid.

    Distance matrices are computed once per class and rethresholded. Each
    step starts from the previous certificate, so sigma is non-decreasing
    along the curve in both modes.
    """
    deltas = [float(d) for d in deltas]
    if any(not d >= 0 for d in deltas):
        raise ValueError("thresholds must be non-negative")
    if any(b < a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("thresholds must be ascending")
    class_ids = [dataset.class_indices(k) for k in range(dataset.num_classes)]
    class_dists = [
        distance_matrix(dataset, aug, class_filter=k) for k in range(dataset.num_classes)
    ]
    out: list[ConcentrationEstimate] = []
    prev_local: list[tuple[int, ...] | None] = [None] * dataset.num_classes
    for delta in deltas:
        per_class: list[float] = []
        parts: list[tuple[int, ...]] = []
        for k in range(dataset.num_classes):
            clique = _class_clique(class_dists[k], delta, mode, prev_local[k])
            prev_local[k] = clique
            per_class.append(len(clique) / class_ids[k].size)
            parts.append(tuple(int(class_ids[k][v]) for v in clique))
        out.append(
            ConcentrationEstimate(
                delta=delta,
                sigma=min(per_class),
                per_class_sigma=tuple(per_class),
                main_parts=tuple(parts),
                mode=mode,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_concentration(estimate: ConcentrationEstimate, path: str, fingerprint: str) -> None:
    """Record file: a stamped header plus one line per class."""
    lines = [
        f"# delta={float(estimate.delta)!r} sigma={float(estimate.sigma)!r} "
        f"mode={estimate.mode} fingerprint={fingerprint}",
        "class_id,class_size,main_part_size,sigma_k,mode,members",
    ]
    for k, (sig, part) in enumerate(zip(estimate.per_class_sigma, estimate.main_parts)):
        size = round(len(part) / sig)
        members = " ".join(str(i) for i in part)
        lines.append(f"{k},{size},{len(part)},{float(sig)!r},{estimate.mode},{members}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_concentration(path: str) -> tuple[ConcentrationEstimate, str]:
    """Read a record file back; returns the estimate and the fingerprint."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if len(lines) < 3 or not lines[0].startswith("# "):
        raise ValueError(f"{path}: not a concentration record")
    header = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    per_class: list[float] = []
    parts: list[tuple[int, ...]] = []
    for ln in lines[2:]:
        if not ln:
            continue
        fields = ln.split(",")
        if len(fields) != 6:
            raise ValueError(f"{path}: malformed class row {ln!r}")
        per_class.append(float(fields[3]))
        members = tuple(int(v) for v in fields[5].split()) if fields[5] else ()
        parts.append(members)
    estimate = ConcentrationEstimate(
        delta=float(header["delta"]),
        sigma=float(header["sigma"]),
        per_class_sigma=tuple(per_class),
        main_parts=tuple(parts),
        mode=header["mode"],  # type: ignore[arg-type]
    )
    return estimate, header["fingerprint"]
