"""Timing of the clique search on the scale-ladder threshold graphs.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own, with one BLAS thread as the benchmark harness pins it:

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/microbench_clique.py \\
        --benchmark-group-by=param:size

Each case is one class of the interleaved two-ring task at 14, 32, 64 or 96
samples per class, under identity plus a rotation and a scaling at grid 5
(26 views), thresholded at the four ``delta_grid`` values of the
``scale_ladder`` benchmark, whose edges are read from the class's
``distance_levels``. One timed call searches all four graphs.
``approx_max_clique`` (the search under ``APPROX_NODE_BUDGET`` nodes) is
timed at every size; ``exact_max_clique`` (the complete search) only up to
``EXACT_CLIQUE_BUDGET`` vertices, where it does not refuse.
"""

import numpy as np
import pytest

from augbound.augment import AugmentationSet, distance_levels, identity, rotation_2d, scaling
from augbound.concentration import (
    EXACT_CLIQUE_BUDGET,
    ThresholdGraph,
    approx_max_clique,
    exact_max_clique,
)
from augbound.core import GeneratorConfig, generate_dataset

_AUG = AugmentationSet(
    (identity(), rotation_2d((0, 1), 1.4, 2.0), scaling(0.85, 1.15, 2.0)), grid_resolution=5
)
_DELTAS = (0.2, 0.4, 0.6, 0.8)
_SIZES = (14, 32, 64, 96)
_ENGINES = {"exact": exact_max_clique, "approx": approx_max_clique}


def _ring_graphs(samples_per_class):
    dataset = generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=samples_per_class,
            cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
            cluster_spread=3.2,
            manifold="ring_segments",
            seed=0,
            disjoint_classes=False,
        )
    )
    levels = distance_levels(dataset.features[dataset.class_indices(0)], _AUG, _DELTAS)
    graphs = []
    for step in range(len(_DELTAS)):
        adjacency = levels <= step
        np.fill_diagonal(adjacency, False)
        graphs.append(ThresholdGraph(adjacency))
    return graphs


@pytest.mark.parametrize(
    "engine,size",
    [("exact", n) for n in _SIZES if n <= EXACT_CLIQUE_BUDGET] + [("approx", n) for n in _SIZES],
)
def test_clique_search_on_ladder_graphs(benchmark, engine, size):
    graphs = _ring_graphs(size)
    search = _ENGINES[engine]
    cliques = benchmark(lambda: [search(g) for g in graphs])
    for graph, clique in zip(graphs, cliques):
        assert all(graph.adjacency[a, b] for a in clique for b in clique if a != b)
        if size <= EXACT_CLIQUE_BUDGET:
            assert len(clique) <= len(exact_max_clique(graph))
