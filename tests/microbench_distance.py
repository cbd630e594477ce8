"""Timing of ``augment.distance_matrix`` on the scale ladder's ring task.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own with

    python -m pytest tests/microbench_distance.py

The case is one class of the interleaved two-ring task at 64 samples per
class with identity plus a rotation, a scaling and a shift at grid 5
(126 views), the ``n64_v126`` rung of the ``scale_ladder`` benchmark.
"""

from augbound.augment import (
    AugmentationSet,
    additive_shift,
    distance_matrix,
    identity,
    rotation_2d,
    scaling,
)
from augbound.core import GeneratorConfig, generate_dataset


def test_distance_matrix_64_per_class_126_views(benchmark):
    dataset = generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=64,
            cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
            cluster_spread=3.2,
            manifold="ring_segments",
            seed=0,
            disjoint_classes=False,
        )
    )
    aug = AugmentationSet(
        transforms=(
            identity(),
            rotation_2d((0, 1), 1.4, 2.0),
            scaling(0.85, 1.15, 2.0),
            additive_shift((0.0, 0.25, 0.0)),
        ),
        grid_resolution=5,
    )
    assert aug.num_views == 126
    matrix = benchmark(distance_matrix, dataset, aug, class_filter=0)
    assert matrix.shape == (64, 64)
