"""Timing of ``augment.distance_matrix`` and ``augment.view_tensor`` on the ladder ring task.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own with

    python -m pytest tests/microbench_distance.py

The cases use the interleaved two-ring task with identity plus a rotation,
a scaling and a shift at grid 5 (126 views): one class of the ``n64_v126``
rung of the ``scale_ladder`` benchmark for ``distance_matrix``, and the
whole dataset of the ``n96_v126`` rung (192 points) for ``view_tensor``.
"""

from augbound.augment import (
    AugmentationSet,
    additive_shift,
    distance_matrix,
    identity,
    rotation_2d,
    scaling,
    view_tensor,
)
from augbound.core import GeneratorConfig, generate_dataset


def _ring_dataset(samples_per_class):
    return generate_dataset(
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


_AUG_126 = AugmentationSet(
    transforms=(
        identity(),
        rotation_2d((0, 1), 1.4, 2.0),
        scaling(0.85, 1.15, 2.0),
        additive_shift((0.0, 0.25, 0.0)),
    ),
    grid_resolution=5,
)


def test_distance_matrix_64_per_class_126_views(benchmark):
    assert _AUG_126.num_views == 126
    matrix = benchmark(distance_matrix, _ring_dataset(64), _AUG_126, class_filter=0)
    assert matrix.shape == (64, 64)


def test_view_tensor_192_points_126_views(benchmark):
    points = _ring_dataset(96).features
    views = benchmark(view_tensor, points, _AUG_126)
    assert views.shape == (192, 126, 3)
