"""Timing of ``augment.distance_levels`` on the scale-ladder shapes, next to a cdist kernel.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own, with one BLAS thread as the benchmark harness pins it:

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/microbench_distance.py \\
        --benchmark-group-by=param:shape

Each ``distance_levels`` case is one class of the interleaved two-ring task
at one of the 12 shapes of the ``scale_ladder`` benchmark: 14, 32, 64 or 96
samples per class, times identity plus a rotation, a scaling and a shift at
grid 5, the first one, two or three of them (6, 26 or 126 views), against
the ladder's delta grid. Every shape is timed twice, with the package's
kernel (``numpy``: a loop of steps narrows each pair's level interval, an
identity pre-pass, a group floor, a screen on float32 GEMM bounds, and the
exact float64 formula for the pairs they leave open) and with
``_cdist_distance_levels`` (``cdist``: every exact distance, in tiles of
the same byte budget on the calling thread, float64 tiles of 8-byte
entries, each one ``scipy.spatial.distance.cdist`` call and two minima,
then thresholded by ``np.searchsorted``), so the two can be compared shape
by shape; both return the same levels. ``n250_v126``, one class of 250 samples past the ladder,
is timed with the package's kernel alone: cdist would compute about 10⁹
view distances there, so sampled pairs are checked against
``augmented_distance`` instead. ``view_tensor`` is timed on the whole
dataset of the ``n96_v126`` rung.

Every GEMM batch (the pre-pass's row blocks, the group floor's and the
screen's stacks of pairs) and every batch of the exact formula fills half
a ``TILE_BYTES`` tile, in a GEMM buffer of one tile.

The group floor runs where a GEMM of all rows against one column sample
holds at most one row sample, on the 32-, 64- and 96-sample 126-view
shapes. Each ``numpy`` case records in ``extra_info``, counted on one
untimed call, for each step that runs (``pre_pass``, ``group``,
``screen``, ``exact``; ``exact`` alone on the shapes small enough for the
all-pairs exact formula): ``asked``, the open pairs of the upper triangle
it is given; ``computed``, the sample pairs its GEMMs (or the exact
formula) compute, all N² ordered pairs for the pre-pass, whose GEMMs
cover the whole class, and exactly the pairs asked for every later step;
``settled``, the pairs it settles; and ``middle``, those of them that
its own bounds leave open, settled by the intersection with the earlier
steps' bounds. ``computed`` over ``asked`` is the overcompute of a step.
"""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from augbound import augment
from augbound.augment import (
    AugmentationSet,
    additive_shift,
    augmented_distance,
    distance_levels,
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


_TRANSFORMS = (
    rotation_2d((0, 1), 1.4, 2.0),
    scaling(0.85, 1.15, 2.0),
    additive_shift((0.0, 0.25, 0.0)),
)
_AUGS = {
    1 + 5**k: AugmentationSet((identity(), *_TRANSFORMS[:k]), grid_resolution=5)
    for k in (1, 2, 3)
}
_SHAPES = [(n, v) for n in (14, 32, 64, 96) for v in (6, 26, 126)]
# The ``delta_grid`` of the scale_ladder benchmark.
_DELTAS = (0.2, 0.4, 0.6, 0.8)


def _cdist_distance_levels(points, aug, deltas):
    """Exact distances in tiles of one cdist call each, thresholded by ``deltas``."""
    views = view_tensor(points, aug)
    n, v, d = views.shape
    flat = views.reshape(n * v, d)
    side = max(1, math.isqrt(augment.TILE_BYTES // 8) // v)
    out = np.empty((n, n))
    for i0 in range(0, n, side):
        for j0 in range(i0, n, side):
            i1, j1 = min(i0 + side, n), min(j0 + side, n)
            tile = (
                cdist(flat[i0 * v : i1 * v], flat[j0 * v : j1 * v], "sqeuclidean")
                .reshape(i1 - i0, v, j1 - j0, v)
                .min(axis=1).min(axis=2)
            )
            out[i0:i1, j0:j1] = tile
            out[j0:j1, i0:i1] = tile.T
    out = np.sqrt(np.maximum(out, 0.0))
    np.fill_diagonal(out, 0.0)
    return np.searchsorted(deltas, out, side="left")


def _step_counts(monkeypatch, points, aug):
    """The ``extra_info`` counts of each step of ``distance_levels``."""
    n, v = len(points), aug.num_views
    g = aug.num_discrete + (v - aug.num_discrete) // aug.grid_resolution
    # GEMM values per sample pair of each step.
    values = {"pre_pass": v, "group": g * g, "screen": v * v}
    runs = []

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            runs[-1]["computed"] += out.size // values[runs[-1]["name"]]
            return np.matmul(a, b, out=out)

    def record(step):
        def run(rows, cols):
            exact = step.__name__ == "exact"
            runs.append({"name": step.__name__, "computed": rows.size if exact else 0})
            lo, hi = np.broadcast_arrays(*step(rows, cols), rows)[:2]
            runs[-1].update(pairs=rows * n + cols, own=lo == hi)
            return lo, hi

        return run

    steps = augment._steps
    with monkeypatch.context() as patch:
        patch.setattr(augment, "np", CountedNumpy())
        patch.setattr(augment, "_steps", lambda *args: [record(s) for s in steps(*args)])
        distance_levels(points, aug, _DELTAS)
    total = n * (n - 1) // 2
    if not runs:
        return {"exact.asked": total, "exact.computed": n * n, "exact.settled": total,
                "exact.middle": 0}
    counts = {}
    for run, later in zip(runs, runs[1:] + [{"pairs": []}]):
        settled = ~np.isin(run["pairs"], later["pairs"])
        counts.update({
            f"{run['name']}.asked": run["pairs"].size,
            f"{run['name']}.computed": run["computed"],
            f"{run['name']}.settled": int(settled.sum()),
            f"{run['name']}.middle": int((settled & ~run["own"]).sum()),
        })
    return counts


_KERNELS = {"numpy": distance_levels, "cdist": _cdist_distance_levels}


@pytest.mark.parametrize("kernel", list(_KERNELS))
@pytest.mark.parametrize("shape", [f"n{n}_v{v}" for n, v in _SHAPES])
def test_distance_levels_ladder_shape(benchmark, monkeypatch, shape, kernel):
    n, v = (int(part[1:]) for part in shape.split("_"))
    dataset, aug = _ring_dataset(n), _AUGS[v]
    assert aug.num_views == v
    points = dataset.features[dataset.class_indices(0)]
    if kernel == "numpy":
        benchmark.extra_info.update(_step_counts(monkeypatch, points, aug))
    levels = benchmark(_KERNELS[kernel], points, aug, _DELTAS)
    np.testing.assert_array_equal(levels, _cdist_distance_levels(points, aug, _DELTAS))


@pytest.mark.parametrize("shape", ["n250_v126"])
def test_distance_levels_numpy_only_shape(benchmark, monkeypatch, shape):
    n, v = (int(part[1:]) for part in shape.split("_"))
    dataset, aug = _ring_dataset(n), _AUGS[v]
    points = dataset.features[dataset.class_indices(0)]
    benchmark.extra_info.update(_step_counts(monkeypatch, points, aug))
    levels = benchmark(distance_levels, points, aug, _DELTAS)
    for i, j in [(0, 1), (0, n - 1), (n // 2, n // 3), (n - 2, n - 1)]:
        distance = augmented_distance(points[i], points[j], aug)
        assert levels[i, j] == levels[j, i] == np.searchsorted(_DELTAS, distance, side="left")


def test_view_tensor_192_points_126_views(benchmark):
    points = _ring_dataset(96).features
    views = benchmark(view_tensor, points, _AUGS[126])
    assert views.shape == (192, 126, 3)
