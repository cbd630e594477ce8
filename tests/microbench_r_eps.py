"""Timing of ``evaluation.empirical_r_eps`` on the scale-ladder shapes, next to the exact spreads.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own, with one BLAS thread as the benchmark harness pins it:

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/microbench_r_eps.py \\
        --benchmark-group-by=param:shape

Each case is one evaluation of the ``scale_ladder`` benchmark: the
interleaved two-ring task at 14, 32, 64 or 96 samples per class (28 to 192
samples), identity plus a rotation, a scaling and a shift at grid 5, the
first one, two or three of them (6, 26 or 126 views), embedded in d = 2 by a
batch-standardized encoder trained as the ladder trains it, against the
ladder's epsilon grid. Every shape is timed twice: ``grid`` is the
package's decision (cheap bounds on each sample's view spread, and the
exact spread only for a sample whose bounds straddle an epsilon), and
``exact`` thresholds the exact spread of every sample (``_spreads``, which
is ``augment._exact_extremes`` under ``np.maximum``), as the evaluation did
before it decided on the grid. Both give the same fractions. Each ``grid``
case records in ``extra_info`` how many samples went through the exact
spread, counted on one untimed call.
"""

import numpy as np
import pytest

from augbound import evaluation
from augbound.augment import (
    AugmentationSet,
    additive_shift,
    identity,
    rotation_2d,
    scaling,
    view_tensor,
    view_weights,
)
from augbound.core import GeneratorConfig, generate_dataset
from augbound.encoder import TrainConfig, init_encoder, train
from augbound.evaluation import embed_views, empirical_r_eps

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
# The ``epsilon_grid`` of the scale_ladder benchmark.
_EPSILONS = (0.25,)


def _ladder_embedded(samples_per_class, aug):
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
    model = init_encoder(
        input_dim=3, hidden_dims=(), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=0,
    )
    config = TrainConfig(loss="cross_corr", steps=100, batch_size=16, learning_rate=0.1)
    model, _ = train(model, dataset, aug, config)
    return embed_views(model, view_tensor(dataset.features, aug), view_weights(aug))


def _exact_r_eps(embedded, epsilons):
    spreads = evaluation._spreads(embedded.z)
    return [float(np.mean(spreads > eps)) for eps in epsilons]


def _straddlers(monkeypatch, embedded):
    """Samples that one grid decision sends through the exact spread."""
    rows, exact_spreads = [], evaluation._spreads

    def counted(z):
        rows.append(len(z))
        return exact_spreads(z)

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_spreads", counted)
        empirical_r_eps(embedded, _EPSILONS)
    return sum(rows)


_KERNELS = {"grid": empirical_r_eps, "exact": _exact_r_eps}


@pytest.mark.parametrize("kernel", list(_KERNELS))
@pytest.mark.parametrize("shape", [f"n{n}_v{v}" for n, v in _SHAPES])
def test_r_eps_ladder_shape(benchmark, monkeypatch, shape, kernel):
    n, v = (int(part[1:]) for part in shape.split("_"))
    embedded = _ladder_embedded(n, _AUGS[v])
    assert embedded.z.shape == (2 * n, v, 2)
    if kernel == "grid":
        benchmark.extra_info["straddlers"] = _straddlers(monkeypatch, embedded)
    fractions = benchmark(_KERNELS[kernel], embedded, _EPSILONS)
    assert fractions == _exact_r_eps(embedded, _EPSILONS)
