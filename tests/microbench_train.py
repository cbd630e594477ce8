"""Timing of ``encoder.train`` on the acceptance fixture blobs and the ring task,
and of the lockstep training of a ring pair sweep's levels.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own with

    python -m pytest tests/microbench_train.py

The blob cases are one 250-step training run with batch size 8 on
6-per-class blobs with an identity + shift augmentation set, the settings
of the ``info_nce_d2_k2`` and ``cross_corr_d2_k2`` acceptance fixtures (2
classes, 2-d embeddings) and of ``info_nce_d8_k4`` (4 classes, 8-d
embeddings, the most kept embedding values per step). The hidden-layer
case is the ``cross_corr_d2_k2`` run through a tanh hidden layer of width
8 (``hidden_dims=(8,)``), which times the per-layer backward pass. The
ring case is one 300-step ``info_nce`` run with batch size 16 on the 3-d
two-ring task of acceptance 09 and 10 with identity + wide rotation +
scale at grid 5 (26 views), which times the continuous members. The
lockstep case trains the six levels of the ring pair sweep of acceptance 10
(identity + two of wide rotation, narrow rotation, scale and shift, 26 views
each) with the ring case's settings in one stack (``encoder._train_stack``),
as a pairs sweep does; it times the stacked step against six ring cases.
The ladder case is one 100-step ``cross_corr`` run with batch size 16 on
the same ring task at 14 per class with identity + wide rotation + scale +
shift at grid 5 (126 views), the settings of the smallest 126-view rung of
the benchmark's scale ladder.
The draw cases time ``encoder._sample_chunk`` alone, the views of one
chunk of 250 steps on the ``info_nce_d2_k2`` shape and of 300 steps on
the 26-view ring shape (3 views per step, as InfoNCE draws them).
The step cases time one chunk's step loop alone, as ``encoder._train_stack``
runs it for one level (workspace set-up, then ``_gradient`` and the update
per step), on 250 pre-drawn steps of the ``info_nce_d2_k2`` and
``cross_corr_d2_k2`` shapes, and record the median microseconds per step
in ``extra_info["us_per_step"]``.
"""

from itertools import combinations

import numpy as np
import pytest

from augbound import encoder
from augbound.augment import AugmentationSet, additive_shift, identity, rotation_2d, scaling
from augbound.core import GeneratorConfig, generate_dataset
from augbound.encoder import TrainConfig, flat_params, init_encoder, train

_NORM = {"info_nce": "sphere", "cross_corr": "batch_standardized"}
# Fixture name: loss, output_dim, num_classes.
_FIXTURES = {
    "info_nce_d2_k2": ("info_nce", 2, 2),
    "cross_corr_d2_k2": ("cross_corr", 2, 2),
    "info_nce_d8_k4": ("info_nce", 8, 4),
}
_CENTERS = {
    2: ((-2.0, 0.0), (2.0, 0.0)),
    4: ((2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0)),
}


def _blob_dataset(num_classes):
    return generate_dataset(
        GeneratorConfig(
            num_classes=num_classes,
            samples_per_class=6,
            cluster_centers=_CENTERS[num_classes],
            cluster_spread=0.02,
            manifold="gaussian_blobs",
            seed=0,
        )
    )


def _blob_aug():
    return AugmentationSet(
        transforms=(identity(), additive_shift((0.03, 0.0))), grid_resolution=3
    )


def _ring_aug():
    return AugmentationSet(
        transforms=(identity(), rotation_2d((0, 1), 1.4, 2.0), scaling(0.85, 1.15, 2.0)),
        grid_resolution=5,
    )


@pytest.mark.parametrize("fixture", sorted(_FIXTURES))
def test_train_250_steps(benchmark, fixture):
    loss, output_dim, num_classes = _FIXTURES[fixture]
    dataset = _blob_dataset(num_classes)
    aug = _blob_aug()
    model = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=output_dim, norm_mode=_NORM[loss],
        radius=1.0, seed=0,
    )
    config = TrainConfig(
        loss=loss, steps=250, batch_size=8, learning_rate=0.05, seed=0
    )
    _, trace = benchmark(train, model, dataset, aug, config)
    assert trace.shape == (250, 4)


def test_train_hidden_tanh_cross_corr_250_steps(benchmark):
    model = init_encoder(
        input_dim=2, hidden_dims=(8,), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=0,
    )
    config = TrainConfig(
        loss="cross_corr", steps=250, batch_size=8, learning_rate=0.05, seed=0
    )
    _, trace = benchmark(train, model, _blob_dataset(2), _blob_aug(), config)
    assert trace.shape == (250, 4)


def _ring_dataset():
    return generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=14,
            cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
            cluster_spread=3.2,
            manifold="ring_segments",
            seed=0,
            disjoint_classes=False,
        )
    )


def test_train_ring_300_steps(benchmark):
    dataset = _ring_dataset()
    aug = _ring_aug()
    assert aug.num_views == 26
    model = init_encoder(
        input_dim=3, hidden_dims=(), output_dim=2, norm_mode="sphere", radius=1.0, seed=0
    )
    config = TrainConfig(
        loss="info_nce", steps=300, batch_size=16, learning_rate=0.1, seed=0
    )
    _, trace = benchmark(train, model, dataset, aug, config)
    assert trace.shape == (300, 4)


def test_train_ring_pairs_lockstep_6_levels_300_steps(benchmark):
    catalog = (
        rotation_2d((0, 1), 1.4, 2.0),
        rotation_2d((0, 1), 0.6, 2.0),
        scaling(0.85, 1.15, 2.0),
        additive_shift((0.0, 0.25, 0.0)),
    )
    augs = [
        AugmentationSet(transforms=(identity(), a, b), grid_resolution=5)
        for a, b in combinations(catalog, 2)
    ]
    assert len(augs) == 6 and all(aug.num_views == 26 for aug in augs)
    model = init_encoder(
        input_dim=3, hidden_dims=(), output_dim=2, norm_mode="sphere", radius=1.0, seed=0
    )
    config = TrainConfig(
        loss="info_nce", steps=300, batch_size=16, learning_rate=0.1, seed=0
    )
    results = benchmark(encoder._train_stack, [model] * 6, _ring_dataset(), augs, config)
    assert all(trace.shape == (300, 4) for _, trace in results)


def test_train_ladder_cross_corr_100_steps(benchmark):
    dataset = _ring_dataset()
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
    model = init_encoder(
        input_dim=3, hidden_dims=(), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=0,
    )
    config = TrainConfig(
        loss="cross_corr", steps=100, batch_size=16, learning_rate=0.1, seed=0
    )
    _, trace = benchmark(train, model, dataset, aug, config)
    assert trace.shape == (100, 4)


def test_draw_chunk_info_nce_d2_k2_250_steps(benchmark):
    dataset = _blob_dataset(2)
    rng = np.random.default_rng(0)
    views = benchmark(encoder._sample_chunk, dataset, _blob_aug(), 8, 250, 3, rng)
    assert views.shape == (250 * 3 * 8, 2)


def test_draw_chunk_ring_300_steps(benchmark):
    aug = _ring_aug()
    assert aug.num_views == 26
    rng = np.random.default_rng(0)
    views = benchmark(encoder._sample_chunk, _ring_dataset(), aug, 16, 300, 3, rng)
    assert views.shape == (300 * 3 * 16, 3)


@pytest.mark.parametrize("fixture", ["info_nce_d2_k2", "cross_corr_d2_k2"])
def test_step_loop_250_steps(benchmark, fixture):
    loss, output_dim, num_classes = _FIXTURES[fixture]
    model = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=output_dim, norm_mode=_NORM[loss],
        radius=1.0, seed=0,
    )
    config = TrainConfig(loss=loss, steps=250, batch_size=8, learning_rate=0.05, seed=0)
    k = 3 if loss == "info_nce" else 2
    rng = np.random.default_rng(0)
    views = encoder._sample_chunk(_blob_dataset(num_classes), _blob_aug(), 8, 250, k, rng)
    views = views.reshape(250, k * 8, -1)
    lr = np.array(config.learning_rate)

    def step_loop():
        params = flat_params(model)
        ws = encoder._workspace(model, params, k, 8, config)
        kept = np.empty((250, *ws.kept.shape))
        stats = np.empty((250, *ws.cols.shape[1:]))
        for s in range(250):
            kept[s] = encoder._gradient(ws, views[s], stats[s])
            params -= np.multiply(lr, ws.flat_grad, out=ws.update)
        return params

    params = benchmark(step_loop)
    assert np.isfinite(params).all()
    if benchmark.stats is not None:  # None when run with --benchmark-disable
        benchmark.extra_info["us_per_step"] = benchmark.stats.stats.median / 250 * 1e6
