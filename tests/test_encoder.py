"""Encoder forward conventions, manual gradients, training, Lipschitz."""

import dataclasses
import math
import re
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import forward, load_model
from augbound import encoder, losses
from augbound.augment import (
    TILE_BYTES,
    AugmentationSet,
    additive_shift,
    coordinate_permutation,
    identity,
    rotation_2d,
    scaling,
    sign_flip_mask,
)
from augbound.core import Dataset, GeneratorConfig, generate_dataset
from augbound.evaluation import embed_views
from augbound.encoder import (
    MAX_LAYERS,
    EncoderModel,
    Layer,
    TrainConfig,
    ViewBatch,
    flat_params,
    forward_prenorm,
    init_encoder,
    lipschitz_upper_bound,
    loss_and_gradient,
    make_train_batch,
    operator_norm,
    save_model,
    train,
    with_params,
)


def _identity_sphere_model(dim=2):
    model = init_encoder(
        input_dim=dim, hidden_dims=(), output_dim=dim, norm_mode="sphere", seed=0
    )
    flat = np.concatenate([np.eye(dim).ravel(), np.zeros(dim)])
    return with_params(model, flat)


def _blob_dataset(seed=0, spread=0.15, samples=16):
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=samples,
        cluster_centers=((-2.0, 0.0), (2.0, 0.0)),
        cluster_spread=spread,
        manifold="gaussian_blobs",
        seed=seed,
    )
    return generate_dataset(cfg)


def _shift_aug():
    return AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.2))), grid_resolution=3
    )


def test_sphere_projection_of_3_4():
    model = _identity_sphere_model()
    z = forward(model, np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(z, [[0.6, 0.8]], atol=1e-12)


def test_sphere_rejects_zero_vector():
    model = _identity_sphere_model()
    with pytest.raises(ValueError, match="zero vector"):
        forward(model, np.array([[0.0, 0.0]]))


def test_sphere_norms_exact():
    model = init_encoder(
        input_dim=3, hidden_dims=(8,), output_dim=4, norm_mode="sphere", seed=1
    )
    rng = np.random.default_rng(0)
    z = forward(model, rng.normal(size=(32, 3)))
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
    # A sphere of radius r is the unit embeddings scaled by r.
    np.testing.assert_allclose(np.linalg.norm(2.5 * z, axis=1), 2.5, atol=1e-9)


def test_batch_standardized_statistics():
    model = init_encoder(
        input_dim=3, hidden_dims=(6,), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=2,
    )
    rng = np.random.default_rng(1)
    z = forward(model, rng.normal(size=(64, 3)))
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-7)
    np.testing.assert_allclose((z**2).mean(axis=0), 1.0, atol=1e-7)


def test_architecture_depth_is_capped():
    with pytest.raises(ValueError, match="hidden layers"):
        init_encoder(
            input_dim=2, hidden_dims=(4, 4, 4), output_dim=2, norm_mode="sphere",
            radius=1.0, seed=0,
        )


@pytest.mark.parametrize("radius", [2.5, float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_init_encoder_refuses_every_radius_but_one(radius):
    # A sphere model projects onto the unit sphere; NaN is unequal to 1 too.
    with pytest.raises(ValueError, match="radius must be 1"):
        init_encoder(2, (), 2, "sphere", radius, 0)
    assert init_encoder(2, (), 2, "sphere", 1.0, 0).norm_mode == "sphere"


def _loss_value(model, batch, config):
    breakdown, _ = loss_and_gradient(model, batch, config)
    return breakdown.total


def _fd_gradient(model, batch, config, step=1e-5):
    base = flat_params(model)
    grad = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        up = _loss_value(with_params(model, plus), batch, config)
        down = _loss_value(with_params(model, minus), batch, config)
        grad[i] = (up - down) / (2 * step)
    return grad


def _random_case(rng, loss):
    norm_mode = "batch_standardized" if loss == "cross_corr" else "sphere"
    dims = int(rng.integers(2, 5))
    hidden = (int(rng.integers(3, 7)),) if rng.random() < 0.7 else ()
    model = init_encoder(
        input_dim=dims, hidden_dims=hidden, output_dim=int(rng.integers(2, 4)),
        norm_mode=norm_mode, radius=1.0, seed=int(rng.integers(10_000)),
    )
    b = int(rng.integers(4, 9))
    anchors = rng.normal(size=(b, dims))
    positives = anchors + 0.1 * rng.normal(size=(b, dims))
    negatives = rng.normal(size=(b, dims)) if loss != "cross_corr" else None
    batch = ViewBatch(anchors=anchors, positives=positives, negatives=negatives)
    config = TrainConfig(
        loss=loss, steps=1, batch_size=b, learning_rate=0.1,
        seed=0, lam=float(rng.uniform(0.05, 0.8)),
    )
    return model, batch, config


@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_gradients_match_finite_differences(loss):
    rng = np.random.default_rng(77)
    for _ in range(6):
        model, batch, config = _random_case(rng, loss)
        _, analytic = loss_and_gradient(model, batch, config)
        numeric = _fd_gradient(model, batch, config)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-4


def test_gradient_vanishes_at_full_collapse():
    # Every input identical: all embeddings coincide, every embedding
    # gradient is radial, and the sphere projection kills radial parts.
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=3,
    )
    x = np.tile(np.array([[0.7, -0.4]]), (6, 1))
    batch = ViewBatch(anchors=x, positives=x, negatives=x)
    for loss in ("info_nce", "simple"):
        config = TrainConfig(
            loss=loss, steps=1, batch_size=6, learning_rate=0.1, seed=0, lam=0.5
        )
        _, grad = loss_and_gradient(model, batch, config)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_loss_and_gradient_is_deterministic():
    rng = np.random.default_rng(5)
    model, batch, config = _random_case(rng, "info_nce")
    b1, g1 = loss_and_gradient(model, batch, config)
    b2, g2 = loss_and_gradient(model, batch, config)
    assert b1.total == b2.total
    np.testing.assert_array_equal(g1, g2)


def test_loss_value_matches_losses_module():
    from augbound.losses import info_nce

    rng = np.random.default_rng(6)
    model, batch, config = _random_case(rng, "info_nce")
    breakdown, _ = loss_and_gradient(model, batch, config)
    z1 = forward(model, batch.anchors)
    z2 = forward(model, batch.positives)
    zn = forward(model, batch.negatives)
    direct = info_nce(z1, z2, zn)
    assert breakdown.total == pytest.approx(direct.total, abs=1e-12)
    assert breakdown.l1 == pytest.approx(direct.l1, abs=1e-12)


def test_zero_steps_returns_model_unchanged():
    ds = _blob_dataset()
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=4,
    )
    config = TrainConfig(
        loss="info_nce", steps=0, batch_size=4, learning_rate=0.1, seed=0
    )
    trained, trace = train(model, ds, _shift_aug(), config)
    np.testing.assert_array_equal(flat_params(trained), flat_params(model))
    assert trace.shape == (0, 4)


def test_training_reduces_alignment_loss():
    ds = _blob_dataset(seed=1)
    model = init_encoder(
        input_dim=2, hidden_dims=(8,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=5,
    )
    config = TrainConfig(
        loss="info_nce", steps=500, batch_size=8, learning_rate=0.1, seed=6
    )
    trained, trace = train(model, ds, _shift_aug(), config)
    assert trace[-1, 2] < trace[0, 2]  # l1 at the endpoints
    window = 50
    assert trace[-window:, 1].mean() <= trace[:window, 1].mean()
    # sphere norms still exact after training
    z = forward(trained, ds.features)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)


def test_training_is_deterministic():
    ds = _blob_dataset(seed=2)
    aug = _shift_aug()
    config = TrainConfig(
        loss="simple", steps=40, batch_size=6, learning_rate=0.05, seed=11, lam=0.4
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(5,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=7,
    )
    t1, trace1 = train(model, ds, aug, config)
    t2, trace2 = train(model, ds, aug, config)
    np.testing.assert_array_equal(flat_params(t1), flat_params(t2))
    np.testing.assert_array_equal(trace1, trace2)


def test_divergence_aborts_with_step_index():
    ds = _blob_dataset(seed=3)
    model = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=8,
    )
    before = flat_params(model)
    config = TrainConfig(
        loss="info_nce", steps=10, batch_size=4,
        learning_rate=float("inf"), seed=1,
    )
    with pytest.raises(RuntimeError, match="diverged at step 0"):
        train(model, ds, _shift_aug(), config)
    # Parameters are updated in place during training, never the caller's.
    np.testing.assert_array_equal(flat_params(model), before)


def _public_breakdown(model, batch, config):
    """The validating loss of ``losses`` on the embeddings of the stacked views."""
    views = [batch.anchors, batch.positives]
    if batch.negatives is not None:
        views.append(batch.negatives)
    z = forward(model, np.concatenate(views))
    b = batch.size
    z1, z2, zn = z[:b], z[b : 2 * b], z[2 * b :]
    if config.loss == "info_nce":
        return losses.info_nce(z1, z2, zn)
    if config.loss == "simple":
        return losses.simple_contrastive(z1, z2, zn, config.lam)
    return losses.cross_corr_loss(losses.cross_correlation(z1, z2), config.lam)


def _reference_train(model, dataset, aug, config):
    """The training loop that rebuilds a validated model after every step.

    Each step's breakdown must equal the public loss of ``losses`` on the
    batch embeddings, so the oracle does not rest on the kernel that both
    ``loss_and_gradient`` and ``train`` call.
    """
    rng = np.random.default_rng(config.seed)
    params = flat_params(model)
    current = model
    with_negatives = config.loss in ("info_nce", "simple")
    trace = np.empty((config.steps, 4))
    for step in range(config.steps):
        batch = make_train_batch(dataset, aug, config.batch_size, rng, with_negatives)
        breakdown, grad = loss_and_gradient(current, batch, config)
        assert breakdown == _public_breakdown(current, batch, config), step
        trace[step] = (step, breakdown.total, breakdown.l1, breakdown.l2)
        params = params - config.learning_rate * grad
        current = with_params(current, params)
    return current, trace


_ORACLE_AUGS = {
    "perm_sign_shift": AugmentationSet(
        transforms=(
            identity(),
            coordinate_permutation((1, 0, 2)),
            sign_flip_mask((-1.0, 1.0, -1.0)),
            additive_shift((0.1, 0.0, 0.2)),
        ),
        grid_resolution=3,
    ),
    "rotation_scale": AugmentationSet(
        transforms=(identity(), rotation_2d((0, 2), 0.7, 3.0), scaling(0.8, 1.2, 3.0)),
        grid_resolution=3,
    ),
}


def _oracle_case(loss, steps):
    ds = generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=10,
            cluster_centers=((-2.0, 0.0, 0.5), (2.0, 0.0, -0.5)),
            cluster_spread=0.2,
            manifold="gaussian_blobs",
            seed=4,
        )
    )
    model = init_encoder(
        input_dim=3, hidden_dims=(5, 4), output_dim=3,
        norm_mode="batch_standardized" if loss == "cross_corr" else "sphere",
        radius=1.0, seed=17,
    )
    config = TrainConfig(
        loss=loss, steps=steps, batch_size=8, learning_rate=0.05, seed=3, lam=0.3
    )
    return ds, model, config


def _step_bytes(ds, model, config, levels=1):
    """Bytes a chunk holds per step for ``levels`` levels: each level's k·B
    views of D features, its kept embeddings (k·B·d, or the d × d F for
    cross_corr) and its norms (k·B, sphere) or variances (d)."""
    k = 2 if config.loss == "cross_corr" else 3
    kb, d = k * config.batch_size, model.output_dim
    kept = d * d if config.loss == "cross_corr" else kb * d
    stat = kb if model.norm_mode == "sphere" else d
    return 8 * levels * (kb * ds.input_dim + kept + stat)


@pytest.mark.parametrize("aug_name", sorted(_ORACLE_AUGS))
@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_train_matches_reference_loop_bit_for_bit(loss, aug_name, monkeypatch):
    ds, model, config = _oracle_case(loss, steps=60)
    aug = _ORACLE_AUGS[aug_name]
    before = flat_params(model)
    ref_model, ref_trace = _reference_train(model, ds, aug, config)
    step_bytes = _step_bytes(ds, model, config)
    chunks = _record_loss_passes(monkeypatch)
    # The default budget holds all 60 steps; then chunks of 1 step, of 7
    # (a 4-step last chunk), of 59 (a 1-step last chunk) and of 60.
    expected_chunks = {None: [60], 1: [1] * 60, 7: [7] * 8 + [4], 59: [59, 1], 60: [60]}
    for chunk_steps in (None, 1, 7, 59, 60):
        if chunk_steps is not None:
            monkeypatch.setattr(encoder, "TILE_BYTES", chunk_steps * step_bytes + step_bytes // 2)
        chunks.clear()
        trained, trace = train(model, ds, aug, config)
        # One vectorized loss pass per chunk.
        assert chunks == expected_chunks[chunk_steps]
        np.testing.assert_array_equal(trace, ref_trace)
        np.testing.assert_array_equal(flat_params(trained), flat_params(ref_model))
        np.testing.assert_array_equal(flat_params(model), before)
        for new, old in zip(trained.layers, model.layers):
            assert not np.shares_memory(new.weight, old.weight)


@pytest.mark.parametrize("steps", [0, 1])
@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_train_matches_reference_loop_for_zero_and_one_step(loss, steps):
    ds, model, config = _oracle_case(loss, steps=steps)
    aug = _ORACLE_AUGS["rotation_scale"]
    trained, trace = train(model, ds, aug, config)
    ref_model, ref_trace = _reference_train(model, ds, aug, config)
    assert trace.shape == (steps, 4)
    np.testing.assert_array_equal(trace, ref_trace)
    np.testing.assert_array_equal(flat_params(trained), flat_params(ref_model))


def _record_loss_passes(monkeypatch):
    """Wrap ``encoder._loss_terms``; the returned list gets each call's step count."""
    steps = []
    real = encoder._loss_terms

    def recording(stack, b, config):
        steps.append(len(stack))
        return real(stack, b, config)

    monkeypatch.setattr(encoder, "_loss_terms", recording)
    return steps


def _one_pass_loss_and_gradient(model, batch, config):
    """The one-pass step that computed each step's loss beside its gradient:
    per-batch loss kernels, ``np.diag`` and ``np.fill_diagonal``, and a
    gradient built by ``ravel`` and ``concatenate``. An oracle for the
    split into a gradient half and a vectorized loss pass.

    The gradient's sums are the step's products with vectors of ones: the
    InfoNCE score difference z1·(z_neg − z2) over the embedding dimensions
    and the bias gradient over the batch rows. The loss values keep the
    kernels' sums."""
    b = batch.size
    views = [batch.anchors, batch.positives]
    if config.loss != "cross_corr":
        views.append(batch.negatives)
    y, activations = oracles.forward_layers(model, np.concatenate(views))
    sums = encoder._sums(*y.shape)
    z, stat = encoder._norm_forward(model, y, sums)
    z1, z2, zn = z[:b], z[b : 2 * b], z[2 * b :]
    ones_d, ones_n = np.ones((z.shape[1], 1)), np.ones(len(z))
    lam = config.lam

    def mean(values):
        return float(values.sum()) / values.size

    l1 = mean(((z1 - z2) ** 2).sum(axis=1)) / 2.0 - 1.0
    dz = np.empty_like(z)
    blocks = dz.reshape(-1, b, z.shape[1])
    if config.loss == "info_nce":
        l2 = mean(np.logaddexp((z1 * z2).sum(axis=1), (z1 * zn).sum(axis=1)))
        q = encoder._expit((z1 * (zn - z2)) @ ones_d) / b
        np.multiply(q, zn - z2, out=blocks[0])
        np.multiply(q, z1, out=blocks[2])
        np.negative(blocks[2], out=blocks[1])
    elif config.loss == "simple":
        l2 = mean((z1 * zn).sum(axis=1))
        np.multiply(lam, zn, out=blocks[0])
        blocks[0] -= z2
        np.negative(z1, out=blocks[1])
        np.multiply(lam, z1, out=blocks[2])
        dz /= b
    else:
        raw = z1.T @ z2 / b
        f = (raw + raw.T) / 2.0
        l1 = float(((1.0 - np.diag(f)) ** 2).sum())
        l2 = float(((f - np.eye(len(f))) ** 2).sum())
        g = (2.0 * lam / b) * f
        np.fill_diagonal(g, (-2.0 / b) * (1.0 - np.diag(f)))
        np.matmul(np.stack((z2, z1)), g, out=blocks)
    if model.norm_mode == "sphere":
        grad = (dz - z * ((dz * z) @ ones_d)) / stat
    else:
        grad = (dz - sums.col_mean @ dz - z * (sums.col_mean @ (dz * z))) / stat
    parts = []
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        post = activations[i + 1]
        d_pre = grad * (1.0 - post**2) if layer.activation == "tanh" else grad
        parts += (ones_n @ d_pre, (d_pre.T @ activations[i]).ravel())
        if i:
            grad = d_pre @ layer.weight
    lam = 1.0 if config.loss == "info_nce" else lam
    breakdown = losses.LossBreakdown(kind=config.loss, l1=l1, l2=l2, lam=lam)
    return breakdown, np.concatenate(parts[::-1])


@pytest.mark.parametrize("hidden_dims", [(4,), (5, 3)])
def test_forward_prenorm_is_the_oracle_layer_pass_bit_for_bit(hidden_dims):
    # Hidden tanh layers and a linear head from init_encoder, and the same
    # weights with a tanh head too.
    rng = np.random.default_rng(len(hidden_dims))
    model = init_encoder(3, hidden_dims, 2, seed=4)
    all_tanh = EncoderModel(tuple(Layer(l.weight, l.bias, "tanh") for l in model.layers))
    x = rng.normal(scale=2.0, size=(37, 3))
    for m in (model, all_tanh):
        y, activations = oracles.forward_layers(m, x)
        assert len(activations) == len(m.layers) + 1
        assert forward_prenorm(m, x).tobytes() == y.tobytes()
    assert forward_prenorm(model, x).tobytes() != forward_prenorm(all_tanh, x).tobytes()


@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_loss_and_gradient_matches_the_one_pass_step_bit_for_bit(loss):
    rng = np.random.default_rng(78)
    for _ in range(12):
        model, batch, config = _random_case(rng, loss)
        breakdown, grad = loss_and_gradient(model, batch, config)
        expected, expected_grad = _one_pass_loss_and_gradient(model, batch, config)
        assert breakdown == expected
        assert grad.tobytes() == expected_grad.tobytes()
    for steps in (1, 3):
        ds, model, config = _oracle_case(loss, steps=steps)
        rng = np.random.default_rng(config.seed)
        for _ in range(steps):
            batch = make_train_batch(
                ds, _ORACLE_AUGS["perm_sign_shift"], config.batch_size, rng, loss != "cross_corr"
            )
            breakdown, grad = loss_and_gradient(model, batch, config)
            expected, expected_grad = _one_pass_loss_and_gradient(model, batch, config)
            assert breakdown == expected
            assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize("hidden", [(), (6,)])
@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_gradient_is_within_its_rounding_of_the_reduce_formulation(loss, hidden):
    # The step's sums are products with vectors of ones, in BLAS's order;
    # np.add.reduce sums pairwise. The two gradients differ by rounding
    # only, which scales with the magnitude of the summed terms.
    rng = np.random.default_rng(79)
    eps = np.finfo(np.float64).eps
    for _ in range(20):
        model, batch, config = _random_case(rng, loss)
        model = init_encoder(
            input_dim=model.input_dim, hidden_dims=hidden, output_dim=model.output_dim,
            norm_mode=model.norm_mode, radius=1.0, seed=int(rng.integers(10_000)),
        )
        _, grad = loss_and_gradient(model, batch, config)
        expected, magnitude = oracles.reduce_gradient(model, batch, config)
        assert np.linalg.norm(grad - expected) <= 64 * eps * np.linalg.norm(magnitude)


def _per_step_views(ds, aug, b, steps, views_per_step, rng):
    """A chunk's views from ``make_train_batch`` called once per step."""
    views = []
    for _ in range(steps):
        batch = make_train_batch(ds, aug, b, rng, with_negatives=views_per_step == 3)
        views += [batch.anchors, batch.positives]
        if views_per_step == 3:
            views.append(batch.negatives)
    return np.concatenate(views)


def _record_fallbacks(monkeypatch):
    """Wrap ``encoder._block_draws``; the returned list gets the step count
    of each chunk it declines, which then falls back to per-step batches."""
    steps = []
    real = encoder._block_draws

    def recording(num_samples, num_discrete, rng, idx, uniforms, disc_idx):
        decoded = real(num_samples, num_discrete, rng, idx, uniforms, disc_idx)
        if not decoded:
            steps.append(len(idx))
        return decoded

    monkeypatch.setattr(encoder, "_block_draws", recording)
    return steps


def _assert_chunks_match(ds, aug, b, views_per_step, chunk_steps, rng, twin):
    """Sample consecutive chunks from ``rng`` and the same steps per step
    from ``twin``: equal views and equal whole generator states after each."""
    for steps in chunk_steps:
        views = encoder._sample_chunk(ds, aug, b, steps, views_per_step, rng)
        expected = _per_step_views(ds, aug, b, steps, views_per_step, twin)
        np.testing.assert_array_equal(views, expected)
        # assert_equal compares nested dicts; MT19937 keeps an array key.
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("aug_name", ["identity_only", *sorted(_ORACLE_AUGS)])
@pytest.mark.parametrize("views_per_step", [2, 3])
def test_sample_chunk_draws_what_the_per_step_batches_draw(aug_name, views_per_step):
    # identity_only and rotation_scale have one discrete member, whose
    # coins and parameters one random call fills; perm_sign_shift has three,
    # with the index draw between them.
    aug = _ORACLE_AUGS.get(aug_name, AugmentationSet(transforms=(identity(),)))
    ds, _, _ = _oracle_case("info_nce", steps=1)
    b, steps = 8, 6
    rng = np.random.default_rng(31)
    views = encoder._sample_chunk(ds, aug, b, steps, views_per_step, rng)
    twin = np.random.default_rng(31)
    expected = _per_step_views(ds, aug, b, steps, views_per_step, twin)
    np.testing.assert_array_equal(views, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


_DRAW_AUGS = {
    "identity_only": AugmentationSet(transforms=(identity(),)),
    **_ORACLE_AUGS,
}


@pytest.mark.parametrize("aug_name", sorted(_DRAW_AUGS))
@pytest.mark.parametrize("views_per_step", [2, 3])
@pytest.mark.parametrize("b", [5, 7, 8])
def test_block_draws_match_the_per_call_stream_across_steps_and_chunks(
    b, views_per_step, aug_name, monkeypatch
):
    # With an odd batch a step may make an odd number of bounded draws, so
    # the held half-word crosses calls, steps and chunk boundaries.
    ds, _, _ = _oracle_case("info_nce", steps=1)
    fallbacks = _record_fallbacks(monkeypatch)
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    _assert_chunks_match(ds, _DRAW_AUGS[aug_name], b, views_per_step, (1, 3, 2, 5), rng, twin)
    assert fallbacks == []


@pytest.mark.parametrize("aug_name", ["rotation_scale", "perm_sign_shift"])
@pytest.mark.parametrize("views_per_step", [2, 3])
def test_block_draws_of_a_one_sample_dataset(views_per_step, aug_name, monkeypatch):
    # Index draws with a bound of 1 take nothing from the generator; with
    # one discrete member (rotation_scale) no bounded draw is left at all.
    ds = Dataset(features=[[0.5, -1.0, 2.0]], labels=[0])
    aug = _ORACLE_AUGS[aug_name]
    assert aug.num_discrete == (1 if aug_name == "rotation_scale" else 3)
    fallbacks = _record_fallbacks(monkeypatch)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    for gen in (rng, twin):
        gen.integers(0, 5, 1)
    _assert_chunks_match(ds, aug, 5, views_per_step, (1, 2, 3), rng, twin)
    assert fallbacks == []


@pytest.mark.parametrize("aug_name", sorted(_DRAW_AUGS))
@pytest.mark.parametrize("b", [5, 8])
def test_block_draws_start_from_a_held_half_word(b, aug_name, monkeypatch):
    ds, _, _ = _oracle_case("info_nce", steps=1)
    fallbacks = _record_fallbacks(monkeypatch)
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    for gen in (rng, twin):
        gen.integers(0, 5, 1)
        assert gen.bit_generator.state["has_uint32"] == 1
    _assert_chunks_match(ds, _DRAW_AUGS[aug_name], b, 3, (1, 4), rng, twin)
    assert fallbacks == []


def test_block_draws_fall_back_for_a_bit_generator_other_than_pcg64(monkeypatch):
    ds, _, _ = _oracle_case("info_nce", steps=1)
    fallbacks = _record_fallbacks(monkeypatch)
    rng = np.random.Generator(np.random.MT19937(5))
    twin = np.random.Generator(np.random.MT19937(5))
    _assert_chunks_match(ds, _ORACLE_AUGS["perm_sign_shift"], 7, 3, (2, 3), rng, twin)
    assert fallbacks == [2, 3]


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_with_word(word, index, inc):
    """A PCG64 state whose ``index``-th raw 64-bit output is ``word``.

    PCG64 steps its 128-bit LCG state s to s·a + inc, then outputs the xor
    of the new state's halves rotated right by its top 6 bits. So a state
    with that output is chosen, then stepped back ``index + 1`` times.
    """
    hi = 0x0123456789ABCDEF
    rot = hi >> 58
    mixed = ((word << rot) | (word >> (64 - rot))) & (2**64 - 1)
    state = (hi << 64) | (mixed ^ hi)
    inverse = pow(_PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(index + 1):
        state = (state - inc) * inverse % 2**128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _words_between(start, end):
    """How many raw 64-bit words take a PCG64 generator from state ``start`` to ``end``."""
    probe = np.random.PCG64()
    probe.state = start
    for count in range(10_000):
        if probe.state["state"] == end["state"]:
            return count
        probe.advance(1)
    raise AssertionError("states too far apart")


@pytest.mark.parametrize("numpy_rejects", [True, False])
def test_block_draws_fall_back_at_a_rejection_candidate(numpy_rejects, monkeypatch):
    # Step 3's anchor indices (bound N = 20) read a word with both halves
    # u. With u = 0, (u·N) mod 2^32 = 0 is below numpy's threshold
    # (2^32 - N) mod N = 16, and numpy redraws; with u·N = 16 mod 2^32 the
    # draw is a candidate that numpy keeps. The block decode cannot tell
    # the two apart, so both must restore the state and fall back.
    ds, _, _ = _oracle_case("info_nce", steps=1)
    n, b, aug = ds.num_samples, 7, _ORACLE_AUGS["perm_sign_shift"]
    assert n == 20 and (2**32 - n) % n == 16
    u = 0 if numpy_rejects else 4 * pow(5, -1, 2**30) % 2**30
    assert u * n % 2**32 == (0 if numpy_rejects else 16)
    seeded = np.random.default_rng(3).bit_generator.state
    prefix = np.random.default_rng(3)
    _per_step_views(ds, aug, b, 3, 3, prefix)
    index = _words_between(seeded, prefix.bit_generator.state)
    state = _pcg64_state_with_word(u | u << 32, index, seeded["state"]["inc"])
    probe = np.random.PCG64()
    probe.state = state
    assert probe.random_raw(index + 1)[-1] == u | u << 32
    fallbacks = _record_fallbacks(monkeypatch)
    rng, twin = np.random.default_rng(), np.random.default_rng()
    rng.bit_generator.state = twin.bit_generator.state = state
    _assert_chunks_match(ds, aug, b, 3, (5, 2), rng, twin)
    # Only the chunk that holds the candidate falls back.
    assert fallbacks == [5]


def _reference_divergence_step(model, dataset, aug, config):
    """The first step of the per-step loop with a non-finite loss, gradient
    or update, the step at which ``train`` must stop; None if there is none."""
    rng = np.random.default_rng(config.seed)
    params = flat_params(model)
    current = model
    for step in range(config.steps):
        batch = make_train_batch(dataset, aug, config.batch_size, rng, config.loss != "cross_corr")
        try:
            _, grad = loss_and_gradient(current, batch, config)
        except ValueError as exc:  # a non-finite loss term is refused
            assert "loss terms must be finite" in str(exc)
            return step
        params = params - config.learning_rate * grad
        if not (np.isfinite(grad).all() and np.isfinite(params).all()):
            return step
        current = with_params(current, params)
    return None


def _pole_collapse():
    """A dataset and sphere model whose every sample but one sits at the
    origin, where the hidden layer gives 0 and the head gives the pole
    (1, 0): a collapse with an exactly zero gradient, so the parameters do
    not move until a batch draws the outlier. The outlier's first step has
    a hidden-bias gradient above 1.8, which a rate of 1e308 overflows to
    ±inf; after it the hidden units saturate and the embeddings stay
    finite."""
    rng = np.random.default_rng(0)
    features = np.zeros((20, 2))
    features[10] = (0.3, -0.4)
    ds = Dataset(features=features, labels=np.repeat([0, 1], 10))
    hidden = Layer(10.0 * rng.standard_normal((4, 2)), np.zeros(4), "tanh")
    head = Layer(100.0 * rng.standard_normal((2, 4)), np.array([1.0, 0.0]), "identity")
    return ds, EncoderModel((hidden, head), norm_mode="sphere")


def test_divergence_inside_a_chunk_reports_the_per_step_index(monkeypatch):
    # The run diverges at the first step that draws the outlier of
    # _pole_collapse, in the middle of a chunk: its update overflows.
    ds, model = _pole_collapse()
    aug = _IDENTITY_ONLY
    config = TrainConfig(
        loss="simple", steps=24, batch_size=2, learning_rate=1e308, seed=4, lam=0.5
    )
    with np.errstate(all="ignore"):
        step = _reference_divergence_step(model, ds, aug, config)
        assert step is not None and step % 7 not in (0, 6)
        step_bytes = _step_bytes(ds, model, config)
        for tile_bytes in (TILE_BYTES, 7 * step_bytes):
            monkeypatch.setattr(encoder, "TILE_BYTES", tile_bytes)
            with pytest.raises(RuntimeError, match=f"diverged at step {step}$"):
                train(model, ds, aug, config)


def test_non_finite_loss_of_a_chunk_reports_its_first_step(monkeypatch):
    # The loop's parameter check always fires first; the check after the
    # loss pass is a backstop, reached here through a poisoned loss pass.
    ds, model, config = _oracle_case("info_nce", steps=20)
    step_bytes = _step_bytes(ds, model, config)
    monkeypatch.setattr(encoder, "TILE_BYTES", 7 * step_bytes)
    real = encoder._loss_terms

    def poisoned(stack, b, config):
        l1, l2 = real(stack, b, config)
        if len(stack) == 7 and not poisoned.done:
            poisoned.done = True
            return l1, l2
        l2[[3, 5]] = np.nan
        return l1, l2

    poisoned.done = False
    monkeypatch.setattr(encoder, "_loss_terms", poisoned)
    with pytest.raises(RuntimeError, match="diverged at step 10$"):
        train(model, ds, _ORACLE_AUGS["rotation_scale"], config)


_IDENTITY_ONLY = AugmentationSet(transforms=(identity(),))


def _per_step_failure(model, dataset, aug, config):
    """The first failure of the per-step loop with every step's checks: its
    step and exception, or (None, None) if all steps pass."""
    rng = np.random.default_rng(config.seed)
    params = flat_params(model)
    current = model
    for step in range(config.steps):
        batch = make_train_batch(dataset, aug, config.batch_size, rng, config.loss != "cross_corr")
        try:
            _, grad = loss_and_gradient(current, batch, config)
        except ValueError as exc:
            return step, exc
        params = params - config.learning_rate * grad
        if not np.isfinite(params).all():
            return step, RuntimeError(f"training diverged at step {step}")
        current = with_params(current, params)
    return None, None


def _record_gradient_calls(monkeypatch):
    """Wrap ``encoder._gradient``; the returned list gets, per call, whether
    the step checked its own norms or variances (the replay of a chunk)."""
    calls = []
    real = encoder._gradient

    def recording(ws, x, stat=None):
        calls.append(stat is None)
        return real(ws, x, stat)

    monkeypatch.setattr(encoder, "_gradient", recording)
    return calls


def _assert_train_fails_as_the_per_step_loop(model, ds, config, expected, monkeypatch):
    """``train`` raises the per-step loop's exception type and message at
    its step: the steps before it pass unchecked, and the failing chunk, run
    unchecked first, is replayed with every step's checks up to that step.
    No warning escapes, and the caller's error state is kept."""
    step, exc = _per_step_failure(model, ds, _IDENTITY_ONLY, config)
    assert type(exc) is expected and 0 < step < config.steps - 1
    calls = _record_gradient_calls(monkeypatch)
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train(model, ds, _IDENTITY_ONLY, dataclasses.replace(config, steps=step))
        assert np.geterr() == state
        assert calls == [False] * step
        calls.clear()
        with pytest.raises(expected, match=f"^{re.escape(str(exc))}$"):
            train(model, ds, _IDENTITY_ONLY, config)
        assert np.geterr() == state
    unchecked = len(calls) - (step + 1)
    assert unchecked > 0 and calls == [False] * unchecked + [True] * (step + 1)


# The caller's floating-point error state: numpy's default, and everything ignored.
_ERRSTATES = [{}, {"all": "ignore"}]


def _near_origin_case():
    """A dataset, sphere model and config whose run stops at step s with a
    norm below the floor: sample j is first drawn at step s and is placed
    where the layer, as it stands at step s, maps it 1e-14 from the origin,
    below the 1e-12 the projection needs. The steps before s never read it.
    The norm is not zero, so the updates stay finite: only the check of the
    norms sees the failure. Returns the dataset, model, config and s."""
    rng = np.random.default_rng(40)
    features = rng.uniform(-1.0, 1.0, (40, 2))
    labels = np.repeat([0, 1], 20)
    model = init_encoder(2, (), 2, "sphere", 1.0, seed=41)
    config = TrainConfig(loss="info_nce", steps=24, batch_size=2, learning_rate=0.1, seed=42)
    first = np.full(len(features), config.steps)
    draws = np.random.default_rng(config.seed)
    for step in range(config.steps):
        batch = make_train_batch(Dataset(features, labels), _IDENTITY_ONLY, 2, draws, True)
        for row in np.concatenate((batch.anchors, batch.negatives)):
            j = np.flatnonzero((features == row).all(axis=1))[0]
            first[j] = min(first[j], step)
    j = int(np.argmax(np.where(first < config.steps - 2, first, -1)))
    s = int(first[j])
    assert s > 2
    trained, _ = train(
        model, Dataset(features, labels), _IDENTITY_ONLY, dataclasses.replace(config, steps=s)
    )
    layer = trained.layers[0]
    features[j] = np.linalg.solve(layer.weight, np.array([1e-14, 0.0]) - layer.bias)
    return Dataset(features, labels), model, config, s


@pytest.mark.parametrize("chunk_ends_there", [False, True])
@pytest.mark.parametrize("errstate", _ERRSTATES)
def test_a_zero_norm_inside_a_chunk_raises_at_its_step(errstate, chunk_ends_there, monkeypatch):
    ds, model, config, s = _near_origin_case()
    if chunk_ends_there:
        step_bytes = _step_bytes(ds, model, config)
        monkeypatch.setattr(encoder, "TILE_BYTES", (s + 1) * step_bytes + step_bytes // 2)
    with np.errstate(**errstate):
        _assert_train_fails_as_the_per_step_loop(model, ds, config, ValueError, monkeypatch)


@pytest.mark.parametrize("errstate", _ERRSTATES)
def test_a_zero_variance_inside_a_chunk_raises_at_its_step(errstate, monkeypatch):
    # With two anchors per step and no augmentation, a step whose two
    # anchors are one sample has four equal rows: zero variance.
    rng = np.random.default_rng(40)
    ds = Dataset(features=rng.uniform(-1.0, 1.0, (20, 3)), labels=np.repeat([0, 1], 10))
    model = init_encoder(3, (), 2, "batch_standardized", 1.0, seed=41)
    config = TrainConfig(loss="cross_corr", steps=24, batch_size=2, learning_rate=0.05, seed=5)
    with np.errstate(**errstate):
        _assert_train_fails_as_the_per_step_loop(model, ds, config, ValueError, monkeypatch)


@pytest.mark.parametrize("chunk_ends_there", [False, True])
@pytest.mark.parametrize("errstate", [{"over": "ignore"}, {"all": "ignore"}])
def test_tanh_weights_that_overflow_while_embeddings_stay_finite_raise_at_their_step(
    errstate, chunk_ends_there, monkeypatch
):
    # In _pole_collapse only the parameter check sees the divergence, since
    # the embeddings stay finite. Overflow is ignored because the per-step
    # loop warns of it before it raises.
    ds, model = _pole_collapse()
    config = TrainConfig(loss="info_nce", steps=24, batch_size=2, learning_rate=1e308, seed=3)
    if chunk_ends_there:
        step_bytes = _step_bytes(ds, model, config)
        monkeypatch.setattr(encoder, "TILE_BYTES", 8 * step_bytes + step_bytes // 2)
    with np.errstate(**errstate):
        step, _ = _per_step_failure(model, ds, _IDENTITY_ONLY, config)
        assert step == 7
        _assert_train_fails_as_the_per_step_loop(model, ds, config, RuntimeError, monkeypatch)


def test_a_chunk_that_overflows_is_refused_at_its_step(monkeypatch):
    # Sphere outputs past 1e154 overflow their squared norms, which would
    # project the rows to zero. The unchecked pass stops at the overflow,
    # and the replay of the chunk refuses the norms at step 0, warning of
    # the overflow first, as a loop checked at every step does.
    model = init_encoder(2, (), 2, "sphere", 1.0, seed=0)
    model = with_params(model, 1e160 * flat_params(model))
    config = TrainConfig(loss="info_nce", steps=5, batch_size=4, learning_rate=0.1, seed=0)
    with np.errstate(over="ignore"):
        step, exc = _per_step_failure(model, _blob_dataset(), _shift_aug(), config)
    assert step == 0 and type(exc) is ValueError
    calls = _record_gradient_calls(monkeypatch)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            train(model, _blob_dataset(), _shift_aug(), config)
    assert calls == [False, True]


@pytest.mark.parametrize(
    "norm_mode, loss", [("sphere", "info_nce"), ("batch_standardized", "cross_corr")]
)
def test_outputs_whose_norms_or_variances_overflow_are_refused(norm_mode, loss):
    # Outputs near 1e160 overflow their squares. An infinite norm or
    # variance would map every row to zero and certify a Lipschitz
    # constant of 0.
    model = init_encoder(2, (), 2, norm_mode, 1.0, seed=0)
    model = with_params(model, 1e160 * flat_params(model))
    ds, aug = _blob_dataset(), _shift_aug()
    config = TrainConfig(loss=loss, steps=3, batch_size=4, seed=0)
    batch = make_train_batch(ds, aug, 4, np.random.default_rng(0), loss == "info_nce")
    with np.errstate(over="ignore"):
        for call in (
            lambda: forward(model, ds.features),
            lambda: loss_and_gradient(model, batch, config),
            lambda: train(model, ds, aug, config),
            lambda: embed_views(model, ds.features[:, None, :], np.ones(1)),
        ):
            with pytest.raises(ValueError, match="overflow"):
                call()


@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_train_validates_embeddings_once_not_per_step(loss, monkeypatch):
    ds, model, config = _oracle_case(loss, steps=20)
    aug = _ORACLE_AUGS["rotation_scale"]
    expected_model, expected_trace = train(model, ds, aug, config)

    def refuse(*args):
        raise AssertionError("embeddings re-validated")

    for name in ("_check_unit_norm", "_check_standardized", "_check_batches"):
        monkeypatch.setattr(losses, name, refuse)
    trained, trace = train(model, ds, aug, config)
    np.testing.assert_array_equal(trace, expected_trace)
    np.testing.assert_array_equal(flat_params(trained), flat_params(expected_model))
    # The public losses still check their inputs.
    z = np.tile(np.array([[1.0, 0.0], [-1.0, 0.0]]), (2, 1))
    for call in (
        lambda: losses.info_nce(z, z, z),
        lambda: losses.simple_contrastive(z, z, z, 0.5),
        lambda: losses.cross_correlation(z, z),
    ):
        with pytest.raises(AssertionError, match="re-validated"):
            call()


# Draw layouts of every kind: discrete views only, discrete members with a
# shift, and two continuous members.
_STACK_AUGS = (_IDENTITY_ONLY, _ORACLE_AUGS["perm_sign_shift"], _ORACLE_AUGS["rotation_scale"])


def _assert_stack_matches_train_alone(models, ds, augs, config):
    """``_train_stack`` gives each level what ``train`` gives it alone: the
    same parameters and trace, or an exception of the same type and message."""
    stacked = encoder._train_stack(models, ds, augs, config)
    assert len(stacked) == len(models)
    for model, aug, got in zip(models, augs, stacked):
        try:
            ref_model, ref_trace = train(model, ds, aug, config)
        except (ValueError, RuntimeError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        trained, trace = got
        np.testing.assert_array_equal(trace, ref_trace)
        np.testing.assert_array_equal(flat_params(trained), flat_params(ref_model))
    return stacked


@pytest.mark.parametrize("loss", ["info_nce", "cross_corr", "simple"])
def test_a_stack_trains_each_level_as_train_does_alone(loss, monkeypatch):
    # Levels with their own starting models and draw layouts, in chunks of
    # the default budget, of one step and of seven.
    ds, model, config = _oracle_case(loss, steps=30)
    models = [with_params(model, (1.0 + 0.25 * i) * flat_params(model)) for i in range(3)]
    step_bytes = _step_bytes(ds, model, config, len(models))
    for chunk_steps in (None, 1, 7):
        if chunk_steps is not None:
            monkeypatch.setattr(encoder, "TILE_BYTES", chunk_steps * step_bytes + step_bytes // 2)
        _assert_stack_matches_train_alone(models, ds, _STACK_AUGS, config)


def _resting_pole():
    """``_pole_collapse``'s architecture with a zero hidden layer: every
    embedding is the pole (1, 0), so every gradient is exactly zero and no
    learning rate moves the parameters."""
    _, model = _pole_collapse()
    hidden, head = model.layers
    rest = Layer(np.zeros_like(hidden.weight), hidden.bias, "tanh")
    return EncoderModel((rest, head), norm_mode="sphere")


@pytest.mark.parametrize("chunk_steps", [None, 1, 5, 7, 59])
@pytest.mark.parametrize("errstate", [{"over": "ignore"}, {"all": "ignore"}])
def test_a_stack_level_that_diverges_ends_at_its_step_and_the_others_go_on(
    errstate, chunk_steps, monkeypatch
):
    # The collapsing levels draw the outlier at steps 7 and 1: in different
    # chunks when a chunk is 5 steps, step 7 at a chunk's start when it is 1
    # or 7 steps, and both inside one chunk of 59. The resting level trains on.
    ds, collapsing = _pole_collapse()
    flip = AugmentationSet(transforms=(identity(), sign_flip_mask((-1.0, 1.0))))
    models = [collapsing, _resting_pole(), collapsing]
    augs = [_IDENTITY_ONLY, _IDENTITY_ONLY, flip]
    config = TrainConfig(loss="info_nce", steps=24, batch_size=2, learning_rate=1e308, seed=3)
    if chunk_steps is not None:
        step_bytes = _step_bytes(ds, collapsing, config, len(models))
        monkeypatch.setattr(encoder, "TILE_BYTES", chunk_steps * step_bytes + step_bytes // 2)
    with np.errstate(**errstate):
        stacked = _assert_stack_matches_train_alone(models, ds, augs, config)
    first, rest, second = stacked
    assert str(first) == "training diverged at step 7"
    assert str(second) == "training diverged at step 1"
    np.testing.assert_array_equal(flat_params(rest[0]), flat_params(_resting_pole()))


def _record_workspaces(monkeypatch):
    """Wrap ``encoder._workspace``; the returned list gets each call's
    parameters and workspace."""
    built = []
    real = encoder._workspace

    def recording(template, params, k, b, config):
        built.append((params, real(template, params, k, b, config)))
        return built[-1][1]

    monkeypatch.setattr(encoder, "_workspace", recording)
    return built


def _written_arrays(ws):
    """The arrays of a workspace that a step writes or reads as its own:
    all but the parameter views and the sums."""
    arrays = [ws.flat_grad, ws.update, ws.td, ws.cols, ws.kept, *ws.norm, *ws.extra]
    for layer in ws.layers:
        arrays += layer[4:]
    return [array for array in arrays if isinstance(array, np.ndarray)]


@pytest.mark.parametrize("chunk_steps", [1, 7, 9, 59])
def test_a_stack_that_narrows_trains_its_other_levels_as_alone(chunk_steps, monkeypatch):
    # Level 0 fails its norm check at step 18: at a chunk's start when a
    # chunk is 1 or 9 steps, inside one when it is 7 or 59. Levels 1 and 2
    # train through that chunk and on, two wide, to step 70, as each does
    # alone; the replay of level 0 runs in a workspace that shares no buffer
    # with the stack's and binds only level 0's parameters.
    ds, model, config, s = _near_origin_case()
    assert s == 18
    config = dataclasses.replace(config, steps=70)
    models = [
        model,
        with_params(model, 1.25 * flat_params(model)),
        init_encoder(2, (), 2, "sphere", 1.0, seed=7),
    ]
    step_bytes = _step_bytes(ds, model, config, len(models))
    monkeypatch.setattr(encoder, "TILE_BYTES", chunk_steps * step_bytes + step_bytes // 2)
    built = _record_workspaces(monkeypatch)
    stacked = encoder._train_stack(models, ds, [_IDENTITY_ONLY] * 3, config)
    assert type(stacked[0]) is ValueError and all(isinstance(r, tuple) for r in stacked[1:])
    stacks = [(p, ws) for p, ws in built if p.ndim == 2]
    stack_params, stack_ws = stacks[18 // chunk_steps]
    (replay_params, replay_ws), = [(p, ws) for p, ws in built if p.ndim == 1]
    assert stack_params.shape[0] == 3 and stacks[-1][0].shape[0] == 2
    assert np.shares_memory(replay_params, stack_params[0])
    assert not np.shares_memory(replay_params, stack_params[1:])
    for replay_array in _written_arrays(replay_ws):
        for stack_array in _written_arrays(stack_ws):
            assert not np.shares_memory(replay_array, stack_array)
    _assert_stack_matches_train_alone(models, ds, [_IDENTITY_ONLY] * 3, config)


def test_a_stack_reports_each_levels_input_error_and_trains_the_rest():
    ds, model, config = _oracle_case("info_nce", steps=5)
    wide = AugmentationSet(transforms=(identity(), additive_shift((0.1, 0.2))))
    stacked = _assert_stack_matches_train_alone(
        [model, model], ds, [wide, _ORACLE_AUGS["rotation_scale"]], config
    )
    assert type(stacked[0]) is ValueError and isinstance(stacked[1], tuple)


def test_train_memory_is_bounded_by_the_tile_budget():
    # 500 steps of 3 x 64 views of 32 features are 24.6 MB of views, over
    # ten tile budgets. Sampled a chunk of at most TILE_BYTES at a time,
    # with the raw draw block and the transform temporaries, the peak
    # measures 3.5 x TILE_BYTES.
    steps, b, d = 500, 64, 32
    assert steps * 3 * b * d * 8 >= 10 * TILE_BYTES
    rng = np.random.default_rng(0)
    ds = Dataset(
        features=rng.standard_normal((40, d)),
        labels=np.repeat([0, 1], 20),
    )
    signs = tuple(float(s) for s in rng.choice([-1.0, 1.0], size=d))
    aug = AugmentationSet(
        (identity(), sign_flip_mask(signs), additive_shift(tuple(rng.uniform(-0.2, 0.2, d)))),
        grid_resolution=3,
    )
    model = init_encoder(
        input_dim=d, hidden_dims=(), output_dim=4, norm_mode="sphere", radius=1.0, seed=0
    )
    config = TrainConfig(loss="info_nce", steps=steps, batch_size=b, learning_rate=0.05, seed=0)
    tracemalloc.start()
    try:
        _, trace = train(model, ds, aug, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.shape == (steps, 4)
    assert peak < 8 * TILE_BYTES
    # A stack of six levels shares the budget, in chunks a sixth as long:
    # its peak measures 1.5 x TILE_BYTES.
    augs = [
        AugmentationSet(
            (identity(), sign_flip_mask(signs), additive_shift(tuple(rng.uniform(-0.2, 0.2, d)))),
            grid_resolution=3,
        )
        for _ in range(6)
    ]
    tracemalloc.start()
    try:
        stacked = encoder._train_stack([model] * 6, ds, augs, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(trace.shape == (steps, 4) for _, trace in stacked)
    assert peak < 8 * TILE_BYTES


def _ring_pairs_stack():
    """The ring_pairs sweep's training: six levels, the pairs of a catalog of
    four transforms beside the identity, of 300 InfoNCE steps of B = 16 on
    the 3-d ring task, a linear sphere encoder to 2-d."""
    ds = generate_dataset(
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
    catalog = (
        rotation_2d((0, 1), 1.4, 2.0),
        rotation_2d((0, 1), 0.6, 2.0),
        scaling(0.85, 1.15, 2.0),
        additive_shift((0.0, 0.25, 0.0)),
    )
    augs = [
        AugmentationSet((identity(), catalog[a], catalog[b]), grid_resolution=5)
        for a in range(4)
        for b in range(a + 1, 4)
    ]
    model = init_encoder(3, (), 2, "sphere", 1.0, seed=0)
    config = TrainConfig(loss="info_nce", steps=300, batch_size=16, learning_rate=0.1, seed=0)
    return ds, model, augs, config


def test_a_ring_pairs_chunk_holds_at_most_one_tile_through_its_steps(monkeypatch):
    # The ring_pairs sweep trains in two chunks, each within TILE_BYTES. From
    # its workspace (its views drawn) to the next chunk's draw, through the
    # step loop and the loss passes, a chunk's traced peak is TILE_BYTES
    # beside the stack's own arrays: the six (300, 4) traces (56 KiB), the
    # workspace (34 KiB) and a step's temporaries. It measures 112 KiB over
    # TILE_BYTES; with chunks sized by views and embeddings alone, 530 KiB.
    ds, model, augs, config = _ring_pairs_stack()
    assert _step_bytes(ds, model, config, len(augs)) * config.steps > TILE_BYTES
    workspace, sample_chunk = encoder._workspace, encoder._sample_chunk
    marks = []  # (the phase that starts, the traced peak of the one that ends)

    def mark(phase):
        marks.append((phase, tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()

    def watched_workspace(*args):
        mark("steps")
        return workspace(*args)

    def watched_sample_chunk(dataset, aug, *args):
        if aug is augs[0]:  # a chunk's first draw
            mark("draw")
        return sample_chunk(dataset, aug, *args)

    monkeypatch.setattr(encoder, "_workspace", watched_workspace)
    monkeypatch.setattr(encoder, "_sample_chunk", watched_sample_chunk)
    tracemalloc.start()
    try:
        stacked = encoder._train_stack([model] * 6, ds, augs, config)
        mark("end")
    finally:
        tracemalloc.stop()
    assert all(isinstance(result, tuple) for result in stacked)
    peaks = [peak for (phase, _), (_, peak) in zip(marks, marks[1:]) if phase == "steps"]
    assert [phase for phase, _ in marks] == ["draw", "steps"] * 2 + ["end"]
    assert max(peaks) <= TILE_BYTES + 128 * 1024


def test_a_stack_holds_no_array_of_a_chunk_when_the_next_one_draws(monkeypatch):
    # The ring_pairs sweep trains in chunks of 151 and 149 steps. When the
    # second chunk draws, chunk 1's norms, workspace and kept embeddings are
    # gone: beside the chunk's own views, the traced memory is what it was
    # when chunk 1 drew.
    ds, model, augs, config = _ring_pairs_stack()
    chunk_arrays = []
    workspace, gradient, sample_chunk = encoder._workspace, encoder._gradient, encoder._sample_chunk

    def watched_workspace(template, params, k, b, config):
        ws = workspace(template, params, k, b, config)
        chunk_arrays.extend(weakref.ref(array) for array in _written_arrays(ws))
        return ws

    def watched_gradient(ws, x, stat=None):
        if stat is not None:
            chunk_arrays.append(weakref.ref(stat.base))
        return gradient(ws, x, stat)

    draws = []

    def watched_sample_chunk(dataset, aug, batch_size, steps, views_per_step, rng):
        if not draws or steps != draws[-1][0]:  # a chunk's first draw
            alive = [ref for ref in chunk_arrays if ref() is not None]
            draws.append((steps, tracemalloc.get_traced_memory()[0], len(chunk_arrays), alive))
        return sample_chunk(dataset, aug, batch_size, steps, views_per_step, rng)

    monkeypatch.setattr(encoder, "_workspace", watched_workspace)
    monkeypatch.setattr(encoder, "_gradient", watched_gradient)
    monkeypatch.setattr(encoder, "_sample_chunk", watched_sample_chunk)
    tracemalloc.start()
    try:
        stacked = encoder._train_stack([model] * 6, ds, augs, config)
    finally:
        tracemalloc.stop()
    assert all(isinstance(result, tuple) for result in stacked)
    (first, held_first, _, _), (second, held_second, made, alive) = draws
    assert (first, second) == (151, 149)
    assert made and alive == []
    views_bytes = 6 * 3 * config.batch_size * ds.input_dim * 8
    # The kept embeddings of chunk 1 alone are 696 KB.
    assert held_second - second * views_bytes <= held_first - first * views_bytes + 32 * 1024


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", float("nan")), ("lam", float("nan")), ("lam", float("inf"))],
)
def test_train_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("seed", range(8))
def test_train_rejects_a_member_that_does_not_fit_for_every_seed(seed):
    # Whether a batch row reaches the 3-long mask depends on the seed;
    # the error must not, and it comes before the first step.
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((1.0, -1.0, 1.0)), additive_shift((0.0, 0.2))),
        grid_resolution=3,
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=0,
    )
    config = TrainConfig(
        loss="info_nce", steps=1, batch_size=2, learning_rate=0.1, seed=seed
    )
    with pytest.raises(ValueError, match="feature dimension"):
        train(model, _blob_dataset(), aug, config)


def test_loss_pairing_is_validated():
    ds = _blob_dataset(seed=4)
    sphere = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=9,
    )
    config = TrainConfig(
        loss="cross_corr", steps=1, batch_size=4, learning_rate=0.1, seed=0
    )
    with pytest.raises(ValueError, match="batch_standardized"):
        train(sphere, ds, _shift_aug(), config)


def test_make_train_batch_shapes_and_determinism():
    ds = _blob_dataset(seed=5)
    aug = _shift_aug()
    b1 = make_train_batch(ds, aug, 6, np.random.default_rng(3), with_negatives=True)
    b2 = make_train_batch(ds, aug, 6, np.random.default_rng(3), with_negatives=True)
    assert b1.anchors.shape == (6, 2)
    np.testing.assert_array_equal(b1.anchors, b2.anchors)
    np.testing.assert_array_equal(b1.negatives, b2.negatives)
    b3 = make_train_batch(ds, aug, 6, np.random.default_rng(3), with_negatives=False)
    assert b3.negatives is None


def test_info_nce_factor_equals_scipy_expit():
    from scipy.special import expit

    t = np.concatenate([
        np.linspace(-50.0, 50.0, 200_001),
        [-np.inf, -1e300, -746.0, -709.79, -709.78, -709.0, -1e-300, -5e-324, -0.0,
         0.0, 5e-324, 1e-300, 709.0, 710.0, 746.0, 1e300, np.inf, np.nan],
    ])
    np.testing.assert_array_equal(encoder._expit(t), expit(t))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        np.testing.assert_allclose(
            operator_norm(w), np.linalg.svd(w, compute_uv=False)[0], rtol=1e-6
        )
    assert operator_norm(3.0 * np.eye(4)) == pytest.approx(3.0, abs=1e-10)


def test_operator_norm_never_falls_below_the_svd_value():
    # Random 1-8 x 1-8 matrices, a third of them with near-equal top
    # singular values, where power iteration converges slowest.
    rng = np.random.default_rng(13)
    for k in range(3000):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        w = rng.normal(size=(m, n))
        if k % 3 == 0 and min(m, n) >= 2:
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            s[1] = s[0] * (1.0 - 10.0 ** rng.uniform(-9, -3))
            w = (u * s) @ vt
        assert operator_norm(w) >= np.linalg.svd(w, compute_uv=False)[0]


def _exceeds_norm_exactly(w, t):
    """Whether t > ‖W‖₂, decided in exact rational arithmetic.

    G is the exact Gram matrix of the float entries of W's smaller side.
    t > ‖W‖₂ exactly when t²·I − G is positive definite, that is when its
    leading principal minors are positive (Sylvester), which are the
    products of the pivots of elimination without row exchanges."""
    rows = [[Fraction(x) for x in row] for row in (w if w.shape[0] <= w.shape[1] else w.T).tolist()]
    k, t2 = len(rows), Fraction(t) ** 2
    m = [[t2 * (i == j) - sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(k)] for i in range(k)]
    for j in range(k):
        if m[j][j] <= 0:
            return False
        for i in range(j + 1, k):
            f = m[i][j] / m[j][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return True


def _oracle_cases():
    """Matrices whose smaller side is 1 to 4, with the cases rounding and
    the eigenvalue estimate find hardest."""
    rng = np.random.default_rng(21)
    for k in range(240):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        w = rng.normal(size=(m, n) if k % 2 else (n, m))
        if k % 4 == 1:
            w = np.outer(w[:, 0], w[0])  # rank one
        elif k % 4 == 2 and min(w.shape) >= 2:
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            s[1] = s[0] * (1.0 - 10.0 ** rng.uniform(-16, -3))
            w = (u * s) @ vt
        yield w
        yield np.ldexp(w, 500)
        yield np.ldexp(w, -500)
        yield np.round(w * 1000.0) * 5e-324  # subnormal entries
    yield rng.normal(size=(1, 6))
    yield rng.normal(size=(6, 1))
    yield np.array([[1.0, 1e-300], [-1e-300, 1.0]])


def test_operator_norm_exceeds_the_norm_by_an_exact_oracle():
    for w in _oracle_cases():
        assert _exceeds_norm_exactly(w, operator_norm(w)), w
    for shape in [(3, 2), (1, 5), (4, 1)]:
        assert operator_norm(np.zeros(shape)) == 0.0


def test_operator_norm_is_tight_on_the_workload_shapes():
    rng = np.random.default_rng(22)
    layers = [rng.normal(size=shape) for shape in [(2, 2), (2, 3), (8, 2)] * 50]
    for input_dim, hidden in [(2, ()), (3, ()), (2, (8,))]:
        cfg = GeneratorConfig(
            num_classes=2, samples_per_class=16,
            cluster_centers=((-2.0,) + (0.0,) * (input_dim - 1), (2.0,) + (0.0,) * (input_dim - 1)),
            cluster_spread=0.15, manifold="gaussian_blobs", seed=0,
        )
        model = init_encoder(
            input_dim=input_dim, hidden_dims=hidden, output_dim=2, norm_mode="sphere",
            radius=1.0, seed=23,
        )
        aug = AugmentationSet(transforms=(identity(), rotation_2d((0, 1), 0.0, 0.3)), grid_resolution=3)
        config = TrainConfig(loss="info_nce", steps=250, batch_size=8, learning_rate=0.1, seed=0)
        trained, _ = train(model, generate_dataset(cfg), aug, config)
        layers += [layer.weight for layer in trained.layers]
    assert {w.shape for w in layers} == {(2, 2), (2, 3), (8, 2), (2, 8)}
    for w in layers:
        assert operator_norm(w) <= (1.0 + 1e-12) * np.linalg.svd(w, compute_uv=False)[0]


def test_operator_norm_of_an_unrepresentable_norm_is_inf():
    assert operator_norm(np.full((2, 2), 1e308)) == math.inf
    assert operator_norm(np.array([[1.0, np.nan]])) == math.inf


def test_lipschitz_upper_bound_rounds_each_product_up():
    below = 0
    for seed in range(40):
        model = init_encoder(
            input_dim=3, hidden_dims=(5, 4), output_dim=2, norm_mode="sphere",
            radius=1.0, seed=seed,
        )
        norms = [operator_norm(layer.weight) for layer in model.layers]
        exact = math.prod(Fraction(x) for x in norms)
        assert Fraction(lipschitz_upper_bound(model)) >= exact
        below += Fraction(math.prod(norms)) < exact
    assert below  # the plain float product falls short on some seeds


def test_lipschitz_scaled_identity_layer():
    layer = Layer(weight=2.0 * np.eye(3), bias=np.zeros(3), activation="identity")
    model = EncoderModel(layers=(layer,), norm_mode="sphere")
    assert lipschitz_upper_bound(model) == pytest.approx(2.0, abs=1e-8)


def test_lipschitz_composes_operator_norms():
    l1 = Layer(weight=2.0 * np.eye(3), bias=np.zeros(3), activation="identity")
    l2 = Layer(weight=3.0 * np.eye(3), bias=np.ones(3), activation="identity")
    model = EncoderModel(layers=(l1, l2), norm_mode="sphere")
    bound = lipschitz_upper_bound(model)
    assert bound <= 6.0 + 1e-8
    assert bound == pytest.approx(6.0, abs=1e-6)


def test_lipschitz_certificate_covers_sampled_ratios():
    model = init_encoder(
        input_dim=3, hidden_dims=(6,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=13,
    )
    rng = np.random.default_rng(14)
    points = rng.normal(size=(2000, 3))
    # Each point is its own one-view grid, so the certificate probes them all.
    bound = embed_views(model, points[:, None, :], np.ones(1)).lipschitz
    z = forward(model, points)
    idx1 = rng.integers(0, 2000, size=100_000)
    idx2 = rng.integers(0, 2000, size=100_000)
    keep = idx1 != idx2
    idx1, idx2 = idx1[keep], idx2[keep]
    num = np.linalg.norm(z[idx1] - z[idx2], axis=1)
    den = np.linalg.norm(points[idx1] - points[idx2], axis=1)
    assert (num <= bound * den + 1e-9).all()


def test_lipschitz_sphere_refuses_vanishing_prenorms():
    # The sphere factor 2r / c is unbounded when a grid point maps to the origin.
    model = init_encoder(
        input_dim=2, hidden_dims=(), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=15,
    )
    layer = model.layers[0]
    origin = np.linalg.solve(layer.weight, -layer.bias)
    points = np.stack([origin, origin + 1.0])
    with pytest.raises(ValueError, match="vanish"):
        embed_views(model, points[:, None, :], np.ones(1))


def test_checkpoint_round_trip(tmp_path):
    model = init_encoder(
        input_dim=3, hidden_dims=(5,), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=16,
    )
    path = tmp_path / "model.bin"
    save_model(model, str(path), seed=16)
    back, seed = load_model(str(path))
    assert seed == 16
    assert back.norm_mode == model.norm_mode
    np.testing.assert_array_equal(flat_params(back), flat_params(model))
    assert [l.activation for l in back.layers] == [l.activation for l in model.layers]


def _saved_model_bytes(tmp_path):
    model = init_encoder(
        input_dim=3, hidden_dims=(5,), output_dim=2, norm_mode="sphere", radius=1.0, seed=3
    )
    path = tmp_path / "model.bin"
    save_model(model, str(path), seed=3)
    return path, path.read_bytes()


def test_saved_model_header_bytes_are_pinned(tmp_path):
    # A model has no radius; the file still records the unit sphere's.
    _, blob = _saved_model_bytes(tmp_path)
    header = (
        b'{"activations": ["tanh", "identity"], "layer_dims": [[5, 3], [2, 5]], '
        b'"norm_mode": "sphere", "radius": 1.0, "seed": 3}'
    )
    assert blob[: 9 + len(header)] == b"CENC1" + len(header).to_bytes(4, "little") + header
    assert len(blob) == 9 + len(header) + 8 * (5 * 3 + 5 + 2 * 5 + 2)


def test_model_file_with_another_radius_names_the_path(tmp_path):
    path, blob = _saved_model_bytes(tmp_path)
    path.write_bytes(blob.replace(b'"radius": 1.0', b'"radius": 2.0'))
    with pytest.raises(ValueError, match=r"model.bin: malformed model file.*radius 2.0 is not 1"):
        load_model(str(path))


@pytest.mark.parametrize("keep", [6, 9, 30, -8, -3])
def test_truncated_model_file_names_the_path(tmp_path, keep):
    # Cut inside the length field, the JSON header, and the parameters.
    path, blob = _saved_model_bytes(tmp_path)
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError, match="model.bin: malformed model file"):
        load_model(str(path))


def test_model_file_with_a_bad_json_header_names_the_path(tmp_path):
    path, blob = _saved_model_bytes(tmp_path)
    start = blob.index(b"{")
    path.write_bytes(blob[:start] + b"[" + blob[start + 1:])
    with pytest.raises(ValueError, match="model.bin: malformed model file"):
        load_model(str(path))
