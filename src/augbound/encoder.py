"""Small trainable encoder with hand-rolled gradients.

At most three dense layers (tanh or identity activations) followed by an
output normalization: either projection onto the unit sphere or
per-dimension batch standardization (zero mean, unit mean square over the
current batch). Gradients are computed by manual backpropagation through
the whole stack, including the normalization. Training is minibatch SGD on
sampled view batches with the exact gradient of each batch loss, and the
parameters are updated in place. Steps run in chunks whose views and kept
embeddings fit in ``TILE_BYTES``. A chunk's random draws are those of
``make_train_batch`` step by step, decoded from one block of the
generator's raw words, and each augmentation member is then applied once
to all of its views. The step loop computes only what the next step
needs, the gradient and the update, and keeps each step's embeddings (its
cross-correlation matrix for ``cross_corr``). After the loop, one
vectorized call of the loss kernels gives the l1, l2 and total of every
step in the chunk for the trace.

Encoders of one architecture, each with its own augmentation set and
generator (the levels of a sweep), train in lockstep (``_train_stack``):
one step loop runs every level's step on parameters stacked on a leading
axis, and each level's model, trace or error is that of training it
alone. ``train`` is a stack of one, which runs on unstacked arrays.

A step's arrays are a few dozen rows of a few columns, so its count of
numpy calls, not its arithmetic, sets its cost. Its sums are all
matrix–vector products with the constant vectors of ``_Sums``, one BLAS
call each. ``_norm_forward``, the one output normalization, also gives the
frozen map of :func:`augbound.evaluation.embed_views`.

Training validates its inputs once, at entry: the pairing of loss and
normalization, the dataset dimension against the encoder, and every
augmentation member against that dimension (``TrainConfig`` checks its
numbers when it is built). A step then does only its arithmetic: the loss
kernels of :mod:`augbound.losses` run on embeddings it has just normalized,
without the batch-shape, unit-norm, standardization and symmetry checks of
the public losses. Divergence is checked once per chunk and level (see
``_train_stack``). A level whose chunk fails the check is replayed alone
with every step's checks, so it fails as a loop checked at every step
would: a pre-projection norm or batch variance that vanishes or overflows
raises ``ValueError``, and non-finite updated parameters raise
``RuntimeError`` with the step index. A non-finite loss, found after the
chunk's loss pass, raises the same error for its first step.
``loss_and_gradient`` checks on every call.

``lipschitz_upper_bound`` certifies the network before its normalization:
the product of layer operator norms (tanh has slope at most 1). The factor
of the output map is applied where that map is frozen, in
:mod:`augbound.evaluation`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple, get_args

import numpy as np

from . import losses as losses_mod
from .augment import (
    TILE_BYTES,
    AugmentationSet,
    _apply_views,
    _empty_draws,
    sample_views,
)
from .core import Dataset
from .losses import LossBreakdown

__all__ = [
    "Layer",
    "EncoderModel",
    "TrainConfig",
    "ViewBatch",
    "init_encoder",
    "forward_prenorm",
    "flat_params",
    "with_params",
    "make_train_batch",
    "loss_and_gradient",
    "train",
    "lipschitz_upper_bound",
    "operator_norm",
    "save_model",
]

MAX_LAYERS = 3

_MODEL_MAGIC = b"CENC1"

NormMode = Literal["sphere", "batch_standardized"]

# The smallest pre-projection norm and per-dimension batch variance the
# normalization accepts; below them, or at inf, it is refused.
_MIN_NORM = 1e-12
_MIN_VAR = 1e-24

# The losses trained on the unit sphere, each step with a negative batch.
_SPHERE_LOSSES = ("info_nce", "simple")


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: Literal["tanh", "identity"]

    def __post_init__(self) -> None:
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("layer weight must be (out, in) with matching bias")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class EncoderModel:
    """Feed-forward encoder; treat instances as immutable. Its sphere has radius 1.

    A model carries no radius of its own: radius 1 is checked where it
    enters, in the config (``_check_pairing``), ``init_encoder`` and the
    ``model.bin`` header.
    """

    layers: tuple[Layer, ...]
    norm_mode: NormMode = "sphere"

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not 1 <= len(layers) <= MAX_LAYERS:
            raise ValueError(f"encoder must have between 1 and {MAX_LAYERS} layers")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("layer dimensions do not chain")
        if self.norm_mode not in get_args(NormMode):
            raise ValueError(f"unknown norm mode {self.norm_mode!r}")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def init_encoder(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    output_dim: int,
    norm_mode: NormMode = "sphere",
    radius: float = 1.0,
    seed: int = 0,
) -> EncoderModel:
    """Fresh encoder with 1/sqrt(fan_in) weights; hidden tanh, linear head; radius 1 only."""
    if radius != 1.0:
        raise ValueError(f"radius must be 1, got {radius!r}")
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(output_dim)]
    if len(dims) - 1 > MAX_LAYERS:
        raise ValueError(f"at most {MAX_LAYERS - 1} hidden layers supported")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        weight = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
        activation = "identity" if i == len(dims) - 2 else "tanh"
        layers.append(Layer(weight, np.zeros(d_out), activation))
    return EncoderModel(tuple(layers), norm_mode=norm_mode)


# ---------------------------------------------------------------------------
# Forward / parameters
# ---------------------------------------------------------------------------


def _forward_layers(
    model: EncoderModel | _Stack, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Layer outputs of (n, D) rows ``x``, or of (L, n, D) for a ``_Stack``."""
    activations = [x]
    for layer in model.layers:
        pre = activations[-1] @ layer.weight.mT + layer.bias
        activations.append(np.tanh(pre) if layer.activation == "tanh" else pre)
    return activations[-1], activations


def forward_prenorm(model: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Network output before the normalization stage."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match encoder ({model.input_dim})")
    return _forward_layers(model, x)[0]


class _Sums(NamedTuple):
    """Constant weight vectors that turn the reductions over an (n, d)
    batch into matrix–vector products, each one BLAS call: the sphere's
    squared norms, the InfoNCE score difference z1·(z_neg − z2), the batch
    means and variances, the backward sums of both normalizations and the
    bias gradients."""

    row_sum: np.ndarray  # (d, 1) ones: a @ row_sum is the (n, 1) column of row sums
    col_sum: np.ndarray  # (n,) ones: col_sum @ a is the (d,) vector of column sums
    # (n,) weights, 1/n in a step: col_mean @ a, the column means. A stack's
    # are a (1, n) row, so col_mean @ a is (L, 1, d) and broadcasts over each
    # level's rows.
    col_mean: np.ndarray


def _sums(n: int, d: int) -> _Sums:
    return _Sums(np.ones((d, 1)), np.ones(n), np.full(n, 1.0 / n))


def _norm_forward(
    model: EncoderModel | _Stack,
    y: np.ndarray,
    sums: _Sums,
    stat: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """The output normalization of the (n, d) network outputs ``y``: the
    embeddings, written into ``out`` when given, and the cache of
    ``_norm_backward``: (z, row norms (n, 1)) on the unit sphere, else
    (z, column scales (d,)). Standardization takes its means and variances
    under the column weights ``sums.col_mean``: 1/n in a step, the view
    weights in :func:`augbound.evaluation.embed_views`. For a ``_Stack``,
    ``y`` and every array computed from it have a leading axis of L.

    The norms or variances must be finite and at least ``_MIN_NORM`` or
    ``_MIN_VAR``. That is checked here, unless ``stat`` is given: then they
    are written into it for the caller to check (``train`` checks a whole
    chunk's at once).
    """
    if model.norm_mode == "sphere":
        norms = np.sqrt((y * y) @ sums.row_sum, out=stat)
        if stat is None and not _within(norms, _MIN_NORM):
            raise ValueError("norms vanish or overflow: a zero vector has no sphere projection")
        z = np.divide(y, norms, out=out)
        return z, (z, norms)
    centered = y - sums.col_mean @ y
    var = np.matmul(sums.col_mean, centered * centered, out=stat)
    if stat is None and not _within(var, _MIN_VAR):
        raise ValueError("batch standardization hit a zero-variance or overflowing dimension")
    scale = np.sqrt(var)
    z = np.divide(centered, scale, out=out)
    return z, (z, scale)


def _within(stat: np.ndarray, floor: float) -> bool:
    """Whether every value of ``stat`` is finite and at least ``floor``."""
    return floor <= stat.min() and stat.max() < math.inf


def flat_params(model: EncoderModel) -> np.ndarray:
    return np.concatenate(
        [np.concatenate([layer.weight.ravel(), layer.bias]) for layer in model.layers]
    )


def with_params(model: EncoderModel, flat: np.ndarray) -> EncoderModel:
    return _bind_params(model, np.array(flat, dtype=np.float64))


def _bind_params(model: EncoderModel, flat: np.ndarray) -> EncoderModel:
    """Model whose layer weights and biases are views into ``flat``."""
    layers = [
        Layer(weight, bias, layer.activation)
        for (weight, bias), layer in zip(_param_views(model, flat), model.layers)
    ]
    return EncoderModel(tuple(layers), norm_mode=model.norm_mode)


def _param_views(model: EncoderModel, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into a flat vector laid out as ``flat_params``,
    per layer; for (L, P) rows of such vectors, (L, out, in) and (L, out)."""
    views = []
    pos = 0
    lead = flat.shape[:-1]
    for layer in model.layers:
        mid = pos + layer.weight.size
        end = mid + layer.bias.size
        views.append((flat[..., pos:mid].reshape(*lead, *layer.weight.shape), flat[..., mid:end]))
        pos = end
    if pos != flat.shape[-1]:
        raise ValueError("parameter vector size mismatch")
    return views


class _StackLayer(NamedTuple):
    weight: np.ndarray  # (L, out, in)
    bias: np.ndarray  # (L, 1, out), to broadcast over each level's rows
    activation: str


class _Stack(NamedTuple):
    """L encoders of one architecture, their parameters on a leading axis:
    what the step functions take in place of an ``EncoderModel``. Each
    level's products are slices of one stacked ``matmul``, so they are the
    products of that encoder alone, bit for bit."""

    layers: tuple[_StackLayer, ...]
    norm_mode: NormMode


def _bind_stack(model: EncoderModel, flat: np.ndarray) -> _Stack:
    """Encoders shaped as ``model`` whose parameters are views into the
    (L, P) rows of ``flat``."""
    layers = tuple(
        _StackLayer(weight, bias[:, None, :], layer.activation)
        for (weight, bias), layer in zip(_param_views(model, flat), model.layers)
    )
    return _Stack(layers, model.norm_mode)


# ---------------------------------------------------------------------------
# Training batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewBatch:
    """Anchor/positive (and optionally negative) view batches."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.anchors, dtype=np.float64))
        p = np.atleast_2d(np.asarray(self.positives, dtype=np.float64))
        if a.shape != p.shape or a.shape[0] == 0:
            raise ValueError("anchor and positive batches must share a non-empty shape")
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "positives", p)
        if self.negatives is not None:
            n = np.atleast_2d(np.asarray(self.negatives, dtype=np.float64))
            if n.shape != a.shape:
                raise ValueError("negative batch must match the anchor shape")
            object.__setattr__(self, "negatives", n)

    @property
    def size(self) -> int:
        return self.anchors.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    loss: losses_mod.LossKind = "info_nce"
    steps: int = 500
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0
    lam: float = 0.005

    def __post_init__(self) -> None:
        if self.loss not in ("info_nce", "cross_corr", "simple"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        # Written so that NaN fails; an infinite rate diverges at step 0.
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        losses_mod._check_lam(self.lam)


def make_train_batch(
    dataset: Dataset,
    aug: AugmentationSet,
    batch_size: int,
    rng: np.random.Generator,
    with_negatives: bool,
) -> ViewBatch:
    """Sample anchors uniformly, two views each, plus one view of an
    independent sample per anchor when negatives are requested.

    The order of the generator draws is part of the reproducibility
    contract: the anchor indices, then per view batch (anchors, positives,
    then negatives after their own indices) the draws of ``sample_views``.
    ``_block_draws`` decodes the same stream for a whole chunk of steps.
    """
    idx = rng.integers(0, dataset.num_samples, size=batch_size)
    points = dataset.features[idx]
    anchors = sample_views(points, aug, rng)
    positives = sample_views(points, aug, rng)
    negatives = None
    if with_negatives:
        neg_idx = rng.integers(0, dataset.num_samples, size=batch_size)
        negatives = sample_views(dataset.features[neg_idx], aug, rng)
    return ViewBatch(anchors, positives, negatives)


def _sample_chunk(
    dataset: Dataset,
    aug: AugmentationSet,
    batch_size: int,
    steps: int,
    views_per_step: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The views of ``steps`` consecutive training batches as one block.

    Step s owns rows [s·k·B, (s+1)·k·B) of the (steps·k·B, D) result, with
    k = ``views_per_step``: anchors, positives, then negatives when k == 3,
    row for row what ``make_train_batch`` returns for the same generator,
    which is left in the same state. The draws are decoded from one
    ``random_raw`` block of the generator (``_block_draws``), and each
    member is then applied once to all rows. For a bit generator other than
    PCG64, or when a bounded draw of the block is one that numpy might
    reject, the chunk is ``make_train_batch`` called once per step instead.
    Pairing and member dimensions are the caller's to check.
    """
    shape = (steps, views_per_step, batch_size)
    idx = np.zeros(shape, dtype=np.int64)
    uniforms, disc_idx = _empty_draws(aug, shape)
    if _block_draws(dataset.num_samples, aug.num_discrete, rng, idx, uniforms, disc_idx):
        return _apply_views(dataset.features[idx.reshape(-1)], aug, uniforms, disc_idx)
    views = []
    for _ in range(steps):
        batch = make_train_batch(dataset, aug, batch_size, rng, views_per_step == 3)
        views += (batch.anchors, batch.positives, batch.negatives)[:views_per_step]
    return np.concatenate(views)


# numpy's random() double of a 64-bit word w is (w >> 11) · 2⁻⁵³.
_DOUBLE_SCALE = 2.0**-53


def _block_draws(
    num_samples: int,
    num_discrete: int,
    rng: np.random.Generator,
    idx: np.ndarray,
    uniforms: np.ndarray,
    disc_idx: np.ndarray,
) -> bool:
    """Fill a chunk's (steps, k, B) sample indices ``idx`` and the draws of
    ``_empty_draws`` from one ``random_raw`` block, as ``make_train_batch``
    called once per step would draw them.

    Decodes numpy's PCG64 stream for the same calls. A ``random`` double
    takes one 64-bit word w and is (w >> 11)·2⁻⁵³. A bounded draw
    ``integers(0, N)`` takes a 32-bit u: while the generator holds a half
    (``has_uint32``), that half, else the low half of a new word, whose high
    half the generator then holds (``uinteger``). Its value is (u·N) >> 32
    (Lemire's method), and a bound of 1 takes nothing. The held half
    survives ``random`` calls and call boundaries, so the chunk's draws are
    one stream whatever the calls. Afterwards ``has_uint32`` and
    ``uinteger`` (the last fetched high half, consumed or not) are as numpy
    leaves them.

    Returns False, with the generator as it was, where the decode is not
    known to be exact: a bit generator other than PCG64, or a bounded draw
    with (u·N) mod 2³² < N, which numpy may reject and redraw (a chance of
    about N/2³² per draw).
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        return False
    snapshot = bitgen.state
    held = snapshot["has_uint32"]
    steps, k, b = idx.shape
    width = uniforms.shape[-1]
    # One step's calls in stream order as (draws, bound, target); bound 0
    # is a random() call, whose doubles fill ``uniforms`` in order.
    calls = []
    for v in range(k):
        if v != 1:  # the anchors' indices, then the negatives' before their batch
            calls.append((b, num_samples, idx[:, v]))
        calls += [(b, 0, None), (b, num_discrete, disc_idx[:, v]), (width - b, 0, None)]
    # One discrete member: its index draw takes nothing, and disc_idx keeps its zeros.
    calls = [call for call in calls if call[1] != 1]
    bound = np.repeat([call[1] for call in calls], [call[0] for call in calls])
    bounded = bound > 0
    h = int(np.count_nonzero(bounded))
    # The j-th bounded draw of the chunk (from 0) fetches a word when
    # j + held is even; the pattern of words repeats every step, or every two when h is
    # odd. ``is_double`` marks the block's words that random() takes.
    cycle = np.tile(bounded, 1 + h % 2)
    fetches = ~cycle | ((np.cumsum(cycle) + held) % 2 == 1)
    n_words = steps * (bound.size - h) + (steps * h + 1 - held) // 2
    is_double = np.resize(~cycle[fetches], n_words)
    raw = bitgen.random_raw(n_words)
    doubles = uniforms.reshape(-1)
    bits = doubles.view(np.uint64)
    np.right_shift(raw[is_double], 11, out=bits)
    np.multiply(bits, _DOUBLE_SCALE, out=doubles)
    words = raw[~is_double]
    del raw, is_double
    # Each fetched word gives its low half, then its high half.
    halves = words.astype("<u8", copy=False).view("<u4")
    if held:
        halves = np.concatenate((np.array([snapshot["uinteger"]], dtype=np.uint32), halves))
    bound = bound[bounded].astype(np.uint64)
    scaled = halves[: steps * h].reshape(steps, h) * bound
    if np.logical_or.reduce(scaled.astype(np.uint32) < bound, axis=None):
        bitgen.state = snapshot
        return False
    scaled >>= 32
    col = 0
    for draws, n, target in calls:
        if n:
            target[...] = scaled[:, col : col + draws]
            col += draws
    idx[:, 1] = idx[:, 0]  # the positives view the anchors' samples
    state = bitgen.state
    state["has_uint32"] = held ^ (steps * h) % 2
    if words.size:
        state["uinteger"] = int(words[-1] >> 32)
    bitgen.state = state
    return True


# ---------------------------------------------------------------------------
# Loss + gradient
# ---------------------------------------------------------------------------


def _check_pairing(loss: str, norm_mode: str, radius: float = 1.0) -> None:
    """Raise ``ValueError`` unless the loss can train an encoder with this output map.

    The config's radius must be exactly 1 for every loss: the bounds of info_nce
    and simple hold on the unit sphere, and standardization reads no radius
    (evaluation.embed_views reports r = 1 on the sphere, √d standardized).
    """
    needed = "sphere" if loss in _SPHERE_LOSSES else "batch_standardized"
    if norm_mode != needed or radius != 1.0:
        raise ValueError(f"loss '{loss}' needs norm_mode '{needed}' with radius 1")


def _norm_backward(
    model: EncoderModel | _Stack, cache: tuple, dz: np.ndarray, sums: _Sums
) -> np.ndarray:
    if model.norm_mode == "sphere":
        # z = y / |y| on the unit sphere.
        z, norms = cache
        return (dz - z * ((dz * z) @ sums.row_sum)) / norms
    z, scale = cache
    return (dz - sums.col_mean @ dz - z * (sums.col_mean @ (dz * z))) / scale


def _layers_backward(
    model: EncoderModel | _Stack,
    activations: list[np.ndarray],
    d_out: np.ndarray,
    grad: list[tuple[np.ndarray, np.ndarray]],
    sums: _Sums,
) -> None:
    """Write the parameter gradient into ``grad``, the ``_param_views`` of a
    flat vector; the gradient of the input is not formed."""
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        post = activations[i + 1]
        d_pre = d_out * (1.0 - post**2) if layer.activation == "tanh" else d_out
        np.matmul(d_pre.mT, activations[i], out=grad[i][0])
        np.matmul(sums.col_sum, d_pre, out=grad[i][1])
        if i:
            d_out = d_pre @ layer.weight


def loss_and_gradient(
    model: EncoderModel, batch: ViewBatch, config: TrainConfig
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown on the batch and the exact gradient in flat layout.

    The reported value is exactly what the corresponding loss function in
    :mod:`augbound.losses` computes on the embeddings of the stacked views
    (anchors, positives, then negatives when the loss uses them). The
    gradient is a ``train`` step's on the same batch, bit for bit; the
    norms or variances are checked on every call.
    """
    _check_pairing(config.loss, model.norm_mode)
    with_negatives = config.loss in _SPHERE_LOSSES
    if with_negatives and batch.negatives is None:
        raise ValueError(f"{config.loss} needs a negative batch")
    views = (batch.anchors, batch.positives, batch.negatives)[: 3 if with_negatives else 2]
    x = np.concatenate(views)
    grad = np.empty(sum(layer.weight.size + layer.bias.size for layer in model.layers))
    sums = _sums(len(x), model.output_dim)
    kept = _gradient(model, x, batch.size, config, _param_views(model, grad), sums)
    l1, l2 = (float(v[0]) for v in _loss_terms(kept[None], batch.size, config))
    lam = 1.0 if config.loss == "info_nce" else config.lam
    return LossBreakdown(config.loss, l1, l2, lam), grad


def _gradient(
    model: EncoderModel | _Stack,
    x: np.ndarray,
    b: int,
    config: TrainConfig,
    grad: list[tuple[np.ndarray, np.ndarray]],
    sums: _Sums,
    stat: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Write the loss gradient on stacked views into ``grad`` (the
    ``_param_views`` of a flat vector) and return what ``_loss_terms`` needs
    for the step's loss: the (k·B, d) embeddings, or F (d, d) for cross_corr,
    written into ``out`` when given. For a stack of L encoders, every array
    has a leading axis of L, and each encoder's arithmetic is that of the
    encoder alone.

    ``x`` stacks anchors, positives, then negatives when the loss uses them,
    ``b`` rows each. The caller checks the pairing. The embeddings are
    normalized here, so the loss kernels of :mod:`augbound.losses` run
    without the unit-norm and standardization checks of the public losses.
    Every sum over rows or dimensions is a product with a vector of
    ``sums``, built for k·B rows of the output dimension. The norms or
    variances are checked unless ``stat`` is given (see ``_norm_forward``).
    """
    y, activations = _forward_layers(model, x)
    cross_corr = config.loss == "cross_corr"
    z, cache = _norm_forward(model, y, sums, stat, None if cross_corr else out)
    d = z.shape[-1]
    blocks = _blocks(z, b)
    lam = config.lam
    # dz is d(total)/dz, written block by block: anchors, positives, negatives.
    dz = np.empty(z.shape)
    d_blocks = _blocks(dz, b)
    kept = z
    if config.loss == "info_nce":
        # The negative's weight σ(z1·z_neg − z1·z2), from one score
        # difference z1·(z_neg − z2) per anchor, over B.
        w = blocks[2] - blocks[1]
        q = _expit((blocks[0] * w) @ sums.row_sum) / b
        np.multiply(q, w, out=d_blocks[0])
        np.multiply(q, blocks[0], out=d_blocks[2])
        # -q * z1 is the exact negation of the negatives' block.
        np.negative(d_blocks[2], out=d_blocks[1])
    elif config.loss == "simple":
        # lam * zn - z2 is -z2 + lam * zn exactly: IEEE addition commutes.
        np.multiply(lam, blocks[2], out=d_blocks[0])
        d_blocks[0] -= blocks[1]
        np.negative(blocks[0], out=d_blocks[1])
        np.multiply(lam, blocks[0], out=d_blocks[2])
        dz /= b
    else:
        kept = f = losses_mod._cross_corr_matrix(blocks[0], blocks[1], out)
        # d(total)/dF over B: 2·lam·F_ij off the diagonal, -2(1 - F_ii) on it.
        g = (2.0 * lam / b) * f
        g.reshape(-1, d * d)[:, :: d + 1] = (-2.0 / b) * (1.0 - f.diagonal(0, -2, -1))
        # Each view's block is the other view's block times g.
        np.matmul(blocks[::-1], g, out=d_blocks)
    _layers_backward(model, activations, _norm_backward(model, cache, dz, sums), grad, sums)
    return kept


def _blocks(rows: np.ndarray, b: int) -> np.ndarray:
    """The k (B, d) blocks of (k·B, d) rows as (k, B, d); of a stack's
    (L, k·B, d), as (k, L, B, d)."""
    if rows.ndim == 2:
        return rows.reshape(-1, b, rows.shape[1])
    return rows.reshape(len(rows), -1, b, rows.shape[2]).swapaxes(0, 1)


def _loss_terms(stack: np.ndarray, b: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """l1 and l2 per step from a stack of ``_gradient`` results: (S, k·B, d)
    embeddings, or (S, d, d) matrices for cross_corr."""
    if config.loss == "cross_corr":
        return losses_mod._cross_corr_terms(stack)
    blocks = stack.reshape(len(stack), -1, b, stack.shape[-1])
    if config.loss == "info_nce":
        return losses_mod._info_nce_terms(blocks)
    return losses_mod._simple_terms(blocks)


def _expit(t: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-t)), elementwise, in the shape of ``t``.

    Uses libm's ``exp`` through ``math.exp``, as ``scipy.special.expit``
    does, so the values are the same; numpy's vectorized ``exp`` differs
    from libm in the last bit on some inputs.
    """
    values = t.ravel().tolist()
    try:
        p = np.array([1.0 / (1.0 + math.exp(-x)) for x in values], dtype=np.float64)
    except OverflowError:
        p = np.array([_logistic(x) for x in values], dtype=np.float64)
    return p.reshape(t.shape)


def _logistic(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) exceeds the largest float: 1 / inf
        return 0.0


def train(
    model: EncoderModel,
    dataset: Dataset,
    aug: AugmentationSet,
    config: TrainConfig,
) -> tuple[EncoderModel, np.ndarray]:
    """Minibatch SGD; returns the new model and a (steps, 4) trace.

    Trace columns are step, total, l1, l2, recorded at the parameters the
    step started from; ``experiments.stage_train`` writes the trace as
    ``trace.csv``. Aborts with the step index if the updated parameters
    or the loss go non-finite (learning rate too high). Zero steps returns
    a copy of the model with an empty trace. The caller's model is never
    modified.

    The batches are those of ``make_train_batch`` called once per step on
    one generator seeded with ``config.seed``, so the same config gives the
    same trace and parameters, float for float. This is ``_train_stack``
    for a stack of one, which describes how the steps run and are checked.
    """
    (result,) = _train_stack([model], dataset, [aug], config)
    if isinstance(result, Exception):
        raise result
    return result


def _check_inputs(
    model: EncoderModel, dataset: Dataset, aug: AugmentationSet, config: TrainConfig
) -> None:
    """Raise ``ValueError`` unless ``train`` can train ``model`` on these inputs."""
    _check_pairing(config.loss, model.norm_mode)
    if dataset.input_dim != model.input_dim:
        raise ValueError(
            f"dataset dimension {dataset.input_dim} does not match encoder "
            f"input {model.input_dim}"
        )
    aug.check_dimension(dataset.input_dim)


def _train_stack(
    models: Sequence[EncoderModel],
    dataset: Dataset,
    augs: Sequence[AugmentationSet],
    config: TrainConfig,
) -> list[tuple[EncoderModel, np.ndarray] | Exception]:
    """``train`` for encoders of one architecture at once, level i with the
    augmentation set ``augs[i]``. Per level it gives what ``train`` gives
    for that level alone: the new model and trace, or the exception it
    raises, at the same step.

    Each level has its own generator, seeded with ``config.seed``. Steps run
    in chunks of at most ``TILE_BYTES // (L·k·B·(D + d)·8)``, L the levels
    still training and k = 3 views per anchor with negatives, else 2, in
    two passes. First each level's views of the chunk are made by
    ``_sample_chunk``: the stream of ``make_train_batch`` called once per
    step, decoded from one ``random_raw`` block of the level's generator,
    with each augmentation member applied once to all of its views (for a
    bit generator other than PCG64, or at a bounded draw that numpy might
    reject, ``make_train_batch`` itself; see ``_block_draws``). Then one
    step loop runs all levels' steps on parameters stacked on a leading
    axis (``_gradient`` of a ``_Stack``), computes only the gradient and the
    update, and keeps each step's embeddings (F for cross_corr). Last, per
    level, one vectorized pass of the loss kernels gives every step's l1,
    l2 and total. The kernels reduce only over trailing contiguous axes, so
    each value equals what ``loss_and_gradient`` reports for the step, bit
    for bit.

    The step loop runs unchecked, under an error state that raises every
    floating-point event the caller does not ignore, and writes each step's
    norms or variances into an array of the chunk. One check per level
    follows: its parameters, norms and variances are finite, and no norm or
    variance is below its floor (``_MIN_NORM``, ``_MIN_VAR``). Finiteness is
    checked too because a norm or variance that overflows would map its
    rows to zero. A level that fails it (every level, if the
    loop raised ``FloatingPointError``) is replayed alone from its starting
    parameters with every step's checks, under the caller's error state,
    which raises and warns as a loop checked at every step does. A replay
    that raises nothing stands; one that raises ends its level with that
    exception, and the other levels go on.
    """
    results: list = [None] * len(models)
    for i, (model, aug) in enumerate(zip(models, augs)):
        try:
            _check_inputs(model, dataset, aug, config)
        except ValueError as exc:
            results[i] = exc
    live = [i for i, result in enumerate(results) if result is None]
    if not live:
        return results
    template = models[live[0]]
    rngs = {i: np.random.default_rng(config.seed) for i in live}
    traces = {i: np.empty((config.steps, 4)) for i in live}
    for trace in traces.values():
        trace[:, 0] = np.arange(config.steps)
    params = np.stack([flat_params(models[i]) for i in live])
    b, d = config.batch_size, template.output_dim
    k = 3 if config.loss in _SPHERE_LOSSES else 2
    sums = _sums(k * b, d)
    stack_sums = sums._replace(col_mean=sums.col_mean[None])
    kept_shape = (d, d) if config.loss == "cross_corr" else (k * b, d)
    sphere = template.norm_mode == "sphere"
    stat_floor = _MIN_NORM if sphere else _MIN_VAR
    # Floating-point events the caller does not ignore end the unchecked pass.
    unchecked_errstate = {
        event: "ignore" if mode == "ignore" else "raise" for event, mode in np.geterr().items()
    }
    lr = config.learning_rate
    start = 0
    while live and start < config.steps:
        width = len(live)
        chunk = max(1, TILE_BYTES // (width * k * b * (dataset.input_dim + d) * 8))
        steps = min(chunk, config.steps - start)
        drawn = [
            _sample_chunk(dataset, augs[i], b, steps, k, rngs[i]).reshape(steps, k * b, -1)
            for i in live
        ]
        # A chunk's arrays are (steps, L, ...), each step's slice one stack.
        # A single level runs unstacked, on (steps, ...) arrays of its own.
        # Updating params in place updates the layers of current.
        if width > 1:
            lead, step_sums, current = (width,), stack_sums, _bind_stack(template, params)
            views = np.stack(drawn, axis=1)
        else:
            lead, step_sums, current = (), sums, _bind_params(template, params[0])
            views = drawn[0]
        del drawn
        # A step's norms are (k·B, 1) and its variances (d,); a stack's
        # norms are (L, k·B, 1) and its variances (L, 1, d).
        stat_shape = (k * b, 1) if sphere else (1,) * len(lead) + (d,)
        kept = np.empty((steps, *lead, *kept_shape))
        stats = np.empty((steps, *lead, *stat_shape))
        snapshot = params.copy()
        flat_grad = np.empty_like(params)
        grad = _param_views(template, flat_grad.reshape(*lead, -1))
        try:
            with np.errstate(**unchecked_errstate):
                for s in range(steps):
                    _gradient(current, views[s], b, config, grad, step_sums, stats[s], kept[s])
                    params -= lr * flat_grad
                # With lr > 0 a non-finite gradient makes the parameters
                # non-finite, and they stay so in later steps.
                level_stats = stats.reshape(steps, width, -1)
                sound = (
                    np.logical_and.reduce(np.isfinite(params), axis=1)
                    & (stat_floor <= level_stats.min(axis=(0, 2)))
                    & (level_stats.max(axis=(0, 2)) < math.inf)
                )
        except FloatingPointError:
            sound = np.zeros(width, dtype=bool)
        level_views = views.reshape(steps, width, k * b, -1)
        level_kept = kept.reshape(steps, width, *kept_shape)
        for p in np.flatnonzero(~sound):
            # Replay the level's chunk alone with the checks of every step,
            # under the caller's error state: it raises, warns or goes on as
            # such a loop does.
            level_params, level_grad = params[p], flat_grad[p]
            level_params[...] = snapshot[p]
            level = _bind_params(template, level_params)
            level_grad_views = _param_views(template, level_grad)
            try:
                for s in range(steps):
                    x, out = level_views[s, p], level_kept[s, p]
                    _gradient(level, x, b, config, level_grad_views, sums, out=out)
                    level_params -= lr * level_grad
                    if not np.logical_and.reduce(np.isfinite(level_params)):
                        raise RuntimeError(f"training diverged at step {start + s}")
            except Exception as exc:  # what the level's loop alone raises
                results[live[p]] = exc
        del views, level_views  # before the loss passes' temporaries
        for p, i in enumerate(live):
            if results[i] is not None:
                continue
            # The loss kernels take each level's steps contiguous, as alone.
            l1, l2 = _loss_terms(np.ascontiguousarray(level_kept[:, p]), b, config)
            rows = traces[i][start : start + steps]
            rows[:, 1] = losses_mod.recompose(config.loss, l1, l2, config.lam)
            rows[:, 2] = l1
            rows[:, 3] = l2
            # A backstop: a non-finite loss needs non-finite embeddings, whose
            # gradient is non-finite, so the checks above have failed already.
            diverged = np.flatnonzero(~np.isfinite(rows[:, 1]))
            if diverged.size:
                results[i] = RuntimeError(f"training diverged at step {start + diverged[0]}")
        going_on = [p for p, i in enumerate(live) if results[i] is None]
        if len(going_on) < width:
            params = params[going_on]
            live = [live[p] for p in going_on]
        start += steps
    for p, i in enumerate(live):
        results[i] = (with_params(models[i], params[p]), traces[i])
    return results


# ---------------------------------------------------------------------------
# Lipschitz certificate
# ---------------------------------------------------------------------------


def operator_norm(matrix: np.ndarray) -> float:
    """An upper bound on the largest singular value ‖W‖₂.

    LAPACK's SVD value times (1 + 8·max(m, n)·eps), a margin for its
    rounding; the SVD is backward stable, so its value can fall below the
    true norm by a small multiple of max(m, n)·eps·‖W‖₂. (Power iteration,
    which this replaces, converges from below and fell short by up to
    4.3e-4 relative on small random matrices.)
    """
    w = np.asarray(matrix, dtype=np.float64)
    if w.size == 0:
        return 0.0
    return float(np.linalg.norm(w, 2)) * (1.0 + 8.0 * max(w.shape) * np.finfo(np.float64).eps)


def lipschitz_upper_bound(model: EncoderModel) -> float:
    """Certified Lipschitz constant of :func:`forward_prenorm`: the product of
    the layer operator norms (tanh has slope at most 1).

    The embedding map's certificate multiplies it by a factor of its output
    normalization, which needs the frozen evaluation map; see
    :func:`augbound.evaluation.embed_views`.
    """
    product = 1.0
    for layer in model.layers:
        product *= operator_norm(layer.weight)
    return product


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_model(model: EncoderModel, path: str, seed: int | None = None) -> None:
    """Write ``model.bin``: a magic, a JSON header (layer shapes,
    activations, norm mode, radius 1, seed) and the float64 parameters.
    The pipeline never reads it back; the test oracle ``load_model`` in
    ``tests/oracles.py`` does, and refuses a header with another radius."""
    import json
    import struct

    header = {
        "layer_dims": [list(layer.weight.shape) for layer in model.layers],
        "activations": [layer.activation for layer in model.layers],
        "norm_mode": model.norm_mode,
        "radius": 1.0,
        "seed": seed,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(flat_params(model).astype("<f8").tobytes())
