"""Small trainable encoder with hand-rolled gradients.

At most three dense layers (tanh or identity activations) followed by an
output normalization: either projection onto the unit sphere or
per-dimension batch standardization (zero mean, unit mean square over the
current batch). Gradients are computed by manual backpropagation through
the whole stack, including the normalization. Training is minibatch SGD on
sampled view batches with the exact gradient of each batch loss, and the
parameters are updated in place. Steps run in chunks whose views, kept
embeddings and norms or variances fit in ``TILE_BYTES``. A chunk's random
draws are those of ``make_train_batch`` step by step, decoded from one
block of the generator's raw words, and each augmentation member is then
applied once to all of its views. The step loop computes only what the next
step needs, the gradient and the update, and keeps each step's embeddings
(its cross-correlation matrix for ``cross_corr``). After the loop, one
vectorized call of the loss kernels gives the l1, l2 and total of every
step in the chunk for the trace.

Encoders of one architecture, each with its own augmentation set and
generator (the levels of a sweep), train in lockstep (``_train_stack``):
one step loop runs every level's step on parameters stacked on a leading
axis, and each level's model, trace or error is that of training it
alone. ``train`` is a stack of one, which runs on unstacked arrays.

A step's arrays are a few dozen rows of a few columns, so its count of
numpy calls and the Python around them, not its arithmetic, set its cost.
Its sums are all matrix–vector products with the constant vectors of
``_Sums``, one BLAS call each. A ``_Workspace``, built once per chunk,
binds the parameter views and holds every buffer, so a step writes each
intermediate with ``out=``, looks nothing up, and makes one call where two
operands take the same operation. ``_norm_forward``, the one output
normalization, also gives the frozen map of
:func:`augbound.evaluation.embed_views`.

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
the product of layer operator norms, rounded up (tanh has slope at most 1);
``operator_norm`` verifies each without LAPACK. The factor
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
    _EPS64,
    TILE_BYTES,
    AugmentationSet,
    _apply_views,
    _empty_draws,
    _up,
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


def forward_prenorm(model: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Network output before the normalization stage; no layer's output is kept."""
    y = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if y.shape[1] != model.input_dim:
        raise ValueError(f"input dim {y.shape[1]} does not match encoder ({model.input_dim})")
    for layer in model.layers:
        y = y @ layer.weight.mT + layer.bias
        if layer.activation == "tanh":
            y = np.tanh(y, out=y)
    return y


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


def _sums(n: int, d: int, stacked: bool = False) -> _Sums:
    return _Sums(np.ones((d, 1)), np.ones(n), np.full((1,) * stacked + (n,), 1.0 / n))


def _norm_forward(
    model: EncoderModel,
    y: np.ndarray,
    sums: _Sums,
    stat: np.ndarray | None = None,
    buffers: tuple = (None,) * 5,
) -> tuple[np.ndarray, np.ndarray]:
    """The output normalization of the (n, d) network outputs ``y``: the
    embeddings z and, for ``_gradient``'s backward pass and the certificate
    of ``embed_views``, the row norms (n, 1) on the unit sphere, else the
    column scales (d,).
    Standardization takes its means and variances under the column weights
    ``sums.col_mean``: 1/n in a step, the view weights in
    :func:`augbound.evaluation.embed_views`. For a stack of L encoders,
    ``y`` and every array computed from it have a leading axis of L. The
    arrays are written into ``buffers`` when given (``_Workspace.norm``).

    The norms or variances must be finite and at least ``_MIN_NORM`` or
    ``_MIN_VAR``. That is checked here, unless ``stat`` is given: then they
    are written into it for the caller to check (``train`` checks a whole
    chunk's at once).
    """
    z, t, col, scale, checked_stat = buffers
    checked = stat is None
    stat = checked_stat if checked else stat
    if model.norm_mode == "sphere":
        norms = np.sqrt(np.matmul(np.multiply(y, y, out=t), sums.row_sum, out=stat), out=stat)
        if checked and not _within(norms, _MIN_NORM):
            raise ValueError("norms vanish or overflow: a zero vector has no sphere projection")
        return np.divide(y, norms, out=z), norms
    centered = np.subtract(y, np.matmul(sums.col_mean, y, out=col), out=z)
    var = np.matmul(sums.col_mean, np.multiply(centered, centered, out=t), out=stat)
    if checked and not _within(var, _MIN_VAR):
        raise ValueError("batch standardization hit a zero-variance or overflowing dimension")
    scale = np.sqrt(var, out=scale)
    return np.divide(centered, scale, out=centered), scale


def _within(stat: np.ndarray, floor: float, axis: tuple[int, ...] | None = None) -> np.ndarray:
    """Whether every value of ``stat`` along ``axis`` is finite and at least ``floor``."""
    return (floor <= stat.min(axis=axis)) & (stat.max(axis=axis) < math.inf)


def flat_params(model: EncoderModel) -> np.ndarray:
    return np.concatenate(
        [np.concatenate([layer.weight.ravel(), layer.bias]) for layer in model.layers]
    )


def with_params(model: EncoderModel, flat: np.ndarray) -> EncoderModel:
    """``model``'s architecture with the parameters of ``flat``, laid out as
    ``flat_params``: its layer weights and biases are views into one copy
    of ``flat``."""
    views = _param_views(model, np.array(flat, dtype=np.float64))
    layers = [Layer(w, b, layer.activation) for (w, b), layer in zip(views, model.layers)]
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


class _Workspace(NamedTuple):
    """What ``_gradient`` needs for one architecture and step shape, bound
    and allocated once by ``_workspace``, so that a step looks nothing up and
    allocates only ``_expit``'s values. Rows are (…, k·B, d) and columns shaped
    as a step's norms or variances, … being L for a stack and nothing for
    one encoder. Buffers that a step runs one operation on are adjacent, so
    that one call covers both: t and dz, the two column scratches, and
    InfoNCE's w = z_neg − z2, one block ahead of z, with z1."""

    model: EncoderModel  # the architecture, whose parameters are the caller's (…, P)
    flat_grad: np.ndarray  # (…, P), and the update lr·flat_grad
    update: np.ndarray
    # Per layer: weight, weight.mT, bias, whether tanh, its outputs (then its
    # d_pre), its inputs and their gradient (None for the first layer's) and
    # the ``_param_views`` of its gradient.
    layers: tuple[tuple, ...]
    sums: _Sums
    config: TrainConfig
    b: float  # B, the divisor of the batch means
    # ``_norm_forward``'s buffers: z, t, a column scratch, the scales and
    # the norms or variances when checked.
    norm: tuple
    dz: np.ndarray
    td: np.ndarray  # (2, …): t and dz
    cols: np.ndarray  # (2, …): the column scratch and a second one
    blocks: tuple[np.ndarray, ...]  # the k (…, B, d) blocks of z and of dz
    d_blocks: tuple[np.ndarray, ...]
    kept: np.ndarray  # what ``_loss_terms`` needs: z, or F (…, d, d) for cross_corr
    extra: tuple  # the loss's buffers and views (see ``_workspace``)


def _workspace(
    template: EncoderModel, params: np.ndarray, k: int, b: int, config: TrainConfig
) -> _Workspace:
    """``_gradient``'s workspace for steps of k·B rows of ``template``'s
    architecture on ``params``, views of which it binds: one encoder's (P,)
    vector, or a stack's (L, P) rows, each level's products then slices of
    one stacked ``matmul``, so those of that encoder alone, bit for bit."""
    lead, n, d = params.shape[:-1], k * b, template.output_dim
    sums = _sums(n, d, bool(lead))
    flat_grad = np.empty_like(params)
    posts = [np.empty((*lead, n, layer.weight.shape[0])) for layer in template.layers]
    layers = tuple(
        (weight, weight.mT, bias[:, None, :] if lead else bias, layer.activation == "tanh",
         post, x, None if x is None else np.empty_like(x), *grad)
        for layer, (weight, bias), post, x, grad in zip(
            template.layers, _param_views(template, params), posts, [None, *posts[:-1]],
            _param_views(template, flat_grad),
        )
    )
    info_nce = config.loss == "info_nce"
    rows, td = np.empty((*lead, n + b * info_nce, d)), np.empty((2, *lead, n, d))
    z_blocks, d_blocks = (np.moveaxis(a.reshape(*lead, -1, b, d), -3, 0) for a in (rows, td[1]))
    # A step's norms are (k·B, 1) and its variances (d,); a stack's are
    # (L, k·B, 1) and (L, 1, d).
    sphere = template.norm_mode == "sphere"
    column = (*lead, n, 1) if sphere else (*lead, 1, d) if lead else (d,)
    z = kept = rows[..., b * info_nce :, :]
    cols, extra = np.empty((2, *column)), ()
    if info_nce:  # w's block, w and z1, the anchors' and negatives' blocks of dz, the scores
        extra = (z_blocks[0], z_blocks[:2], d_blocks[::2], cols[0][..., :b, :])
    elif config.loss == "cross_corr":
        # F before its symmetrization, g, the diagonals of g and F, z's
        # blocks swapped, dz's blocks and the coefficients of g.
        kept, raw, g = (np.empty((*lead, d, d)) for _ in range(3))
        diagonals = tuple(m.reshape(*lead, d * d)[..., :: d + 1] for m in (g, kept))
        # As 0-d arrays, which numpy takes faster than floats.
        coefficients = (np.array(2.0 * config.lam / b), np.array(1.0), np.array(-2.0 / b))
        extra = (raw, g, *diagonals, z_blocks[::-1], d_blocks, *coefficients)
    norm = (z, td[0], cols[0], np.empty(column), np.empty(column))
    return _Workspace(
        template, flat_grad, np.empty_like(params), layers, sums, config, float(b), norm, td[1], td,
        cols, tuple(z_blocks[info_nce:]), tuple(d_blocks), kept, extra,
    )


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
    ws = _workspace(model, flat_params(model), len(views), batch.size, config)
    kept = _gradient(ws, np.concatenate(views))
    l1, l2 = (float(v[0]) for v in _loss_terms(kept[None], batch.size, config))
    lam = 1.0 if config.loss == "info_nce" else config.lam
    return LossBreakdown(config.loss, l1, l2, lam), ws.flat_grad


def _gradient(ws: _Workspace, x: np.ndarray, stat: np.ndarray | None = None) -> np.ndarray:
    """Write the loss gradient on stacked views ``x`` into ``ws.flat_grad``
    and return ``ws.kept``, what ``_loss_terms`` needs for the step's loss.
    For a stack of L encoders every array has a leading axis of L, and each
    encoder's arithmetic is that of the encoder alone.

    ``x`` stacks anchors, positives, then negatives when the loss uses them,
    B rows each. The caller checks the pairing. The embeddings are
    normalized here, so the loss kernels of :mod:`augbound.losses` run
    without the checks of the public losses. Every sum over rows or
    dimensions is a product with a vector of ``ws.sums``. The norms or
    variances are checked unless ``stat`` is given (see ``_norm_forward``).
    Each intermediate goes into a buffer of ``ws`` by the operations of the
    expression in its comment, so with its bits.
    """
    layers, sums, b, (z, t, _, _, _), dz = ws.layers, ws.sums, ws.b, ws.norm, ws.dz
    y = x
    for _, weight_t, bias, tanh, post, _, _, _, _ in layers:  # post = tanh(y @ weight.mT + bias)
        np.add(np.matmul(y, weight_t, out=post), bias, out=post)
        y = np.tanh(post, out=post) if tanh else post
    _, scale = _norm_forward(ws.model, y, sums, stat, ws.norm)
    blocks, d_blocks, loss, lam = ws.blocks, ws.d_blocks, ws.config.loss, ws.config.lam
    # dz is d(total)/dz, written block by block: anchors, positives, negatives.
    if loss == "info_nce":
        # The negative's weight q = σ(z1·z_neg − z1·z2) / B, from one score
        # difference z1·w per anchor, w = z_neg − z2; z1·w waits in the
        # negatives' block of dz. One product gives q·w and q·z1.
        w, w_z1, d_outer, scores = ws.extra
        np.subtract(blocks[2], blocks[1], out=w)
        np.matmul(np.multiply(blocks[0], w, out=d_blocks[2]), sums.row_sum, out=scores)
        np.multiply(_expit(scores, b), w_z1, out=d_outer)
        # -q * z1 is the exact negation of the negatives' block.
        np.negative(d_blocks[2], out=d_blocks[1])
    elif loss == "simple":
        # lam * zn - z2 is -z2 + lam * zn exactly: IEEE addition commutes.
        np.subtract(np.multiply(lam, blocks[2], out=d_blocks[0]), blocks[1], out=d_blocks[0])
        np.negative(blocks[0], out=d_blocks[1])
        np.multiply(lam, blocks[0], out=d_blocks[2])
        np.divide(dz, b, out=dz)
    else:
        raw, g, g_diag, f_diag, swapped, d_rows, off_diagonal, one, on_diagonal = ws.extra
        f = losses_mod._cross_corr_matrix(blocks[0], blocks[1], ws.kept, raw)
        # d(total)/dF over B: g = 2·lam·F_ij / B off the diagonal, -2(1 - F_ii) / B on it.
        np.multiply(off_diagonal, f, out=g)
        np.multiply(on_diagonal, np.subtract(one, f_diag, out=g_diag), out=g_diag)
        # Each view's block is the other view's block times g.
        np.matmul(swapped, g, out=d_rows)
    # Back through the normalization, into dz: on the unit sphere
    # (dz - z * ((dz * z) @ row_sum)) / norms, else (dz - col_mean @ dz
    # - z * (col_mean @ (dz * z))) / scale, with both col_mean products in one call.
    np.multiply(dz, z, out=t)
    if ws.model.norm_mode == "sphere":
        np.multiply(z, np.matmul(t, sums.row_sum, out=ws.cols[0]), out=t)
    else:
        means = np.matmul(sums.col_mean, ws.td, out=ws.cols)
        np.multiply(z, means[0], out=t)
        np.subtract(dz, means[1], out=dz)
    d_out = np.divide(np.subtract(dz, t, out=dz), scale, out=dz)
    # Back through the layers: d_pre = d_out * (1 - post**2) after tanh, and
    # d_out = d_pre @ weight for the layer below; no gradient of x is formed.
    for weight, _, _, tanh, post, inputs, d_in, grad_w, grad_b in reversed(layers):
        if tanh:
            np.subtract(1.0, np.square(post, out=post), out=post)
            d_out = np.multiply(d_out, post, out=post)
        np.matmul(d_out.mT, x if inputs is None else inputs, out=grad_w)
        np.matmul(sums.col_sum, d_out, out=grad_b)
        if d_in is not None:
            d_out = np.matmul(d_out, weight, out=d_in)
    return ws.kept


def _loss_terms(stack: np.ndarray, b: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """l1 and l2 per step from a stack of ``_gradient`` results: (S, k·B, d)
    embeddings, or (S, d, d) matrices for cross_corr."""
    if config.loss == "cross_corr":
        return losses_mod._cross_corr_terms(stack)
    blocks = stack.reshape(len(stack), -1, b, stack.shape[-1])
    if config.loss == "info_nce":
        return losses_mod._info_nce_terms(blocks)
    return losses_mod._simple_terms(blocks)


def _expit(t: np.ndarray, over: float = 1.0) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-t)), elementwise, in the shape of
    ``t``, divided by ``over``, which rounds as numpy's division does.

    Uses libm's ``exp`` through ``math.exp``, as ``scipy.special.expit``
    does, so the values are the same; numpy's vectorized ``exp`` differs
    from libm in the last bit on some inputs.
    """
    values = t.ravel().tolist()
    try:
        p = np.array([1.0 / (1.0 + math.exp(-x)) / over for x in values], dtype=np.float64)
    except OverflowError:
        p = np.array([_logistic(x) / over for x in values], dtype=np.float64)
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
    in chunks of at most ``TILE_BYTES // (8·L·(k·B·D + K + S))`` steps, L
    the levels still training and k = 3 views per anchor with negatives,
    else 2: per step and level the chunk holds k·B views of D features, K
    kept floats (k·B·d embeddings, or the d² of F for cross_corr) and S
    norms (k·B, sphere) or variances (d). The chunk runs in two passes.
    First each level's views of the chunk are made by ``_sample_chunk``: the
    stream of ``make_train_batch`` called once per step, decoded from one
    ``random_raw`` block of the level's generator, with each augmentation
    member applied once to all of its views (for a bit generator other than
    PCG64, or at a bounded draw that numpy might reject,
    ``make_train_batch`` itself; see ``_block_draws``). A stack writes each
    level's views straight into its row of one (steps, L, k·B, D) array, so
    no level's views are held twice. Then one step loop runs all levels'
    steps on parameters stacked on a leading axis, in a ``_Workspace`` built
    for the chunk (so again after the stack narrows), computes only the
    gradient and the update, and keeps each step's embeddings (F for
    cross_corr). Last, per level, one vectorized pass of the loss kernels
    gives every step's l1, l2 and total. The kernels reduce only over
    trailing contiguous axes, so each value equals what
    ``loss_and_gradient`` reports for the step, bit for bit.

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
    runs in a workspace of its own, bound to the level's row of the
    parameters, so it writes no buffer of the other levels. A replay that
    raises nothing stands; one that raises ends its level with that
    exception, and the other levels go on.

    Each chunk runs in ``_train_chunk``, whose arrays (the views, the kept
    embeddings, the norms or variances, the parameter snapshot and the
    workspaces) are all its own: they are released when it returns, before
    the next chunk draws, so a chunk holds no array of the one before.
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
    k = 3 if config.loss in _SPHERE_LOSSES else 2
    kb, d = k * config.batch_size, template.output_dim
    kept = d * d if config.loss == "cross_corr" else kb * d
    stat = kb if template.norm_mode == "sphere" else d
    step_bytes = 8 * (kb * dataset.input_dim + kept + stat)
    start = 0
    while live and start < config.steps:
        stop = min(start + max(1, TILE_BYTES // (len(live) * step_bytes)), config.steps)
        levels = [(augs[i], rngs[i], traces[i][start:stop]) for i in live]
        errors = _train_chunk(template, params, dataset, levels, start, k, config)
        for i, error in zip(live, errors):
            results[i] = error
        going_on = [p for p, error in enumerate(errors) if error is None]
        if len(going_on) < len(live):
            params = params[going_on]
            live = [live[p] for p in going_on]
        start = stop
    for p, i in enumerate(live):
        results[i] = (with_params(models[i], params[p]), traces[i])
    return results


def _train_chunk(
    template: EncoderModel,
    params: np.ndarray,
    dataset: Dataset,
    levels: Sequence[tuple[AugmentationSet, np.random.Generator, np.ndarray]],
    start: int,
    k: int,
    config: TrainConfig,
) -> list[Exception | None]:
    """One chunk of ``_train_stack``: the steps from ``start`` of the levels
    whose parameters are the rows of ``params``, one (augmentation set,
    generator, trace rows) per level, as many steps as its trace rows.

    Draws, runs the step loop and its checks, replays the levels that fail
    them, writes each level's trace rows and updates ``params`` in place.
    Returns per level None, or the exception that ends it. Every array of
    the chunk is local here, so all are released before the next chunk
    draws.
    """
    steps, width, b = len(levels[0][2]), len(levels), config.batch_size
    stat_floor = _MIN_NORM if template.norm_mode == "sphere" else _MIN_VAR
    # Floating-point events the caller does not ignore end the unchecked pass.
    unchecked_errstate = {
        event: "ignore" if mode == "ignore" else "raise" for event, mode in np.geterr().items()
    }
    lr = np.array(config.learning_rate)  # 0-d: numpy takes it faster than a float
    # A chunk's arrays are (steps, L, ...), each step's slice one stack, and
    # each level's draws go straight into its row of the views. A single
    # level runs unstacked, on (steps, ...) arrays of its own.
    if width > 1:
        views = np.empty((steps, width, k * b, dataset.input_dim))
        for p, (aug, rng, _) in enumerate(levels):
            views[:, p] = _sample_chunk(dataset, aug, b, steps, k, rng).reshape(steps, k * b, -1)
    else:
        ((aug, rng, _),) = levels
        views = _sample_chunk(dataset, aug, b, steps, k, rng).reshape(steps, k * b, -1)
    # The workspace binds views of params, which the update writes in place.
    current = params if width > 1 else params[0]
    ws = _workspace(template, current, k, b, config)
    flat_grad, update = ws.flat_grad, ws.update
    kept = np.empty((steps, *ws.kept.shape))
    stats = np.empty((steps, *ws.cols.shape[1:]))
    snapshot = params.copy()
    try:
        with np.errstate(**unchecked_errstate):
            for s in range(steps):
                kept[s] = _gradient(ws, views[s], stats[s])
                current -= np.multiply(lr, flat_grad, out=update)
            # With lr > 0 a non-finite gradient makes the parameters
            # non-finite, and they stay so in later steps.
            sound = np.logical_and.reduce(np.isfinite(params), axis=1) & _within(
                stats.reshape(steps, width, -1), stat_floor, axis=(0, 2)
            )
    except FloatingPointError:
        sound = np.zeros(width, dtype=bool)
    level_views = views.reshape(steps, width, k * b, -1)
    level_kept = kept.reshape(steps, width, *kept.shape[-2:])
    errors: list[Exception | None] = [None] * width
    for p in np.flatnonzero(~sound):
        # Replay the level's chunk alone with the checks of every step,
        # under the caller's error state, in a workspace of its own: it
        # raises, warns or goes on as such a loop does.
        level_params = params[p]
        level_params[...] = snapshot[p]
        level = _workspace(template, level_params, k, b, config)
        try:
            for s in range(steps):
                level_kept[s, p] = _gradient(level, level_views[s, p])
                level_params -= np.multiply(lr, level.flat_grad, out=level.update)
                if not np.logical_and.reduce(np.isfinite(level_params)):
                    raise RuntimeError(f"training diverged at step {start + s}")
        except Exception as exc:  # what the level's loop alone raises
            errors[p] = exc
    del views, level_views  # before the loss passes' temporaries
    for p, (_, _, rows) in enumerate(levels):
        if errors[p] is not None:
            continue
        # The loss kernels take each level's steps contiguous, as alone.
        l1, l2 = _loss_terms(np.ascontiguousarray(level_kept[:, p]), b, config)
        rows[:, 1] = losses_mod.recompose(config.loss, l1, l2, config.lam)
        rows[:, 2] = l1
        rows[:, 3] = l2
        # A backstop: a non-finite loss needs non-finite embeddings, whose
        # gradient is non-finite, so the checks above have failed already.
        diverged = np.flatnonzero(~np.isfinite(rows[:, 1]))
        if diverged.size:
            errors[p] = RuntimeError(f"training diverged at step {start + diverged[0]}")
    return errors


# ---------------------------------------------------------------------------
# Lipschitz certificate
# ---------------------------------------------------------------------------


def operator_norm(matrix: np.ndarray) -> float:
    """A verified upper bound on the largest singular value ‖W‖₂, from one
    Gram matrix and a Cholesky factorization; no LAPACK routine runs (Rump,
    BIT 51, 2011; Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, §3.5 and Thm 10.3; u = eps/2, γ_n = nu/(1 − nu)).

    A = W·2^-e, with max |a_ij| in [0.5, 1), so ‖A‖₂ ≥ 0.5. G = fl(AᵀA) or
    fl(AAᵀ) is the k × k Gram of the smaller side, each entry a sum of p
    products, so ‖G − AᵀA‖₂ ≤ γ_p·‖|A|‖₂² ≤ γ_p·F, where F bounds ‖A‖_F².
    For a shift s, B = fl(s·I − G) has a diagonal within u·s of s − G_ii.
    If B's floating-point Cholesky runs to completion, R̂ᵀR̂ = B + ΔB with
    |ΔB| ≤ γ_{k+1}·|R̂ᵀ||R̂|, and ‖R̂‖_F² ≤ tr B/(1 − γ_{k+1}) ≤ k·s(1 + u)/
    (1 − γ_{k+1}); so λ_min(B) > −‖ΔB‖₂ and λ_max(AᵀA) < s + α·t² + β ≤ t²
    for t² = (s + β)/(1 − α), α = (k + 2)²·eps and β = p·eps·F. Each
    constant is at least twice what it bounds; the excess, over 2^-56 as
    F ≥ 1/4, covers its own rounding and every underflow (at most 2^-1074
    an operation, or an entry of A). s is an estimate μ of λ_max(G) times
    1 + η, and η widens until the check passes; μ decides only tightness,
    and F itself, which bounds ‖A‖₂², is the last resort. The result is
    2^e·√t² rounded up.
    """
    w = np.asarray(matrix, dtype=np.float64)
    top = float(np.abs(w).max()) if w.size else 0.0
    if not 0.0 < top < math.inf:
        return 0.0 if top == 0.0 else math.inf
    e = math.frexp(top)[1]
    a = np.ldexp(w, -e)
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    k, p = len(g), max(a.shape)
    f = float(np.vdot(a, a)) * (1.0 + (a.size + 1) * _EPS64)
    beta, mu = p * _EPS64 * f, _top_eigenvalue(g)
    t2 = f
    for j in range(8):
        s = mu * (1.0 + (k + 2) * _EPS64 * 256.0**j)
        bound = _up(_up(s + beta) / (1.0 - (k + 2) ** 2 * _EPS64))
        if bound >= f or _cholesky_completes(g, s):
            t2 = min(bound, f)
            break
    try:
        return _up(math.ldexp(_up(math.sqrt(t2)), e))
    except OverflowError:
        return math.inf


def _top_eigenvalue(g: np.ndarray) -> float:
    """An estimate of the largest eigenvalue of a symmetric positive
    semidefinite ``g``: in closed form at 2 × 2, else the Rayleigh quotient
    of a row of g^N/tr(g^N), N = 2^j squared up until one eigenvalue holds
    all but 1e-8 of the trace, plus one more squaring."""
    if len(g) == 2:
        (a, b), (_, c) = g.tolist()
        return 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    h = g / np.trace(g)
    for _ in range(40):
        settled = np.vdot(h, h) > 1.0 - 1e-8
        h = h @ h
        h /= np.trace(h)
        if settled:
            break
    v = h[np.argmax(h.diagonal())]
    return float(v @ g @ v / (v @ v))


def _cholesky_completes(g: np.ndarray, s: float) -> bool:
    """Whether the outer-product Cholesky factorization of fl(s·I − g), in
    float64, finds every pivot positive."""
    b = -g
    b.flat[:: len(b) + 1] += s
    for j in range(len(b) - 1):
        if not b[j, j] > 0.0:
            return False
        row = b[j, j + 1 :] / math.sqrt(b[j, j])
        b[j + 1 :, j + 1 :] -= row[:, None] * row
    return bool(b[-1, -1] > 0.0)


def lipschitz_upper_bound(model: EncoderModel) -> float:
    """Certified Lipschitz constant of :func:`forward_prenorm`: the product of
    the layer operator norms (tanh has slope at most 1), each product
    rounded up.

    The embedding map's certificate multiplies it by a factor of its output
    normalization, which needs the frozen evaluation map; see
    :func:`augbound.evaluation.embed_views`.
    """
    product = 1.0
    for layer in model.layers:
        product = _up(product * operator_norm(layer.weight))
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
