"""Reference forms that tests check the batched and product forms against.

``evaluation.embed_views`` freezes a model and embeds a whole view grid in
one network pass, and the pipeline classifies those embeddings in one
``evaluation.classify_batch`` call. The oracles here do the same one map,
one point or one row at a time, so tests can check the batched forms
against them.

``reduce_gradient`` is the training step's gradient with every sum an
``np.add.reduce``, the formulation the step had before its sums became
products with vectors of ones.

``forward`` is the embedding map of a model on one batch, normalized by
``encoder._norm_forward`` with the batch's own statistics. ``load_model``
reads back a ``model.bin`` written by ``encoder.save_model``. The pipeline
calls neither.

``recursive_search`` is ``concentration._search`` as a recursion, one call
per search node: the form the search had before it ran on an explicit
stack, and the reference for its clique and node budget rule.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from augbound import encoder, losses
from augbound.concentration import ThresholdGraph, _adjacency_masks
from augbound.encoder import _MODEL_MAGIC, EncoderModel, Layer, forward_prenorm, with_params


@dataclass(frozen=True)
class FrozenMap:
    """The frozen embedding map of ``embed_views`` as a point-wise function.

    ``shift``/``scale`` are a batch-standardized model's statistics over
    the weighted view grid it was frozen on; both are None for a sphere
    model, which keeps its own projection.
    """

    model: EncoderModel
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Embeddings of raw points, one per row of ``x``."""
        pre = forward_prenorm(self.model, x)
        if self.shift is None:
            return pre / np.linalg.norm(pre, axis=1, keepdims=True)
        return (pre - self.shift) / self.scale


def freeze(model: EncoderModel, views: np.ndarray, weights: np.ndarray) -> FrozenMap:
    """The map ``embed_views(model, views, weights)`` embeds with."""
    if model.norm_mode != "batch_standardized":
        return FrozenMap(model)
    n, v, _ = views.shape
    pre = forward_prenorm(model, views.reshape(n * v, -1))
    w = np.tile(weights, n) / n
    mu = w @ pre
    return FrozenMap(model, mu, np.sqrt(w @ (pre - mu) ** 2))


def forward(model: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Embeddings for a batch (or single point, returned as (1, d)); batch
    standardization uses the statistics of the batch it is given."""
    y = forward_prenorm(model, x)
    return encoder._norm_forward(model, y, encoder._sums(*y.shape))[0]


def nn_classify(centers: np.ndarray, z: np.ndarray) -> int:
    """Nearest-center class for one embedding; ties go to the smaller id."""
    return int(np.argmin(np.sum((centers - z) ** 2, axis=1)))


def error_rate(frozen: FrozenMap, dataset, centers: np.ndarray) -> float:
    """Misclassification rate of the nearest-center rule on the raw samples,
    classified one embedding at a time."""
    z = frozen.embed(dataset.features)
    return float(np.mean([nn_classify(centers, row) != y for row, y in zip(z, dataset.labels)]))


def reduce_gradient(model: EncoderModel, batch, config) -> tuple[np.ndarray, np.ndarray]:
    """The flat loss gradient of ``encoder.loss_and_gradient`` with the row
    norms, scores, batch means and variances, their backward sums and the
    bias gradients summed by ``np.add.reduce``; and its magnitude, the
    same backward pass on the absolute values of every term.

    A sum's rounding is bounded by a multiple of eps times the sum of its
    terms' magnitudes, not of its value, and the backward pass through the
    normalization cancels: near a stationary point of ``cross_corr`` the
    gradient is far smaller than its terms. The magnitude is the scale of
    that rounding."""
    b = batch.size
    views = (batch.anchors, batch.positives, batch.negatives)
    x = np.concatenate(views[: 2 if config.loss == "cross_corr" else 3])
    y, activations = encoder._forward_layers(model, x)
    if model.norm_mode == "sphere":
        norms = np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True))
        z = yhat = y / norms
    else:
        centered = y - np.add.reduce(y, axis=0) / len(y)
        scale = np.sqrt(np.add.reduce(centered**2, axis=0) / len(y))
        z = centered / scale
    d = z.shape[1]
    blocks = z.reshape(-1, b, d)
    dz = np.empty_like(z)
    d_blocks = dz.reshape(-1, b, d)
    if config.loss == "info_nce":
        pos, neg = np.add.reduce(blocks[1:] * blocks[0], axis=-1)
        p_neg = encoder._expit(neg - pos)[:, None]
        d_blocks[0] = p_neg * (blocks[2] - blocks[1]) / b
        d_blocks[2] = p_neg * blocks[0] / b
        d_blocks[1] = -d_blocks[2]
    elif config.loss == "simple":
        d_blocks[0] = (config.lam * blocks[2] - blocks[1]) / b
        d_blocks[1] = -blocks[0] / b
        d_blocks[2] = config.lam * blocks[0] / b
    else:
        f = losses._cross_corr_matrix(blocks[0], blocks[1])
        g = 2.0 * config.lam * f
        g.flat[:: d + 1] = -2.0 * (1.0 - f.diagonal())
        d_blocks[0] = blocks[1] @ g / b
        d_blocks[1] = blocks[0] @ g / b
    if model.norm_mode == "sphere":
        inner = np.add.reduce(dz * yhat, axis=1, keepdims=True)
        d_out = (dz - yhat * inner) / norms
        inner_abs = np.add.reduce(abs(dz * yhat), axis=1, keepdims=True)
        d_abs = (abs(dz) + abs(yhat) * inner_abs) / norms
    else:
        n = len(dz)
        mean_dz = np.add.reduce(dz, axis=0) / n
        d_out = (dz - mean_dz - z * (np.add.reduce(dz * z, axis=0) / n)) / scale
        mean_abs = np.add.reduce(abs(dz), axis=0) / n
        d_abs = (abs(dz) + mean_abs + abs(z) * (np.add.reduce(abs(dz * z), axis=0) / n)) / scale
    parts, magnitude = [], []
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        slope = 1.0 - activations[i + 1] ** 2 if layer.activation == "tanh" else 1.0
        d_pre, d_pre_abs = d_out * slope, d_abs * slope
        parts += (np.add.reduce(d_pre, axis=0), (d_pre.T @ activations[i]).ravel())
        magnitude += (np.add.reduce(d_pre_abs, axis=0), (d_pre_abs.T @ abs(activations[i])).ravel())
        if i:
            d_out, d_abs = d_pre @ layer.weight, d_pre_abs @ abs(layer.weight)
    return np.concatenate(parts[::-1]), np.concatenate(magnitude[::-1])


def load_model(path: str) -> tuple[EncoderModel, int | None]:
    """The model and seed of a ``model.bin``; a file that is not one, or
    whose header records a radius other than 1, raises ValueError naming
    the path."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MODEL_MAGIC))
        if magic != _MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        # The rest is read from the file: a truncated or edited file fails
        # somewhere in here, and the error names the file.
        try:
            (blob_len,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(blob_len).decode())
            params = np.frombuffer(fh.read(), dtype="<f8")
            if header["radius"] != 1.0:
                raise ValueError(f"radius {header['radius']!r} is not 1")
            layers = []
            for (d_out, d_in), act in zip(header["layer_dims"], header["activations"]):
                layers.append(Layer(np.zeros((d_out, d_in)), np.zeros(d_out), act))
            skeleton = EncoderModel(tuple(layers), norm_mode=header["norm_mode"])
            return with_params(skeleton, params), header["seed"]
        except (struct.error, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed model file: {exc!r}") from None


def recursive_search(graph: ThresholdGraph, node_budget: int | None) -> tuple[int, ...]:
    """``concentration._search`` with one recursive call per search node."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("empty graph has no clique")
    adj = _adjacency_masks(graph.adjacency)
    limit = math.inf if node_budget is None else node_budget
    best: list[int] = []
    nodes = 0

    def extend(current: list[int], candidates: int) -> None:
        nonlocal best, nodes
        nodes += 1
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
            if nodes >= limit:
                return

    extend([], (1 << n) - 1)
    return tuple(best)
