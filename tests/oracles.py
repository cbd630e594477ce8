"""Point-wise reference forms of what the evaluation computes on a view grid.

``evaluation.embed_views`` freezes a model and embeds a whole view grid in
one network pass, and the pipeline classifies those embeddings in one
``evaluation.classify_batch`` call. The oracles here do the same one map,
one point or one row at a time, so tests can check the batched forms
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from augbound.encoder import EncoderModel, forward_prenorm


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
            return self.model.radius * pre / np.linalg.norm(pre, axis=1, keepdims=True)
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


def nn_classify(centers: np.ndarray, z: np.ndarray) -> int:
    """Nearest-center class for one embedding; ties go to the smaller id."""
    return int(np.argmin(np.sum((centers - z) ** 2, axis=1)))


def error_rate(frozen: FrozenMap, dataset, centers: np.ndarray) -> float:
    """Misclassification rate of the nearest-center rule on the raw samples,
    classified one embedding at a time."""
    z = frozen.embed(dataset.features)
    return float(np.mean([nn_classify(centers, row) != y for row, y in zip(z, dataset.labels)]))
