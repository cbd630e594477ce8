"""Synthetic labeled datasets with controlled class geometry.

Datasets are small (tens to hundreds of samples) and fully in-memory.
Two manifold families are supported: isotropic blobs with a hard radius
(so class supports can be kept disjoint by construction) and segments of
a ring. Generation is deterministic given the config seed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
import types
from collections.abc import Callable, Iterable, Sequence
from dataclasses import MISSING, dataclass
from functools import cached_property
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "Dataset",
    "GeneratorConfig",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "csv_value",
    "write_csv",
    "spec_dict",
    "from_spec",
]

# Blob noise is clipped to this many multiples of cluster_spread so that a
# class occupies a ball of known radius; the center-spacing rule below then
# really does separate class supports instead of just making overlap unlikely.
_BLOB_RADIUS_FACTOR = 2.0

# Pairwise center distances must exceed this multiple of cluster_spread when
# disjoint classes are requested.
_SPACING_FACTOR = 4.0


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of labeled samples.

    ``features`` has shape (N, D) and ``labels`` shape (N,). Every class
    0 .. max label holds at least one sample; ``num_classes`` and
    ``priors`` (the label frequencies) follow from the labels.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        raw = np.asarray(self.labels)
        try:
            with np.errstate(invalid="ignore"):
                labels = raw.astype(np.int64)
        except OverflowError:
            raise ValueError("labels must be integers in the int64 range") from None
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (N, D) matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must align with features rows")
        changed = np.flatnonzero(labels != raw)
        if changed.size:
            i = int(changed[0])
            raise ValueError(f"label {raw[i].item()!r} of row {i} is not an int64 integer")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        # Only labels below N are counted, so memory stays O(N) whatever the
        # largest label: N labels cannot cover N + 1 classes, so where one is
        # N or more, a class below N is empty.
        top, n = int(labels.max()), labels.size
        empty = np.flatnonzero(np.bincount(labels[labels < n], minlength=n)[: top + 1] == 0)
        if empty.size:
            raise ValueError(
                f"class {empty[0]} has no sample; every class 0 .. {top} needs one"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @cached_property
    def priors(self) -> tuple[float, ...]:
        return tuple(float(c) / self.num_samples for c in np.bincount(self.labels))

    def class_indices(self, class_id: int) -> np.ndarray:
        """Indices of the samples belonging to ``class_id``, ascending."""
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class_id {class_id} out of range")
        return np.flatnonzero(self.labels == class_id)


@dataclass(frozen=True)
class GeneratorConfig:
    """Recipe for a synthetic dataset.

    ``cluster_centers`` is a (K, D) array-like; one center per class.
    ``cluster_spread`` controls the noise scale around each center. When
    ``disjoint_classes`` is set, pairwise center distances must exceed
    4x the spread so that class supports cannot touch.
    """

    num_classes: int
    samples_per_class: int
    cluster_centers: tuple[tuple[float, ...], ...]
    cluster_spread: float
    manifold: Literal["gaussian_blobs", "ring_segments"] = "gaussian_blobs"
    seed: int = 0
    disjoint_classes: bool = True

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if not self.cluster_spread >= 0.0:
            raise ValueError("cluster_spread must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # Compared before numpy, whose message for ragged rows names no row.
        lengths = [np.size(row) for row in self.cluster_centers]
        for k, length in enumerate(lengths):
            if length != lengths[0]:
                raise ValueError(
                    f"cluster_centers row {k} has length {length}, row 0 has length {lengths[0]}"
                )
        centers = np.asarray(self.cluster_centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] != self.num_classes:
            raise ValueError("cluster_centers must provide one center per class")
        # With no coordinate, blob noise has no direction to draw and never ends.
        if centers.shape[1] == 0:
            raise ValueError("cluster_centers need at least one coordinate")
        if not np.all(np.isfinite(centers)):
            raise ValueError("cluster_centers must be finite")
        if self.manifold not in ("gaussian_blobs", "ring_segments"):
            raise ValueError(f"unknown manifold {self.manifold!r}")
        if self.manifold == "ring_segments":
            if centers.shape[1] < 2:
                raise ValueError("ring_segments needs at least 2 feature dimensions")
            radii = np.linalg.norm(centers[:, :2], axis=1)
            if np.any(radii <= 0.0):
                raise ValueError("ring_segments centers must be off-origin in the first two dims")
        if self.disjoint_classes and self.num_classes > 1:
            min_gap = _SPACING_FACTOR * self.cluster_spread
            for i in range(self.num_classes):
                for j in range(i + 1, self.num_classes):
                    gap = float(np.linalg.norm(centers[i] - centers[j]))
                    if gap <= min_gap:
                        raise ValueError(
                            f"centers {i} and {j} are {gap:.4g} apart; disjoint classes "
                            f"need more than {min_gap:.4g}"
                        )
        object.__setattr__(
            self,
            "cluster_centers",
            tuple(tuple(float(v) for v in row) for row in centers),
        )

    @property
    def input_dim(self) -> int:
        return len(self.cluster_centers[0])


def _blob_noise(rng: np.random.Generator, count: int, dim: int, spread: float) -> np.ndarray:
    """Isotropic noise with hard radius ``_BLOB_RADIUS_FACTOR * spread``.

    Radius is |N(0,1)| truncated at the radius factor, direction uniform on
    the sphere, so the envelope does not grow with the dimension.
    """
    if spread == 0.0:
        return np.zeros((count, dim))
    radii = np.abs(rng.standard_normal(count))
    # Truncate by resampling; the loop terminates fast (P(reject) ~ 0.046).
    while True:
        bad = radii > _BLOB_RADIUS_FACTOR
        if not bad.any():
            break
        radii[bad] = np.abs(rng.standard_normal(int(bad.sum())))
    dirs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    while True:
        tiny = norms[:, 0] < 1e-12
        if not tiny.any():
            break
        dirs[tiny] = rng.standard_normal((int(tiny.sum()), dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return spread * radii[:, None] * dirs / norms


def generate_dataset(config: GeneratorConfig) -> Dataset:
    """Draw a dataset from the generator config, deterministically in seed."""
    rng = np.random.default_rng(config.seed)
    centers = np.asarray(config.cluster_centers, dtype=np.float64)
    dim = centers.shape[1]
    per = config.samples_per_class
    blocks = []
    labels = []
    for k in range(config.num_classes):
        if config.manifold == "gaussian_blobs":
            points = centers[k] + _blob_noise(rng, per, dim, config.cluster_spread)
        else:
            points = _ring_segment(rng, centers[k], per, config.cluster_spread)
        blocks.append(points)
        labels.append(np.full(per, k, dtype=np.int64))
    return Dataset(np.concatenate(blocks, axis=0), np.concatenate(labels))


def _ring_segment(
    rng: np.random.Generator, center: np.ndarray, count: int, spread: float
) -> np.ndarray:
    """Points on an arc of the ring through ``center`` in the first two dims.

    The arc is centered at the center's angle with half arc-length equal to
    ``_BLOB_RADIUS_FACTOR * spread``; remaining coordinates are copied from
    the center.
    """
    radius = float(np.linalg.norm(center[:2]))
    base_angle = float(np.arctan2(center[1], center[0]))
    half_angle = min(np.pi, _BLOB_RADIUS_FACTOR * spread / radius)
    angles = base_angle + half_angle * (2.0 * rng.random(count) - 1.0)
    points = np.tile(center, (count, 1)).astype(np.float64)
    points[:, 0] = radius * np.cos(angles)
    points[:, 1] = radius * np.sin(angles)
    return points


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def csv_value(value: object) -> str:
    """One CSV cell: true/false for bools, round-trip repr for floats, else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    """Write ``header`` then ``rows`` to ``path``, each cell as :func:`csv_value` formats it.

    The bytes are those of ``csv.writer``'s default dialect: minimal quoting
    and CRLF line ends. The file is built as one string and written at once.
    Where the rows are of one nonzero length it goes column by column: a
    column of floats takes ``float.__repr__`` and one of ints
    ``int.__repr__``, whose strings never need quoting, and any other column
    ``csv_value``. If neither the header nor any such other cell needs
    quoting (a comma, quote, CR or LF, or an empty cell in one-cell rows),
    every line is a plain join. Any other file, ragged and zero-width rows
    included, is written whole by ``csv.writer`` from ``csv_value`` cells.
    """
    header, rows = list(header), [tuple(row) for row in rows]
    widths = set(map(len, rows))
    plain = len(widths) <= 1 and 0 not in widths and not _needs_quotes(header, len(header))
    columns = []
    for column in zip(*rows) if plain else ():
        kinds = set(map(type, column))
        if all(issubclass(kind, float) for kind in kinds):
            columns.append(map(float.__repr__, column))
        elif kinds == {int}:
            columns.append(map(int.__repr__, column))
        else:
            cells = column if kinds == {str} else [csv_value(cell) for cell in column]
            columns.append(cells)
            plain &= not _needs_quotes(cells, len(rows[0]))
    if plain:
        text = "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""])
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows([csv_value(cell) for cell in row] for row in rows)
        text = out.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _needs_quotes(cells: Sequence[str], width: int) -> bool:
    """Whether ``csv.writer`` quotes any of ``cells``, taken from rows of ``width`` cells."""
    text = "".join(cells)
    return any(c in text for c in ',"\r\n') or width == 1 and "" in cells


def spec_dict(obj: object) -> dict:
    """JSON form of a dataclass instance: at every depth, the fields that are
    set (not ``None``), with tuples as lists. One walk over the fields; a
    leaf is the instance's own value, not a copy."""
    fields = dataclasses.fields(obj)
    return {f.name: _plain(v) for f in fields if (v := getattr(obj, f.name)) is not None}


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value):
        return spec_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def from_spec(tp: object, raw: object, where: str):
    """Read the JSON value ``raw`` as a ``tp``: the inverse of :func:`spec_dict`.

    ``tp`` is a dataclass or an annotation its fields use: ``int``,
    ``float``, ``bool``, ``str``, a ``Literal`` of strings, ``tuple[T, ...]``
    or ``tuple[T, T]`` (a bare ``tuple`` keeps its elements as given), or
    ``X | None``. Nothing is converted but an integer read as a ``float``:
    ``true`` is no number, ``3.7`` no integer, and NaN and infinities are
    refused. A dataclass is read from an object that holds only its fields,
    each one without a default among them; lengths and ranges are the rules
    of its ``__post_init__``. Every error is a ``ValueError`` that names the
    key from ``where``, as in ``dataset.cluster_centers[*]``; a class with a
    ``spec_label`` names its keys after that field's value instead.
    """
    return _reader(tp)(raw, where)


# The JSON values each scalar annotation reads, and what an error calls them.
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def _read_scalar(tp: type, value: object, where: str):
    accepted, kind = _SCALARS[tp]
    if isinstance(value, float) and tp in (int, float) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, not NaN or infinity")
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be {kind}, got {value!r}")
    if tp is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ValueError(f"{where} must be finite, not NaN or infinity") from None


@functools.cache
def _reader(tp: object) -> Callable[[object, str], object]:
    """The reader of one annotation, built once per annotation."""
    if tp in _SCALARS:
        return functools.partial(_read_scalar, tp)
    if dataclasses.is_dataclass(tp):
        return _dataclass_reader(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return functools.partial(_read_choice, args)
    if tp is tuple or origin is tuple:
        element = _reader(args[0]) if args else (lambda value, where: value)
        return functools.partial(_read_tuple, element)
    if origin in (Union, types.UnionType) and args[1:] == (type(None),):
        inner = _reader(args[0])
        return lambda value, where: None if value is None else inner(value, where)
    raise TypeError(f"from_spec cannot read {tp!r}")


def _read_choice(choices: tuple, value: object, where: str) -> str:
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{where} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _read_tuple(element: Callable, value: object, where: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list, got {value!r}")
    # Nested lists share one [*], as in dataset.cluster_centers[*].
    inner = where if where.endswith("[*]") else f"{where}[*]"
    return tuple([element(v, inner) for v in value])


def _dataclass_reader(cls: type) -> Callable[[object, str], object]:
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    readers = {f.name: _reader(hints[f.name]) for f in fields}
    required = [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING]
    label = getattr(cls, "spec_label", None)

    def read(raw: object, where: str):
        if not isinstance(raw, dict):
            raise ValueError(f"{where} must be an object, got {raw!r}")
        if label is not None and isinstance(raw.get(label), str):
            where = raw[label]
        values = {}
        for key, value in raw.items():
            if key not in readers:
                raise ValueError(f"unknown key {where}.{key}; expected one of {', '.join(readers)}")
            values[key] = readers[key](value, f"{where}.{key}")
        for name in required:
            if name not in values:
                raise ValueError(f"{where}.{name} is missing")
        return cls(**values)

    return read


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to ``path`` as CSV: a header row, then one row per sample."""
    write_csv(
        path,
        [f"f{j}" for j in range(dataset.input_dim)] + ["label"],
        ([*row.tolist(), int(label)] for row, label in zip(dataset.features, dataset.labels)),
    )


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        expected = [f"f{j}" for j in range(len(header) - 1)] + ["label"]
        if header != expected or len(header) < 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        dim = len(header) - 1
        rows: list[list[float]] = []
        labels: list[int] = []
        for idx, row in enumerate(reader, start=1):
            if len(row) != dim + 1:
                raise ValueError(f"{path}: row {idx} has {len(row)} fields, expected {dim + 1}")
            try:
                rows.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {idx} is malformed: {exc}") from None
            if not 0 <= labels[-1] < 2**63:
                raise ValueError(f"{path}: row {idx} has label {labels[-1]} outside 0 .. 2**63 - 1")
    if not rows:
        raise ValueError(f"{path}: no samples")
    try:
        return Dataset(rows, labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
