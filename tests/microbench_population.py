"""Timing of the population InfoNCE (``evaluation.population_loss``) on the ring task.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it on its own with

    python -m pytest tests/microbench_population.py

The cases are the ring task of the ``ring_pairs`` benchmark: the 3-d
interleaved two-ring task at 14 samples per class, identity plus a wide
rotation and a scaling, a sphere encoder and the ``info_nce`` loss.

- At grid 5 (26 views), the benchmark's shape: with N·V = 728 anchor rows
  its buffers span several ``TILE_BYTES`` tiles. On the unit sphere the
  kernel takes one product over the N = 28 negative samples per (anchor,
  positive view, negative view) and one ``log`` of it: N·V³ = 492,128
  ``log`` calls, against N²V³ = 13.8 million adds and multiplies.
- At grid 3 (10 views), a job of 1.62 MiB: one ``TILE_BYTES`` tile, but
  two of ``TILE_BYTES // 2``, so with two usable CPUs it is split between
  the calling thread and one helper.
- At grid 5 with the rotation alone (6 views), a job of 0.52 MiB: one tile,
  which runs inline.

The tile buffers are allocated by the calling thread, one set per share of
the tiles, each buffer starting on a 64-byte cache line; the helper thread
allocates none. Each case records in ``extra_info`` the anchor rows per
tile and the tile count, read once, untimed, from the tiles the kernel hands
to ``evaluation._run_split``. The view grid is embedded once before timing,
as ``stage_evaluate`` does, so the timing covers the loss alone.
"""

import pytest

from augbound.augment import (
    AugmentationSet,
    identity,
    rotation_2d,
    scaling,
    view_tensor,
    view_weights,
)
from augbound import evaluation
from augbound.core import GeneratorConfig, generate_dataset
from augbound.encoder import init_encoder
from augbound.evaluation import embed_views, population_loss


def _tiling(monkeypatch, embedded):
    """Anchor rows per tile and the tile count of one population InfoNCE."""
    tiles = []
    run_split = evaluation._run_split

    def watched(work, items, workspaces):
        tiles.append(items)
        run_split(work, items, workspaces)

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_run_split", watched)
        population_loss(embedded, "info_nce")
    (items,) = tiles
    return {"rows_per_tile": items.step, "tiles": len(items)}


@pytest.mark.parametrize(
    "grid_resolution, num_views, num_transforms", [(5, 26, 3), (3, 10, 3), (5, 6, 2)]
)
def test_population_info_nce_ring_14_per_class(
    benchmark, monkeypatch, grid_resolution, num_views, num_transforms
):
    dataset = generate_dataset(
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
    aug = AugmentationSet(
        transforms=(identity(), rotation_2d((0, 1), 1.4, 2.0), scaling(0.85, 1.15, 2.0))[
            :num_transforms
        ],
        grid_resolution=grid_resolution,
    )
    assert aug.num_views == num_views
    model = init_encoder(
        input_dim=3, hidden_dims=(), output_dim=2, norm_mode="sphere", radius=1.0, seed=0
    )
    views = view_tensor(dataset.features, aug)
    weights = view_weights(aug)
    embedded = embed_views(model, views, weights)
    benchmark.extra_info.update(_tiling(monkeypatch, embedded))
    result = benchmark(population_loss, embedded, "info_nce")
    assert result.kind == "info_nce"
