"""Numerical laboratory for augmentation-driven generalization guarantees.

The package measures how sharply a data augmentation concentrates each
class (via max-clique certificates on augmented-distance graphs), trains
small contrastive encoders with exact manual gradients, and verifies
closed-form error and separation guarantees against the measured
quantities, end to end on synthetic datasets.

Names are imported from their modules (``from augbound.experiments import
run_experiment``); the package root binds only ``__version__``.
"""

__version__ = "0.1.0"
