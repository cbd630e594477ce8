"""Numerical laboratory for augmentation-driven generalization guarantees.

The package measures how sharply a data augmentation concentrates each
class (via max-clique certificates on augmented-distance graphs), trains
small contrastive encoders with exact manual gradients, and verifies
closed-form error and separation guarantees against the measured
quantities, end to end on synthetic datasets.
"""

from .augment import (
    AugmentationSet,
    Transform,
    additive_shift,
    augmentation_from_spec,
    augmentation_to_spec,
    augmented_distance,
    coordinate_permutation,
    distance_matrix,
    identity,
    rotation_2d,
    sample_views,
    scaling,
    sign_flip_mask,
    transform_from_spec,
    transform_to_spec,
    view_tensor,
    view_weights,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    EmpiricalMeasurements,
    PairBound,
    divergence_threshold,
    eta,
    full_report,
    lemma5_moments,
    rho,
    rho_max,
    save_bound_report,
    tau,
    tau_prime,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
)
from .concentration import (
    EXACT_CLIQUE_BUDGET,
    ConcentrationEstimate,
    ThresholdGraph,
    approx_max_clique,
    build_threshold_graph,
    estimate_sigma,
    exact_max_clique,
    load_concentration,
    save_concentration,
    sigma_delta_curve,
)
from .core import (
    Dataset,
    GeneratorConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .encoder import (
    EncoderModel,
    Layer,
    TrainConfig,
    ViewBatch,
    flat_params,
    forward,
    forward_prenorm,
    init_encoder,
    lipschitz_upper_bound,
    load_model,
    load_trace,
    loss_and_gradient,
    make_train_batch,
    operator_norm,
    save_model,
    save_trace,
    train,
    with_params,
)
from .evaluation import (
    AlignmentStats,
    ClassStats,
    EmbeddedViews,
    FrozenEncoder,
    class_centers,
    class_moments,
    classify_batch,
    embed_views,
    empirical_r_eps,
    error_rate,
    linear_classifier,
    nn_classify,
    population_loss,
)
from .experiments import (
    ConfigError,
    EncoderArch,
    EvalBundle,
    ExperimentConfig,
    ExperimentResult,
    StageError,
    SweepResult,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    run_experiment,
    run_sweep,
    scale_transform_strength,
    stage_bounds,
    stage_concentration,
    stage_dataset,
    stage_evaluate,
    stage_train,
    with_seed_override,
)
from .losses import (
    CrossCorrMatrix,
    LossBreakdown,
    cross_corr_loss,
    cross_correlation,
    info_nce,
    recompose,
    simple_contrastive,
)

__version__ = "0.1.0"
