"""Distance-supervised embedding regression with generalization certificates.

Learns maps from a feature space into an embedding space whose pairwise
Euclidean distances regress onto a supervised distance matrix, and
assembles Rademacher-complexity certificates on the generalization error
for norm-constrained linear and kernel hypothesis classes.
"""

from .bounds import (
    BoundCertificate,
    CertificateInputs,
    certify,
    empirical_rademacher_mc,
    generalization_bound,
    loss_bound_M,
    mcdiarmid_term,
    rademacher_bound_kernel,
    rademacher_bound_linear,
)
from .core import (
    ConfusionMatrix,
    DataRadii,
    DistanceMatrix,
    SampleMatrix,
    ValidationError,
    confusion_to_distance,
    data_radii,
    empirical_risk,
    pairwise_distances,
    read_matrix_csv,
    validate_distance_matrix,
    write_matrix_csv,
)
from .harness import (
    ExperimentReport,
    SyntheticSpec,
    TrialResult,
    generate_synthetic,
    holdout_risk,
    run_coverage_experiment,
)
from .hypotheses import (
    KernelClass,
    KernelMap,
    LinearClass,
    LinearMap,
    embedding_distance_matrix,
    load_model,
    model_norm,
    project_norm_ball,
    save_model,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    gram,
    kernel_eval,
    psd_check,
)
from .optimizer import (
    TrainConfig,
    TrainReport,
    risk_gradient,
    smoothed_risk,
    train,
)

__version__ = "0.1.0"
