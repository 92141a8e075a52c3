"""Information-theoretic dictionary learning for classification.

Greedy selection of compact, discriminative and reconstructive atoms from
an initial dictionary, followed by gradient-ascent atom updates on the
quadratic mutual information between sparse codes and class labels.
"""

from .dataset import (
    Dataset,
    LoadError,
    load_csv,
    mask_pixels,
    save_csv,
    split,
    synth_gaussian_classes,
)
from .sparse_coding import (
    Dictionary,
    Selection,
    ksvd_init,
    load_dictionary,
    load_matrix,
    load_selection,
    omp_codes,
    pinv,
    rmse,
    save_matrix,
    save_selection,
    unit_columns,
)
from .info_measures import (
    GpModel,
    ascent_bandwidth,
    bandwidth_rule,
    bayes_bound,
    median_pairwise_distance,
    build_gp_model,
    class_entropy,
    gp_compact_gains,
    mi_codes_labels,
    qmi,
    recon_gain,
)
from .itds import (
    SelectionResult,
    SelectionWeights,
    WeightsError,
    estimate_lambdas,
    select_dedicated,
    select_shared,
    selection_report,
)
from .itdu import (
    ClassUpdateResult,
    UpdateState,
    backtrack_step,
    update_all_classes,
    update_dictionary,
    update_report,
)
from .classify import (
    EvalReport,
    LinearModel,
    evaluate,
    predict,
    reconstruct_masked,
    train_linear,
)

__version__ = "0.1.0"
