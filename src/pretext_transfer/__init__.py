"""Representation-only transfer with pseudo-label pre-text training, a
collaborative-representation dictionary classifier, probability fusion and a
five-fold imbalanced-data evaluation harness."""

__version__ = "0.1.0"

from .clustering import (
    ClusterModel,
    extract_projection,
    kmeans_assign,
    kmeans_fit,
    pseudo_label,
)
from .data import (
    FoldPlan,
    LabeledSet,
    SynthConfig,
    UnlabeledSet,
    apply_imbalance,
    generate_domains,
    make_folds,
)
from .dictionary import (
    CRCConfig,
    FeatureDictionary,
    build_dictionary,
    class_probabilities,
)
from .errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from .harness import ExperimentConfig, derive_seed, run_experiment
from .metrics import (
    ConfusionCounts,
    FoldMetrics,
    MetricsReport,
    MetricValues,
    aggregate_folds,
    compute_metrics,
    confusion_counts,
    fuse_predict,
)
from .network import (
    Gradients,
    LayerSpec,
    NetworkState,
    TrainConfig,
    forward,
    init_network,
    load_checkpoint,
    loss_and_grad,
    replace_head,
    save_checkpoint,
    sgd_update,
    train,
)
from .pipeline import pretrain_source, prt_train, tl_train
