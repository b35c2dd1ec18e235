"""cfbench: counterfactual explanations (whatif, moc, nice) for tabular
student-success classifiers trained under class-balancing regimes, plus the
benchmark machinery to evaluate explanation quality end-to-end."""

from .balance import (
    ClassWeights,
    cost_weights,
    random_oversample,
    random_undersample,
    smote,
)
from .bench import ExperimentConfig, RunManifest, parse_config, run
from .cfeval import Cell, CellSummary, QualityRecord, aggregate, score
from .cfgen import (
    CfRequest,
    Counterfactual,
    MocConfig,
    MocObjectives,
    moc,
    nice,
    objectives,
    whatif,
)
from .dataset import (
    FAIL,
    PASS,
    FeatureSpec,
    LabeledDataset,
    SplitResult,
    imbalance_ratio,
    ingest_oulad,
    load_csv,
    stratified_split,
)
from .distance import RangeTable, gower, k_nearest
from .forest import (
    CvSpec,
    EvalMetrics,
    Hyperparams,
    RandomForestModel,
    evaluate,
    fit_forest,
    load_model,
    save_model,
    tune,
)
from .rng import seed_for

__version__ = "0.1.0"

__all__ = [
    "FAIL", "PASS",
    "FeatureSpec", "LabeledDataset", "SplitResult",
    "load_csv", "ingest_oulad", "stratified_split", "imbalance_ratio",
    "RangeTable", "gower", "k_nearest",
    "ClassWeights", "random_undersample", "random_oversample", "smote", "cost_weights",
    "Hyperparams", "CvSpec", "EvalMetrics", "RandomForestModel",
    "fit_forest", "evaluate", "tune", "save_model", "load_model",
    "CfRequest", "Counterfactual", "MocConfig", "MocObjectives",
    "objectives", "whatif", "nice", "moc",
    "Cell", "QualityRecord", "CellSummary", "score", "aggregate",
    "ExperimentConfig", "RunManifest", "parse_config", "run", "seed_for",
    "__version__",
]
