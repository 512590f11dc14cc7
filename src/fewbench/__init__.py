"""fewbench: a desk-scale few-shot learning benchmark.

Episodic samplers, classic few-shot heads (prototypes, power-transform +
optimal-transport label assignment, shrunken quadratic discriminants,
logistic regression, first-order MAML), deterministic seeded evaluation
with confidence intervals, and a budgeted two-process competition
pipeline with a leaderboard.
"""

from .api import (
    LearnerState,
    MethodConfig,
    PredictorState,
    Provenance,
    load_learner,
    meta_fit,
    parse_learner,
    render_learner,
    save_learner,
)
from .dataset import (
    ClassRecord,
    DatasetTable,
    MetaSplit,
    SyntheticSpec,
    bayes_oracle_accuracy,
    generate_synthetic,
    load_feature_dataset,
    parse_feature_dataset,
    render_feature_dataset,
    split_classes,
    write_feature_dataset,
)
from .errors import (
    ArgumentError,
    ArtifactError,
    BenchError,
    BudgetExceededError,
    ConditioningError,
    ConfigError,
    DivergenceError,
    EpisodeFormatError,
    EvaluationError,
    NumericError,
    ParseError,
    ProtocolError,
    ReportError,
    SamplingError,
    ShapeError,
)
from .evaluation import (
    AggregateScore,
    EpisodeScore,
    RunResult,
    cat_accuracy,
    ci95,
    evaluate_learner,
    final_score,
    render_score_report,
)
from .heads import (
    LinearHead,
    PowerTransformParams,
    Prototypes,
    QdaModel,
    SinkhornConfig,
    TransportPlan,
    compute_prototypes,
    linear_head_fit,
    linear_head_predict,
    power_transform,
    proto_labels,
    proto_predict,
    ptmap_fit_predict,
    qda_fit,
    qda_predict,
    rectified_proto_predict,
    sinkhorn,
)
from .fomaml import InnerConfig, MlpParams, OuterConfig, inner_adapt, init_mlp, meta_train
from .pipeline import (
    BudgetClock,
    LeaderboardEntry,
    PhaseConfig,
    leaderboard_report,
    load_config,
    parse_config_text,
    run_ingestion,
    run_phase,
    run_scoring,
)
from .rng import RngState
from .sampler import (
    ALL_REMAINING,
    Episode,
    EpisodeSpec,
    episode_shape,
    episode_stream,
    sample_batch,
    sample_block,
    sample_episode,
)

__version__ = "0.1.0"
