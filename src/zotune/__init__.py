"""Closed-loop constrained tuning of recommendation value-model weights.

The package wires four layers together:

- problem:    hyperparameter points, objective and guardrail expressions
- deltastats: hourly lift estimates from delayed test/control feedback
- gp/optimizer: Gaussian-process beliefs, Thompson selection, proposals
- scheduler/simenv/harness: the round loop, a synthetic service, studies
"""

from .deltastats import (
    DegenerateBaseError,
    DeltaStat,
    DuplicateRoundError,
    EstimateRecord,
    GroupReading,
    NoDataError,
    TaylorMode,
    aggregate,
    hourly_delta_stat,
)
from .gp import (
    CandidateBelief,
    FitFailureError,
    GpSurrogate,
    RejectedInputError,
    sample_delta,
)
from .harness import (
    DEFAULT_SEED_POOL,
    DEFAULT_SEEDS,
    VARIANTS,
    Comparison,
    ExperimentConfig,
    RunReport,
    SingleRun,
    compare_variants,
    delta_problem_from_env,
    emit_series,
    run_experiment,
    run_single,
)
from .optimizer import (
    ProposalResult,
    RejectedSurrogateError,
    SelectionResult,
    propose,
    select,
)
from .problem import (
    AT_LEAST,
    AT_MOST,
    ConfigError,
    ConstraintSpec,
    DimensionMismatchError,
    HyperParam,
    LinearExpr,
    TuningProblem,
    UndefinedGainError,
    gain,
    load_problem,
    save_problem,
    violation,
)
from .scheduler import (
    BucketInit,
    ColdStartError,
    InboundBatch,
    RestoreError,
    RoundPlan,
    Scheduler,
    SchedulerConfig,
)
from .simenv import CONTROL_ID, EnvSpec, SimEnv

__version__ = "0.1.0"

__all__ = [
    "AT_LEAST",
    "AT_MOST",
    "BucketInit",
    "CONTROL_ID",
    "CandidateBelief",
    "ColdStartError",
    "Comparison",
    "ConfigError",
    "ConstraintSpec",
    "DEFAULT_SEEDS",
    "DEFAULT_SEED_POOL",
    "DegenerateBaseError",
    "DeltaStat",
    "DimensionMismatchError",
    "DuplicateRoundError",
    "EnvSpec",
    "EstimateRecord",
    "ExperimentConfig",
    "FitFailureError",
    "GpSurrogate",
    "GroupReading",
    "HyperParam",
    "InboundBatch",
    "LinearExpr",
    "NoDataError",
    "ProposalResult",
    "RejectedInputError",
    "RejectedSurrogateError",
    "RestoreError",
    "RoundPlan",
    "RunReport",
    "Scheduler",
    "SchedulerConfig",
    "SelectionResult",
    "SimEnv",
    "SingleRun",
    "TaylorMode",
    "TuningProblem",
    "UndefinedGainError",
    "VARIANTS",
    "aggregate",
    "compare_variants",
    "delta_problem_from_env",
    "emit_series",
    "gain",
    "hourly_delta_stat",
    "load_problem",
    "propose",
    "run_experiment",
    "run_single",
    "sample_delta",
    "save_problem",
    "select",
    "violation",
    "__version__",
]
