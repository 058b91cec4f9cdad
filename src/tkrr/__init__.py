"""Transfer learning for kernel ridge regression.

Two estimators around a common KRR core: a two-step fit that pools a known
transferable source set and then debiases on the target, and a sparse
aggregation that discovers the transferable set by ranking source
contrasts and convexly combining two candidate fits. A sweep harness with
synthetic generators, CSV study loading, and SVG charting turns either
into benchmark tables.
"""

from .aggregate import (
    AggregateModel,
    CandidateSet,
    aew_aggregate,
    build_candidates,
    hyper_sparse_aggregate,
    prepare_candidates,
    rank_contrasts,
    sa_tkrr,
    split_uniform,
)
from .charts import ChartSpec, emit_svg_lines
from .datasets import (
    Standardizer,
    StudyConfig,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_studies,
    subsample_split,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    SummaryRow,
    config_from_json,
    emit_csv,
    prediction_error,
    run_sweep,
    summarize,
)
from .kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    SpdSolveError,
    TooFewRowsError,
    WeightedSum,
    gram_matrix,
    ridge_system,
    rkhs_norm_diff,
    spd_solve,
)
from .krr import (
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from .rng import derive_seed, philox_stream
from .synthetic import (
    SimSpec,
    gen_scenario,
    gen_study,
    gen_test,
    gen_true_function,
    scenario_to_csv,
)
from .transfer import (
    SourceCollection,
    fit_ah_tkrr,
    fit_debias,
    fit_pooled,
)

__version__ = "0.1.0"
