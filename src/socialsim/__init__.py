"""Deterministic social-feed engagement simulator with a factorial experiment
harness and a two-stage (threshold + allocation) logistic analysis pipeline."""

from .core import (
    ActionKind,
    CellLog,
    Feed,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
    from_obj,
    popularity_composite,
    to_obj,
)
from .engine import LogBuilder, WorldState, initialize, run, select_feed, step
from .harness import (
    ExperimentPlan,
    cell_seed,
    descriptive_shares,
    load_experiment,
    log_digest,
    read_log,
    realized_load_audit,
    run_experiment,
    write_log,
)
from .policy import (
    Decision,
    DecisionContext,
    LlmSpec,
    ParametricLogitPolicy,
    ParametricLogitSpec,
    ScriptedPolicy,
    ScriptedSpec,
    build_policy,
    build_prompt,
    decide,
    mock_policy_spec,
    parse_response,
)
from .population import (
    AgentProfile,
    FollowGraph,
    generate_population,
    generate_seed_corpus,
    load_corpus,
    load_population,
    save_corpus,
    save_population,
    top_influencers,
)
from .stats import (
    DESIGN_COLUMNS,
    FittedModel,
    PatternCounts,
    Scenario,
    build_design_matrix,
    design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    fit_statistics,
    predicted_probabilities,
    table_consistency_check,
)

__version__ = "0.1.0"
