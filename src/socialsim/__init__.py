"""Deterministic social-feed engagement simulator with a factorial experiment
harness and a two-stage (threshold + allocation) logistic analysis pipeline.

Each exported name loads its module on first access (PEP 562), so
``import socialsim`` loads no submodule and a process pays only for the
modules it uses.
"""

import importlib

# Each module's exported names. A module's own name resolves to the module.
_EXPORTS = {
    "core": (
        "ActionKind",
        "CellLog",
        "DESIGN_COLUMNS",
        "Feed",
        "LoadLevel",
        "NormRegime",
        "PostKind",
        "RunConfig",
        "design_matrix",
        "from_obj",
        "popularity_composite",
        "to_obj",
    ),
    "engine": ("LogBuilder", "WorldState", "initialize", "run", "select_feed", "step"),
    "harness": (
        "ExperimentPlan",
        "cell_seed",
        "descriptive_shares",
        "load_experiment",
        "log_digest",
        "read_log",
        "realized_load_audit",
        "run_experiment",
        "write_log",
    ),
    "policy": (
        "Decision",
        "DecisionContext",
        "LlmSpec",
        "ParametricLogitPolicy",
        "ParametricLogitSpec",
        "ScriptedPolicy",
        "ScriptedSpec",
        "build_policy",
        "build_prompt",
        "decide",
        "mock_policy_spec",
        "parse_response",
    ),
    "population": (
        "AgentProfile",
        "FollowGraph",
        "generate_population",
        "generate_seed_corpus",
        "load_corpus",
        "load_population",
        "save_corpus",
        "save_population",
        "top_influencers",
    ),
    "stats": (
        "FittedModel",
        "PatternCounts",
        "Scenario",
        "build_design_matrix",
        "fit_binary_logistic",
        "fit_multinomial_logistic",
        "fit_statistics",
        "predicted_probabilities",
        "table_consistency_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
