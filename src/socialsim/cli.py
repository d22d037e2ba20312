"""Command-line entry point: generate inputs, simulate, analyze, and report.

Subcommands: gen-population, gen-corpus, simulate, analyze, report.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import (
    ACTIONS,
    LOADS,
    NORMS,
    CellLog,
    ConfigurationError,
    FormatError,
    LoadLevel,
    NormRegime,
    RunParameters,
    check_seed,
    from_obj,
    read_table,
    read_text,
    write_table,
)

# The stage modules and the names this module calls from each. A command binds
# them here (`_bind`) when it runs, so a process loads only the stage modules
# of its own command; the module's attribute lookup binds them too, so a test
# or a tracer can replace a name before the command runs.
_STAGE_NAMES = {
    "figures": (),
    "harness": ("ExperimentPlan", "descriptive_shares", "load_experiment", "realized_load_audit", "run_experiment"),
    "population": (
        "generate_population",
        "generate_seed_corpus",
        "load_corpus",
        "load_population",
        "population_digest",
        "save_corpus",
        "save_population",
    ),
    "stats": (
        "COEFFICIENT_COLUMNS",
        "FittedModel",
        "PatternCounts",
        "Scenario",
        "build_design_matrix",
        "fit_binary_logistic",
        "fit_multinomial_logistic",
        "load_model",
        "predicted_probabilities",
        "read_scenario_csv",
        "save_model",
        "write_coefficient_csv",
    ),
}
_STAGE_OF = {name: module for module, names in _STAGE_NAMES.items() for name in (module, *names)}


def _bind(*modules: str) -> None:
    """Bind each stage module and its names in this module's namespace.

    A name already bound stays as it is: the first binding, or whatever a
    test or a tracer set in its place, is what the commands call.
    """
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        namespace.setdefault(module, loaded)
        for name in _STAGE_NAMES[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = _STAGE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


API_KEY_ENV = "SOCIALSIM_LLM_API_KEY"

_NORM_ALIASES = {
    "none": NormRegime.NO_NORM,
    "no_norm": NormRegime.NO_NORM,
    "like": NormRegime.LIKE_DOMINANT,
    "like_dominant": NormRegime.LIKE_DOMINANT,
    "repost": NormRegime.REPOST_DOMINANT,
    "repost_dominant": NormRegime.REPOST_DOMINANT,
}


def _parse_cell(text: str) -> tuple[LoadLevel, NormRegime]:
    """The cell of a --cell value: exactly the two tokens load=<level> and norm=<regime>, in either order."""
    parts = dict(kv.partition("=")[::2] for kv in text.split(","))
    if sorted(parts) != ["load", "norm"] or text.count(",") != 1 or text.count("=") != 2:
        raise ConfigurationError(f"--cell must look like load=<level>,norm=<regime>, got {text!r}")
    try:
        load = LoadLevel(parts["load"].strip().lower())
    except ValueError as e:
        raise ConfigurationError(f"unknown load level {parts['load']!r}") from e
    norm = _NORM_ALIASES.get(parts["norm"].strip().lower())
    if norm is None:
        raise ConfigurationError(f"unknown norm regime {parts['norm']!r}")
    return load, norm


def cmd_gen_population(args: argparse.Namespace) -> int:
    _bind("population")
    check_seed(args.seed, "--seed")
    profiles, graph = generate_population(args.n, args.seed)
    save_population(profiles, graph, args.out)
    print(f"wrote {len(profiles)} agents ({graph.n_edges} follow edges) to {args.out}")
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    _bind("population")
    check_seed(args.seed, "--seed")
    corpus = generate_seed_corpus(args.seed, size=args.size)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} seed posts to {args.out}")
    return 0


@dataclass
class SimulateInputs:
    """A simulate config's keys besides the plan's: a file path (relative to the config) for each input,
    or else the seed to generate it from, by default the plan's base seed."""

    population: str | None = None
    corpus: str | None = None
    population_seed: int = None  # type: ignore[assignment]  # absent: the base seed; null is not a seed
    corpus_seed: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_seed(self.population_seed, "population_seed")
        check_seed(self.corpus_seed, "corpus_seed")


def read_config(cfg: object) -> tuple[ExperimentPlan, SimulateInputs]:
    """The plan and the inputs of a simulate config object, each read by core.from_obj."""
    _bind("harness")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config must be a JSON object, got {cfg!r}")
    input_keys = {f.name for f in fields(SimulateInputs)}
    plan = from_obj(ExperimentPlan, {k: v for k, v in cfg.items() if k not in input_keys}, "plan key")
    inputs = from_obj(SimulateInputs, {k: v for k, v in cfg.items() if k in input_keys}, "plan key")
    return plan, inputs


def _check_out(out: str, is_file: bool) -> None:
    """ConfigurationError unless --out can be written: a file's --out is no directory, and the directory --out is or is in exists or can be made."""
    if is_file and Path(out).is_dir():
        raise ConfigurationError(f"--out {out} is a directory")
    path = Path(out).parent if is_file else Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigurationError(f"--out {out}: {existing} is not a directory")


# The paths simulate writes under --out, each a directory (True) or a file (False).
_SIMULATE_OUT = {"logs": True, "population.jsonl": False, "corpus.jsonl": False, "manifest.json": False, "manifest.json.part": False}


def _check_run_dir(out: str) -> None:
    """ConfigurationError if a path simulate writes under --out is in its way: a directory where it writes a file, or anything else where it makes a directory."""
    for name, is_dir in _SIMULATE_OUT.items():
        path = Path(out) / name
        if (path.exists() or path.is_symlink()) and path.is_dir() != is_dir:
            raise ConfigurationError(f"--out {out}: {path} is {'not a directory' if is_dir else 'a directory'}")


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_run_dir(args.out)  # before any input is read or any cell runs
    _bind("harness", "population")
    config_path = Path(args.config)
    try:
        cfg = json.loads(read_text(config_path, "config"))
    except json.JSONDecodeError as e:
        raise FormatError(f"config is not valid JSON: {e}") from None

    if isinstance(cfg, dict):
        if args.policy == "mock":
            cfg.pop("policy", None)  # the plan's default policy is the mock
        if args.seed is not None:
            cfg["base_seed"] = args.seed
        policy = cfg.get("policy")
        fixture_path = policy.get("fixture_path") if isinstance(policy, dict) else None
        if isinstance(fixture_path, str) and fixture_path:
            policy["fixture_path"] = str(_resolve(config_path, fixture_path))  # relative to the config, as inputs are

    try:
        plan, inputs = read_config(cfg)

        if inputs.population:
            profiles, graph = load_population(_resolve(config_path, inputs.population))
        else:
            seed = plan.base_seed if inputs.population_seed is None else inputs.population_seed
            profiles, graph = generate_population(plan.n_agents, seed)
        if inputs.corpus:
            corpus = load_corpus(_resolve(config_path, inputs.corpus))
        else:
            corpus = generate_seed_corpus(plan.base_seed if inputs.corpus_seed is None else inputs.corpus_seed)
        if len(profiles) != plan.n_agents:
            raise ConfigurationError(
                f"plan expects {plan.n_agents} agents but population has {len(profiles)}"
            )
        cells = [_parse_cell(args.cell)] if args.cell else None
        if args.workers < 1:
            raise ConfigurationError(f"--workers must be at least 1, got {args.workers}")
    except (ConfigurationError, FormatError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        manifest = run_experiment(
            plan,
            profiles,
            graph,
            corpus,
            args.out,
            workers=args.workers,
            cells=cells,
            api_key=os.environ.get(API_KEY_ENV),
        )
    except OSError as e:  # a file of the run that cannot be written stops it, with no traceback
        print(f"error: {e}", file=sys.stderr)
        return 1
    failed = [c for c in manifest["cells"] if c.get("status") != "ok"]
    for c in manifest["cells"]:
        status = c.get("status")
        print(f"cell {c['load']}/{c['norm']} rep {c['replication']}: {status}" + (f" ({c.get('error')})" if status != "ok" else f" {c['rows']} rows"))
    print(f"manifest: {Path(args.out) / 'manifest.json'}")
    return 1 if failed else 0


def _resolve(config_path: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (config_path.parent / p)


def cmd_analyze(args: argparse.Namespace) -> int:
    _bind("harness", "population", "stats")
    logs_dir = Path(args.logs)
    if not (logs_dir / "manifest.json").exists():
        print(f"error: no manifest.json under {logs_dir}", file=sys.stderr)
        return 1
    manifest, cells = load_experiment(logs_dir)
    population_path = logs_dir / "population.jsonl"
    profiles, graph = load_population(population_path)
    recorded = manifest.get("population_sha256")
    if recorded is not None and population_digest(profiles, graph) != recorded:
        raise FormatError(f"{population_path}: population digest differs from the manifest's population_sha256 {recorded}")

    # One pass over the cells: each log is reduced to its two table rows and its
    # pattern counts, then dropped before the next one is read.
    shares_rows, audit_rows, tables = [], [], []
    for cell, log in cells:
        shares_rows.append(_shares_row(cell, log))
        audit_rows.append(_audit_row(cell, log, graph))
        tables.append(PatternCounts.of(log.exposures))
        del log  # else the loop variable holds this log while the next is read
    table = PatternCounts.fold(tables)
    if not table.total.size:
        print("error: logs contain no exposure records", file=sys.stderr)
        return 1

    # Every stage is checked and fitted before anything is written: a failed analysis leaves no output.
    stages = [stage for stage in ("threshold", "allocation") if args.stage in (stage, "both")]
    for stage in stages:
        empty = _empty_cells(table, stage)
        if empty:
            print(f"error: {stage} stage cannot be fitted: no rows in cell(s) {', '.join(empty)}", file=sys.stderr)
            return 1
    models = []
    for stage in stages:
        fit = fit_binary_logistic if stage == "threshold" else fit_multinomial_logistic
        try:
            X, names, counts = build_design_matrix(table, stage)
            model = fit(X, counts, terms=names)
        except ValueError as e:
            print(f"error: {stage} stage cannot be fitted: {e}", file=sys.stderr)
            return 1
        models.append(model)
        fit_line = f" mcfadden={model.metrics.mcfadden:.3f}" if stage == "threshold" else ""
        print(f"{stage}: n={model.n_obs} k={model.k} converged={model.converged}{fit_line}")
        if not model.converged:
            for line in model.diagnostics:
                print(f"  {line}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "descriptive_shares.csv", _SHARES_COLUMNS, shares_rows)
    write_table(out / "load_audit.csv", _AUDIT_COLUMNS, audit_rows)
    for model in models:
        write_coefficient_csv(model, out / f"{model.stage}_coefficients.csv")
        save_model(model, out / f"{model.stage}_model.json")
    write_table(out / "fit_metrics.csv", _METRICS_COLUMNS, [_metrics_row(model) for model in models])
    print(f"analysis written to {out}")
    return 0


def _empty_cells(table: PatternCounts, stage: str) -> list[str]:
    """The load/norm cells where ``stage`` has no row (exposures for threshold, engagements for allocation).

    The design's load x norm interactions cannot be fitted without a row in each of the 12 cells.
    """
    used = table.classes(stage).any(axis=1)
    present = np.zeros((len(LOADS), len(NORMS)), dtype=bool)
    present[table.load[used], table.norm[used]] = True
    return [f"{LOADS[i].value}/{NORMS[j].value}" for i, j in np.argwhere(~present).tolist()]


# The columns analyze writes to each table it derives from the logs and the fits.
_SHARES_COLUMNS = ("cell", "n", *(a.value for a in ACTIONS))
_AUDIT_COLUMNS = ("cell", "n_activations", "mean", "min", "max")
_METRICS_COLUMNS = ("stage", "n", "k", "ll_full", "ll_null", "chi2", "df", "mcfadden", "aic", "converged")


def _metrics_row(model: FittedModel) -> dict:
    return {
        "stage": model.stage,
        "n": model.n_obs,
        "k": model.k,
        "ll_full": model.ll_full,
        "ll_null": model.ll_null,
        **asdict(model.metrics),
        "converged": model.converged,
    }


def _shares_row(cell: str, log: CellLog) -> dict:
    shares = descriptive_shares(log)
    return {"cell": cell, "n": shares.n_records, **{k: f"{v:.6f}" for k, v in shares.shares.items()}}


def _audit_row(cell: str, log: CellLog, graph) -> dict:
    """An empty cell's mean, min and max are None, which the csv module writes as empty fields."""
    audit = realized_load_audit(log, graph)
    mean = None if audit.mean is None else f"{audit.mean:.4f}"
    return {"cell": cell, "n_activations": audit.n_activations, "mean": mean, "min": audit.min, "max": audit.max}


def _cell_shares(path: Path, rows: list[tuple[int, dict[str, str]]]) -> list[tuple[str, dict[str, float]]]:
    """The (cell, action shares) of descriptive_shares.csv's rows, each share a number in [0, 1]."""
    cells = []
    for number, values in rows:
        try:
            shares = {a.value: float(values[a.value]) for a in ACTIONS}
            for a, share in shares.items():
                if not 0.0 <= share <= 1.0:
                    raise ValueError(f"{a} share must be a number in [0, 1], got {values[a]!r}")
        except ValueError as e:
            raise FormatError(f"{path}, line {number}: {e}") from None
        cells.append((values["cell"], shares))
    return cells


# The curve figures: the stage whose model draws it, the rows' action (none for p(engage)), file, title and y label.
_CURVE_FIGURES = [("threshold", None, "threshold_probability_curves.svg", "Predicted engagement probability by popularity signal", "p(engage)")]
_CURVE_FIGURES += [
    ("allocation", a, f"allocation_{a}_curves.svg", f"Predicted probability of {a} among engagements", f"p({a} | engage)")
    for a in ("like", "repost", "quote")
]


def _report_tables() -> list[tuple[str, str, str, tuple[str, ...]]]:
    """The analysis tables report.md embeds, in its order: file, section title, what a row is, the columns it must have."""
    return [
        ("fit_metrics.csv", "Model fit", "stage", _METRICS_COLUMNS),
        ("threshold_coefficients.csv", "Threshold model coefficients", "term", COEFFICIENT_COLUMNS),
        ("allocation_coefficients.csv", "Allocation model coefficients", "term", COEFFICIENT_COLUMNS),
        ("load_audit.csv", "Realized algorithmic load", "cell", _AUDIT_COLUMNS),
        ("descriptive_shares.csv", "Action shares by condition", "cell", ("cell", *(a.value for a in ACTIONS))),
    ]


def cmd_report(args: argparse.Namespace) -> int:
    _bind("figures", "stats")
    analysis = Path(args.analysis)
    for name in ("descriptive_shares.csv", "threshold_model.json", "fit_metrics.csv"):
        if not (analysis / name).exists():
            print(f"error: missing analysis file: {analysis / name}", file=sys.stderr)
            return 1

    # Every input is read once and every file rendered before --out is created: a bad input file writes nothing.
    models = [load_model(path) for path in (analysis / "threshold_model.json", analysis / "allocation_model.json") if path.exists()]
    grid = read_scenario_csv(args.grid) if args.grid else None
    tables = {
        name: (title, read_table(analysis / name, what, columns))
        for name, title, what, columns in _report_tables()
        if (analysis / name).exists()
    }
    cells = _cell_shares(analysis / "descriptive_shares.csv", tables["descriptive_shares.csv"][1])
    files = {"shares_by_condition.svg": figures.stacked_share_svg(cells)}

    rows = {model.stage: predicted_probabilities(model, grid or _default_grid(model)) for model in models}
    unconverged = []  # figures drawn from a fit whose rows are flagged
    for stage, action, name, title, y_label in _CURVE_FIGURES:
        if stage not in rows:
            continue
        curves: dict[tuple[str, str], list] = {}
        for r in rows[stage]:
            if r.get("action") == action:
                curves.setdefault((r["load"], r["norm"]), []).append((r["composite"], r["p"], r["lo"], r["hi"]))
        files[name] = figures.probability_curves_svg(curves, title=title, y_label=y_label)
        if any(r["flagged"] for r in rows[stage]):
            unconverged.append(name)
    reasons = [f"- {model.stage}: {line}" for model in models if not model.converged for line in model.diagnostics]
    files["report.md"] = _markdown_report(tables, sorted(files), sorted(unconverged), reasons)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    print(f"report written to {out}")
    return 0


def _default_grid(model: FittedModel) -> list[Scenario]:
    """41 composites from 0 to the model's largest (at least 1) in each load x norm cell."""
    grid = np.linspace(0.0, max(model.composite_max, 1.0), 41)
    return [Scenario(composite=float(c), load=load, norm=norm) for load in LOADS for norm in NORMS for c in grid]


def _markdown_report(
    tables: dict[str, tuple[str, list[tuple[int, dict[str, str]]]]], svg_names: list[str], unconverged: list[str], reasons: list[str]
) -> str:
    """``tables``: each table's section title and rows, in report order. ``reasons``: one bullet per
    diagnostics line of each fit with converged=False, listed under the figures it drew."""
    lines = ["# Simulation analysis report", "", "## Figures", ""]
    lines += [f"![{Path(name).stem}]({name})" for name in svg_names] + [""]
    if unconverged:
        lines += [f"Drawn from a fit that did not converge, so their bands mean nothing: {', '.join(unconverged)}", ""]
    if reasons:
        lines += ["The solver's diagnostics for each such fit:", "", *reasons, ""]
    for title, rows in tables.values():
        header = list(rows[0][1])
        lines += [f"## {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(row.values()) + " |" for _, row in rows]
        lines.append("")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socialsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-population", help="generate a synthetic population file")
    p.add_argument("--n", type=int, default=RunParameters.n_agents, help="number of agents")
    p.add_argument("--seed", type=int, required=True, help="generation seed")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_gen_population)

    p = sub.add_parser("gen-corpus", help="generate a synthetic seed-post corpus")
    p.add_argument("--seed", type=int, required=True, help="generation seed")
    p.add_argument("--size", type=int, default=50, help="number of seed posts")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("simulate", help="run the factorial experiment plan")
    p.add_argument("--config", required=True, help="plan config JSON")
    p.add_argument("--out", required=True, help="artifact output directory")
    p.add_argument("--cell", help="run a single cell: load=<level>,norm=<regime>")
    p.add_argument("--policy", choices=["mock"], help="override the plan's policy")
    p.add_argument("--seed", type=int, help="override the plan's base seed")
    p.add_argument("--workers", type=int, default=1, help="parallel cell workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="fit threshold/allocation models on persisted logs")
    p.add_argument("--logs", required=True, help="simulate output directory")
    p.add_argument("--out", required=True, help="analysis output directory")
    p.add_argument("--stage", choices=["threshold", "allocation", "both"], default="both")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render SVG figures and a Markdown report")
    p.add_argument("--analysis", required=True, help="analyze output directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--grid", help="scenario grid CSV (composite, load, norm)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out, is_file=args.command.startswith("gen-"))  # before a command reads or writes anything
        return args.func(args)
    except (ConfigurationError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
