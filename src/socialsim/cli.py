"""Command-line entry point: generate inputs, simulate, analyze, and report.

Subcommands: gen-population, gen-corpus, simulate, analyze, report.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import figures
from .core import (
    ACTIONS,
    LOADS,
    NORMS,
    ActionKind,
    CellLog,
    ConfigurationError,
    FormatError,
    LoadLevel,
    NormRegime,
    RunParameters,
    from_obj,
)
from .harness import (
    ExperimentPlan,
    descriptive_shares,
    load_experiment,
    realized_load_audit,
    run_experiment,
)
from .population import (
    generate_population,
    generate_seed_corpus,
    load_corpus,
    load_population,
    population_digest,
    save_corpus,
    save_population,
)
from .stats import (
    FittedModel,
    Scenario,
    build_design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    load_model,
    predicted_probabilities,
    read_scenario_csv,
    save_model,
    write_coefficient_csv,
)

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
    parts = dict(kv.split("=", 1) for kv in text.split(",") if "=" in kv)
    if "load" not in parts or "norm" not in parts:
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
    profiles, graph = generate_population(args.n, args.seed)
    save_population(profiles, graph, args.out)
    print(f"wrote {len(profiles)} agents ({graph.n_edges} follow edges) to {args.out}")
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
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


def read_config(cfg: object) -> tuple[ExperimentPlan, SimulateInputs]:
    """The plan and the inputs of a simulate config object, each read by core.from_obj."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config must be a JSON object, got {cfg!r}")
    input_keys = {f.name for f in fields(SimulateInputs)}
    plan = from_obj(ExperimentPlan, {k: v for k, v in cfg.items() if k not in input_keys}, "plan key")
    inputs = from_obj(SimulateInputs, {k: v for k, v in cfg.items() if k in input_keys}, "plan key")
    return plan, inputs


def cmd_simulate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    if not config_path.exists():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        print(f"error: config is not valid JSON: {e}", file=sys.stderr)
        return 2

    if isinstance(cfg, dict):
        if args.policy == "mock":
            cfg.pop("policy", None)  # the plan's default policy is the mock
        policy = cfg.get("policy")
        fixture_path = policy.get("fixture_path") if isinstance(policy, dict) else None
        if isinstance(fixture_path, str) and fixture_path:
            policy["fixture_path"] = str(_resolve(config_path, fixture_path))  # relative to the config, as inputs are

    try:
        plan, inputs = read_config(cfg)
        if args.seed is not None:
            plan.base_seed = args.seed

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
    except (ConfigurationError, FormatError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

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
    logs_dir = Path(args.logs)
    if not (logs_dir / "manifest.json").exists():
        print(f"error: no manifest.json under {logs_dir}", file=sys.stderr)
        return 1
    manifest, per_cell = load_experiment(logs_dir)
    log = CellLog.concat(per_cell[cell] for cell in sorted(per_cell))
    if not len(log.exposures):
        print("error: logs contain no exposure records", file=sys.stderr)
        return 1
    population_path = logs_dir / "population.jsonl"
    profiles, graph = load_population(population_path)
    recorded = manifest.get("population_sha256")
    if recorded is not None and population_digest(profiles, graph) != recorded:
        raise FormatError(f"{population_path}: population digest differs from the manifest's population_sha256 {recorded}")

    # Every stage is checked and fitted before anything is written: a failed analysis leaves no output.
    stages = [stage for stage in ("threshold", "allocation") if args.stage in (stage, "both")]
    for stage in stages:
        empty = _empty_cells(log, stage)
        if empty:
            print(f"error: {stage} stage cannot be fitted: no rows in cell(s) {', '.join(empty)}", file=sys.stderr)
            return 1
    models = []
    for stage in stages:
        fit = fit_binary_logistic if stage == "threshold" else fit_multinomial_logistic
        try:
            X, names, y = build_design_matrix(log, stage)
            model = fit(X, y, terms=names)
        except ValueError as e:
            print(f"error: {stage} stage cannot be fitted: {e}", file=sys.stderr)
            return 1
        models.append(model)
        fit_line = f" mcfadden={model.metrics.mcfadden:.3f}" if stage == "threshold" else ""
        print(f"{stage}: n={model.n_obs} k={model.k} converged={model.converged}{fit_line}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_shares_csv(per_cell, out / "descriptive_shares.csv")
    _write_audit_csv(per_cell, graph, out / "load_audit.csv")
    for model in models:
        write_coefficient_csv(model, out / f"{model.stage}_coefficients.csv")
        save_model(model, out / f"{model.stage}_model.json")
    with open(out / "fit_metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["stage", "n", "k", "ll_full", "ll_null", "chi2", "df", "mcfadden", "aic", "converged"])
        writer.writeheader()
        writer.writerows(_metrics_row(model) for model in models)
    print(f"analysis written to {out}")
    return 0


def _empty_cells(log: CellLog, stage: str) -> list[str]:
    """The load/norm cells where ``stage`` has no row (exposures for threshold, engagements for allocation).

    The design's load x norm interactions cannot be fitted without a row in each of the 12 cells.
    """
    e = log.exposures
    rows = e.action != ACTIONS.index(ActionKind.READ) if stage == "allocation" else slice(None)
    present = np.zeros((len(LOADS), len(NORMS)), dtype=bool)
    present[e.load[rows], e.norm[rows]] = True
    return [f"{LOADS[i].value}/{NORMS[j].value}" for i, j in np.argwhere(~present).tolist()]


def _metrics_row(model: FittedModel) -> dict:
    m = model.metrics
    return {
        "stage": model.stage,
        "n": model.n_obs,
        "k": model.k,
        "ll_full": model.ll_full,
        "ll_null": model.ll_null,
        "chi2": m.chi2,
        "df": m.df,
        "mcfadden": m.mcfadden,
        "aic": m.aic,
        "converged": model.converged,
    }


def _write_shares_csv(per_cell: dict, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["cell", "n", "read", "like", "repost", "quote"])
        writer.writeheader()
        for cell in sorted(per_cell):
            shares = descriptive_shares(per_cell[cell])
            writer.writerow({"cell": cell, "n": shares.n_records, **{k: f"{v:.6f}" for k, v in shares.shares.items()}})


def _write_audit_csv(per_cell: dict, graph, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["cell", "n_activations", "mean", "min", "max"])
        writer.writeheader()
        for cell in sorted(per_cell):
            audit = realized_load_audit(per_cell[cell], graph)
            writer.writerow(
                {
                    "cell": cell,
                    "n_activations": audit.n_activations,
                    "mean": "" if audit.mean is None else f"{audit.mean:.4f}",
                    "min": "" if audit.min is None else audit.min,
                    "max": "" if audit.max is None else audit.max,
                }
            )


# The curve figures: the stage whose model draws it, the rows' action (none for p(engage)), file, title and y label.
_CURVE_FIGURES = [("threshold", None, "threshold_probability_curves.svg", "Predicted engagement probability by popularity signal", "p(engage)")]
_CURVE_FIGURES += [
    ("allocation", a, f"allocation_{a}_curves.svg", f"Predicted probability of {a} among engagements", f"p({a} | engage)")
    for a in ("like", "repost", "quote")
]


def cmd_report(args: argparse.Namespace) -> int:
    analysis = Path(args.analysis)
    for name in ("descriptive_shares.csv", "threshold_model.json", "fit_metrics.csv"):
        if not (analysis / name).exists():
            print(f"error: missing analysis file: {analysis / name}", file=sys.stderr)
            return 1

    # Every input is read and every file rendered before --out is created: a bad grid or model file writes nothing.
    models = [load_model(path) for path in (analysis / "threshold_model.json", analysis / "allocation_model.json") if path.exists()]
    grid = read_scenario_csv(args.grid) if args.grid else None
    with open(analysis / "descriptive_shares.csv", newline="", encoding="utf-8") as fh:
        cells = [(row["cell"], {a: float(row[a]) for a in ("read", "like", "repost", "quote")}) for row in csv.DictReader(fh)]
    files = {"shares_by_condition.svg": figures.stacked_share_svg(cells)}

    rows = {model.stage: predicted_probabilities(model, grid or _default_grid(model)) for model in models}
    for stage, action, name, title, y_label in _CURVE_FIGURES:
        if stage not in rows:
            continue
        curves: dict[tuple[str, str], list] = {}
        for r in rows[stage]:
            if r.get("action") == action:
                curves.setdefault((r["load"], r["norm"]), []).append((r["composite"], r["p"], r["lo"], r["hi"]))
        files[name] = figures.probability_curves_svg(curves, title=title, y_label=y_label)
    files["report.md"] = _markdown_report(analysis, sorted(files))

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


def _markdown_report(analysis: Path, svg_names: list[str]) -> str:
    lines = ["# Simulation analysis report", "", "## Figures", ""]
    lines += [f"![{Path(name).stem}]({name})" for name in svg_names] + [""]
    for name, title in [
        ("fit_metrics.csv", "Model fit"),
        ("threshold_coefficients.csv", "Threshold model coefficients"),
        ("allocation_coefficients.csv", "Allocation model coefficients"),
        ("load_audit.csv", "Realized algorithmic load"),
        ("descriptive_shares.csv", "Action shares by condition"),
    ]:
        path = analysis / name
        if not path.exists():
            continue
        lines.append(f"## {title}")
        lines.append("")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows:
            lines.append("| " + " | ".join(rows[0]) + " |")
            lines.append("|" + "---|" * len(rows[0]))
            for row in rows[1:]:
                lines.append("| " + " | ".join(row) + " |")
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
        return args.func(args)
    except (ConfigurationError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
