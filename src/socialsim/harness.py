"""Factorial experiment runner: 4 load levels x 3 norm regimes x replications.

One population and one corpus are shared by every cell; each cell gets a
seed derived by stable hashing so plans are reproducible across machines
and Python processes. Logs are persisted as JSON Lines (one record per
line) so every audit in this module can be recomputed by an external
reader of the artifact directory, and the manifest carries SHA-256 digests
of everything written.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import (
    ActionKind,
    ExposureRecord,
    LoadLevel,
    NormRegime,
    PostCreation,
    PostKind,
    RunConfig,
)
from .engine import EventLog, run
from .policy import PolicySpec, build_policy, mock_policy_spec, policy_spec_from_obj, policy_spec_to_obj
from .population import (
    AgentProfile,
    FollowGraph,
    load_corpus,
    load_population,
    population_digest,
    save_corpus,
    save_population,
)

ALL_LOADS = (LoadLevel.LOWEST, LoadLevel.LOW, LoadLevel.MEDIUM, LoadLevel.HIGH)
ALL_NORMS = (NormRegime.NO_NORM, NormRegime.LIKE_DOMINANT, NormRegime.REPOST_DOMINANT)


# ---------------------------------------------------------------------------
# Log serialization (JSON Lines)
# ---------------------------------------------------------------------------


def record_to_obj(record: ExposureRecord | PostCreation) -> dict:
    if isinstance(record, ExposureRecord):
        return {
            "run": record.run,
            "load": record.load.value,
            "norm": record.norm.value,
            "t": record.t,
            "agent": record.agent,
            "post": record.post,
            "likes": record.likes,
            "reshares": record.reshares,
            "action": record.action.value,
        }
    return {
        "kind": record.kind.value,
        "post": record.post,
        "author": record.author,
        "source": record.source,
        "t": record.t,
    }


def obj_to_record(obj: Mapping) -> ExposureRecord | PostCreation:
    if "action" in obj:
        return ExposureRecord(
            run=int(obj["run"]),
            load=LoadLevel(obj["load"]),
            norm=NormRegime(obj["norm"]),
            t=int(obj["t"]),
            agent=int(obj["agent"]),
            post=int(obj["post"]),
            likes=int(obj["likes"]),
            reshares=int(obj["reshares"]),
            action=ActionKind(obj["action"]),
        )
    return PostCreation(
        post=int(obj["post"]),
        kind=PostKind(obj["kind"]),
        author=int(obj["author"]),
        source=obj["source"] if obj["source"] is None else int(obj["source"]),
        t=int(obj["t"]),
    )


def log_to_lines(records: Iterable[ExposureRecord | PostCreation]) -> list[str]:
    return [json.dumps(record_to_obj(r), separators=(",", ":"), ensure_ascii=False) for r in records]


def write_log(records: Iterable[ExposureRecord | PostCreation], path: str | Path) -> str:
    """Write a JSONL log and return its SHA-256 digest."""
    payload = ("\n".join(log_to_lines(records)) + "\n").encode("utf-8")
    Path(path).write_bytes(payload)
    return hashlib.sha256(payload).hexdigest()


def read_log(path: str | Path) -> list[ExposureRecord | PostCreation]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(obj_to_record(json.loads(line)))
    return records


def log_digest(records: Iterable[ExposureRecord | PostCreation]) -> str:
    payload = ("\n".join(log_to_lines(records)) + "\n").encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Plans and cell seeds
# ---------------------------------------------------------------------------


def cell_seed(base_seed: int, load: LoadLevel, norm: NormRegime, replication: int) -> int:
    """Stable 63-bit cell seed derived from the plan's base seed."""
    key = f"{base_seed}|{load.value}|{norm.value}|{replication}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass
class ExperimentPlan:
    base_seed: int
    policy: PolicySpec = field(default_factory=mock_policy_spec)
    replications: int = 1
    n_agents: int = 558
    timesteps: int = 480
    activation_p: float = 0.01
    recency_decay: float = 0.01
    w_recency: float = 0.7
    w_relevance: float = 0.3
    history_window: int = 8

    def __post_init__(self) -> None:
        # Every cell shares these run parameters, so one RunConfig checks them
        # all before any cell runs.
        self.cell_config(ALL_LOADS[0], ALL_NORMS[0], 0)

    def cells(self) -> list[tuple[LoadLevel, NormRegime, int]]:
        return [
            (load, norm, rep)
            for load in ALL_LOADS
            for norm in ALL_NORMS
            for rep in range(self.replications)
        ]

    def cell_config(self, load: LoadLevel, norm: NormRegime, replication: int) -> RunConfig:
        return RunConfig(
            seed=cell_seed(self.base_seed, load, norm, replication),
            load=load,
            norm=norm,
            n_agents=self.n_agents,
            timesteps=self.timesteps,
            activation_p=self.activation_p,
            recency_decay=self.recency_decay,
            w_recency=self.w_recency,
            w_relevance=self.w_relevance,
            history_window=self.history_window,
        )

    def to_obj(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "policy": policy_spec_to_obj(self.policy),
            "replications": self.replications,
            "n_agents": self.n_agents,
            "timesteps": self.timesteps,
            "activation_p": self.activation_p,
            "recency_decay": self.recency_decay,
            "w_recency": self.w_recency,
            "w_relevance": self.w_relevance,
            "history_window": self.history_window,
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "ExperimentPlan":
        return cls(
            base_seed=int(obj["base_seed"]),
            policy=policy_spec_from_obj(obj.get("policy", {"kind": "mock"})),
            replications=int(obj.get("replications", 1)),
            n_agents=int(obj.get("n_agents", 558)),
            timesteps=int(obj.get("timesteps", 480)),
            activation_p=float(obj.get("activation_p", 0.01)),
            recency_decay=float(obj.get("recency_decay", 0.01)),
            w_recency=float(obj.get("w_recency", 0.7)),
            w_relevance=float(obj.get("w_relevance", 0.3)),
            history_window=int(obj.get("history_window", 8)),
        )


def cell_name(load: LoadLevel, norm: NormRegime, replication: int) -> str:
    return f"{load.value}_{norm.value}_r{replication}"


def _run_cell(args: tuple) -> dict:
    """Worker: execute one cell and write its log. Top level for pickling."""
    plan_obj, load_v, norm_v, rep, pop_path, corpus_path, log_path, api_key = args
    plan = ExperimentPlan.from_obj(plan_obj)
    load, norm = LoadLevel(load_v), NormRegime(norm_v)
    profiles, graph = load_population(pop_path)
    corpus = load_corpus(corpus_path)
    config = plan.cell_config(load, norm, rep)
    policy = build_policy(plan.policy, load, norm, api_key=api_key)
    try:
        log = run(config, policy, profiles, graph, corpus)
        digest = write_log(log.records, log_path)
        return {
            "load": load.value,
            "norm": norm.value,
            "replication": rep,
            "seed": config.seed,
            "file": Path(log_path).name,
            "sha256": digest,
            "rows": len(log.records),
            "status": "ok",
        }
    except Exception as e:  # noqa: BLE001 - partial failures are recorded, not fatal
        return {
            "load": load.value,
            "norm": norm.value,
            "replication": rep,
            "seed": config.seed,
            "file": Path(log_path).name,
            "status": "failed",
            "error": f"{type(e).__name__}: {e}",
        }


def run_experiment(
    plan: ExperimentPlan,
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    out_dir: str | Path,
    *,
    workers: int = 1,
    cells: Sequence[tuple[LoadLevel, NormRegime]] | None = None,
    api_key: str | None = None,
) -> dict:
    """Execute the plan's cells and persist logs plus a manifest.

    Returns the manifest dict (also written to manifest.json). Failed cells
    are recorded in the manifest with their error; completed cells are kept.
    """
    out = Path(out_dir)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    pop_path = out / "population.jsonl"
    corpus_path = out / "corpus.jsonl"
    save_population(profiles, graph, pop_path)
    save_corpus(corpus, corpus_path)

    wanted = plan.cells()
    if cells is not None:
        selected = {(load.value, norm.value) for load, norm in cells}
        wanted = [(l, n, r) for l, n, r in wanted if (l.value, n.value) in selected]

    jobs = [
        (
            plan.to_obj(),
            load.value,
            norm.value,
            rep,
            str(pop_path),
            str(corpus_path),
            str(out / "logs" / f"{cell_name(load, norm, rep)}.jsonl"),
            api_key,
        )
        for load, norm, rep in wanted
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]

    manifest = {
        "plan": plan.to_obj(),
        "population_sha256": population_digest(profiles, graph),
        "corpus_sha256": hashlib.sha256(("\n".join(corpus)).encode("utf-8")).hexdigest(),
        "cells": results,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return manifest


def load_experiment(out_dir: str | Path) -> tuple[dict, dict[str, list]]:
    """Read a persisted experiment: (manifest, records per completed cell)."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    per_cell = {}
    for cell in manifest["cells"]:
        if cell.get("status") != "ok":
            continue
        name = cell["file"].removesuffix(".jsonl")
        per_cell[name] = read_log(out / "logs" / cell["file"])
    return manifest, per_cell


# ---------------------------------------------------------------------------
# Descriptive audits (pure functions of persisted artifacts)
# ---------------------------------------------------------------------------


@dataclass
class LoadAudit:
    """Realized algorithmic-post counts per activation for one cell."""

    n_activations: int
    mean: float | None
    min: int | None
    max: int | None
    flagged: bool = False  # empty cell


def realized_load_audit(
    records: Iterable[ExposureRecord | PostCreation],
    follows_of: Mapping[int, frozenset[int]] | FollowGraph,
) -> LoadAudit:
    """Recompute per-activation algorithmic counts from a log and the graph.

    A feed slot is algorithmic exactly when the post's author is not one of
    the viewer's followees; authorship comes from the log's creation records,
    so the audit needs no engine state.
    """
    if isinstance(follows_of, FollowGraph):
        graph = follows_of
        follows = {a: graph.follows_of(a) for a in graph.agents()}
    else:
        follows = follows_of

    authors: dict[int, int] = {}
    counts: dict[tuple[int, int], int] = {}
    for r in records:
        if isinstance(r, PostCreation):
            authors[r.post] = r.author
        else:
            key = (r.t, r.agent)
            author = authors[r.post]
            algo = author not in follows.get(r.agent, frozenset())
            counts[key] = counts.get(key, 0) + (1 if algo else 0)
    if not counts:
        return LoadAudit(n_activations=0, mean=None, min=None, max=None, flagged=True)
    values = list(counts.values())
    return LoadAudit(
        n_activations=len(values),
        mean=sum(values) / len(values),
        min=min(values),
        max=max(values),
    )


@dataclass
class CellShares:
    """Action shares over all exposure records of one cell."""

    n_records: int
    counts: dict[str, int]
    shares: dict[str, float]


def descriptive_shares(records: Iterable[ExposureRecord | PostCreation]) -> CellShares:
    counts = {a.value: 0 for a in ActionKind}
    n = 0
    for r in records:
        if isinstance(r, ExposureRecord):
            counts[r.action.value] += 1
            n += 1
    shares = {k: (v / n if n else 0.0) for k, v in counts.items()}
    return CellShares(n_records=n, counts=counts, shares=shares)


def experiment_report(
    per_cell: Mapping[str, list],
    follows_of: Mapping[int, frozenset[int]] | FollowGraph,
) -> dict[str, dict]:
    """Both audits for every cell, keyed by cell name."""
    report = {}
    for name, records in sorted(per_cell.items()):
        audit = realized_load_audit(records, follows_of)
        shares = descriptive_shares(records)
        report[name] = {
            "load_audit": audit,
            "shares": shares,
        }
    return report
