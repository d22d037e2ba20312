"""Seeded synthetic event logs for the `fieldlogs` workload.

The logs follow the documented event-log JSONL format (exposure rows
interleaved with post-creation rows) and the simulate output layout
(`manifest.json`, `logs/<cell>.jsonl`, `population.jsonl`), so `socialsim
analyze` reads them as it reads its own runs.

This is a synthetic stress case, not a model of any real platform's or
LLM-driven run's logs: no measured counter distribution stands behind it.
Its one purpose is low pattern sharing. Unlike simulator logs, the
popularity counters are heavy-tailed (likes + reshares up to 10^5), so the
logs hold tens of thousands of distinct (load, norm, likes+reshares)
patterns against a few hundred in simulator logs. Every parameter below (the
log-normal cap with mu=4.5, sigma=2.5 clipped at 10^5, tau ~ U(20, 120), the
like share ~ U(0.6, 0.95) and the effect sizes) was chosen only to reach that
pattern count with both fits converging; none is taken from data.

Generating model, per cell (load, norm), with c = ln(1 + likes + reshares):

    logit P(engage)        = -5.0 + 0.35 c + LOAD_EFFECT[load] + NORM_EFFECT[norm]
    log P(repost)/P(like)  = -1.0 + 0.10 c + REPOST_NORM[norm]
    log P(quote)/P(like)   = -2.0 + 0.05 c

Every exposure row draws its action independently from this model, so both
fitted stages are well specified and converge. A post's counters rise with
age toward a log-normal cap: count = floor(cap * (1 - exp(-(age + 1) / tau))),
split into likes and reshares by a per-post like share.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

LOAD_SIZES = {"lowest": 7, "low": 10, "medium": 18, "high": 33}  # load.total of each level
NORMS = ("no_norm", "like_dominant", "repost_dominant")
LOAD_EFFECT = {"lowest": 0.0, "low": -0.2, "medium": -0.45, "high": -0.8}
NORM_EFFECT = {"no_norm": 0.0, "like_dominant": 0.25, "repost_dominant": -0.2}
REPOST_NORM = {"no_norm": 0.0, "like_dominant": -1.0, "repost_dominant": 2.0}

N_STEPS = 480
ACTIVATION_P = 0.01
N_SEED_POSTS = 50
COUNT_CAP = 100_000


def _cell_run_id(seed: int, load: str, norm: str) -> int:
    key = f"fieldlogs|{seed}|{load}|{norm}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def _cell_lines(rng: np.random.Generator, run_id: int, load: str, norm: str, n_agents: int) -> list[str]:
    """One cell's log lines, in write order."""
    size = LOAD_SIZES[load]
    eta0 = -5.0 + LOAD_EFFECT[load] + NORM_EFFECT[norm]
    rep0 = -1.0 + REPOST_NORM[norm]
    head = f'{{"run":{run_id},"load":"{load}","norm":"{norm}","t":'

    created: list[int] = []
    lines: list[str] = []

    def new_post(t: int, author: int, kind: str, source: int | None) -> None:
        src = "null" if source is None else source
        lines.append(f'{{"kind":"{kind}","post":{len(created)},"author":{author},"source":{src},"t":{t}}}')
        created.append(t)

    # Post attributes are drawn up front; a cell creates a few thousand posts at most.
    max_posts = N_SEED_POSTS + 20_000
    cap = np.minimum(np.floor(np.exp(rng.normal(4.5, 2.5, max_posts))), COUNT_CAP)
    tau = rng.uniform(20.0, 120.0, max_posts)
    like_share = rng.uniform(0.6, 0.95, max_posts)

    for author in rng.integers(0, n_agents, N_SEED_POSTS).tolist():
        new_post(0, author, "seed", None)
    active = rng.random((N_STEPS, n_agents)) < ACTIVATION_P
    for t in range(N_STEPS):
        agents = np.flatnonzero(active[t])
        if agents.size == 0:
            continue
        pool = len(created)
        # `size` distinct posts per activation, from posts created before this step.
        feeds = np.argpartition(rng.random((agents.size, pool)), size - 1, axis=1)[:, :size]
        age = t - np.asarray(created)[feeds]
        count = np.floor(cap[feeds] * (1.0 - np.exp(-(age + 1) / tau[feeds])))
        likes = np.floor(count * like_share[feeds]).astype(np.int64)
        reshares = count.astype(np.int64) - likes
        c = np.log1p(likes + reshares)
        engage = rng.random(feeds.shape) < 1.0 / (1.0 + np.exp(-(eta0 + 0.35 * c)))
        e_rep = np.exp(rep0 + 0.10 * c)
        e_quo = np.exp(-2.0 + 0.05 * c)
        u = rng.random(feeds.shape) * (1.0 + e_rep + e_quo)
        action = np.where(~engage, 0, np.where(u < 1.0, 1, np.where(u < 1.0 + e_rep, 2, 3)))
        names = ("read", "like", "repost", "quote")
        for i, agent in enumerate(agents.tolist()):
            row_posts = feeds[i].tolist()
            row_actions = action[i].tolist()
            lines.extend(
                f'{head}{t},"agent":{agent},"post":{p},"likes":{lk},"reshares":{rs},"action":"{names[a]}"}}'
                for p, lk, rs, a in zip(row_posts, likes[i].tolist(), reshares[i].tolist(), row_actions)
            )
            for p, a in zip(row_posts, row_actions):
                if a >= 2:  # reposts and quotes enter the pool as new posts
                    new_post(t, agent, names[a], p)
    return lines


def write_fieldlogs(out_dir: Path, seed: int, population: Path, corpus: Path) -> None:
    """Write all 12 cells, the manifest, and copies of the population and corpus."""
    out_dir = Path(out_dir)
    (out_dir / "logs").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(population, out_dir / "population.jsonl")
    shutil.copyfile(corpus, out_dir / "corpus.jsonl")
    n_agents = sum(1 for line in Path(population).read_text(encoding="utf-8").splitlines() if line.strip())
    cells = []
    index = 0
    for load in LOAD_SIZES:
        for norm in NORMS:
            rng = np.random.default_rng([seed, index])
            index += 1
            run_id = _cell_run_id(seed, load, norm)
            lines = _cell_lines(rng, run_id, load, norm, n_agents)
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            name = f"{load}_{norm}_r0.jsonl"
            (out_dir / "logs" / name).write_bytes(payload)
            cells.append(
                {
                    "load": load,
                    "norm": norm,
                    "replication": 0,
                    "seed": run_id,
                    "file": name,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "rows": len(lines),
                    "status": "ok",
                }
            )
    manifest = {"plan": {"source": "fieldlogs", "seed": seed}, "cells": cells}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
