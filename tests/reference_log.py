"""Reference event-log code: the record-based paths the columnar ones must match.

A log here is a list of ExposureRecord/PostCreation objects. Records go to
and from plain dicts, one ``json.dumps``/``json.loads`` per line, and the
design, the load audit, the action shares and the counter recount are loops
over the records. A post's counters are a PopularityCounters record.
``log_from_records`` and ``records_of`` convert between such a list and a
CellLog, ``concat_logs`` joins CellLogs as analyze once did before its fits,
and ``world_counters`` reads a world's counter arrays into records; nothing
else here reads a CellLog or any numpy column, but for
``reference_read_log_error``, which builds each row's columns as the reader
does, one row at a time, and checks the counters and the creation rules
itself, the latter with a set of posts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from socialsim.core import (
    _LOAD_DUMMIES,
    _NORM_DUMMIES,
    ACTIONS,
    CREATION_KEYS,
    DESIGN_COLUMNS,
    EXPOSURE_KEYS,
    JSON_SPACE,
    LOADS,
    N_COLUMNS,
    NORMS,
    POST_KINDS,
    ActionKind,
    CellLog,
    CreationColumns,
    ExposureColumns,
    FormatError,
    LoadLevel,
    NormRegime,
    PostKind,
    popularity_composite,
)
from socialsim.harness import CellShares, LoadAudit, _log_from_objs
from socialsim.population import FollowGraph
from socialsim.stats import ALLOCATION_ACTIONS


@dataclass(slots=True, frozen=True)
class ExposureRecord:
    """One agent x post x activation observation; the regression row unit.

    The likes/reshares snapshot is taken when the feed is built, strictly
    before the focal decision is applied to the world.
    """

    run: int
    load: LoadLevel
    norm: NormRegime
    t: int
    agent: int
    post: int
    likes: int
    reshares: int
    action: ActionKind


@dataclass(slots=True)
class PopularityCounters:
    """One post's cumulative engagement tallies."""

    likes: int = 0
    reposts: int = 0
    quotes: int = 0

    @property
    def reshares(self) -> int:
        """Combined redistribution count: reposts plus quotes, reported as one number."""
        return self.reposts + self.quotes


@dataclass(slots=True, frozen=True)
class PostCreation:
    """Log record for a post entering the world (seed injection or redistribution)."""

    post: int
    kind: PostKind
    author: int
    source: int | None
    t: int


def log_from_records(records: Iterable[ExposureRecord | PostCreation]) -> CellLog:
    """The CellLog of an interleaved ExposureRecord/PostCreation list, built from their JSON objects as the reader builds a parse."""
    return _log_from_objs([record_to_obj(r) for r in records])


def records_of(log: CellLog) -> list[ExposureRecord | PostCreation]:
    """The interleaved ExposureRecord/PostCreation list a CellLog holds."""
    e, c = log.exposures, log.creations
    exposures = iter(
        [
            ExposureRecord(run, LOADS[load], NORMS[norm], t, agent, post, likes, reshares, ACTIONS[action])
            for run, load, norm, t, agent, post, likes, reshares, action in zip(
                *(getattr(e, k).tolist() for k in EXPOSURE_KEYS)
            )
        ]
    )
    creations = iter(
        [
            PostCreation(post=post, kind=POST_KINDS[kind], author=author, source=None if source < 0 else source, t=t)
            for kind, post, author, source, t in zip(*(getattr(c, k).tolist() for k in CREATION_KEYS))
        ]
    )
    return [next(exposures) if row else next(creations) for row in log.is_exposure.tolist()]


def concat_logs(logs: Iterable[CellLog]) -> CellLog:
    """The rows of several logs, one log after the other.

    Post ids are per cell, so check the creation rules and run the load
    audit on each cell's own log, not on a concatenation.
    """
    logs = list(logs)
    if not logs:
        return log_from_records([])

    def joined(part: str, keys: tuple[str, ...]) -> dict[str, np.ndarray]:
        return {k: np.concatenate([getattr(getattr(log, part), k) for log in logs]) for k in keys}

    return CellLog(
        ExposureColumns(**joined("exposures", EXPOSURE_KEYS)),
        CreationColumns(**joined("creations", CREATION_KEYS)),
        np.concatenate([log.is_exposure for log in logs]),
    )


def recount_counters(records: Iterable[ExposureRecord | PostCreation]) -> dict[int, PopularityCounters]:
    """Brute-force recount of every post's counters from the log alone.

    Independent oracle for the engine's incremental bookkeeping: likes are
    like-rows targeting the post, reposts/quotes are the matching engagement
    rows (equivalently, creation records pointing at it as source).
    """
    counters: dict[int, PopularityCounters] = {}
    for r in records:
        if isinstance(r, PostCreation):
            counters.setdefault(r.post, PopularityCounters())
        elif isinstance(r, ExposureRecord):
            c = counters.setdefault(r.post, PopularityCounters())
            if r.action is ActionKind.LIKE:
                c.likes += 1
            elif r.action is ActionKind.REPOST:
                c.reposts += 1
            elif r.action is ActionKind.QUOTE:
                c.quotes += 1
    return counters


def world_counters(world) -> dict[int, tuple[int, int]]:
    """Every post's (likes, reshares), by post id, as the world's per-post arrays hold them."""
    return dict(enumerate(zip(world.likes.tolist(), world.reshares.tolist())))


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


def reference_log_to_lines(records: Iterable[ExposureRecord | PostCreation]) -> list[str]:
    return [json.dumps(record_to_obj(r), separators=(",", ":"), ensure_ascii=False) for r in records]


def reference_read_log(path: str | Path) -> list[ExposureRecord | PostCreation]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(obj_to_record(json.loads(line)))
    return records


def reference_read_log_error(path: str | Path) -> str | None:
    """The message of read_log's FormatError for the log at ``path``, read one line at a time; None if it reads.

    Names the first bad line: one that is not JSON, not one valid record, or
    one with a counter outside [0, 2**62) or that breaks a creation rule
    given the lines before it, the counters checked first.
    """
    created: set[int] = set()
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip(JSON_SPACE):
            continue
        try:
            row = _log_from_objs([json.loads(line)])
            if row.is_exposure[0]:
                for key in ("likes", "reshares"):
                    count = int(getattr(row.exposures, key)[0])
                    if count < 0:
                        raise FormatError(f"negative {key} count")
                    if count >= 2**62:
                        raise FormatError(f"{key} count too large")
                post = int(row.exposures.post[0])
                if post not in created:
                    raise FormatError(f"exposure of post {post} before any row creates it")
            else:
                kind, post, source = (int(getattr(row.creations, k)[0]) for k in ("kind", "post", "source"))
                seed = POST_KINDS[kind] is PostKind.SEED
                if post in created:
                    raise FormatError(f"post {post} created twice")
                if seed != (source < 0):
                    raise FormatError(f"seed post {post} has source {source}" if seed else f"{POST_KINDS[kind].value} post {post} has no source")
                if source >= 0 and source not in created:
                    raise FormatError(f"{POST_KINDS[kind].value} of post {source} before any row creates it")
                created.add(post)
        except FormatError as e:
            return f"{path}, line {number}: {e}"
        except json.JSONDecodeError as e:
            return f"{path}, line {number}: invalid JSON ({e.msg} at column {e.colno})"
        except RecursionError:
            return f"{path}, line {number}: invalid JSON (nested too deeply)"
    return None


def reference_build_design_matrix(records: Iterable[ExposureRecord], stage: str):
    comp, loads, norms, ys = [], [], [], []
    for r in records:
        if stage == "allocation":
            if not r.action.is_engagement:
                continue
            ys.append(ALLOCATION_ACTIONS.index(r.action))
        else:
            ys.append(1 if r.action.is_engagement else 0)
        comp.append(popularity_composite(r.likes, r.reshares))
        loads.append(r.load)
        norms.append(r.norm)
    if not ys:
        raise ValueError(f"no usable records for stage {stage!r}")

    n = len(ys)
    c = np.asarray(comp, dtype=np.float64)
    X = np.zeros((n, N_COLUMNS), dtype=np.float64)
    X[:, 0] = 1.0
    X[:, 1] = c
    load_cols = {lv: np.fromiter((1.0 if l is lv else 0.0 for l in loads), dtype=np.float64, count=n) for lv in _LOAD_DUMMIES}
    norm_cols = {nr: np.fromiter((1.0 if m is nr else 0.0 for m in norms), dtype=np.float64, count=n) for nr in _NORM_DUMMIES}
    j = 2
    for lv in _LOAD_DUMMIES:
        X[:, j] = load_cols[lv]
        j += 1
    for nr in _NORM_DUMMIES:
        X[:, j] = norm_cols[nr]
        j += 1
    for lv in _LOAD_DUMMIES:
        X[:, j] = c * load_cols[lv]
        j += 1
    for nr in _NORM_DUMMIES:
        X[:, j] = c * norm_cols[nr]
        j += 1
    for nr in _NORM_DUMMIES:
        for lv in _LOAD_DUMMIES:
            X[:, j] = load_cols[lv] * norm_cols[nr]
            j += 1
    for nr in _NORM_DUMMIES:
        for lv in _LOAD_DUMMIES:
            X[:, j] = c * load_cols[lv] * norm_cols[nr]
            j += 1
    return X, list(DESIGN_COLUMNS), np.asarray(ys, dtype=np.int64)


def reference_realized_load_audit(
    records: Iterable[ExposureRecord | PostCreation],
    follows_of: Mapping[int, frozenset[int]] | FollowGraph,
) -> LoadAudit:
    if isinstance(follows_of, FollowGraph):
        follows = {a: follows_of.follows_of(a) for a in follows_of.agents()}
    else:
        follows = follows_of
    authors: dict[int, int] = {}
    counts: dict[tuple[int, int], int] = {}
    for r in records:
        if isinstance(r, PostCreation):
            authors[r.post] = r.author
        else:
            key = (r.t, r.agent)
            algo = authors[r.post] not in follows.get(r.agent, frozenset())
            counts[key] = counts.get(key, 0) + (1 if algo else 0)
    if not counts:
        return LoadAudit(n_activations=0, mean=None, min=None, max=None, flagged=True)
    values = list(counts.values())
    return LoadAudit(n_activations=len(values), mean=sum(values) / len(values), min=min(values), max=max(values))


def reference_descriptive_shares(records: Iterable[ExposureRecord | PostCreation]) -> CellShares:
    counts = {a.value: 0 for a in ActionKind}
    n = 0
    for r in records:
        if isinstance(r, ExposureRecord):
            counts[r.action.value] += 1
            n += 1
    shares = {k: (v / n if n else 0.0) for k, v in counts.items()}
    return CellShares(n_records=n, counts=counts, shares=shares)
