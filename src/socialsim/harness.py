"""Factorial experiment runner: 4 load levels x 3 norm regimes x replications.

One population and one corpus are shared by every cell; each cell gets a
seed derived by stable hashing so plans are reproducible across machines
and Python processes. Logs are persisted as JSON Lines (one record per
line) so every audit in this module can be recomputed by an external
reader of the artifact directory, and the manifest carries SHA-256 digests
of everything written. This module owns that log format: ``write_log``
formats the columns of a ``CellLog`` a chunk of rows at a time, ``read_log``
parses a file into those columns a chunk of lines at a time, and the audits
below compute from them.

An activation logs its feed as one block of exposure rows that share run,
load, norm, t and agent, so the writer formats that head once per block
(found by comparing adjacent rows, so any ``CellLog`` writes the same
bytes), and each distinct post, likes and reshares value once per chunk of
rows; a line joins those texts and its action's close. The reader parses
a chunk with one ``json.loads`` when one pass over the file's bytes shows
that each "}" ends its line (spaces and a CR after it aside), and line by
line otherwise.

``run_experiment`` also saves each cell's columns beside its log, as
``logs/<cell>.npz`` (``save_columns``). That file is a cache, not a record:
``read_log`` returns its columns without parsing the JSONL only once it has
proven them equal to the parse, by checking them as the parse checks
columns and re-formatting them to the log file's bytes. Any file that
fails the proof, or its absence, leaves the parse as it was.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ACTIONS,
    CREATION_KEYS,
    EXPOSURE_KEYS,
    JSON_SPACE,
    LOADS,
    NORMS,
    POST_KINDS,
    CellLog,
    ConfigurationError,
    CreationColumns,
    ExposureColumns,
    FormatError,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
    RunParameters,
    check_seed,
    read_bytes,
    read_text,
    to_obj,
    utf8_text,
)
from .engine import LogBuilder, run
from .policy import PolicySpec, build_policy, mock_policy_spec, policy_spec_from_obj
from .population import AgentProfile, FollowGraph, corpus_digest, save_corpus, save_population
from .population import load_corpus, load_population  # noqa: F401 - perfbench traces harness.load_population


# ---------------------------------------------------------------------------
# Log serialization (JSON Lines)
# ---------------------------------------------------------------------------


_LOAD_TEXT = [m.value for m in LOADS]
_NORM_TEXT = [m.value for m in NORMS]
_ACTION_TEXT = [m.value for m in ACTIONS]
_KIND_TEXT = [m.value for m in POST_KINDS]
_ACTION_END = [f',"action":"{a}"}}\n' for a in _ACTION_TEXT]  # the close of an exposure line and its newline, by action code
_SEED = POST_KINDS.index(PostKind.SEED)
_CHUNK_ROWS = 1 << 12


def _texts(values: np.ndarray, suffix: str) -> tuple[list[str], np.ndarray]:
    """Each distinct value's digits then ``suffix``, and each value's index into those texts.

    Values spanning less than four per value are ranked by a table of that
    span, others by a sort, so the work is sized by the count, never by the values.
    """
    low, high = (int(values.min()), int(values.max())) if values.size else (0, -1)
    if high - low < 4 * values.size:
        offsets = values - low  # no overflow: each value is in [low, high]
        present = np.zeros(high - low + 1, dtype=bool)
        present[offsets] = True
        distinct, at = present.nonzero()[0] + low, (np.cumsum(present) - 1)[offsets]
    else:
        distinct, at = np.unique(values, return_inverse=True)
    return [f"{v}{suffix}" for v in distinct.tolist()], at


def _exposure_texts(e: ExposureColumns, lo: int, hi: int) -> tuple[list[str], np.ndarray]:
    """The texts that exposure lines lo..hi join, and each line's five indices into them.

    A line joins its head (run, load, norm, t, agent), formatted once per run
    of rows sharing it; its post, likes and reshares, each formatted once per
    distinct value; and its action's close.
    """
    run, load, norm, t, agent = (getattr(e, k)[lo:hi] for k in EXPOSURE_KEYS[:5])
    new_head = np.ones(hi - lo, dtype=bool)
    new_head[1:] = run[1:] != run[:-1]
    for column in (load, norm, t, agent):
        new_head[1:] |= column[1:] != column[:-1]
    starts = new_head.nonzero()[0]
    L, N = _LOAD_TEXT, _NORM_TEXT
    texts = [
        f'{{"run":{r},"load":"{L[l]}","norm":"{N[m]}","t":{s},"agent":{a},"post":'
        for r, l, m, s, a in zip(*(column[starts].tolist() for column in (run, load, norm, t, agent)))
    ]
    action = e.action[lo:hi].astype(np.intp)
    if action.size and not (0 <= action.min() and action.max() < len(ACTIONS)):
        raise ValueError(f"action codes must be in 0..{len(ACTIONS) - 1}")
    parts = [_texts(e.post[lo:hi], ',"likes":'), _texts(e.likes[lo:hi], ',"reshares":'), _texts(e.reshares[lo:hi], "")]
    at = np.empty((hi - lo, 5), dtype=np.intp)
    at[:, 0] = np.cumsum(new_head) - 1
    for i, (part_texts, part_at) in enumerate(parts + [(_ACTION_END, action)], 1):
        at[:, i] = part_at + len(texts)
        texts += part_texts
    return texts, at


def _creation_lines(c: CreationColumns, lo: int, hi: int) -> list[str]:
    return [
        f'{{"kind":"{_KIND_TEXT[kind]}","post":{post},"author":{author},'
        f'"source":{"null" if source < 0 else source},"t":{t}}}\n'
        for kind, post, author, source, t in zip(*(getattr(c, k)[lo:hi].tolist() for k in CREATION_KEYS))
    ]


def _log_chunks(log: CellLog, rows: int = _CHUNK_ROWS) -> Iterator[bytes]:
    """The JSONL bytes of a log, ``rows`` rows at a time.

    One compact JSON object per row, keys in EXPOSURE_KEYS or CREATION_KEYS
    order, each line ending in a newline; a log with no rows is one newline.
    A chunk is one join of texts gathered by index from one table: five per
    exposure line (``_exposure_texts``), and a creation line then four
    empty texts.
    """
    if not len(log):
        yield b"\n"
        return
    e_at = c_at = 0
    for lo in range(0, len(log), rows):
        is_exposure = log.is_exposure[lo : lo + rows]
        n_e = int(np.count_nonzero(is_exposure))
        n_c = is_exposure.size - n_e
        texts, at = _exposure_texts(log.exposures, e_at, e_at + n_e)
        index = np.full((is_exposure.size, 5), len(texts) + n_c)  # the empty text, last in the table
        index[is_exposure] = at
        index[~is_exposure, 0] = np.arange(len(texts), len(texts) + n_c)
        texts += _creation_lines(log.creations, c_at, c_at + n_c)
        texts.append("")
        e_at, c_at = e_at + n_e, c_at + n_c
        yield "".join(np.array(texts, dtype=object)[index.ravel()].tolist()).encode("utf-8")


def write_log(log: CellLog, path: str | Path) -> str:
    """Write a JSONL log and return its SHA-256 digest, hashing each chunk as it is written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in _log_chunks(log):
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def read_log(path: str | Path, sha256: str | None = None) -> CellLog:
    """Parse a JSONL event log into columns, ``_CHUNK_ROWS`` rows at a time.

    Lines end at "\n" (a CRLF line end is one). Each non-blank line is one
    JSON object, with its keys in any order and any spacing; a line with an
    "action" key is an exposure row, any other a post-creation row. With
    ``sha256`` given (a manifest's digest), the file's bytes must have that
    digest. Raises FormatError naming the file if it is missing, a directory
    or not UTF-8, and the 1-based line for a bad row: invalid JSON, a
    missing key, an unknown enum value, a value that is not a JSON integer
    (1.5, 1e3, "3" and true are not), a counter outside [0, 2**62), a
    negative source, an exposure of a post no earlier row creates, a post
    created twice, a seed row with a source, or a repost or quote row whose
    source no earlier row creates.

    When the log has the columns ``save_columns`` saved beside it (the same
    path with an .npz suffix) and they are proven to be its parse, they are
    returned and the file is read but not parsed (see ``_saved_log``).
    """
    path = Path(path)
    log = _saved_log(path, sha256)
    if log is not None:
        return log
    data = read_bytes(path, "event log")
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise FormatError(f"{path}: SHA-256 differs from the manifest's {sha256}")
    lines = utf8_text(data, path).split("\n")
    rows = [line for line in lines if line.strip(JSON_SPACE)]  # blank lines are skipped
    joined = _one_brace_a_line(data)
    try:
        # Each chunk's parsed dicts are dropped once its columns are built; an empty log is one empty chunk.
        log = _concat([_parse_rows(rows[lo : lo + _CHUNK_ROWS], joined) for lo in range(0, len(rows) or 1, _CHUNK_ROWS)])
        if _breaks_creation_rules(log):
            raise FormatError("creation rows")
    except (ValueError, RecursionError):  # JSONDecodeError and FormatError included
        raise _locate_error(path, lines) from None
    return log


def _breaks_creation_rules(log: CellLog) -> bool:
    """Whether an exposure shows a post no earlier row creates, a post is created twice, or a source rule is broken."""
    c = log.creations
    return bool((log.creation_of() < 0).any() or np.unique(c.post).size != len(c) or _unsourced(c).any())


def save_columns(log: CellLog, path: str | Path) -> None:
    """Save a log's columns to an uncompressed .npz file: is_exposure, and each column as "<exposures|creations>.<key>"."""
    np.savez(
        path,
        is_exposure=log.is_exposure,
        **{f"exposures.{k}": getattr(log.exposures, k) for k in EXPOSURE_KEYS},
        **{f"creations.{k}": getattr(log.creations, k) for k in CREATION_KEYS},
    )


def _saved_log(path: Path, sha256: str | None) -> CellLog | None:
    """The columns saved beside the log at ``path`` if they are proven to be its parse, else None.

    The .npz file must load without unpickling, and its columns and the log
    file must pass ``_is_parse``. Any failure returns None, and read_log then
    parses the file as it would without the .npz, errors included.
    """
    saved = path.with_suffix(".npz")
    if not saved.is_file():
        return None
    try:
        with open(saved, "rb") as fh:  # opened here, so that it is closed when np.load fails
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a lone .npy array
                return None
            log = CellLog(
                ExposureColumns(**{k: npz[f"exposures.{k}"] for k in EXPOSURE_KEYS}),
                CreationColumns(**{k: npz[f"creations.{k}"] for k in CREATION_KEYS}),
                npz["is_exposure"],
            )
        return log if _is_parse(log, path, sha256) else None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def _is_parse(log: CellLog, path: Path, sha256: str | None) -> bool:
    """Whether ``log`` is the parse of the file at ``path``, and the file has SHA-256 ``sha256`` (if given).

    Columns with the dtypes, rank and lengths the parse gives, and that pass
    the checks it runs on columns, are write_log's bytes parsed back. So when
    the file holds those bytes and no more, its parse is these columns. The
    range checks are part of the proof: without them a load code of -1 would
    print as the last load, and a source of -7 as null, and neither parses
    back to itself. These checks come first; then the file is read once, in
    the lengths of ``_log_chunks``' chunks, each compared with its chunk and
    hashed for the digest, so it is never read whole.
    """
    flags = log.is_exposure
    if not _shaped_like(flags, _PARSED.is_exposure, np.size(flags)):
        return False
    n_exposures = int(np.count_nonzero(flags))
    for part, n in (("exposures", n_exposures), ("creations", flags.size - n_exposures)):
        columns, parsed = getattr(log, part), getattr(_PARSED, part)
        if not all(_shaped_like(getattr(columns, f.name), getattr(parsed, f.name), n) for f in fields(parsed)):
            return False
    e, c = log.exposures, log.creations
    bounds = [(e.load, len(LOADS)), (e.norm, len(NORMS)), (e.action, len(ACTIONS)), (c.kind, len(POST_KINDS))]
    bounds += [(e.likes, 2**62), (e.reshares, 2**62)]
    if not all(0 <= column.min(initial=0) and column.max(initial=0) < end for column, end in bounds) or c.source.min(initial=-1) < -1:
        return False
    if _breaks_creation_rules(log):
        return False
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in _log_chunks(log):
            block = fh.read(len(chunk))
            if block != chunk:
                return False
            digest.update(block)
        if fh.read(1):  # bytes past the formatted log
            return False
    return sha256 in (None, digest.hexdigest())


def _shaped_like(a: object, parsed: np.ndarray, n: int) -> bool:
    """Whether ``a`` is a numpy array of ``parsed``'s dtype holding ``n`` values in one dimension."""
    return isinstance(a, np.ndarray) and a.dtype == parsed.dtype and a.shape == (n,)


def _one_brace_a_line(data: bytes) -> bool:
    """Whether each "}" in a log's bytes is the last byte of its line but for JSON spaces.

    In UTF-8 the bytes of "}", "\n" and the JSON spaces stand for no other
    character, so one pass over the bytes, with any spaces taken out, tells.
    """
    spaces = JSON_SPACE.encode()
    if any(space in data for space in spaces):
        data = data.translate(None, spaces)
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.append((b == ord("\n")).nonzero()[0], b.size) - 1  # each line's last byte (-1 or a "\n" if it is blank)
    return np.count_nonzero(b[ends[ends >= 0]] == ord("}")) == np.count_nonzero(b == ord("}"))


def _parse_rows(rows: list[str], joined: bool) -> CellLog:
    """Columns of log lines; ValueError on a line that is not one valid record.

    With ``joined`` (each "}" ends its line but for spaces), one json.loads
    parses the lines joined by commas, and they must give one object per
    line. n objects need n closing braces outside strings, and no more than
    n "}" end the n lines, so no "}" nests an object or sits in a string,
    each object ends at the end of a line, and each line is exactly one
    object. Without it (a "}" in a string or before more of its line), each
    line is parsed on its own.
    """
    if not joined:
        return _log_from_objs([json.loads(row) for row in rows])
    objs = json.loads("[" + ",".join(rows) + "]")
    if len(objs) != len(rows):  # '{"x":{}' then '"y":1}' is one object on two lines
        raise FormatError("row count")
    return _log_from_objs(objs)


def _concat(logs: list[CellLog]) -> CellLog:
    """One log of the rows of ``logs``, in order."""
    def join(parts: list) -> dict[str, np.ndarray]:
        return {f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(parts[0])}

    return CellLog(
        ExposureColumns(**join([log.exposures for log in logs])),
        CreationColumns(**join([log.creations for log in logs])),
        np.concatenate([log.is_exposure for log in logs]),
    )


def _log_from_objs(objs: list) -> CellLog:
    """Columns of parsed log rows; FormatError on a row that is not a valid record."""
    if not set(map(type, objs)) <= {dict}:
        raise FormatError("not a JSON object")
    is_exposure = ["action" in o for o in objs]
    exposures = [o for o, e in zip(objs, is_exposure) if e]
    creations = [o for o, e in zip(objs, is_exposure) if not e]
    return CellLog(
        ExposureColumns.from_lists({k: _values(exposures, k) for k in EXPOSURE_KEYS}),
        CreationColumns.from_lists({k: _values(creations, k) for k in CREATION_KEYS}),
        np.array(is_exposure, dtype=bool),
    )


def _unsourced(c: CreationColumns) -> np.ndarray:
    """Per creation row, whether it breaks the source rule: a seed row has no
    source, and a repost or quote row's source is a post an earlier row creates."""
    order = np.argsort(c.post, kind="stable")
    first = order[np.minimum(np.searchsorted(c.post[order], c.source), len(c) - 1)]  # a row creating the source
    earlier = (c.source >= 0) & (c.post[first] == c.source) & (first < np.arange(len(c)))
    return np.where(c.kind == _SEED, c.source >= 0, ~earlier)


def _values(objs: list[dict], key: str) -> list:
    try:
        return [o[key] for o in objs]
    except KeyError:
        raise FormatError(f"missing key {key!r}") from None


_PARSED = _log_from_objs([])  # the parse of no rows: its columns have the dtypes every parse gives


def _locate_error(path: Path, lines: list[str]) -> FormatError:
    """Re-read the log one line at a time and name its first bad line."""
    created: set[int] = set()
    for number, line in enumerate(lines, 1):
        if not line.strip(JSON_SPACE):
            continue
        try:
            row = _log_from_objs([json.loads(line)])
            if row.is_exposure[0]:
                post = int(row.exposures.post[0])
                if post not in created:
                    raise FormatError(f"exposure of post {post} before any row creates it")
            else:
                kind, post, source = (int(getattr(row.creations, k)[0]) for k in ("kind", "post", "source"))
                if post in created:
                    raise FormatError(f"post {post} created twice")
                if (kind == _SEED) != (source < 0):
                    raise FormatError(f"seed post {post} has source {source}" if kind == _SEED else f"{_KIND_TEXT[kind]} post {post} has no source")
                if source >= 0 and source not in created:
                    raise FormatError(f"{_KIND_TEXT[kind]} of post {source} before any row creates it")
                created.add(post)
        except FormatError as e:
            return FormatError(f"{path}, line {number}: {e}")
        except json.JSONDecodeError as e:
            return FormatError(f"{path}, line {number}: invalid JSON ({e.msg} at column {e.colno})")
        except RecursionError:
            return FormatError(f"{path}, line {number}: invalid JSON (nested too deeply)")
    return FormatError(f"{path}: malformed log")


def log_digest(log: CellLog) -> str:
    """The SHA-256 digest write_log would return for this log."""
    digest = hashlib.sha256()
    for chunk in _log_chunks(log):
        digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Plans and cell seeds
# ---------------------------------------------------------------------------


def cell_seed(base_seed: int, load: LoadLevel, norm: NormRegime, replication: int) -> int:
    """Stable 63-bit cell seed derived from the plan's base seed."""
    key = f"{base_seed}|{load.value}|{norm.value}|{replication}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass(kw_only=True)
class ExperimentPlan(RunParameters):
    """A factorial plan: a base seed, a policy and a replication count, plus the
    run parameters every cell shares. Its JSON object is read by core.from_obj
    and written by core.to_obj."""

    base_seed: int
    policy: PolicySpec = field(default_factory=mock_policy_spec, metadata={"read": policy_spec_from_obj})
    replications: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        check_seed(self.base_seed, "base_seed")
        if self.replications < 1:
            raise ConfigurationError(f"replications must be at least 1, got {self.replications}")

    def cells(self) -> list[tuple[LoadLevel, NormRegime, int]]:
        return [
            (load, norm, rep)
            for load in LOADS
            for norm in NORMS
            for rep in range(self.replications)
        ]

    def cell_config(self, load: LoadLevel, norm: NormRegime, replication: int) -> RunConfig:
        return RunConfig(
            seed=cell_seed(self.base_seed, load, norm, replication),
            load=load,
            norm=norm,
            **{f.name: getattr(self, f.name) for f in fields(RunParameters)},
        )


def cell_name(load: LoadLevel, norm: NormRegime, replication: int) -> str:
    return f"{load.value}_{norm.value}_r{replication}"


def _run_cell(plan: ExperimentPlan, profiles: Sequence[AgentProfile], graph: FollowGraph, corpus: Sequence[str],
              api_key: str | None, cell: tuple[LoadLevel, NormRegime, int], log_path: Path) -> dict:
    """Run one cell and write its log; returns its manifest entry, "failed" on any error. Top level for pickling."""
    load, norm, rep = cell
    config = plan.cell_config(load, norm, rep)
    entry = {"load": load.value, "norm": norm.value, "replication": rep, "seed": config.seed, "file": log_path.name}
    try:
        policy = build_policy(plan.policy, load, norm, api_key=api_key)
        builder = LogBuilder(config)
        log = run(config, policy, profiles, graph, corpus, builder)
        digest = write_log(log, log_path)
        save_columns(log, log_path.with_suffix(".npz"))
        return {**entry, "sha256": digest, "rows": len(log), "status": "ok", **builder.counts()}
    except Exception as e:  # noqa: BLE001 - partial failures are recorded, not fatal
        return {**entry, "status": "failed", "error": f"{type(e).__name__}: {e}"}


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
    population_sha256 = save_population(profiles, graph, out / "population.jsonl")
    save_corpus(corpus, out / "corpus.jsonl")

    wanted = plan.cells()
    if cells is not None:
        selected = {(load.value, norm.value) for load, norm in cells}
        wanted = [(l, n, r) for l, n, r in wanted if (l.value, n.value) in selected]
    log_paths = [out / "logs" / f"{cell_name(*cell)}.jsonl" for cell in wanted]

    # Every cell runs on the caller's objects; a worker process gets them pickled.
    run_cell = partial(_run_cell, plan, profiles, graph, corpus, api_key)
    if workers > 1 and len(wanted) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by a run that uses it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, wanted, log_paths))
    else:
        results = list(map(run_cell, wanted, log_paths))

    manifest = {
        "plan": to_obj(plan),
        "population_sha256": population_sha256,
        "corpus_sha256": corpus_digest(corpus),
        "cells": results,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return manifest


def load_experiment(out_dir: str | Path) -> tuple[dict, Iterator[tuple[str, CellLog]]]:
    """Read a persisted experiment: its manifest, and (cell name, log) of each completed cell.

    The manifest is read and checked at once: each ok cell must give its log
    file and digest as strings, and no two may name the same cell's log. The
    logs are read lazily, one per step in sorted cell-name order, each
    checked against the SHA-256 digest its manifest entry records when it is
    reached; ``dict(cells)`` reads them all.
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    text = read_text(path, "manifest")
    try:
        manifest = json.loads(text)
        cells = [(c["file"], c["sha256"]) for c in manifest["cells"] if c.get("status") == "ok"]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"{path}: not a valid manifest ({type(e).__name__}: {e})") from None
    for file, sha256 in cells:
        if not (isinstance(file, str) and isinstance(sha256, str)):
            raise FormatError(f"{path}: an ok cell's file and sha256 must be strings, got {file!r} and {sha256!r}")
    named = sorted((file.removesuffix(".jsonl"), file, sha256) for file, sha256 in cells)
    for (name, _, _), (next_name, _, _) in zip(named, named[1:]):
        if name == next_name:
            raise FormatError(f"{path}: names the log of cell {name!r} twice")
    return manifest, ((name, read_log(out / "logs" / file, sha256=sha256)) for name, file, sha256 in named)


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


def realized_load_audit(log: CellLog, graph: FollowGraph) -> LoadAudit:
    """Recompute per-activation algorithmic counts from a log and the graph.

    A feed slot is algorithmic exactly when the post's author is not one of
    the viewer's followees; authorship comes from the log's creation rows,
    so the audit needs no engine state. An activation is one (t, agent) pair.
    """
    e = log.exposures
    if len(e) == 0:
        return LoadAudit(n_activations=0, mean=None, min=None, max=None, flagged=True)
    created = log.creation_of()
    if (created < 0).any():
        raise ValueError(f"post {e.post[created < 0][0]} is shown before any row creates it")
    author = log.creations.author[created]

    # Agent ids and times as dense indices, so that a pair of them codes into
    # one int64 without overflow: (viewer, author) for the follow test, and
    # (t, agent) for the activation.
    pairs = np.array(graph.edges(), dtype=np.int64).ravel()
    ids = np.unique(np.concatenate([e.agent, author, pairs]), return_inverse=True)[1]
    n, width = len(e), ids.max() + 1
    viewer, owner, follows = ids[:n], ids[n : 2 * n], ids[2 * n :].reshape(-1, 2)
    followed = np.isin(viewer * width + owner, follows[:, 0] * width + follows[:, 1])
    activation = np.unique(np.unique(e.t, return_inverse=True)[1] * width + viewer, return_inverse=True)[1]
    counts = np.bincount(activation[~followed], minlength=activation.max() + 1)
    return LoadAudit(
        n_activations=counts.size,
        mean=int(counts.sum()) / counts.size,
        min=int(counts.min()),
        max=int(counts.max()),
    )


@dataclass
class CellShares:
    """Action shares over all exposure rows of one cell."""

    n_records: int
    counts: dict[str, int]
    shares: dict[str, float]


def descriptive_shares(log: CellLog) -> CellShares:
    actions = log.exposures.action
    n = actions.size
    counts = {a.value: int(c) for a, c in zip(ACTIONS, np.bincount(actions, minlength=len(ACTIONS)))}
    shares = {k: (v / n if n else 0.0) for k, v in counts.items()}
    return CellShares(n_records=n, counts=counts, shares=shares)

