"""Factorial experiment runner: 4 load levels x 3 norm regimes x replications.

One population and one corpus are shared by every cell; each cell gets a
seed derived by stable hashing so plans are reproducible across machines
and Python processes. Logs are persisted as JSON Lines (one record per
line) so every audit in this module can be recomputed by an external
reader of the artifact directory, and the manifest carries SHA-256 digests
of everything written. This module owns that log format: ``write_log``
formats the columns of a ``CellLog`` a chunk of rows at a time, ``read_log``
parses a file into those columns a chunk of lines at a time, and the audits
below compute from them. A cell's log is written as the cell runs: its
``LogBuilder`` hands each piece of rows to a ``LogWriter``, which formats,
hashes and writes it and spools its columns, so no cell's rows are held
whole; ``write_log`` and ``save_columns`` of a whole ``CellLog`` are that
writer given one piece.

An activation logs its feed as one block of exposure rows that share run,
load, norm, t and agent, so the writer formats that head once per block
(found by comparing adjacent rows, so any ``CellLog`` writes the same
bytes), and each distinct post, likes and reshares value once per chunk of
rows; a line joins those texts and its action's close. The reader parses
each line with its own ``json.loads``, a chunk of lines at a time.

The log's value rules live here alone, each stated once. The enum texts
are the writer's (``_LOAD_TEXT`` and its siblings), and the reader's
text-to-code table is derived from them. The JSON build of columns
(``_log_from_objs``) checks only what columns cannot show: types, keys,
enum texts and a literal negative source. The counter range and the
creation rules are checked on columns by ``_first_break``, whatever the
columns came from. Those rules and the load audit find a post's first
creation row one way: ``core.first_index`` over the creation posts.

Integer keys are placed by a table when they are dense and by a sort only
when they are not. ``core.ranked`` alone makes that choice: it gives
``np.unique``'s values and inverse, for the writer's distinct texts
(``_texts``), the load audit's ids, times and activations, ``stats``'
pattern table, and ``core.first_index``'s lookups.

``read_log`` parses no JSON for columns it has proven equal to the parse,
by checking them as the parse checks columns and re-formatting them to the
log file's bytes (``_is_parse``). They come from one of two places.
``run_experiment`` saves each cell's columns beside its log, as
``logs/<cell>.npz``, written by the cell's ``LogWriter`` as it writes the
log: a cache, not a record. Without one, ``_decoded_log`` decodes the
file's bytes with numpy as write_log's line format. Whatever fails the
proof is parsed as JSON, as it would be without either, errors included.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

import socialsim

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
    first_index,
    json_value,
    ranked,
    read_bytes,
    read_text,
    to_obj,
    utf8_text,
)
from .population import AgentProfile, FollowGraph, corpus_digest, save_corpus, save_population
from .population import load_corpus, load_population  # noqa: F401 - perfbench traces harness.load_population


# ---------------------------------------------------------------------------
# Log serialization (JSON Lines)
# ---------------------------------------------------------------------------


_LOAD_TEXT = [m.value for m in LOADS]
_NORM_TEXT = [m.value for m in NORMS]
_ACTION_TEXT = [m.value for m in ACTIONS]
_KIND_TEXT = [m.value for m in POST_KINDS]
_CODE_OF = {  # an enum key's text -> code
    key: {text: code for code, text in enumerate(texts)}
    for key, texts in (("load", _LOAD_TEXT), ("norm", _NORM_TEXT), ("action", _ACTION_TEXT), ("kind", _KIND_TEXT))
}
_ACTION_END = [f',"action":"{a}"}}\n' for a in _ACTION_TEXT]  # the close of an exposure line and its newline, by action code
_SEED = POST_KINDS.index(PostKind.SEED)
_CHUNK_ROWS = 1 << 12


def _texts(values: np.ndarray, suffix: str) -> tuple[list[str], np.ndarray]:
    """Each distinct value's digits then ``suffix``, and each value's index into those texts (``ranked``)."""
    distinct, at = ranked(values)
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
    _check_codes(load, "load", _LOAD_TEXT)
    _check_codes(norm, "norm", _NORM_TEXT)
    L, N = _LOAD_TEXT, _NORM_TEXT
    texts = [
        f'{{"run":{r},"load":"{L[l]}","norm":"{N[m]}","t":{s},"agent":{a},"post":'
        for r, l, m, s, a in zip(*(column[starts].tolist() for column in (run, load, norm, t, agent)))
    ]
    action = e.action[lo:hi].astype(np.intp)
    _check_codes(action, "action", _ACTION_TEXT)
    parts = [_texts(e.post[lo:hi], ',"likes":'), _texts(e.likes[lo:hi], ',"reshares":'), _texts(e.reshares[lo:hi], "")]
    at = np.empty((hi - lo, 5), dtype=np.intp)
    at[:, 0] = np.cumsum(new_head) - 1
    for i, (part_texts, part_at) in enumerate(parts + [(_ACTION_END, action)], 1):
        at[:, i] = part_at + len(texts)
        texts += part_texts
    return texts, at


def _check_codes(codes: np.ndarray, key: str, texts: list[str]) -> None:
    """ValueError unless each code indexes ``texts``: a code of -1 would write the last text."""
    if codes.size and not (0 <= codes.min() and codes.max() < len(texts)):
        raise ValueError(f"{key} codes must be in 0..{len(texts) - 1}")


def _creation_lines(c: CreationColumns, lo: int, hi: int) -> list[str]:
    _check_codes(c.kind[lo:hi], "kind", _KIND_TEXT)
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


class LogWriter:
    """A JSONL log and its saved columns, each optional, written a piece of rows at a time.

    ``add`` formats each piece with ``_log_chunks``, hashes the bytes and
    writes them, and appends each of the piece's columns to its spool, an
    anonymous temporary file beside the output. ``close`` writes the .npz
    from the spools, an uncompressed zip of one .npy member per column as
    ``np.savez`` writes it, so no column is ever held whole. Each file is
    written under its name plus ".part" and moved into place by ``close``; a
    writer left unclosed (by an error in its ``with`` block or in ``close``,
    say) removes those and every file ``close`` had moved, and its spools are
    gone either way.
    """

    def __init__(self, path: str | Path | None = None, *, columns: str | Path | None = None):
        self.path = None if path is None else Path(path)
        self._columns = None if columns is None else Path(columns)
        self._spools: dict[str, _Spool] = {}
        self._digest = hashlib.sha256()
        self._fh = None if path is None else open(_part(self.path), "wb")
        self._closed = False
        self._moved: list[Path] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def __enter__(self) -> LogWriter:
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self._release()
            for path in (self.path, self._columns):
                if path is not None:
                    _part(path).unlink(missing_ok=True)
            for path in self._moved:
                path.unlink(missing_ok=True)

    def add(self, piece: CellLog) -> None:
        """Write the next rows of the log: ``piece``'s, in order."""
        if len(piece) and self._fh is not None:  # a log of no rows is one newline, written by close
            self._write_text(piece)
        if self._columns is not None:
            for name, values in _named_columns(piece):
                spool = self._spools.get(name)
                if spool is None:
                    spool = self._spools[name] = _Spool(values.dtype, self._columns.parent)
                spool.append(values)
        self._rows += len(piece)

    def close(self) -> str:
        """Finish the files, move them into place and return the log's SHA-256 digest."""
        try:
            if not self._rows:  # a log of no rows: one newline, and columns of no values
                self.add(_PARSED)
                if self._fh is not None:
                    self._write_text(_PARSED)
            if self._fh is not None:
                self._fh.close()
            if self._columns is not None:
                with zipfile.ZipFile(_part(self._columns), "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
                    for name, spool in self._spools.items():
                        with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                            spool.copy_to(member)
        finally:
            self._release()
        for path in (self._columns, self.path):
            if path is not None:
                _part(path).replace(path)
                self._moved.append(path)
        self._closed = True
        return self._digest.hexdigest()

    def _write_text(self, piece: CellLog) -> None:
        for chunk in _log_chunks(piece):
            self._digest.update(chunk)
            self._fh.write(chunk)

    def _release(self) -> None:
        if self._fh is not None:
            self._fh.close()
        for spool in self._spools.values():
            spool.close()


def _part(path: Path) -> Path:
    """The name a LogWriter writes ``path`` under until it closes."""
    return path.with_name(path.name + ".part")


def _named_columns(log: CellLog) -> Iterator[tuple[str, np.ndarray]]:
    """Each column of ``log`` by its name in the .npz: is_exposure, and "<exposures|creations>.<key>"."""
    yield "is_exposure", log.is_exposure
    for part, keys in (("exposures", EXPOSURE_KEYS), ("creations", CREATION_KEYS)):
        for key in keys:
            yield f"{part}.{key}", getattr(getattr(log, part), key)


class _Spool:
    """One column's values, appended a piece at a time to an anonymous temporary file in ``directory``."""

    def __init__(self, dtype: np.dtype, directory: Path):
        self.dtype = dtype
        self.size = 0
        self.file = tempfile.TemporaryFile(dir=directory)

    def append(self, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values, dtype=self.dtype)
        self.file.write(values)
        self.size += values.size

    def copy_to(self, out) -> None:
        """Write the column to ``out`` as a .npy file."""
        header = {"descr": np.lib.format.dtype_to_descr(self.dtype), "fortran_order": False, "shape": (self.size,)}
        np.lib.format.write_array_header_1_0(out, header)
        self.file.seek(0)
        shutil.copyfileobj(self.file, out)

    def close(self) -> None:
        self.file.close()


def write_log(log: CellLog | LogWriter, path: str | Path) -> str:
    """Write a JSONL log and return its SHA-256 digest, hashing each chunk as it is written.

    ``log`` is a CellLog, written as one piece, or a LogWriter that has been
    writing ``path`` a piece at a time; either way the LogWriter's ``close``
    moves the file to ``path``.
    """
    if isinstance(log, LogWriter):
        if log.path != Path(path):
            raise ValueError(f"the writer writes {log.path}, not {path}")
        return log.close()
    with LogWriter(path) as writer:
        writer.add(log)
        return writer.close()


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

    Columns proven to be the parse are returned without parsing JSON. They
    come from the .npz file saved beside the log (the same path with an .npz
    suffix, written by the cell's ``LogWriter`` or by ``save_columns``; see
    ``_saved_log``), else from decoding the bytes as write_log's line format
    (``_decoded_log``). Either must pass ``_is_parse``; any other file is
    parsed as JSON (``_parsed_log``), errors included.
    """
    path = Path(path)
    log = _saved_log(path, sha256)
    if log is not None:
        return log
    data = read_bytes(path, "event log")
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise FormatError(f"{path}: SHA-256 differs from the manifest's {sha256}")
    log = _decoded_log(data)
    if log is not None and _is_parse(log, io.BytesIO(data).read, None):  # the digest is checked above
        return log
    return _parsed_log(path, data)


def _parsed_log(path: Path, data: bytes) -> CellLog:
    """The JSON parse of a log's bytes, ``_CHUNK_ROWS`` lines at a time; FormatError naming its first bad line."""
    lines = utf8_text(data, path).split("\n")
    kept = np.flatnonzero([bool(line.strip(JSON_SPACE)) for line in lines])  # blank lines are skipped
    rows = [lines[i] for i in kept.tolist()]
    logs, bad = [], None
    # Each chunk's parsed dicts are dropped once its columns are built; an empty log is one empty chunk.
    for lo in range(0, len(rows) or 1, _CHUNK_ROWS):
        chunk = rows[lo : lo + _CHUNK_ROWS]
        try:
            logs.append(_log_from_objs([json.loads(row) for row in chunk]))
        except (ValueError, RecursionError):  # JSONDecodeError and FormatError included
            log, bad = _first_bad_row(chunk, lo)
            logs.append(log)
            if bad is not None:
                break
    log = CellLog.concat(logs)
    bad = _first_break(log) or bad  # log holds only the rows before a bad row, so a break in it comes first
    if bad is not None:
        row, reason = bad
        raise FormatError(f"{path}, line {kept[row] + 1}: {reason}")
    return log


def _first_bad_row(rows: list[str], start: int) -> tuple[CellLog, tuple[int, str] | None]:
    """The columns of ``rows`` before the first that does not parse to columns, and (its index plus ``start``, reason), or None if all do."""
    objs = []
    for i, row in enumerate(rows, start):
        try:
            obj = json_value(row)
            _log_from_objs([obj])
        except FormatError as e:
            return _log_from_objs(objs), (i, str(e))
        objs.append(obj)
    return _log_from_objs(objs), None


def _first_break(log: CellLog) -> tuple[int, str] | None:
    """The first row in log order whose values break a rule, as (row, reason), or None if none does.

    The rules: likes and reshares are in [0, 2**62), so that their sum fits
    in an int64; an exposure shows a post an earlier row creates; no post is
    created twice; a seed row has no source; and a repost or quote row's
    source is a post an earlier row creates. A row's counters are checked
    before its creation rule.
    """
    e, c = log.exposures, log.creations
    outside = {key: (v < 0) | (v >= 2**62) for key, v in (("likes", e.likes), ("reshares", e.reshares))}
    # Each lookup's row of the first creation of its post; a rule holds where that row comes before the asking row.
    created_at = _creation_rows(log)
    shown, created, sourced = (created_at[first] for first in first_index(c.post, e.post, c.post, c.source))
    c_rows = created_at[:-1]
    bad_exposure = (shown >= np.flatnonzero(log.is_exposure)) | outside["likes"] | outside["reshares"]
    twice = created < c_rows
    unsourced = (c.source < 0) | (sourced >= c_rows)
    bad_creation = twice | np.where(c.kind == _SEED, c.source >= 0, unsourced)
    if not (bad_creation.any() or bad_exposure.any()):
        return None
    bad = np.empty(len(log), dtype=bool)
    bad[log.is_exposure], bad[~log.is_exposure] = bad_exposure, bad_creation
    row = int(bad.argmax())
    n_exposures = int(np.count_nonzero(log.is_exposure[:row]))
    if log.is_exposure[row]:
        for key, out in outside.items():
            if out[n_exposures]:
                return row, f"negative {key} count" if getattr(e, key)[n_exposures] < 0 else f"{key} count too large"
        return row, f"exposure of post {e.post[n_exposures]} before any row creates it"
    k = row - n_exposures
    kind, post, source = int(c.kind[k]), int(c.post[k]), int(c.source[k])
    if twice[k]:
        return row, f"post {post} created twice"
    if kind == _SEED:
        return row, f"seed post {post} has source {source}"
    if source < 0:
        return row, f"{_KIND_TEXT[kind]} post {post} has no source"
    return row, f"{_KIND_TEXT[kind]} of post {source} before any row creates it"


def _creation_rows(log: CellLog) -> np.ndarray:
    """Each creation's row in ``log``, then ``len(log)``, which no row reaches, for ``first_index``'s "none"."""
    return np.append(np.flatnonzero(~log.is_exposure), len(log))


def save_columns(log: CellLog, path: str | Path) -> None:
    """Save a log's columns to an uncompressed .npz file: is_exposure, and each column as "<exposures|creations>.<key>"."""
    with LogWriter(columns=path) as writer:
        writer.add(log)
        writer.close()


def _saved_log(path: Path, sha256: str | None) -> CellLog | None:
    """The columns saved beside the log at ``path`` if they are proven to be its parse, else None.

    The .npz file must load without unpickling, and its columns and the log
    file must pass ``_is_parse``, which reads the log in chunks, so never
    whole. Any failure returns None, and read_log then goes on as it would
    without the .npz, errors included.
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
        with open(path, "rb") as fh:
            return log if _is_parse(log, fh.read, sha256) else None
    except Exception:  # noqa: BLE001 - a cache that fails to load in any way is not read
        return None


def _is_parse(log: CellLog, read: Callable[[int], bytes], sha256: str | None) -> bool:
    """Whether ``log`` is the parse of the log whose bytes ``read(n)`` gives in turn, and they have SHA-256 ``sha256`` (if given).

    Columns with the dtypes, rank and lengths the parse gives, whose values
    the parse could give and that pass ``_first_break``, are write_log's
    bytes parsed back. So when the file holds those bytes and no more, its
    parse is these columns. The code and source ranges are part of the
    proof: a source of -7 would print as null, which parses back as -1, and
    write_log raises on a code outside its enum (a decoded -1 stands for a
    byte no enum text has). These checks come first; then the bytes are
    read in the lengths of ``_log_chunks``' chunks, each compared with its
    chunk and hashed for the digest.
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
    if not all(0 <= column.min(initial=0) and column.max(initial=0) < end for column, end in bounds) or c.source.min(initial=-1) < -1:
        return False
    if _first_break(log) is not None:
        return False
    digest = hashlib.sha256()
    for chunk in _log_chunks(log):
        block = read(len(chunk))
        if block != chunk:
            return False
        if sha256 is not None:
            digest.update(block)
    if read(1):  # bytes past the formatted log
        return False
    return sha256 in (None, digest.hexdigest())


def _shaped_like(a: object, parsed: np.ndarray, n: int) -> bool:
    """Whether ``a`` is a numpy array of ``parsed``'s dtype holding ``n`` values in one dimension."""
    return isinstance(a, np.ndarray) and a.dtype == parsed.dtype and a.shape == (n,)


# Decoding write_log's line format. Each enum value is read from one byte at
# a fixed offset in the text the writer puts around it, an offset at which
# every value of the enum has a different byte. Any other byte decodes as -1.
_DECODE_BYTES = 1 << 19  # the most bytes decoded at once, so the decoder's temporaries grow with this, not with the file


def _byte_table(texts: list[str], at: int) -> np.ndarray:
    """A 256-entry table from the byte at ``at`` of each text to the text's code, -1 for any other byte."""
    table = np.full(256, -1, dtype=np.int8)
    for code, text in enumerate(texts):
        table[ord(text[at])] = code
    return table


_LOAD_AT = _byte_table([f',"load":"{v}","' for v in _LOAD_TEXT], 12)  # 12 bytes after the run's digits
_NORM_AT = _byte_table([f'"norm":"{v}","t":' for v in _NORM_TEXT], -16)  # 16 bytes before t's first byte
_ACTION_AT = _byte_table(_ACTION_END, -5)  # 4 bytes before the line's "\n"
_KIND_AT = _byte_table([f'{{"kind":"{v}"' for v in _KIND_TEXT], 9)  # 9 bytes after the line's start


def _decoded_log(data: bytes) -> CellLog | None:
    """Columns decoded from a log's bytes as write_log's format would hold them, or None.

    A candidate only, for ``_is_parse`` to prove or refuse: the decoder never
    raises, gives columns of exactly the parse's dtypes, and returns None
    wherever the bytes surprise it. It decodes at most ``_DECODE_BYTES`` bytes
    at a time, cut at a line end, so its temporaries stay small.
    """
    if data == b"\n":  # write_log's log of no rows
        return _log_from_objs([])
    blocks = []
    lo = 0
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _DECODE_BYTES) + 1
        block = _decoded_block(np.frombuffer(data, np.uint8, hi - lo, lo)) if hi else None  # hi 0: no line end
        if block is None:
            return None
        blocks.append(block)
        lo = hi
    return CellLog.concat(blocks) if blocks else None


def _decoded_block(b: np.ndarray) -> CellLog | None:
    """The columns of whole lines ``b``, ending in "\n", decoded as ``_decoded_log`` does.

    A line is an exposure if its third byte is the "r" of "run", else a
    creation. Each maximal run of digits, with the "-" before it if any, is
    an integer; no key or enum text holds a digit. An exposure line holds 6
    integers (run, t, agent, post, likes, reshares), a creation line 4
    (post, author, source, t) or, with source null, 3. The integers of each
    length are read together, a digit place at a time. Past int64 the
    arithmetic wraps, and the proof refuses the value it gives.
    """
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    is_exposure = b.take(starts + 2, mode="clip") == ord("r")
    d = b - np.uint8(ord("0"))  # a digit's value; every other byte wraps past 9
    digit = np.zeros(b.size + 1, dtype=bool)
    digit[1:] = d < 10
    flips = np.flatnonzero(digit[1:] != digit[:-1])  # a run's first digit, then the byte after its last; b ends in "\n"
    first, after = flips[0::2], flips[1::2]
    lengths = after - first
    if lengths.size and lengths.max() > 19:
        return None
    line_first = np.searchsorted(first, starts)  # each line's first integer
    counts = np.diff(line_first, append=first.size)
    n_creation = counts[~is_exposure]
    if not (np.all(counts[is_exposure] == 6) and np.all((n_creation == 3) | (n_creation == 4))):
        return None
    values = np.empty(first.size, dtype=np.int64)
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        at = np.flatnonzero(lengths == n)
        digit_at = first[at]
        number = d[digit_at].astype(np.int64)
        for _ in range(n - 1):
            digit_at += 1
            number *= 10
            number += d[digit_at]
        values[at] = number
    negative = b.take(first - 1, mode="clip") == ord("-")
    np.negative(values, out=values, where=negative)
    token = first - negative  # each integer's first byte, its "-" if any
    e, c = line_first[is_exposure], line_first[~is_exposure]
    run, t, agent, post, likes, reshares = (values[e + i] for i in range(6))
    null = n_creation == 3
    exposures = ExposureColumns(
        run=run,
        load=_LOAD_AT[b.take(after[e] + 12, mode="clip")],
        norm=_NORM_AT[b.take(token[e + 1] - 16, mode="clip")],
        t=t,
        agent=agent,
        post=post,
        likes=likes,
        reshares=reshares,
        action=_ACTION_AT[b.take(ends[is_exposure] - 4, mode="clip")],
    )
    creations = CreationColumns(
        kind=_KIND_AT[b.take(starts[~is_exposure] + 9, mode="clip")],
        post=values[c],
        author=values[c + 1],
        source=np.where(null, -1, values[c + 2]),
        t=values[c + 3 - null],
    )
    return CellLog(exposures, creations, is_exposure)


def _log_from_objs(objs: list) -> CellLog:
    """Columns of parsed log rows; an object with an "action" key is an exposure row, any other a creation row.

    Raises FormatError on what the columns cannot show: a row that is not an
    object, a missing key, an unknown enum text, a value that is not an
    integer within int64, or a negative source (coded, a literal -1 would be
    null). The rules the columns do show are ``_first_break``'s.
    """
    if not set(map(type, objs)) <= {dict}:
        raise FormatError("not a JSON object")
    is_exposure = ["action" in o for o in objs]
    exposures = [o for o, e in zip(objs, is_exposure) if e]
    creations = [o for o, e in zip(objs, is_exposure) if not e]
    columns = []
    for rows, keys in ((exposures, EXPOSURE_KEYS), (creations, CREATION_KEYS)):
        values = {k: _values(rows, k) for k in keys}  # every key is found before any value is read
        columns.append({k: _column(values[k], k) for k in keys})
    if any(o["source"] is not None and o["source"] < 0 for o in creations):
        raise FormatError("negative source")
    return CellLog(ExposureColumns(**columns[0]), CreationColumns(**columns[1]), np.array(is_exposure, dtype=bool))


def _values(objs: list[dict], key: str) -> list:
    try:
        return [o[key] for o in objs]
    except KeyError:
        raise FormatError(f"missing key {key!r}") from None


def _column(values: list, key: str) -> np.ndarray:
    """The column of one key's parsed values: an enum key's int8 codes, else int64 (a null source as -1).

    FormatError on an unknown enum text, or on any other value that is not an
    int within int64 (a bool, float or str is not).
    """
    table = _CODE_OF.get(key)
    if table is not None:
        try:
            return np.array([table[v] for v in values], dtype=np.int8)
        except (KeyError, TypeError):
            bad = next(v for v in values if not isinstance(v, str) or v not in table)
            raise FormatError(f"unknown {key} {bad!r}") from None
    if key == "source":
        values = [-1 if v is None else v for v in values]
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    raise FormatError(f"{key} must be an integer")


_PARSED = _log_from_objs([])  # the parse of no rows: its columns have the dtypes every parse gives


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
    # socialsim.policy loads on first access, so a process loads it where a plan is made or read (its annotation is
    # resolved then) and where a cell runs, not with harness: analyze needs none of it.
    policy: socialsim.policy.PolicySpec = field(
        default_factory=lambda: socialsim.policy.mock_policy_spec(),
        metadata={"read": lambda obj: socialsim.policy.policy_spec_from_obj(obj)},
    )
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
    """Run one cell, writing its log and saved columns as it runs; returns its manifest entry, "failed" on any
    error, which leaves none of the cell's files. Top level for pickling."""
    from .engine import LogBuilder, run  # the simulator loads only in a process that runs cells
    from .policy import build_policy

    load, norm, rep = cell
    config = plan.cell_config(load, norm, rep)
    entry = {"load": load.value, "norm": norm.value, "replication": rep, "seed": config.seed, "file": log_path.name}
    try:
        policy = build_policy(plan.policy, load, norm, api_key=api_key)
        with LogWriter(log_path, columns=log_path.with_suffix(".npz")) as writer:
            builder = LogBuilder(config, writer.add)
            run(config, policy, profiles, graph, corpus, builder)
            digest = write_log(writer, log_path)
        return {**entry, "sha256": digest, "rows": len(writer), "status": "ok", **builder.counts()}
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

    Returns the manifest dict, also written to manifest.json as each cell
    finishes: a run stopped part way lists the cells it finished, in plan
    order. Failed cells are recorded in the manifest with their error;
    completed cells are kept.
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

    manifest = {
        "plan": to_obj(plan),
        "population_sha256": population_sha256,
        "corpus_sha256": corpus_digest(corpus),
        "cells": [],
    }
    path = out / "manifest.json"
    if not wanted:
        _write_manifest(manifest, path)
    # Every cell runs on the caller's objects; a worker process gets them pickled. Both maps yield in plan order.
    run_cell = partial(_run_cell, plan, profiles, graph, corpus, api_key)
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(wanted) > 1:
            from concurrent.futures import ProcessPoolExecutor  # loaded only by a run that uses it

            results = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map(run_cell, wanted, log_paths)
        else:
            results = map(run_cell, wanted, log_paths)
        for entry in results:
            manifest["cells"].append(entry)
            _write_manifest(manifest, path)
    return manifest


def _write_manifest(manifest: dict, path: Path) -> None:
    """Write ``manifest`` whole under a temporary name, then move it into place: never a partial manifest.json."""
    try:
        _part(path).write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(_part(path), path)
    except BaseException:
        _part(path).unlink(missing_ok=True)
        raise


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

    Every key is ranked with ``core.ranked``, by a table where the keys are
    dense and by a sort where they are not, with the same counts either way:
    the shown and created posts and the (viewer, author) and edge codes,
    through ``core.first_index``; the agent ids of viewers, authors and
    follow edges together; the times; and the (time, viewer) activation codes.
    """
    e = log.exposures
    if len(e) == 0:
        return LoadAudit(n_activations=0, mean=None, min=None, max=None, flagged=True)
    created = first_index(log.creations.post, e.post)[0]
    uncreated = _creation_rows(log)[created] >= np.flatnonzero(log.is_exposure)
    if uncreated.any():
        raise ValueError(f"post {e.post[uncreated][0]} is shown before any row creates it")
    author = log.creations.author[created]

    # Agent ids and times as dense indices, so that a pair of them codes into
    # one int64 without overflow: (viewer, author) for the follow test, and
    # (t, agent) for the activation.
    pairs = np.array(graph.edges(), dtype=np.int64).ravel()
    ids = ranked(np.concatenate([e.agent, author, pairs]))[1]
    n, width = len(e), ids.max() + 1
    viewer, owner, follows = ids[:n], ids[n : 2 * n], ids[2 * n :].reshape(-1, 2)
    # A slot is followed when its (viewer, author) code is among the edge codes
    # (not np.isin, whose sort path loads numpy.ma).
    edges = follows[:, 0] * width + follows[:, 1]
    followed = first_index(edges, viewer * width + owner)[0] < edges.size
    activation = ranked(ranked(e.t)[1] * width + viewer)[1]
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

