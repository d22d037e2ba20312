"""Shared domain types: actions, experimental conditions, post kinds, a feed's
and the event log's columns, run parameters, and the readers and writers of
config objects, JSON Lines rows and CSV tables.

The event log's column types live here, its format and value rules in
``harness``, which alone writes, reads and checks a log."""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import types
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

AgentId = int
RunId = int


class ConfigurationError(ValueError):
    """Raised when inputs cannot seat a valid run (bad sizes, bad rates)."""


class FormatError(ValueError):
    """Raised by file loaders on malformed or invariant-violating records."""


class ActionKind(Enum):
    READ = "read"
    LIKE = "like"
    REPOST = "repost"
    QUOTE = "quote"

    @property
    def is_engagement(self) -> bool:
        return self is not ActionKind.READ


class LoadLevel(Enum):
    """Choice-set size condition: 3 followed posts plus a level-specific algorithmic quota."""

    LOWEST = "lowest"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def algorithmic_count(self) -> int:
        return _ALGO_COUNTS[self]

    @property
    def followed_count(self) -> int:
        return 3

    @property
    def total(self) -> int:
        return self.followed_count + self.algorithmic_count


_ALGO_COUNTS = {
    LoadLevel.LOWEST: 4,
    LoadLevel.LOW: 7,
    LoadLevel.MEDIUM: 15,
    LoadLevel.HIGH: 30,
}


class NormRegime(Enum):
    """Prevalence framing injected into the agent's system prompt."""

    NO_NORM = "no_norm"
    LIKE_DOMINANT = "like_dominant"
    REPOST_DOMINANT = "repost_dominant"

    @property
    def prompt_fragment(self) -> str:
        return _NORM_FRAGMENTS[self]


# Canonical wording. The fragments state prevalence of engagement forms only;
# they never instruct how often to engage at all versus read.
_NORM_FRAGMENTS = {
    NormRegime.NO_NORM: "",
    NormRegime.LIKE_DOMINANT: (
        "When users here engage with posts, they typically like (about 80%), "
        "repost (about 15%), or quote (about 5%)."
    ),
    NormRegime.REPOST_DOMINANT: (
        "When users here redistribute posts, they typically repost (about 90%) "
        "rather than quote (about 10%)."
    ),
}


class PostKind(Enum):
    SEED = "seed"
    REPOST = "repost"
    QUOTE = "quote"


def popularity_composite(likes: int, reshares: int) -> float:
    """Single visibility signal for a post: ln(1 + likes + reshares).

    The log damps the heavy right skew of raw counts; the +1 offset keeps
    zero-count posts (every post at run start) well defined. Strictly
    increasing in both arguments.
    """
    if likes < 0 or reshares < 0:
        raise ValueError("engagement counts must be non-negative")
    return math.log1p(likes + reshares)


# ---------------------------------------------------------------------------
# Columnar event log
# ---------------------------------------------------------------------------

# Code tables of the enum columns: code i stands for the i-th member.
LOADS = tuple(LoadLevel)
NORMS = tuple(NormRegime)
ACTIONS = tuple(ActionKind)
POST_KINDS = tuple(PostKind)

# Keys of each row kind, in the order a log line writes them.
EXPOSURE_KEYS = ("run", "load", "norm", "t", "agent", "post", "likes", "reshares", "action")
CREATION_KEYS = ("kind", "post", "author", "source", "t")


@dataclass(frozen=True, eq=False)
class ExposureColumns:
    """Exposure rows in log order, one array per key of EXPOSURE_KEYS.

    run, t, agent, post, likes and reshares are int64; load, norm and action
    are int8 codes into LOADS, NORMS and ACTIONS.
    """

    run: np.ndarray
    load: np.ndarray
    norm: np.ndarray
    t: np.ndarray
    agent: np.ndarray
    post: np.ndarray
    likes: np.ndarray
    reshares: np.ndarray
    action: np.ndarray

    def __len__(self) -> int:
        return self.run.size


@dataclass(frozen=True, eq=False)
class CreationColumns:
    """Post-creation rows in log order: post, author, t and source as int64
    (source -1 for none), kind as an int8 code into POST_KINDS."""

    kind: np.ndarray
    post: np.ndarray
    author: np.ndarray
    source: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return self.post.size


@dataclass(frozen=True, eq=False)
class CellLog:
    """One cell's event log as columns.

    ``is_exposure`` has one entry per row of the log, in log order: the k-th
    True row is ``exposures`` row k, the k-th False row is ``creations`` row
    k. ``len()`` counts all rows, as a manifest's ``rows`` does.
    """

    exposures: ExposureColumns
    creations: CreationColumns
    is_exposure: np.ndarray

    def __len__(self) -> int:
        return self.is_exposure.size

    @staticmethod
    def concat(logs: Sequence[CellLog]) -> CellLog:
        """One log of the rows of ``logs`` (at least one), in order."""
        def join(parts: list) -> dict[str, np.ndarray]:
            return {f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(parts[0])}

        return CellLog(
            ExposureColumns(**join([log.exposures for log in logs])),
            CreationColumns(**join([log.creations for log in logs])),
            np.concatenate([log.is_exposure for log in logs]),
        )


def dense_span(values: np.ndarray) -> tuple[int, int] | None:
    """(min, max) of 1-D integer ``values`` that span fewer than four per value, else None.

    Such values can be placed by a table of their span, which is then sized
    by the count, never by the values; all others need a sort.
    """
    if values.ndim != 1 or values.dtype.kind not in "iu" or not values.size:
        return None
    low, high = int(values.min()), int(values.max())
    return (low, high) if high - low < 4 * values.size else None


def ranked(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``: the distinct values in order, and each value's index into them.

    Values with a ``dense_span`` are ranked by a table of which values are
    present and its running count, in two passes over the values and one
    over their span; all others by ``np.unique``'s sort.
    """
    span = dense_span(values)
    if span is None:
        return np.unique(values, return_inverse=True)
    low = values.dtype.type(span[0])
    # Each difference is in [0, max - min], so int64 arithmetic gives it exactly even where a value wraps.
    offsets = values.astype(np.int64) - low.astype(np.int64)
    present = np.zeros(span[1] - span[0] + 1, dtype=bool)
    present[offsets] = True
    return present.nonzero()[0].astype(values.dtype) + low, (np.cumsum(present) - 1)[offsets]


def first_index(keys: np.ndarray, *queries: np.ndarray) -> list[np.ndarray]:
    """Per value of each of ``queries``: the index of its first occurrence in ``keys``, or ``keys.size`` if it has none.

    The keys and queries are ranked together by one ``ranked``, and each
    rank's least key index is kept by ``np.minimum.at``, so the first of
    repeated keys wins.
    """
    parts = [keys, *queries]
    rank = ranked(np.concatenate(parts))[1]
    first = np.full(int(rank.max(initial=-1)) + 1, keys.size, dtype=np.intp)
    np.minimum.at(first, rank[: keys.size], np.arange(keys.size))
    ends = np.cumsum([part.size for part in parts]).tolist()
    return [first[rank[lo:hi]] for lo, hi in zip(ends, ends[1:])]


class Feed:
    """One activation's feed as columns, best first within each pool.

    ``posts``, ``likes`` and ``reshares`` (reposts plus quotes) are int64
    arrays, one element per slot: the post id and its counters when the
    feed was built. The first ``n_followed`` slots are followed, the rest
    algorithmic. ``contents`` reads each slot's text from the post store.
    """

    __slots__ = ("posts", "likes", "reshares", "n_followed", "_store")

    def __init__(
        self,
        posts: np.ndarray,
        likes: np.ndarray,
        reshares: np.ndarray,
        n_followed: int,
        store: Sequence[str],
    ):
        self.posts = posts
        self.likes = likes
        self.reshares = reshares
        self.n_followed = n_followed
        self._store = store  # post id -> text

    def __len__(self) -> int:
        return self.posts.size

    def contents(self) -> list[str]:
        """The text of each slot's post, in slot order."""
        return [self._store[post] for post in self.posts.tolist()]

    def position(self, post: int) -> int | None:
        """Index of the slot showing ``post``, None if the feed does not show it."""
        ids = self.posts.tolist()
        return ids.index(post) if post in ids else None


@dataclass
class RunParameters:
    """The run parameters every cell of a plan shares, with their defaults and ranges."""

    n_agents: int = 558
    timesteps: int = 480
    activation_p: float = 0.01
    recency_decay: float = 0.01
    w_recency: float = 0.7
    w_relevance: float = 0.3
    history_window: int = 8  # engagements a policy sees; the engine's per-agent deque bound

    def __post_init__(self) -> None:
        if not 0.0 < self.activation_p < 1.0:
            raise ConfigurationError(f"activation_p must be in (0, 1), got {self.activation_p}")
        if self.timesteps <= 0:
            raise ConfigurationError(f"timesteps must be positive, got {self.timesteps}")
        if self.n_agents <= 0:
            raise ConfigurationError(f"n_agents must be positive, got {self.n_agents}")
        # exp(-recency_decay * age) overflows for a negative decay over a long run.
        if not 0.0 <= self.recency_decay < math.inf:
            raise ConfigurationError(f"recency_decay must be finite and non-negative, got {self.recency_decay}")
        for key in ("w_recency", "w_relevance"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigurationError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        if abs(self.w_recency + self.w_relevance - 1.0) > 1e-9:
            raise ConfigurationError("recency and relevance weights must sum to 1")
        if not 1 <= self.history_window <= sys.maxsize:  # the bound of a deque's maxlen
            raise ConfigurationError(f"history_window must be in 1..{sys.maxsize}, got {self.history_window}")


@dataclass(kw_only=True)
class RunConfig(RunParameters):
    """Full parameterization of one simulated run: a cell's seed and condition plus the run parameters."""

    seed: int
    load: LoadLevel
    norm: NormRegime

    def __post_init__(self) -> None:
        super().__post_init__()
        check_seed(self.seed, "seed")
        if self.seed >= 2**63:  # the log's run column is int64; a plan's base seed is hashed, so it has no bound
            raise ConfigurationError(f"seed must be below 2**63, got {self.seed}")


def check_seed(seed: int | None, name: str) -> None:
    """ConfigurationError naming ``name`` unless ``seed`` is a non-negative integer (None: no seed given)."""
    if seed is not None and seed < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {seed}")


# ---------------------------------------------------------------------------
# Config objects, file rows and CSV tables: one reader and one writer for each
# ---------------------------------------------------------------------------


def from_obj(cls: type, obj: Any, what: str) -> Any:
    """An instance of dataclass ``cls`` from a JSON object of its init fields.

    Each value must have its field's annotated type: an int (an integral
    float is stored as one), a finite number (kept as given, so 0 stays 0), a
    string, a bool (only true or false), a list of such, or null where the
    type admits None; a bool is no number. A field with a ``read`` function
    in its metadata is read by it.
    ConfigurationError names the ``what`` (say "plan key") that is unknown,
    missing without a default, or of the wrong type; then cls checks ranges.
    """
    if not isinstance(obj, Mapping):
        raise ConfigurationError(f"expected a JSON object of {what}s, got {obj!r}")
    names, readers = _readers(cls)
    if not names.issuperset(obj):
        raise ConfigurationError(f"unknown {what} {sorted(set(obj) - names)[0]!r}")
    values = {}
    for name, required, read, tp in readers:
        if name not in obj:
            if required:
                raise ConfigurationError(f"missing {what} {name!r}")
        elif tp is None:  # the field's own read function, whose errors are its own
            values[name] = read(obj[name])
        else:
            try:
                values[name] = read(obj[name])
            except (TypeError, OverflowError):  # OverflowError: an int past the float range
                raise ConfigurationError(f"{what} {name!r} must be {_describe(tp)}, got {obj[name]!r}") from None
    return cls(**values)


@functools.cache  # a class never changes; resolving its string annotations costs more than reading a row
def _readers(cls: type) -> tuple[frozenset[str], tuple[tuple[str, bool, Callable[[Any], Any], Any], ...]]:
    """The names of ``cls``'s init fields, and per field in order: its name, whether
    it is required, its reader, and its type (None for a ``read`` function's field)."""
    hints = get_type_hints(cls)
    readers = []
    for f in fields(cls):
        if not f.init:
            continue
        required = f.default is MISSING and f.default_factory is MISSING
        if "read" in f.metadata:
            readers.append((f.name, required, f.metadata["read"], None))
        else:
            readers.append((f.name, required, _reader(hints[f.name]), hints[f.name]))
    return frozenset(name for name, *_ in readers), tuple(readers)


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of a file of ``what``; FormatError if it is missing or a directory."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"{what} file {'is a directory' if path.is_dir() else 'not found'}: {path}")
    return path.read_bytes()


def utf8_text(data: bytes, path: str | Path) -> str:
    """``data``, the bytes of the file at ``path``, as text; FormatError naming the file if they are not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def read_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file of ``what``; FormatError if it is missing, a directory or not UTF-8."""
    return utf8_text(read_bytes(path, what), path)


# JSON whitespace other than the newline that ends a JSON Lines line. Lines
# split at "\n" only: str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e,
# \x85, U+2028 and U+2029, which a JSON string may hold and JSON rejects
# outside one. A line of JSON whitespace alone is blank.
JSON_SPACE = " \t\r"


def read_rows(path: str | Path, cls: type, what: str) -> list[tuple[int, Any]]:
    """The rows of a JSON Lines file of ``what`` (say "population"), each read by from_obj as a ``cls``.

    Returns (1-based line number, row) pairs; lines end at "\n" (a CRLF line
    end is one), and blank lines are skipped. A missing file, text that is
    not UTF-8, or a line that is not JSON or not a valid ``cls`` raises
    FormatError, for a line as "<path>, line <n>: ...".
    """
    rows = []
    for number, line in enumerate(read_text(path, what).split("\n"), 1):
        if not line.strip(JSON_SPACE):
            continue
        try:
            rows.append((number, from_obj(cls, json_value(line), f"{what} key")))
        except ValueError as e:  # FormatError from json_value, ConfigurationError from from_obj, or the row's own check
            raise FormatError(f"{path}, line {number}: {e}") from None
    return rows


def json_value(line: str) -> Any:
    """The JSON value of one line; FormatError with the reason if it is not JSON."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON ({e.msg} at column {e.colno})") from None
    except RecursionError:
        raise FormatError("invalid JSON (nested too deeply)") from None
    except ValueError as e:  # an integer of more digits than int() converts
        raise FormatError(str(e)) from None


def read_table(path: str | Path, what: str, columns: Sequence[str]) -> list[tuple[int, dict[str, str]]]:
    """(1-based line number, fields by header name) of each row of a CSV table of ``what`` rows (say "scenario").

    The header names each of ``columns`` once, in any order, and no name twice; each row has one field per
    column; blank lines are skipped. Any fault (read_text's, a bad header or row, no row) raises FormatError.
    """
    # Lines end only where the csv module ends them: at \r or \n outside quotes, not at U+2028 or \x85.
    reader = csv.reader(io.StringIO(read_text(path, "CSV table"), newline=""))
    header = next(reader, [])
    if len(set(header)) != len(header) or not set(columns) <= set(header):
        raise FormatError(f"{path}, line 1: header must name the columns {', '.join(columns[:-1])} and {columns[-1]} once each, got {header}")
    rows = []
    for row in filter(None, reader):
        if len(row) != len(header):
            raise FormatError(f"{path}, line {reader.line_num}: expected {len(header)} fields, got {len(row)}")
        rows.append((reader.line_num, dict(zip(header, row))))
    if not rows:
        raise FormatError(f"{path}: no {what} rows")
    return rows


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> None:
    """Write a CSV table in the csv module's default dialect: a header of ``columns``, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def to_obj(value: Any) -> Any:
    """The JSON value of a config object: a dataclass becomes an object of all its fields, a tuple a list."""
    names = _field_names(type(value))
    if names is not None:
        return {name: to_obj(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _JSON_SCALARS:  # each one its own JSON value
            return list(value)
        return [to_obj(v) for v in value]
    return value


_JSON_SCALARS = {str, int, float, bool, type(None)}


@functools.cache
def _field_names(tp: type) -> tuple[str, ...] | None:
    """The field names of a dataclass type, None for any other type."""
    return tuple(f.name for f in fields(tp)) if is_dataclass(tp) else None


def _reader(tp: Any) -> Callable[[Any], Any]:
    """A function that reads a value as a value of type ``tp``, with TypeError (or OverflowError) when it is not one.

    A list whose items are all exact ints, or all exact strs, is copied after one
    scan of its item types; any other list is read item by item.
    """
    if isinstance(tp, types.UnionType):  # T | None
        (inner,) = set(get_args(tp)) - {type(None)}
        read = _reader(inner)
        return lambda value: None if value is None else read(value)
    if get_origin(tp) is list:
        (item,) = get_args(tp)
        read = _reader(item)
        exact = {item} if item in (int, str) else set()  # item types whose values a list can keep as they are

        def read_list(value: Any) -> list:
            if not isinstance(value, list):
                raise TypeError(tp)
            if set(map(type, value)) <= exact:
                return list(value)
            return [read(v) for v in value]

        return read_list
    return functools.partial(_scalar, tp)


def _scalar(tp: type, value: Any) -> Any:
    """``value`` as a value of ``tp``, one of bool, int, float, str and list; TypeError when it is not one."""
    if tp is bool and isinstance(value, bool):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if (tp is float and number and math.isfinite(value)) or (tp is str and isinstance(value, str)):
        return value
    if tp is list and isinstance(value, list):
        return value
    raise TypeError(tp)


def _describe(tp: Any, plural: bool = False) -> str:
    if isinstance(tp, types.UnionType):
        return f"{_describe(*set(get_args(tp)) - {type(None)}, plural)} or null"
    if get_origin(tp) is list:
        return ("lists" if plural else "a list") + f" of {_describe(get_args(tp)[0], True)}"
    names = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean", list: "a list"}
    return names[tp][names[tp].index(" ") + 1 :] + "s" if plural else names[tp]
