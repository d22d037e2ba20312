"""The columnar event-log path against the record-based reference in reference_log.py."""

import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_design import reference_patterns
from reference_log import (
    ExposureRecord,
    PostCreation,
    concat_logs,
    log_from_records,
    record_to_obj,
    records_of,
    reference_build_design_matrix,
    reference_descriptive_shares,
    reference_log_to_lines,
    reference_read_log,
    reference_read_log_error,
    reference_realized_load_audit,
)
import socialsim.harness as harness
from socialsim.core import (
    CREATION_KEYS,
    EXPOSURE_KEYS,
    ActionKind,
    CellLog,
    CreationColumns,
    ExposureColumns,
    FormatError,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
)
from socialsim.engine import run
from socialsim.harness import _log_chunks, descriptive_shares, read_log, realized_load_audit, write_log
from socialsim.policy import build_policy, mock_policy_spec
from socialsim.population import FollowGraph
from socialsim.stats import PatternCounts, build_design_matrix

# Heavy-tailed counters: mostly small, sometimes huge.
COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.sampled_from([10**k for k in range(10)] + [2**62 - 1]))
SEPARATORS = [(",", ":"), (", ", ": "), (" , ", " :  "), (",\t", ":")]


@st.composite
def cell_logs(draw):
    """An interleaved record list whose exposures only show posts created earlier."""
    n_agents = draw(st.integers(1, 6))
    engagements = draw(st.booleans())  # False: a cell with no engagements
    first_post = draw(st.integers(0, 1000))
    posts: list[int] = []
    records = []
    for _ in range(draw(st.integers(0, 40))):
        if not posts or draw(st.integers(0, 3)) == 0:
            kind = PostKind.SEED if not posts else draw(st.sampled_from(list(PostKind)))
            post = first_post + len(posts)
            records.append(
                PostCreation(
                    post=post,
                    kind=kind,
                    author=draw(st.integers(0, n_agents - 1)),
                    source=None if kind is PostKind.SEED else draw(st.sampled_from(posts)),
                    t=draw(st.integers(0, 500)),
                )
            )
            posts.append(post)
        else:
            records.append(
                ExposureRecord(
                    run=draw(st.integers(0, 2**63 - 1)),
                    load=draw(st.sampled_from(list(LoadLevel))),
                    norm=draw(st.sampled_from(list(NormRegime))),
                    t=draw(st.integers(0, 5)),
                    agent=draw(st.integers(0, n_agents - 1)),
                    post=draw(st.sampled_from(posts)),
                    likes=draw(COUNTS),
                    reshares=draw(COUNTS),
                    action=draw(st.sampled_from(list(ActionKind))) if engagements else ActionKind.READ,
                )
            )
    follows = {
        a: frozenset(draw(st.sets(st.integers(0, n_agents - 1).filter(lambda b, a=a: b != a))))
        for a in range(n_agents)
    }
    return records, follows


@st.composite
def blocked_logs(draw):
    """Blocks of exposure rows that share a (run, load, norm, t, agent) head, as an activation logs them.

    run, load, norm, t and agent each take one of two values, and each block
    keeps the head before it or changes one field of it, so equal heads run
    over several blocks and a head often differs from the last in one field
    only. A creation row sometimes comes between two blocks.
    """
    choices = [
        draw(st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2, unique=True)),
        draw(st.lists(st.sampled_from(list(LoadLevel)), min_size=2, max_size=2, unique=True)),
        draw(st.lists(st.sampled_from(list(NormRegime)), min_size=2, max_size=2, unique=True)),
        draw(st.lists(st.integers(0, 500), min_size=2, max_size=2, unique=True)),
        draw(st.lists(st.integers(0, 2**40), min_size=2, max_size=2, unique=True)),
    ]
    head = [values[0] for values in choices]
    records = [PostCreation(post=0, kind=PostKind.SEED, author=0, source=None, t=0)]
    for _ in range(draw(st.integers(0, 10))):
        changed = draw(st.integers(-1, 4))  # -1: the same head again
        if changed >= 0:
            head[changed] = draw(st.sampled_from(choices[changed]))
        if draw(st.integers(0, 3)) == 0:
            records.append(PostCreation(post=len(records), kind=PostKind.SEED, author=0, source=None, t=0))
        posts = [r.post for r in records if isinstance(r, PostCreation)]
        records += [
            ExposureRecord(*head, post=draw(st.sampled_from(posts)), likes=draw(COUNTS), reshares=draw(COUNTS),
                           action=draw(st.sampled_from(list(ActionKind))))
            for _ in range(draw(st.integers(1, 12)))
        ]
    return records


def render(records, data) -> str:
    """The log as JSONL with shuffled keys, varied spacing and stray blank lines."""
    lines = []
    for r in records:
        obj = record_to_obj(r)
        keys = data.draw(st.permutations(list(obj)))
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        text = json.dumps({k: obj[k] for k in keys}, separators=data.draw(st.sampled_from(SEPARATORS)))
        lines.append(pad + text + pad)
        if data.draw(st.integers(0, 9)) == 0:
            lines.append(data.draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))


def _written(log: CellLog) -> str:
    """The text write_log writes for this log."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        write_log(log, path)
        return path.read_text(encoding="utf-8")


def _read(text: str) -> tuple[CellLog, list]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        path.write_text(text, encoding="utf-8")
        return read_log(path), reference_read_log(path)


def _assert_same_design(log: CellLog, exposures: list[ExposureRecord]) -> None:
    for stage in ("threshold", "allocation"):
        try:
            X_ref, names_ref, y_ref = reference_build_design_matrix(exposures, stage)
        except ValueError:
            with pytest.raises(ValueError):
                build_design_matrix(PatternCounts.of(log.exposures), stage)
            continue
        # Each row's pattern row is its reference design row, and the counts tally the reference outcomes.
        X, names, counts = build_design_matrix(PatternCounts.of(log.exposures), stage)
        _, inverse, _ = reference_patterns(log.exposures, stage)
        assert X[inverse].shape == X_ref.shape and X[inverse].tobytes() == X_ref.tobytes()
        assert names == names_ref
        hand = np.zeros_like(counts)
        np.add.at(hand, (inverse, y_ref), 1.0)
        assert len(X) == inverse.max() + 1 and np.array_equal(counts, hand)


@settings(max_examples=200, deadline=None)
@given(cell=cell_logs(), data=st.data())
def test_columnar_path_matches_reference(cell, data):
    records, follows = cell
    log, reference = _read(render(records, data))
    assert reference == records
    assert len(log) == len(records)
    assert records_of(log) == records
    _assert_same_design(log, [r for r in records if isinstance(r, ExposureRecord)])
    assert realized_load_audit(log, FollowGraph(follows)) == reference_realized_load_audit(records, follows)
    assert descriptive_shares(log) == reference_descriptive_shares(records)
    assert _written(log_from_records(records)) == ("".join(line + "\n" for line in reference_log_to_lines(records)) or "\n")
    assert _written(log) == _written(log_from_records(records))


@settings(max_examples=100, deadline=None)
@given(cell=cell_logs(), rows=st.integers(1, 9))
def test_writer_chunks_join_to_the_reference(cell, rows):
    records, _ = cell
    expected = "".join(line + "\n" for line in reference_log_to_lines(records)) or "\n"
    with mock.patch.object(harness, "_CHUNK_ROWS", rows):
        assert b"".join(_log_chunks(log_from_records(records))).decode("utf-8") == expected


@settings(max_examples=200, deadline=None)
@given(records=blocked_logs(), rows=st.integers(1, 9))
def test_writer_formats_shared_heads_like_the_reference(records, rows):
    # Blocks cross chunk boundaries, and one head may follow another that differs in a single field.
    expected = "".join(line + "\n" for line in reference_log_to_lines(records))
    with mock.patch.object(harness, "_CHUNK_ROWS", rows):
        assert b"".join(_log_chunks(log_from_records(records))).decode("utf-8") == expected


@settings(max_examples=200, deadline=None)
@given(records=st.one_of(blocked_logs(), cell_logs().map(lambda cell: cell[0])))
def test_saved_columns_read_back_as_the_parse(records):
    # The .npz that simulate saves beside a log is read in place of parsing it, and gives what the parse gives.
    log = log_from_records(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        digest = _write_with_columns(log, path)
        saved = harness._saved_log(path, digest)
        path.with_suffix(".npz").unlink()
        with mock.patch.object(harness, "_decoded_log", _no_decoder):
            parsed = read_log(path, digest)
    assert saved is not None
    _assert_same_columns(saved, parsed)


def _write_with_columns(log: CellLog, path: Path) -> str:
    """Write ``log`` to ``path`` and its columns beside it, as one piece through one LogWriter; its digest."""
    with harness.LogWriter(path, columns=path.with_suffix(".npz")) as writer:
        writer.add(log)
        return write_log(writer, path)


def _rows(log: CellLog, lo: int, hi: int) -> CellLog:
    """Rows lo..hi of a log, as a log."""
    e_lo, e_hi = (int(np.count_nonzero(log.is_exposure[:i])) for i in (lo, hi))
    return CellLog(
        ExposureColumns(**{k: getattr(log.exposures, k)[e_lo:e_hi] for k in EXPOSURE_KEYS}),
        CreationColumns(**{k: getattr(log.creations, k)[lo - e_lo : hi - e_hi] for k in CREATION_KEYS}),
        log.is_exposure[lo:hi],
    )


@settings(max_examples=150, deadline=None)
@given(records=st.one_of(blocked_logs(), cell_logs().map(lambda cell: cell[0])), data=st.data())
def test_a_log_written_in_pieces_is_the_log_written_whole(records, data):
    # simulate hands a cell's LogWriter its log in pieces. Any cut, empty pieces included, writes the bytes and
    # columns of the whole log written as one piece, and leaves no other file.
    log = log_from_records(records)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(log)), max_size=6), label="cuts"))
    bounds = [0, *cuts, len(log)]
    with tempfile.TemporaryDirectory() as tmp:
        whole, pieces = Path(tmp) / "whole.jsonl", Path(tmp) / "pieces.jsonl"
        digest = _write_with_columns(log, whole)
        with harness.LogWriter(pieces, columns=pieces.with_suffix(".npz")) as writer:
            for lo, hi in zip(bounds, bounds[1:]):
                writer.add(_rows(log, lo, hi))
            assert write_log(writer, pieces) == digest and len(writer) == len(log)
        assert pieces.read_bytes() == whole.read_bytes()
        assert sorted(path.name for path in Path(tmp).iterdir()) == ["pieces.jsonl", "pieces.npz", "whole.jsonl", "whole.npz"]
        with np.load(pieces.with_suffix(".npz")) as a, np.load(whole.with_suffix(".npz")) as b:
            assert a.files == b.files
            for name in a.files:
                assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name


# Any int64: values spread over the whole range, and values close together near either end of it.
INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-3, 3),
    st.integers(2**63 - 9, 2**63 - 1),
    st.integers(-(2**63), -(2**63) + 8),
    st.sampled_from([2**62 - 1, 2**62, 2**63 - 1, -(2**63)]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 9))
def test_writer_formats_any_int64_columns_as_json_does(data, rows):
    # Columns built directly, as no parse gives them: write_log formats whatever int64 values a CellLog holds.
    is_exposure = np.array(data.draw(st.lists(st.booleans(), min_size=1, max_size=40), label="is_exposure"), dtype=bool)
    n_e, n_c = int(is_exposure.sum()), int((~is_exposure).sum())

    def column(n, values, dtype=np.int64):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    codes = {"load": len(LoadLevel), "norm": len(NormRegime), "action": len(ActionKind)}
    exposures = {k: column(n_e, st.integers(0, codes[k] - 1), np.int8) if k in codes else column(n_e, INT64) for k in EXPOSURE_KEYS}
    creations = {k: column(n_c, st.integers(0, len(PostKind) - 1), np.int8) if k == "kind" else column(n_c, INT64) for k in CREATION_KEYS}
    log = CellLog(ExposureColumns(**exposures), CreationColumns(**creations), is_exposure)
    texts = {"load": harness._LOAD_TEXT, "norm": harness._NORM_TEXT, "action": harness._ACTION_TEXT, "kind": harness._KIND_TEXT}

    def line(columns, keys, i):
        obj = {k: texts[k][columns[k][i]] if k in texts else int(columns[k][i]) for k in keys}
        if "source" in obj and obj["source"] < 0:
            obj["source"] = None
        return json.dumps(obj, separators=(",", ":")) + "\n"

    e_rows, c_rows = iter(range(n_e)), iter(range(n_c))
    expected = "".join(line(exposures, EXPOSURE_KEYS, next(e_rows)) if e else line(creations, CREATION_KEYS, next(c_rows)) for e in is_exposure)
    with mock.patch.object(harness, "_CHUNK_ROWS", rows):
        assert b"".join(_log_chunks(log)).decode("utf-8") == expected
    assert b"".join(_log_chunks(log)) == expected.encode("utf-8")


def _one_exposure(**values) -> CellLog:
    log = log_from_records([
        PostCreation(post=0, kind=PostKind.SEED, author=0, source=None, t=0),
        ExposureRecord(run=1, load=LoadLevel.HIGH, norm=NormRegime.NO_NORM, t=0, agent=0, post=0, likes=0, reshares=0, action=ActionKind.READ),
    ])
    for k, v in values.items():
        getattr(log.exposures, k)[0] = v
    return log


def test_largest_reshares_with_a_quote():
    written = b"".join(_log_chunks(_one_exposure(reshares=2**62, action=list(ActionKind).index(ActionKind.QUOTE))))
    assert written.endswith(b',"reshares":4611686018427387904,"action":"quote"}\n')


@pytest.mark.parametrize("code", [-1, "past the end"])
@pytest.mark.parametrize("part, key, members", [
    ("exposures", "load", LoadLevel), ("exposures", "norm", NormRegime), ("exposures", "action", ActionKind), ("creations", "kind", PostKind),
])
def test_code_outside_its_enum_is_not_written(part, key, members, code, tmp_path):
    # Regression: a load, norm or kind code of -1 was written as the enum's last value.
    log = _one_exposure()
    getattr(getattr(log, part), key)[0] = len(members) if code == "past the end" else code
    with pytest.raises(ValueError, match=f"{key} codes must be in 0..{len(members) - 1}"):
        write_log(log, tmp_path / "cell.jsonl")


def test_chunk_size_does_not_change_the_bytes():
    # 5,000 rows, more than one chunk of the default 4,096.
    records = []
    for i in range(1000):
        records.append(PostCreation(post=i, kind=PostKind.SEED, author=i % 7, source=None, t=i // 10))
        records += [
            ExposureRecord(run=3, load=LoadLevel.HIGH, norm=NormRegime.NO_NORM, t=i // 10, agent=j, post=i,
                           likes=i * j, reshares=j, action=ActionKind.LIKE if (i + j) % 9 == 0 else ActionKind.READ)
            for j in range(4)
        ]
    log = log_from_records(records)
    assert len(log) == 5000
    written = b"".join(_log_chunks(log))
    assert written.count(b"\n") == 5000
    for rows in (1, 4096, 1 << 16):
        with mock.patch.object(harness, "_CHUNK_ROWS", rows):
            assert b"".join(_log_chunks(log)) == written


SIZES = st.sampled_from([1, 7, 64, 4096])


@settings(max_examples=150, deadline=None)
@given(records=st.one_of(blocked_logs(), cell_logs().map(lambda cell: cell[0])), chunk_rows=SIZES, join_rows=SIZES)
def test_texts_of_at_most_one_join_each_are_the_log(records, chunk_rows, join_rows):
    # Whatever the chunk and the join sizes, the texts _log_chunks yields join to write_log's bytes, and none
    # holds more lines than one join.
    log = log_from_records(records)
    with tempfile.TemporaryDirectory() as tmp:
        write_log(log, Path(tmp) / "cell.jsonl")
        written = (Path(tmp) / "cell.jsonl").read_bytes()
    with mock.patch.object(harness, "_CHUNK_ROWS", chunk_rows), mock.patch.object(harness, "_JOIN_ROWS", join_rows):
        texts = list(_log_chunks(log))
    assert b"".join(texts) == written
    assert all(1 <= text.count(b"\n") <= join_rows for text in texts)


def test_no_text_of_a_paper_log_outgrows_the_heap():
    # glibc maps an allocation of 128 KiB or more (its default mmap threshold) afresh each time and unmaps it
    # when freed, so a text that large faults its pages in again for every chunk. Regression: each 4,096-row
    # chunk of a paper log was one text of about 550 KB, its str and its bytes each mapped anew.
    from socialsim.harness import ExperimentPlan
    from socialsim.population import generate_population, generate_seed_corpus

    profiles, graph = generate_population(558, seed=1)
    plan = ExperimentPlan(base_seed=1)
    cfg = plan.cell_config(LoadLevel.HIGH, NormRegime.REPOST_DOMINANT, 0)
    log = run(cfg, build_policy(plan.policy, cfg.load, cfg.norm), profiles, graph, generate_seed_corpus(1))
    assert len(log) > 10 * harness._CHUNK_ROWS
    sizes = [len(text) for text in _log_chunks(log)]
    assert max(sizes) <= 128 * 1024 and sum(sizes) > 10 * 128 * 1024


@settings(max_examples=50, deadline=None)
@given(cells=st.lists(cell_logs(), min_size=0, max_size=3))
def test_concatenated_design_matches_reference(cells):
    logs = [log_from_records(records) for records, _ in cells]
    exposures = [r for records, _ in cells for r in records if isinstance(r, ExposureRecord)]
    joined = concat_logs(logs)
    assert len(joined) == sum(len(records) for records, _ in cells)
    assert records_of(joined) == [r for records, _ in cells for r in records]
    _assert_same_design(joined, exposures)
    # analyze folds each cell's log into its table and merges the tables, not the logs: the same table as
    # the fold of the joined log, dtypes included.
    folded = PatternCounts.fold(PatternCounts.of(log.exposures) for log in logs)
    for a, b in zip(folded, PatternCounts.of(joined.exposures)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _engine_log(profiles, graph, corpus) -> CellLog:
    cfg = RunConfig(seed=3, load=LoadLevel.MEDIUM, norm=NormRegime.REPOST_DOMINANT, n_agents=40, timesteps=40, activation_p=0.2)
    return run(cfg, build_policy(mock_policy_spec(), cfg.load, cfg.norm), profiles, graph, corpus)


def _assert_same_columns(a: CellLog, b: CellLog) -> None:
    assert a.is_exposure.dtype == b.is_exposure.dtype and np.array_equal(a.is_exposure, b.is_exposure)
    for part, keys in (("exposures", EXPOSURE_KEYS), ("creations", CREATION_KEYS)):
        for k in keys:
            x, y = getattr(getattr(a, part), k), getattr(getattr(b, part), k)
            assert x.dtype == y.dtype and np.array_equal(x, y), (part, k)


def test_read_log_equals_from_records_of_an_engine_run(small_population, small_corpus, tmp_path):
    log = _engine_log(*small_population, small_corpus)
    write_log(log, tmp_path / "cell.jsonl")
    read = read_log(tmp_path / "cell.jsonl")
    for built in (log, log_from_records(records_of(log))):
        _assert_same_columns(read, built)
    assert len(read.creations) > 0 and len(read.exposures) > 0


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_chunk_size_does_not_change_what_read_log_returns(small_population, small_corpus, tmp_path, monkeypatch, rows):
    path = tmp_path / "cell.jsonl"
    write_log(_engine_log(*small_population, small_corpus), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\n", 7))  # blank lines do not count as rows
    default = read_log(path)
    monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
    chunked = read_log(path)
    assert len(chunked) == len(default) > 2 * rows
    _assert_same_columns(chunked, default)


def test_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    log = read_log(path)
    assert len(log) == 0 and records_of(log) == []
    assert realized_load_audit(log, FollowGraph({})).flagged
    assert descriptive_shares(log).n_records == 0
    with pytest.raises(ValueError):
        build_design_matrix(PatternCounts.of(log.exposures), "threshold")


def _line(**obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _shown(post: int, **changes) -> str:
    """An exposure line of ``post``, with ``changes`` to its values (None drops a key)."""
    obj = {"run": 1, "load": "low", "norm": "no_norm", "t": 2, "agent": 0, "post": post, "likes": 1, "reshares": 0, "action": "read"}
    return _line(**{k: v for k, v in {**obj, **changes}.items() if v is not None})


_UNCREATED = 10**6  # above every post id cell_logs draws
# One bad line each, from a post of the log (0 if it has none): a value the reader refuses, or a row that
# breaks a creation rule.
FAULTS = {
    "invalid_json": lambda post: '{"run":1,"load":"low"',
    "not_an_object": lambda post: "[1, 2]",
    "missing_key": lambda post: _shown(post, likes=None),
    "unknown_load": lambda post: _shown(post, load="enormous"),
    "fraction": lambda post: _shown(post, likes=1.5),
    "negative_count": lambda post: _shown(post, reshares=-1),
    "unseen_post": lambda post: _shown(_UNCREATED),
    "created_twice": lambda post: _line(kind="seed", post=post, author=0, source=None, t=0),
    "seed_with_source": lambda post: _line(kind="seed", post=_UNCREATED + 1, author=0, source=post, t=0),
    "no_source": lambda post: _line(kind="repost", post=_UNCREATED + 2, author=0, source=None, t=0),
    "unknown_source": lambda post: _line(kind="quote", post=_UNCREATED + 3, author=0, source=_UNCREATED + 4, t=0),
}


@settings(max_examples=200, deadline=None)
@given(
    records=cell_logs().map(lambda cell: cell[0]),
    faults=st.lists(st.sampled_from(list(FAULTS)), min_size=1, max_size=2),
    chunk_rows=st.sampled_from([1, 2, 3, 4096]),
    data=st.data(),
)
def test_read_log_names_the_line_a_line_walk_names(records, faults, chunk_rows, data):
    # One or two bad lines, each put in place of a line or between two, and some blank lines: read_log, in
    # chunks of chunk_rows lines, raises the error that a walk of the log one line at a time gives.
    lines = reference_log_to_lines(records)
    posts = [r.post for r in records if isinstance(r, PostCreation)] or [0]
    for fault in faults:
        at = data.draw(st.integers(0, len(lines)))
        replace_line = at < len(lines) and data.draw(st.booleans())
        lines[at : at + replace_line] = [FAULTS[fault](data.draw(st.sampled_from(posts)))]
    for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = reference_read_log_error(path)
        with mock.patch.object(harness, "_CHUNK_ROWS", chunk_rows):
            try:
                read_log(path)
                got = None
            except FormatError as e:
                got = str(e)
    assert got == expected


# ---------------------------------------------------------------------------
# read_log's decoder of write_log's own lines, against the JSON parse
# ---------------------------------------------------------------------------

# Every counter the parse accepts, with the values next to its bound.
COUNTERS = st.one_of(COUNTS, st.integers(0, 2**62 - 1), st.integers(2**62 - 9, 2**62 - 1))


@st.composite
def extreme_logs(draw):
    """A cell_logs log with its runs, times, agents, authors, post ids and counters moved to any values the parse accepts."""
    records, _ = draw(cell_logs())
    created = [r.post for r in records if isinstance(r, PostCreation)]
    post_ids = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 9), st.integers(2**63 - 9, 2**63 - 1))
    ids = dict(zip(created, draw(st.lists(post_ids, min_size=len(created), max_size=len(created), unique=True))))
    moved = [
        replace(r, post=ids[r.post], author=draw(INT64), source=None if r.source is None else ids[r.source], t=draw(INT64))
        if isinstance(r, PostCreation)
        else replace(r, run=draw(INT64), t=draw(INT64), agent=draw(INT64), post=ids[r.post], likes=draw(COUNTERS), reshares=draw(COUNTERS))
        for r in records
    ]
    return log_from_records(moved)


_SEED_AND_QUOTE = [PostCreation(post=0, kind=PostKind.SEED, author=3, source=None, t=0), PostCreation(post=1, kind=PostKind.QUOTE, author=4, source=0, t=2)]
_AT_THE_BOUNDS = [
    PostCreation(post=2**63 - 1, kind=PostKind.SEED, author=-(2**63), source=None, t=2**63 - 1),
    PostCreation(post=0, kind=PostKind.REPOST, author=2**63 - 1, source=2**63 - 1, t=-(2**63)),
    ExposureRecord(run=2**63 - 1, load=LoadLevel.LOWEST, norm=NormRegime.LIKE_DOMINANT, t=-(2**63), agent=-1, post=0,
                   likes=2**62 - 1, reshares=2**62 - 1, action=ActionKind.QUOTE),
    ExposureRecord(run=0, load=LoadLevel.LOW, norm=NormRegime.REPOST_DOMINANT, t=0, agent=-(2**63), post=2**63 - 1,
                   likes=0, reshares=0, action=ActionKind.REPOST),
]


def _no_decoder(data: bytes) -> None:
    return None


@settings(max_examples=200, deadline=None)
@given(log=st.one_of(cell_logs().map(lambda cell: log_from_records(cell[0])), blocked_logs().map(log_from_records), extreme_logs()))
@example(log=log_from_records([]))  # write_log's "\n"
@example(log=log_from_records(_SEED_AND_QUOTE))  # creation rows only
@example(log=log_from_records(_AT_THE_BOUNDS))
def test_decoder_reads_every_log_the_writer_writes(log):
    # With no .npz beside the log, read_log decodes it and parses no JSON, and gets what the JSON parse gets.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        digest = write_log(log, path)
        with mock.patch.object(harness, "_decoded_log", _no_decoder):
            parsed = read_log(path, digest)
        with mock.patch.object(harness, "_parsed_log", None):  # a parse would fail
            decoded = read_log(path, digest)
    _assert_same_columns(decoded, parsed)


_VALUE = re.compile(rb"(?<=:)-?[0-9]+")  # an integer value, after its key's colon


def _replace_value(data: bytes, draw, new) -> bytes:
    """``data`` with one integer value, drawn from those it holds, replaced by ``new(value)``."""
    values = list(_VALUE.finditer(data))
    if not values:
        return data
    m = draw(st.sampled_from(values))
    return data[: m.start()] + new(m.group()) + data[m.end() :]


def _flip(data: bytes, draw) -> bytes:
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]


def _delete(data: bytes, draw) -> bytes:
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + data[i + 1 :]


def _insert(data: bytes, draw) -> bytes:
    i = draw(st.integers(0, len(data)))
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]


def _space_after_a_comma(data: bytes, draw) -> bytes:
    commas = [i for i, byte in enumerate(data) if byte == ord(",")]
    i = draw(st.sampled_from(commas)) + 1 if commas else 0
    return data[:i] + b" " + data[i:]


def _truncated_last_line(data: bytes, draw) -> bytes:
    return data[: draw(st.integers(data.rfind(b"\n", 0, len(data) - 1) + 1, len(data) - 1))]


MUTATIONS = {
    "flip": _flip,
    "delete": _delete,
    "insert": _insert,
    "space_after_a_comma": _space_after_a_comma,
    "crlf": lambda data, draw: data.replace(b"\n", b"\r\n"),
    "trailing_blank_line": lambda data, draw: data + b"\n",
    "no_final_newline": lambda data, draw: data[:-1],
    "truncated_last_line": _truncated_last_line,
    "leading_zero": lambda data, draw: _replace_value(data, draw, lambda v: v.replace(b"-", b"-0") if v[:1] == b"-" else b"00" + v),
    "minus_zero": lambda data, draw: _replace_value(data, draw, lambda v: b"-0"),
    "exponent": lambda data, draw: _replace_value(data, draw, lambda v: b"1e3"),
    "fraction": lambda data, draw: _replace_value(data, draw, lambda v: v + b".0"),
    "wraps_int64": lambda data, draw: _replace_value(data, draw, lambda v: str(int(v) + 2**64).encode()),  # 2**64 + v reads as v in int64
}


@settings(max_examples=400, deadline=None)
@given(records=st.one_of(blocked_logs(), cell_logs().map(lambda cell: cell[0])), mutation=st.sampled_from([*MUTATIONS, "wrong_digest"]), data=st.data())
def test_other_bytes_give_the_json_paths_result_or_error(records, mutation, data):
    # One edit of the writer's bytes: read_log returns what it returns with the decoder disabled, or raises its
    # error, and the decoder raises nothing. The manifest digest is updated to the edited bytes, or is wrong.
    written = b"".join(_log_chunks(log_from_records(records)))
    edited = written if mutation == "wrong_digest" else MUTATIONS[mutation](written, data.draw)
    sha256 = "0" * 64 if mutation == "wrong_digest" else hashlib.sha256(edited).hexdigest()
    candidate = harness._decoded_log(edited)
    if candidate is not None:
        _assert_same_dtypes(candidate, harness._PARSED)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        path.write_bytes(edited)
        got, expected = (_result(path, sha256, decoder) for decoder in (harness._decoded_log, _no_decoder))
    if isinstance(expected, str):
        assert got == expected
    else:
        _assert_same_columns(got, expected)


def _result(path: Path, sha256: str, decoder) -> CellLog | str:
    """read_log's columns, or the text of its FormatError, with ``decoder`` as read_log's decoder."""
    with mock.patch.object(harness, "_decoded_log", decoder):
        try:
            return read_log(path, sha256)
        except FormatError as e:
            return f"FormatError: {e}"


def _assert_same_dtypes(a: CellLog, b: CellLog) -> None:
    assert a.is_exposure.dtype == b.is_exposure.dtype and a.is_exposure.ndim == 1
    for part, keys in (("exposures", EXPOSURE_KEYS), ("creations", CREATION_KEYS)):
        for k in keys:
            assert getattr(getattr(a, part), k).dtype == getattr(getattr(b, part), k).dtype, (part, k)
