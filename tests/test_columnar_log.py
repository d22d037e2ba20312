"""The columnar event-log path against the record-based reference in reference_log.py."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
)
from socialsim.engine import run
from socialsim.harness import _log_chunks, descriptive_shares, read_log, realized_load_audit, write_log
from socialsim.policy import build_policy, mock_policy_spec
from socialsim.population import FollowGraph
from socialsim.stats import DesignInputs, build_design_matrix

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
                build_design_matrix(DesignInputs.of(log.exposures), stage)
            continue
        X, names, y = build_design_matrix(DesignInputs.of(log.exposures), stage)
        assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
        assert names == names_ref
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()


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
    assert b"".join(_log_chunks(log_from_records(records), rows)).decode("utf-8") == expected


@settings(max_examples=200, deadline=None)
@given(records=blocked_logs(), rows=st.integers(1, 9))
def test_writer_formats_shared_heads_like_the_reference(records, rows):
    # Blocks cross chunk boundaries, and one head may follow another that differs in a single field.
    expected = "".join(line + "\n" for line in reference_log_to_lines(records))
    assert b"".join(_log_chunks(log_from_records(records), rows)).decode("utf-8") == expected


@settings(max_examples=200, deadline=None)
@given(records=st.one_of(blocked_logs(), cell_logs().map(lambda cell: cell[0])))
def test_saved_columns_read_back_as_the_parse(records):
    # The .npz that simulate saves beside a log is read in place of parsing it, and gives what the parse gives.
    log = log_from_records(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        digest = write_log(log, path)
        harness.save_columns(log, path.with_suffix(".npz"))
        saved = harness._saved_log(path, digest)
        path.with_suffix(".npz").unlink()
        parsed = read_log(path, digest)
    assert saved is not None
    _assert_same_columns(saved, parsed)


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
    assert b"".join(_log_chunks(log, rows)).decode("utf-8") == expected
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


@pytest.mark.parametrize("action", [-1, len(ActionKind)])
def test_action_code_outside_the_actions_is_not_written(action, tmp_path):
    with pytest.raises(ValueError, match="action codes"):
        write_log(_one_exposure(action=action), tmp_path / "cell.jsonl")


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
        assert b"".join(_log_chunks(log, rows)) == written


@settings(max_examples=50, deadline=None)
@given(cells=st.lists(cell_logs(), min_size=0, max_size=3))
def test_concatenated_design_matches_reference(cells):
    logs = [log_from_records(records) for records, _ in cells]
    exposures = [r for records, _ in cells for r in records if isinstance(r, ExposureRecord)]
    joined = concat_logs(logs)
    assert len(joined) == sum(len(records) for records, _ in cells)
    assert records_of(joined) == [r for records, _ in cells for r in records]
    _assert_same_design(joined, exposures)
    # analyze joins each cell's design inputs, not the logs: the same columns, dtypes included.
    if logs:
        folded = DesignInputs(*map(np.concatenate, zip(*(DesignInputs.of(log.exposures) for log in logs))))
        for a, b in zip(folded, DesignInputs.of(joined.exposures)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


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
        build_design_matrix(DesignInputs.of(log.exposures), "threshold")
