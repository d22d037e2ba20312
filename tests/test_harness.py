import hashlib
import io
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import fields, replace
from typing import get_type_hints
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialsim.core as core
import socialsim.harness as harness
import socialsim.policy as policy_module
from socialsim.cli import read_config
from socialsim.core import ACTIONS, LOADS, NORMS, POST_KINDS, ActionKind, CellLog, ConfigurationError, FormatError, LoadLevel, NormRegime, PostKind, RunConfig, dense_span, first_index, from_obj, to_obj
from socialsim.harness import (
    CellShares,
    ExperimentPlan,
    cell_name,
    cell_seed,
    descriptive_shares,
    load_experiment,
    log_digest,
    read_log,
    realized_load_audit,
    run_experiment,
    write_log,
)
from socialsim.engine import LogBuilder, run
from socialsim.policy import LlmSpec, PolicySpec, ScriptedSpec, build_policy, mock_policy_spec
from socialsim.population import FollowGraph, generate_population, generate_seed_corpus
from socialsim.stats import PatternCounts

from reference_log import ExposureRecord, PostCreation, log_from_records, records_of


def _tiny_plan(policy=None, **kw):
    base = dict(base_seed=77, n_agents=40, timesteps=30, activation_p=0.05)
    base.update(kw)
    return ExperimentPlan(policy=policy or mock_policy_spec(), **base)


@pytest.fixture(scope="module")
def small_inputs():
    profiles, graph = generate_population(40, seed=11)
    corpus = generate_seed_corpus(seed=11, size=12)
    return profiles, graph, corpus


class TestCellSeeds:
    def test_pairwise_distinct(self):
        seeds = {cell_seed(1, load, norm, rep) for load in LOADS for norm in NORMS for rep in range(3)}
        assert len(seeds) == 36

    def test_stable_across_processes(self):
        # sha256-derived: a frozen value guards against platform-dependent hashing
        assert cell_seed(1, LoadLevel.LOWEST, NormRegime.NO_NORM, 0) == 5307728133006812330

    def test_non_negative_63_bit(self):
        s = cell_seed(123456, LoadLevel.HIGH, NormRegime.REPOST_DOMINANT, 7)
        assert 0 <= s < 2**63


class TestLogSerialization:
    def test_round_trip(self, tmp_path):
        records = [
            PostCreation(post=0, kind=PostKind.SEED, author=3, source=None, t=0),
            ExposureRecord(
                run=9, load=LoadLevel.LOW, norm=NormRegime.LIKE_DOMINANT,
                t=4, agent=2, post=0, likes=1, reshares=2, action=ActionKind.QUOTE,
            ),
        ]
        path = tmp_path / "log.jsonl"
        digest = write_log(log_from_records(records), path)
        assert records_of(read_log(path)) == records
        assert digest == log_digest(log_from_records(records))

    def test_jsonl_keys(self, tmp_path):
        records = [
            ExposureRecord(
                run=9, load=LoadLevel.LOW, norm=NormRegime.NO_NORM,
                t=4, agent=2, post=0, likes=0, reshares=0, action=ActionKind.READ,
            )
        ]
        path = tmp_path / "log.jsonl"
        write_log(log_from_records(records), path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert list(obj) == ["run", "load", "norm", "t", "agent", "post", "likes", "reshares", "action"]

    def test_run_at_the_largest_seed_reads_back_its_run_column(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan()
        config = replace(plan.cell_config(LoadLevel.HIGH, NormRegime.NO_NORM, 0), seed=2**63 - 1)
        log = run(config, build_policy(plan.policy, config.load, config.norm), profiles, graph, corpus, LogBuilder(config))
        write_log(log, tmp_path / "log.jsonl")
        runs = read_log(tmp_path / "log.jsonl").exposures.run
        assert runs.size == len(log.exposures) > 0 and (runs == 2**63 - 1).all()


_SEED_ROW = '{"kind":"seed","post":0,"author":1,"source":null,"t":0}'
_READ_ROW = '{"run":1,"load":"low","norm":"no_norm","t":2,"agent":0,"post":0,"likes":1,"reshares":0,"action":"read"}'


def _exposure_row(**changes) -> str:
    obj = {**json.loads(_READ_ROW), **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not None})


class TestReadLogErrors:
    """A bad row raises FormatError naming the file and its 1-based line (blank lines count)."""

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ('{"run":1,"load":"low"', "invalid JSON"),
            ("[1, 2]", "not a JSON object"),
            (_exposure_row(likes=None), "missing key 'likes'"),
            ('{"kind":"seed","post":5,"author":1,"t":0}', "missing key 'source'"),
            (_exposure_row(load="enormous"), "unknown load 'enormous'"),
            (_exposure_row(norm="loud"), "unknown norm 'loud'"),
            (_exposure_row(action="destroy"), "unknown action 'destroy'"),
            ('{"kind":"boost","post":5,"author":1,"source":null,"t":0}', "unknown kind 'boost'"),
            (_exposure_row(likes=-1), "negative likes count"),
            (_exposure_row(reshares=-4), "negative reshares count"),
            (_exposure_row(likes=2**62), "likes count too large"),
            (_exposure_row(agent="x"), "agent must be an integer"),
            (_exposure_row(post=7), "exposure of post 7 before any row creates it"),
            (_SEED_ROW, "post 0 created twice"),
            # Regression: each of these read without error, the negative sources written back as null.
            pytest.param('{"kind":"seed","post":5,"author":1,"source":0,"t":0}', "seed post 5 has source 0", id="seed_with_source"),
            pytest.param('{"kind":"repost","post":5,"author":1,"source":null,"t":1}', "repost post 5 has no source", id="repost_without_source"),
            pytest.param('{"kind":"quote","post":5,"author":1,"source":null,"t":1}', "quote post 5 has no source", id="quote_without_source"),
            pytest.param('{"kind":"quote","post":5,"author":1,"source":9,"t":1}', "quote of post 9 before any row creates it", id="unknown_source"),
            pytest.param('{"kind":"repost","post":5,"author":1,"source":5,"t":1}', "repost of post 5 before any row creates it", id="own_source"),
            pytest.param('{"kind":"repost","post":5,"author":1,"source":-7,"t":1}', "negative source", id="negative_source"),
            pytest.param('{"kind":"seed","post":5,"author":1,"source":-1,"t":0}', "negative source", id="minus_one_source"),
        ],
    )
    def test_bad_row_named_by_line(self, tmp_path, bad, reason):
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([_SEED_ROW, "", _READ_ROW, bad, _READ_ROW]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line 4: {reason}")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("value", [1.5, "3", True, 1e3], ids=["fraction", "text", "bool", "exponent"])
    @pytest.mark.parametrize(
        "key, make_row",
        [
            ("likes", lambda v: _exposure_row(likes=v)),
            ("author", lambda v: _SEED_ROW.replace('"post":0', '"post":9').replace('"author":1', f'"author":{json.dumps(v)}')),
        ],
        ids=["exposure", "creation"],
    )
    def test_value_that_is_not_a_json_integer(self, tmp_path, key, make_row, value):
        # Regression: each was read as an integer (1.5 as 1, "3" as 3, true as 1, 1e3 as 1000).
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([_SEED_ROW, _READ_ROW, make_row(value)]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value) == f"{path}, line 3: {key} must be an integer"

    def test_source_created_on_a_later_line(self, tmp_path):
        repost = '{"kind":"repost","post":2,"author":1,"source":1,"t":1}'
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([_SEED_ROW, repost, _SEED_ROW.replace('"post":0', '"post":1')]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value) == f"{path}, line 2: repost of post 1 before any row creates it"

    def test_exposure_before_its_creation_row(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([_READ_ROW, _SEED_ROW]) + "\n")
        with pytest.raises(FormatError, match="line 1: exposure of post 0"):
            read_log(path)

    def test_line_ending_in_form_feed_is_invalid_json(self, tmp_path):
        # Regression: str.splitlines ended the line at the form feed, so the row read
        # without error and every later line number was one too high.
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([_SEED_ROW, _READ_ROW + "\x0c", _READ_ROW]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line 2: invalid JSON")

    def test_other_line_breaks_inside_a_string_stay_in_their_line(self, tmp_path):
        # A key read_log does not use may hold any JSON string, here one with raw U+2028 and U+0085.
        noted = _SEED_ROW[:-1] + ',"note":"a\u2028b\x85c"}'
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join([noted, _READ_ROW]) + "\n", encoding="utf-8")
        assert len(read_log(path)) == 2
        path.write_text("\n".join([noted, _READ_ROW, _exposure_row(post=7)]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value) == f"{path}, line 3: exposure of post 7 before any row creates it"

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        path.write_bytes("\r\n".join([_SEED_ROW, "", _READ_ROW]).encode() + b"\r\n")
        log = read_log(path)
        assert len(log) == 2 and log.is_exposure.tolist() == [False, True]
        path.write_bytes("\r\n".join([_SEED_ROW, "", _READ_ROW, _exposure_row(post=7)]).encode() + b"\r\n")
        with pytest.raises(FormatError, match="line 4: exposure of post 7"):
            read_log(path)

    def test_digest_mismatch_names_the_cell(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        dict(load_experiment(tmp_path)[1])  # intact logs pass the digest check
        cell = manifest["cells"][3]["file"]
        path = tmp_path / "logs" / cell
        path.write_bytes(path.read_bytes().replace(b'"likes":0', b'"likes":1', 1))
        _, cells = load_experiment(tmp_path)  # a log is checked when it is reached, not before
        with pytest.raises(FormatError, match=f"{cell}: SHA-256 differs"):
            dict(cells)


@pytest.fixture
def two_rows_a_chunk(monkeypatch):
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 2)


@pytest.mark.usefixtures("two_rows_a_chunk")
class TestReadLogErrorsInChunksOfTwo(TestReadLogErrors):
    """Every case above again, with read_log parsing two lines per chunk: the same message and line."""


@pytest.mark.parametrize("rows", [1, 4096])
def test_integer_past_the_digit_limit_is_named_by_line(tmp_path, monkeypatch, rows):
    # Regression: json.loads raises a plain ValueError for an integer of more than 4,300 digits, and read_log let it out.
    monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
    path = tmp_path / "cell.jsonl"
    path.write_text(_SEED_ROW.replace('"author":1', f'"author":{"7" * 5000}') + "\n")
    with pytest.raises(FormatError) as exc:
        read_log(path)
    assert str(exc.value).startswith(f"{path}, line 1: ") and "\n" not in str(exc.value)


@pytest.mark.usefixtures("two_rows_a_chunk")
class TestReadLogAcrossChunks:
    """The creation rules hold over the whole log, not within a chunk: here each chunk is two lines."""

    def _read(self, tmp_path, rows):
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join(rows) + "\n")
        return read_log(path)

    def test_exposure_of_a_post_created_in_an_earlier_chunk(self, tmp_path):
        seed_1 = _SEED_ROW.replace('"post":0', '"post":1')
        log = self._read(tmp_path, [_SEED_ROW, seed_1, _READ_ROW, _exposure_row(post=1), _READ_ROW])
        assert log.is_exposure.tolist() == [False, False, True, True, True]
        assert log.exposures.post.tolist() == [0, 1, 0]
        assert first_index(log.creations.post, log.exposures.post)[0].tolist() == [0, 1, 0]

    def test_post_created_again_in_a_later_chunk(self, tmp_path):
        # Each chunk alone keeps every rule; only the whole log creates post 0 twice.
        seed_1 = _SEED_ROW.replace('"post":0', '"post":1')
        with pytest.raises(FormatError) as exc:
            self._read(tmp_path, [_SEED_ROW, _READ_ROW, seed_1, _exposure_row(post=1), _SEED_ROW])
        assert str(exc.value) == f"{tmp_path / 'cell.jsonl'}, line 5: post 0 created twice"

    def test_repost_whose_source_comes_in_a_later_chunk(self, tmp_path):
        repost = '{"kind":"repost","post":2,"author":1,"source":1,"t":1}'
        with pytest.raises(FormatError) as exc:
            self._read(tmp_path, [_SEED_ROW, repost, _READ_ROW, _SEED_ROW.replace('"post":0', '"post":1')])
        assert str(exc.value) == f"{tmp_path / 'cell.jsonl'}, line 2: repost of post 1 before any row creates it"


class TestReadLogNamesTheFirstBadLine:
    """A creation rule is checked on parsed columns, yet a row that breaks it is named before a later line
    that does not parse or holds a bad value, and after an earlier one. "B" marks the rule break, "X" the
    bad line; with two lines a chunk the two fall in one chunk or in two."""

    @pytest.mark.parametrize(
        "bad, bad_reason",
        [('{"run":1,"load":"low"', "invalid JSON ("), (_exposure_row(load="enormous"), "unknown load 'enormous'")],
        ids=["invalid_json", "unknown_load"],
    )
    @pytest.mark.parametrize(
        "rule_break, reason",
        [(_exposure_row(post=7), "exposure of post 7 before any row creates it"), (_SEED_ROW, "post 0 created twice")],
        ids=["unseen_post", "created_twice"],
    )
    @pytest.mark.parametrize(
        "layout, named, line",
        [("S B R X", "B", 2), ("S R B X", "B", 3), ("S _ B R X", "B", 3), ("S R R R B R X", "B", 5), ("S X B", "X", 2)],
        ids=["break_then_bad", "break_then_bad_in_one_chunk", "blank_line", "far_apart", "bad_then_break"],
    )
    def test_first_bad_line_is_named(self, tmp_path, bad, bad_reason, rule_break, reason, layout, named, line):
        rows = {"S": _SEED_ROW, "R": _READ_ROW, "B": rule_break, "X": bad, "_": ""}
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join(rows[key] for key in layout.split()) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line {line}: {reason if named == 'B' else bad_reason}")


@pytest.mark.usefixtures("two_rows_a_chunk")
class TestReadLogNamesTheFirstBadLineInChunksOfTwo(TestReadLogNamesTheFirstBadLine):
    """Every case above again, with read_log parsing two lines per chunk."""


class TestReadLogOneObjectALine:
    """Each line is exactly one JSON object, wherever the chunks fall."""

    @staticmethod
    def _seed(post: int, tail: str = "") -> str:
        return _SEED_ROW.replace('"post":0', f'"post":{post}')[:-1] + tail + "}"

    @pytest.mark.parametrize("rows", [1, 2, 3, None], ids=["1", "2", "3", "default"])
    def test_objects_split_over_lines_and_joined_in_one(self, tmp_path, monkeypatch, rows):
        # Regression: joined, the three lines parse to three objects, so the file read as 3 rows.
        if rows is not None:
            monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
        lines = [self._seed(0, ',"x":[1').removesuffix("}"), "2]}", self._seed(1) + "," + self._seed(2)]
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line 1: invalid JSON")

    @pytest.mark.parametrize("line_2", ['"y":1}', '"y":1},' + _SEED_ROW.replace('"post":0', '"post":1')], ids=["two_objects", "three_objects"])
    def test_object_that_ends_on_the_next_line(self, tmp_path, line_2):
        # Each line but the last ends in "}", yet line 1 opens an object that line 2 closes: joined,
        # the lines parse to two objects, or (with line 2 holding a second) to three.
        lines = [self._seed(0, ',"x":{}').removesuffix("}"), line_2, _READ_ROW]
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line 1: invalid JSON")

    @pytest.mark.parametrize(
        "tail, end",
        [(',"note":"}"', ""), (',"note":"},"', ""), (',"x":{"y":1}', ""), (',"note":"}"', "\r")],
        ids=["brace_in_string", "brace_comma_in_string", "nested_object", "brace_in_string_crlf"],
    )
    def test_lines_the_joined_parse_cannot_prove_are_read_one_by_one(self, tmp_path, tail, end):
        # A "}" in a string, or before more of its line, ends no line: each line is one row.
        lines = [self._seed(0, tail) + end, _READ_ROW + end, self._seed(1, tail) + end]
        path = tmp_path / "cell.jsonl"
        path.write_text("\n".join(lines) + "\n")
        log = read_log(path)
        assert log.is_exposure.tolist() == [False, True, False]
        assert log.creations.post.tolist() == [0, 1]
        path.write_text("\n".join(lines + [_exposure_row(post=7) + end]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value) == f"{path}, line 4: exposure of post 7 before any row creates it"

    @pytest.mark.parametrize("end", ["\r", "  ", " \t\r"], ids=["crlf", "trailing_spaces", "trailing_tab_crlf"])
    def test_spaces_after_a_lines_brace_and_blank_lines_keep_the_joined_parse(self, tmp_path, end):
        # Spaces, tabs and a CR after a line's "}" are JSON whitespace, and blank lines are no rows.
        lines = [self._seed(0) + end, "", end, _READ_ROW + end, "  " + self._seed(1) + end]
        data = ("\n".join(lines) + "\n").encode()
        path = tmp_path / "cell.jsonl"
        path.write_bytes(data)
        log = read_log(path)
        assert log.is_exposure.tolist() == [False, True, False]
        assert log.creations.post.tolist() == [0, 1]
        path.write_bytes(data + (_exposure_row(post=7) + end + "\n").encode())
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value) == f"{path}, line 6: exposure of post 7 before any row creates it"

    def test_object_split_over_crlf_lines(self, tmp_path):
        # Regression: every "}" ends its line, and a parse of the lines joined read two objects for three lines.
        lines = [self._seed(0, ',"x":[1').removesuffix("}"), "2]}", self._seed(1)]
        data = ("\r\n".join(lines) + "\r\n").encode()
        path = tmp_path / "cell.jsonl"
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            read_log(path)
        assert str(exc.value).startswith(f"{path}, line 1: invalid JSON")


_UNPICKLED = []  # one entry per _Unpickled object that a read unpickles


def _record_unpickling():
    _UNPICKLED.append(True)
    return 0


class _Unpickled:
    def __reduce__(self):
        return _record_unpickling, ()


def _columns(log) -> dict[str, np.ndarray]:
    """Each column of a log by its name in the .npz file that a LogWriter given ``columns`` writes."""
    columns = {f"exposures.{f.name}": getattr(log.exposures, f.name) for f in fields(log.exposures)}
    return {"is_exposure": log.is_exposure, **columns, **{f"creations.{f.name}": getattr(log.creations, f.name) for f in fields(log.creations)}}


def _assert_same_log(a, b) -> None:
    x, y = _columns(a), _columns(b)
    assert list(x) == list(y)
    for name in x:
        assert x[name].dtype == y[name].dtype and np.array_equal(x[name], y[name]), name


def _assert_same_npz(a: Path, b: Path) -> None:
    """The two .npz files hold the same arrays, by name and in order, with the same dtypes."""
    with np.load(a) as x, np.load(b) as y:
        assert x.files == y.files
        for name in x.files:
            assert x[name].dtype == y[name].dtype and np.array_equal(x[name], y[name]), name


def _resaved(changes):
    """An edit of the .npz file that saves its arrays again after ``changes`` edits their dict."""
    def edit(path: Path) -> None:
        with np.load(path) as npz:
            arrays = dict(npz)
        changes(arrays)
        np.savez(path, **arrays)

    return edit


def _set(name: str, index: int, value):
    def change(arrays):
        arrays[name][index] = value

    return change


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _first_seed_row(arrays) -> int:
    return int(np.flatnonzero(arrays["creations.kind"] == POST_KINDS.index(PostKind.SEED))[0])


class TestSavedColumns:
    """read_log returns the columns saved beside a log only when they re-format to its bytes; any other .npz
    file gives the JSON parse's result, or its error. The cell is high/no_norm, so a load code of -1 prints
    as the log's own "high", and a source of -7 on a seed row prints as its own null."""

    @pytest.fixture
    def cell(self, small_inputs, tmp_path):
        """(log path, its manifest digest, the JSON parse of a copy that has no .npz beside it)."""
        profiles, graph, corpus = small_inputs
        (entry,) = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "run", cells=[(LoadLevel.HIGH, NormRegime.NO_NORM)])["cells"]
        path = tmp_path / "run" / "logs" / entry["file"]
        alone = tmp_path / "alone.jsonl"
        shutil.copyfile(path, alone)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_decoded_log", lambda data: None)  # else the copy is decoded, not parsed
            return path, entry["sha256"], read_log(alone, entry["sha256"])

    def test_saved_columns_are_read_without_parsing(self, cell, monkeypatch):
        path, sha256, parsed = cell
        monkeypatch.setattr(harness, "_parsed_log", None)  # a parse would fail
        _assert_same_log(read_log(path, sha256), parsed)
        _assert_same_log(read_log(path), parsed)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]), id="truncated"),
            pytest.param(lambda path: path.write_bytes(b"not a zip file\n"), id="not_a_zip"),
            pytest.param(lambda path: path.write_bytes(b""), id="empty"),
            pytest.param(lambda path: path.unlink() or path.mkdir(), id="directory"),
            pytest.param(lambda path: path.write_bytes(_npy_bytes(np.arange(3))), id="lone_npy_array"),
            pytest.param(_resaved(lambda arrays: arrays.pop("exposures.likes")), id="missing_array"),
            pytest.param(_resaved(lambda arrays: arrays.update({"exposures.likes": arrays["exposures.likes"].astype(np.int32)})), id="int32_likes"),
            pytest.param(_resaved(lambda arrays: arrays.update({"exposures.likes": arrays["exposures.likes"][:-1]})), id="short_column"),
            pytest.param(_resaved(lambda arrays: arrays.update({"exposures.likes": arrays["exposures.likes"][:, None]})), id="column_of_rank_2"),
            pytest.param(_resaved(_set("exposures.load", 0, -1)), id="load_code_minus_1"),
            pytest.param(_resaved(_set("exposures.action", 0, len(ACTIONS))), id="action_code_past_the_table"),
            pytest.param(_resaved(lambda arrays: arrays["creations.source"].__setitem__(_first_seed_row(arrays), -7)), id="source_minus_7"),
            pytest.param(_resaved(lambda arrays: arrays["exposures.likes"].__setitem__(0, arrays["exposures.likes"][0] + 1)), id="one_likes_value_edited"),
            pytest.param(_resaved(lambda arrays: arrays.update({"exposures.likes": np.array([_Unpickled()], dtype=object)})), id="object_array"),
        ],
    )
    def test_any_other_file_gives_the_parse(self, cell, edit):
        path, sha256, parsed = cell
        edit(path.with_suffix(".npz"))
        _UNPICKLED.clear()
        assert harness._saved_log(path, sha256) is None
        _assert_same_log(read_log(path, sha256), parsed)
        assert _UNPICKLED == []  # an object array is refused, not unpickled

    @pytest.mark.parametrize(
        "old, new, error",
        [
            pytest.param(b'"likes":0,', b'"likes":5,', None, id="valid_edit"),
            pytest.param(b'"likes":0,', b'"likes":-5,', "negative likes count", id="invalid_edit"),
        ],
    )
    def test_log_edited_beside_its_old_columns(self, cell, tmp_path, old, new, error):
        # The JSONL is edited after simulate and its manifest digest updated; the .npz still holds the old columns.
        path, _, parsed = cell
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["cells"][0]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        alone = tmp_path / "edited.jsonl"
        shutil.copyfile(path, alone)
        if error is None:
            _, cells = load_experiment(tmp_path / "run")
            (log,) = dict(cells).values()
            _assert_same_log(log, read_log(alone))
            assert not np.array_equal(log.exposures.likes, parsed.exposures.likes)
        else:
            with pytest.raises(FormatError) as expected:
                read_log(alone)
            with pytest.raises(FormatError) as got:
                dict(load_experiment(tmp_path / "run")[1])
            assert error in str(got.value) and str(got.value) == str(expected.value).replace(str(alone), str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda data: data + b"\n", id="trailing_blank_line"),
            pytest.param(lambda data: data[:-1], id="no_final_newline"),
            pytest.param(lambda data: data.replace(b"\n", b"\r\n"), id="crlf_line_ends"),
            pytest.param(lambda data: b" " + data, id="leading_space"),
        ],
    )
    def test_same_rows_in_other_bytes_are_parsed(self, cell, edit):
        # The file parses to the saved columns but is not write_log's bytes of them, so the proof fails.
        path, _, parsed = cell
        path.write_bytes(edit(path.read_bytes()))
        assert harness._saved_log(path, None) is None
        _assert_same_log(read_log(path), parsed)

    def test_wrong_manifest_digest_beside_saved_columns(self, cell):
        # The log and its columns agree, but not with the manifest: the digest check still fails.
        path, _, _ = cell
        with pytest.raises(FormatError, match=f"{path.name}: SHA-256 differs from the manifest's {'0' * 64}"):
            read_log(path, "0" * 64)

    @pytest.mark.parametrize(
        "lines, edit, error",
        [
            pytest.param([_READ_ROW, _SEED_ROW], None, "line 1: exposure of post 0 before any row creates it", id="exposure_before_creation"),
            pytest.param([_SEED_ROW, _SEED_ROW], None, "line 2: post 0 created twice", id="created_twice"),
            pytest.param(['{"kind":"seed","post":5,"author":1,"source":0,"t":0}'], None, "line 1: seed post 5 has source 0", id="seed_with_source"),
            pytest.param([_SEED_ROW, _READ_ROW], lambda log: log.exposures.likes.fill(2**62), "line 2: likes count too large", id="likes_2_62"),
            pytest.param([_SEED_ROW, _READ_ROW], lambda log: log.exposures.reshares.fill(2**62), "line 2: reshares count too large", id="reshares_2_62"),
            pytest.param([_SEED_ROW, _READ_ROW], lambda log: log.exposures.likes.fill(-1), "line 2: negative likes count", id="likes_minus_1"),
            pytest.param([_SEED_ROW, _exposure_row(likes=-1, post=7)], None, "line 2: negative likes count", id="likes_before_the_rule"),
        ],
    )
    def test_bad_log_beside_its_own_columns(self, tmp_path, monkeypatch, lines, edit, error):
        # write_log formats any columns, so a log that breaks a rule can have its own columns beside it;
        # read_log still names its first bad line, and so it does from the bytes alone: decoded, and parsed.
        log = harness._log_from_objs([json.loads(line) for line in lines])  # neither the counters nor the creation rules are checked here
        if edit:
            edit(log)
        path = tmp_path / "cell.jsonl"
        with harness.LogWriter(path, columns=path.with_suffix(".npz")) as writer:
            writer.add(log)
            write_log(writer, path)
        messages = []
        for read in ("saved", "decoded", "parsed"):
            if read == "decoded":
                path.with_suffix(".npz").unlink()
                assert harness._decoded_log(path.read_bytes()) is not None
            if read == "parsed":
                monkeypatch.setattr(harness, "_decoded_log", lambda data: None)
            with pytest.raises(FormatError) as exc:
                read_log(path)
            messages.append(str(exc.value))
        assert messages == [f"{path}, {error}"] * 3


class TestPlan:
    def test_twelve_cells_per_replication(self):
        assert len(_tiny_plan().cells()) == 12
        assert len(_tiny_plan(replications=2).cells()) == 24

    def test_cells_run_load_major_in_code_order(self):
        # The order fixes each cell's position in the manifest; it is the LOADS x NORMS code order.
        assert _tiny_plan(replications=2).cells() == [(lv, nr, rep) for lv in LOADS for nr in NORMS for rep in range(2)]
        assert [lv.value for lv in LOADS] == ["lowest", "low", "medium", "high"]
        assert [nr.value for nr in NORMS] == ["no_norm", "like_dominant", "repost_dominant"]

    def test_round_trip(self):
        plan = _tiny_plan(replications=3)
        assert to_obj(from_obj(ExperimentPlan, json.loads(json.dumps(to_obj(plan))), "plan key")) == to_obj(plan)

    def test_cell_config_carries_conditions(self):
        cfg = _tiny_plan().cell_config(LoadLevel.HIGH, NormRegime.REPOST_DOMINANT, 0)
        assert cfg.load is LoadLevel.HIGH and cfg.norm is NormRegime.REPOST_DOMINANT
        assert cfg.seed == cell_seed(77, LoadLevel.HIGH, NormRegime.REPOST_DOMINANT, 0)

    def test_invalid_run_parameters_rejected_at_plan_time(self):
        # Regression: recency_decay -2.0 overflowed in every cell at 480 steps, and a
        # NaN weight ran with NaN ranking scores.
        obj = to_obj(_tiny_plan())
        for key, value in (
            ("history_window", 0),
            ("activation_p", 1.5),
            ("timesteps", 0),
            ("recency_decay", -2.0),
            ("recency_decay", math.nan),
            ("recency_decay", math.inf),
            ("w_recency", math.nan),
            ("w_recency", 1.5),
            ("w_recency", "0.7"),
        ):
            with pytest.raises(ConfigurationError, match=key):
                from_obj(ExperimentPlan, {**obj, key: value}, "plan key")

    @pytest.mark.parametrize("replications", [0, -1])
    def test_replications_must_be_positive(self, replications):
        with pytest.raises(ConfigurationError, match="replications"):
            from_obj(ExperimentPlan, {**to_obj(_tiny_plan()), "replications": replications}, "plan key")

    @pytest.mark.parametrize("key", ["timestep", "replicatons", "seed"])
    def test_unknown_key_rejected(self, key):
        # Regression: a misspelled key was ignored, so its default ran instead.
        with pytest.raises(ConfigurationError, match=f"unknown plan key '{key}'"):
            read_config({**to_obj(_tiny_plan()), key: 3})

    @pytest.mark.parametrize("key", ["timesteps", "replications", "n_agents", "history_window", "base_seed", "corpus_seed"])
    @pytest.mark.parametrize("value", [2.9, "3", True, None])
    def test_non_integer_count_rejected(self, key, value):
        # Regression: int() cut 2.9 timesteps to 2.
        with pytest.raises(ConfigurationError, match=f"plan key '{key}' must be an integer"):
            read_config({**to_obj(_tiny_plan()), key: value})

    def test_simulate_input_keys_and_integral_floats_accepted(self):
        obj = {**to_obj(_tiny_plan()), "timesteps": 30.0, "population": "pop.jsonl", "corpus": "c.jsonl", "population_seed": 4, "corpus_seed": 5}
        plan, inputs = read_config(obj)
        assert to_obj(plan) == to_obj(_tiny_plan())
        assert type(plan.timesteps) is int
        assert (inputs.population, inputs.corpus, inputs.population_seed, inputs.corpus_seed) == ("pop.jsonl", "c.jsonl", 4, 5)

    def test_required_key_must_be_present(self):
        with pytest.raises(ConfigurationError, match="missing plan key 'base_seed'"):
            read_config({"timesteps": 30})


# For each key of a plan or an llm policy, values of the wrong JSON type: a
# string or a bool where a number goes, a number where a string goes, and null
# where the key takes none.
_WRONG_BY_TYPE = {
    int: ["3", True, None, 2.5],
    float: ["0.5", True, None],
    str: [3, True, None],
    str | None: [3, True, ["x"]],
    PolicySpec: ["mock", 3, None],
}


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (cls, f.name, value)
        for cls in (ExperimentPlan, LlmSpec)
        for f in fields(cls)
        if f.init
        for value in _WRONG_BY_TYPE[get_type_hints(cls)[f.name]]
    ],
)
def test_wrongly_typed_value_rejected_naming_the_key(cls, name, value):
    # Regression: "max_retries": "3" and "activation_p": "0.2" passed plan
    # validation; the first failed every cell, the second was cast silently.
    if cls is ExperimentPlan:
        obj = {"base_seed": 1, name: value}
    else:
        obj = {"base_seed": 1, "policy": {"kind": "llm", "endpoint": "http://x", name: value}}
    with pytest.raises(ConfigurationError, match=f"'{name}'"):
        read_config(obj)


class TestRunExperiment:
    def test_twelve_logs_and_manifest(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        logs = sorted((tmp_path / "logs").glob("*.jsonl"))
        assert len(logs) == 12
        assert len(manifest["cells"]) == 12
        assert all(c["status"] == "ok" for c in manifest["cells"])
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "population.jsonl").exists()
        assert (tmp_path / "corpus.jsonl").exists()

    def test_identical_plans_identical_manifests(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "a")
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_manifest_digests_match_files(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        for cell in manifest["cells"]:
            assert log_digest(log_from_records(records_of(read_log(tmp_path / "logs" / cell["file"])))) == cell["sha256"]

    def test_cell_filter(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(
            _tiny_plan(), profiles, graph, corpus, tmp_path,
            cells=[(LoadLevel.HIGH, NormRegime.REPOST_DOMINANT)],
        )
        assert len(manifest["cells"]) == 1
        assert manifest["cells"][0]["load"] == "high"

    def test_partial_failure_recorded(self, small_inputs, tmp_path, monkeypatch):
        profiles, graph, corpus = small_inputs
        import socialsim.engine as engine  # harness imports engine's run when it runs a cell

        real_run = engine.run

        def flaky_run(config, *args):
            if config.load is LoadLevel.MEDIUM:
                raise RuntimeError("synthetic cell failure")
            return real_run(config, *args)

        monkeypatch.setattr(engine, "run", flaky_run)
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        by_status = {}
        for c in manifest["cells"]:
            by_status.setdefault(c["status"], []).append(c)
        assert len(by_status["failed"]) == 3
        assert all("synthetic cell failure" in c["error"] for c in by_status["failed"])
        assert len(by_status["ok"]) == 9
        _, cells = load_experiment(tmp_path)
        assert len(dict(cells)) == 9  # completed cells retained

    def test_load_experiment_round_trip(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        loaded_manifest, cells = load_experiment(tmp_path)
        assert loaded_manifest == manifest
        rows_by_manifest = {c["file"].removesuffix(".jsonl"): c["rows"] for c in manifest["cells"]}
        per_cell = dict(cells)
        assert {k: len(v) for k, v in per_cell.items()} == rows_by_manifest
        assert list(per_cell) == sorted(rows_by_manifest)  # sorted by cell name, not in plan order

    def test_load_experiment_gives_the_same_columns_with_and_without_saved_columns(self, small_inputs, tmp_path, monkeypatch):
        profiles, graph, corpus = small_inputs
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_parsed_log", None)  # a parse would fail
            saved = dict(load_experiment(tmp_path)[1])
        for path in (tmp_path / "logs").glob("*.npz"):
            path.unlink()
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_decoded_log", lambda data: None)  # else the logs are decoded, not parsed
            parsed = dict(load_experiment(tmp_path)[1])
        assert list(saved) == list(parsed) and len(saved) == 12
        for cell in saved:
            _assert_same_log(saved[cell], parsed[cell])

    def test_history_window_longer_than_eight(self, small_inputs, tmp_path):
        # Regression: a policy-side constant once capped histories at 8, so every
        # cell of a window-12 plan failed once an agent engaged a ninth time.
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan(policy=ScriptedSpec(intents=[("like", 0)]), timesteps=16, activation_p=0.9, history_window=12)
        manifest = run_experiment(plan, profiles, graph, corpus, tmp_path)
        assert [c["status"] for c in manifest["cells"]] == ["ok"] * 12
        per_cell = dict(load_experiment(tmp_path)[1])
        for log in per_cell.values():
            likes = Counter(r.agent for r in records_of(log) if isinstance(r, ExposureRecord) and r.action is ActionKind.LIKE)
            assert max(likes.values()) > 8

    def test_manifest_run_counts(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan(timesteps=60, activation_p=0.2)
        manifest = run_experiment(plan, profiles, graph, corpus, tmp_path)
        per_cell = dict(load_experiment(tmp_path)[1])
        for cell in manifest["cells"]:
            load, norm = LoadLevel(cell["load"]), NormRegime(cell["norm"])
            builder = LogBuilder(plan.cell_config(load, norm, cell["replication"]))
            run(plan.cell_config(load, norm, cell["replication"]), build_policy(plan.policy, load, norm), profiles, graph, corpus, builder)
            assert {k: cell[k] for k in ("activations", "empty_feeds", "backfilled_slots")} == builder.counts()
            # Every activation with a non-empty feed logs a block of rows.
            e = per_cell[cell["file"].removesuffix(".jsonl")].exposures
            assert cell["activations"] - cell["empty_feeds"] == len(set(zip(e.t.tolist(), e.agent.tolist())))
        assert sum(c["backfilled_slots"] for c in manifest["cells"]) > 0

    def test_cells_run_on_the_given_objects(self, small_inputs, tmp_path, monkeypatch):
        # Regression: each cell read back the population and corpus files that
        # run_experiment had just written.
        import socialsim.harness as harness_mod

        def no_reading(*args, **kwargs):
            raise AssertionError("a cell read its inputs back from disk")

        monkeypatch.setattr(harness_mod, "load_population", no_reading)
        monkeypatch.setattr(harness_mod, "load_corpus", no_reading)
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        assert [c["status"] for c in manifest["cells"]] == ["ok"] * 12

    def test_policy_build_failure_is_a_failed_cell(self, small_inputs, tmp_path):
        # Regression: build_policy ran outside the cell's try, so a fixture file
        # that went bad after plan time escaped run_experiment with a traceback.
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("")
        plan = _tiny_plan(policy=LlmSpec(transport="fixtures", fixture_path=str(fixture)))
        fixture.write_text("not json\n")
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(plan, profiles, graph, corpus, tmp_path / "run", cells=[(LoadLevel.LOW, NormRegime.NO_NORM)])
        (cell,) = manifest["cells"]
        assert cell["status"] == "failed" and "line 1" in cell["error"]

    def test_failed_cell_leaves_none_of_its_files(self, small_inputs, tmp_path, monkeypatch):
        # A cell writes its log and columns as it runs, under temporary names. One whose policy raises after
        # two pieces were written leaves no file, and every other cell's entry and files are as a run without
        # the failure writes them.
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan(timesteps=60, activation_p=0.2)
        run_experiment(plan, profiles, graph, corpus, tmp_path / "whole")
        monkeypatch.setattr(harness, "_CHUNK_ROWS", 64)  # pieces of at most 64 rows, so the cell writes many
        failing = f"{cell_name(LoadLevel.MEDIUM, NormRegime.LIKE_DOMINANT, 0)}.jsonl"
        written = []
        real_add = harness.LogWriter.add

        def add(writer, piece):
            real_add(writer, piece)
            written.append(writer.path.name)

        class FailingPolicy:
            def __init__(self, policy):
                self.policy = policy

            def decide(self, context, rng):
                if written.count(failing) >= 2:
                    parts = list((tmp_path / "run" / "logs").glob("*.part"))
                    assert [path.name for path in parts] == [f"{failing}.part"] and parts[0].stat().st_size, parts
                    raise RuntimeError("synthetic failure after two pieces")
                return self.policy.decide(context, rng)

        real_build = policy_module.build_policy

        def build(spec, load, norm, **kw):
            policy = real_build(spec, load, norm, **kw)
            return FailingPolicy(policy) if (load, norm) == (LoadLevel.MEDIUM, NormRegime.LIKE_DOMINANT) else policy

        monkeypatch.setattr(harness.LogWriter, "add", add)
        monkeypatch.setattr(policy_module, "build_policy", build)
        manifest = run_experiment(plan, profiles, graph, corpus, tmp_path / "run")
        whole = json.loads((tmp_path / "whole" / "manifest.json").read_text())
        for cell, expected in zip(manifest["cells"], whole["cells"]):
            if cell["file"] == failing:
                assert cell["status"] == "failed" and cell["error"] == "RuntimeError: synthetic failure after two pieces"
            else:
                assert cell == expected
        kept = sorted(path.name for path in (tmp_path / "run" / "logs").iterdir())
        failed_files = {failing, failing.replace(".jsonl", ".npz")}
        assert kept == sorted(path.name for path in (tmp_path / "whole" / "logs").iterdir() if path.name not in failed_files)
        for name in kept:
            if name.endswith(".jsonl"):
                assert (tmp_path / "run" / "logs" / name).read_bytes() == (tmp_path / "whole" / "logs" / name).read_bytes()
            else:
                _assert_same_npz(tmp_path / "run" / "logs" / name, tmp_path / "whole" / "logs" / name)

    @pytest.mark.parametrize("rows", [1, 50])
    def test_cells_written_in_pieces_of_any_size_are_the_same(self, small_inputs, tmp_path, monkeypatch, rows):
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan(timesteps=40, activation_p=0.1)
        run_experiment(plan, profiles, graph, corpus, tmp_path / "whole")
        monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
        run_experiment(plan, profiles, graph, corpus, tmp_path / "pieces")
        assert (tmp_path / "pieces" / "manifest.json").read_bytes() == (tmp_path / "whole" / "manifest.json").read_bytes()
        names = sorted(path.name for path in (tmp_path / "whole" / "logs").iterdir())
        assert len(names) == 24 and names == sorted(path.name for path in (tmp_path / "pieces" / "logs").iterdir())
        for name in names:
            a, b = tmp_path / "pieces" / "logs" / name, tmp_path / "whole" / "logs" / name
            if name.endswith(".jsonl"):
                assert a.read_bytes() == b.read_bytes()
            else:
                _assert_same_npz(a, b)

    def test_manifest_bytes_and_no_temporary_file(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path, cells=[(LoadLevel.LOW, NormRegime.NO_NORM)])
        assert (tmp_path / "manifest.json").read_bytes() == json.dumps(manifest, indent=1, sort_keys=True).encode()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "logs", "manifest.json", "population.jsonl"]

    def test_failed_manifest_replace_leaves_no_manifest(self, small_inputs, tmp_path, monkeypatch):
        # The manifest is written whole under a temporary name and then moved into place; when the move fails,
        # neither name is left, so a reader finds no manifest rather than part of one.
        profiles, graph, corpus = small_inputs
        real_replace = os.replace
        moved = []

        def replace(src, dst):
            if Path(dst).name == "manifest.json":
                moved.append(json.loads(Path(src).read_text()))
                raise OSError("synthetic failure to replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="synthetic failure to replace"):
            run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path, cells=[(LoadLevel.LOW, NormRegime.NO_NORM)])
        assert [cell["status"] for cell in moved[0]["cells"]] == ["ok"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "logs", "population.jsonl"]

    def test_failed_manifest_write_stops_the_workers(self, small_inputs, tmp_path, monkeypatch):
        # The first manifest write fails, so the run stops there: every cell not yet handed to the executor's
        # call queue is cancelled, and the few already handed on finish (5 to 7 logs in all in 8 runs of this
        # plan: 2 running and 3 queued, and any a free worker took before the cancel). Regression: all 12 ran.
        profiles, graph, corpus = small_inputs
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError("synthetic failure to replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="synthetic failure to replace"):
            run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path, workers=2)
        assert 1 <= len(list((tmp_path / "logs").glob("*.jsonl"))) < 12
        assert not list((tmp_path / "logs").glob("*.part"))

    def test_manifest_part_of_another_kind_is_left_alone(self, small_inputs, tmp_path):
        # A manifest.json.part that the writer could not open is not its own, so it is not removed, and the error
        # raised is the open's.
        (tmp_path / "manifest.json.part").mkdir()
        (tmp_path / "manifest.json.part" / "kept").write_text("kept\n")
        profiles, graph, corpus = small_inputs
        with pytest.raises(IsADirectoryError) as raised:
            run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path, cells=[(LoadLevel.LOW, NormRegime.NO_NORM)])
        assert raised.value.__context__ is None  # Regression: the removal's own IsADirectoryError hid it
        assert (tmp_path / "manifest.json.part" / "kept").read_text() == "kept\n"

    def test_interrupted_run_lists_the_cells_it_finished(self, small_inputs, tmp_path, monkeypatch):
        # The manifest is rewritten as each cell finishes, so a run stopped in its third cell lists the first two,
        # as an uninterrupted run lists them, each with the digest of its log on disk.
        profiles, graph, corpus = small_inputs
        whole = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "whole")
        real_run_cell = harness._run_cell
        started = []

        def run_cell(*args):
            started.append(args)
            if len(started) == 3:
                raise KeyboardInterrupt
            return real_run_cell(*args)

        monkeypatch.setattr(harness, "_run_cell", run_cell)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "stopped")
        cells = json.loads((tmp_path / "stopped" / "manifest.json").read_text())["cells"]
        assert [cell["status"] for cell in cells] == ["ok", "ok"]
        assert cells == whole["cells"][:2]
        for cell in cells:
            assert hashlib.sha256((tmp_path / "stopped" / "logs" / cell["file"]).read_bytes()).hexdigest() == cell["sha256"]
        assert sorted(path.name for path in (tmp_path / "stopped").iterdir()) == [
            "corpus.jsonl", "logs", "manifest.json", "population.jsonl"
        ]

    def test_failed_log_replace_leaves_none_of_the_cell_files(self, small_inputs, tmp_path, monkeypatch):
        # Regression: close moved the .npz into place before the log, so a failed move of the log left the
        # failed cell's .npz behind.
        profiles, graph, corpus = small_inputs
        real_replace = Path.replace

        def replace(self, target):
            if Path(target).suffix == ".jsonl":
                raise OSError("synthetic failure to replace")
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace)
        manifest = run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path, cells=[(LoadLevel.LOW, NormRegime.NO_NORM)])
        (cell,) = manifest["cells"]
        assert cell["status"] == "failed" and cell["error"] == "OSError: synthetic failure to replace"
        assert list((tmp_path / "logs").iterdir()) == []

    def test_parallel_equals_serial(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "serial", workers=1)
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path / "parallel", workers=4)
        a = (tmp_path / "serial" / "manifest.json").read_bytes()
        b = (tmp_path / "parallel" / "manifest.json").read_bytes()
        assert a == b


class TestAudits:
    def _hand_records(self):
        # one activation: agent 5 follows 1; posts 0 (author 1) and 1-2 (author 2)
        creations = [
            PostCreation(post=0, kind=PostKind.SEED, author=1, source=None, t=0),
            PostCreation(post=1, kind=PostKind.SEED, author=2, source=None, t=0),
            PostCreation(post=2, kind=PostKind.SEED, author=2, source=None, t=0),
        ]
        exposures = [
            ExposureRecord(run=1, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM,
                           t=3, agent=5, post=p, likes=0, reshares=0, action=ActionKind.READ)
            for p in (0, 1, 2)
        ]
        return log_from_records(creations + exposures)

    def test_hand_computed_algorithmic_count(self):
        audit = realized_load_audit(self._hand_records(), FollowGraph({5: frozenset({1})}))
        assert audit.n_activations == 1
        assert audit.mean == audit.min == audit.max == 2  # posts 1 and 2 are non-followee

    def test_post_shown_before_its_creation_row_is_refused(self):
        # The same rows with the three exposures first: each post's only creation row now comes after it is shown.
        log = self._hand_records()
        with pytest.raises(ValueError, match="^post 0 is shown before any row creates it$"):
            realized_load_audit(CellLog(log.exposures, log.creations, log.is_exposure[::-1].copy()), FollowGraph({5: frozenset({1})}))

    # Times and agent ids across int64, few distinct values so that pairs repeat.
    _T = st.one_of(st.integers(0, 3), st.sampled_from([-(2**63), -1, 2**62, 2**63 - 1]))
    _AGENT = st.one_of(st.integers(0, 3), st.sampled_from([2**32, 2**63 - 1]))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_T, _AGENT), min_size=1, max_size=40), order=st.sampled_from(["sorted", "as drawn"]))
    def test_activations_are_np_unique_ranks_of_t_agent_pairs(self, pairs, order):
        # Rows in (t, agent) order are numbered by runs in one pass; rows out of order are ranked. Either way
        # each row's activation is np.unique's index of its (t, agent) pair.
        if order == "sorted":
            pairs = sorted(pairs)
        t, agent = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        distinct, viewer = np.unique(agent, return_inverse=True)
        want = np.unique(np.stack([t, agent], axis=1), axis=0, return_inverse=True)[1].ravel()
        assert harness._activations(t, viewer, distinct.size).tolist() == want.tolist()

    def test_activations_of_ordered_rows_sort_nothing(self):
        # An engine log's rows are in (t, agent) order: their activations come from runs, with no np.unique call.
        t, viewer = np.array([0, 0, 0, 2, 2, 5]), np.array([1, 1, 3, 0, 3, 3])
        with mock.patch.object(core.np, "unique", side_effect=AssertionError("np.unique called")):
            assert harness._activations(t, viewer, 4).tolist() == [0, 0, 1, 2, 3, 4]

    def test_empty_cell_flagged(self):
        audit = realized_load_audit(log_from_records([]), FollowGraph({}))
        assert audit.flagged and audit.n_activations == 0

    def test_single_activation_mean_min_max_agree(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        records = self._hand_records()
        audit = realized_load_audit(records, FollowGraph({5: frozenset({1})}))
        assert audit.mean == audit.min == audit.max

    def test_shares_sum_to_one(self):
        shares = descriptive_shares(self._hand_records())
        assert sum(shares.shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert shares.n_records == 3

    def test_all_read_policy_gives_read_share_one(self, small_inputs, tmp_path):
        profiles, graph, corpus = small_inputs
        plan = _tiny_plan(policy=ScriptedSpec(intents=["read"]))
        run_experiment(plan, profiles, graph, corpus, tmp_path)
        per_cell = dict(load_experiment(tmp_path)[1])
        assert len(per_cell) == 12
        for records in per_cell.values():
            shares = descriptive_shares(records)
            assert shares.shares["read"] == 1.0

    def test_audit_recomputable_from_persisted_files(self, small_inputs, tmp_path):
        # an independent reader needs only the artifact directory: the audit from
        # reloaded files must equal the audit from in-memory objects
        profiles, graph, corpus = small_inputs
        run_experiment(_tiny_plan(), profiles, graph, corpus, tmp_path)
        from socialsim.population import load_population

        _, loaded_graph = load_population(tmp_path / "population.jsonl")
        per_cell = dict(load_experiment(tmp_path)[1])
        name = cell_name(LoadLevel.LOWEST, NormRegime.NO_NORM, 0)
        from_files = realized_load_audit(per_cell[name], loaded_graph)
        in_memory = realized_load_audit(per_cell[name], graph)
        assert from_files == in_memory
        assert from_files.n_activations > 0
        # the tiny 12-post corpus starves followed pools, so backfill may push
        # counts past the 4-post quota; the feed total is still capped
        assert from_files.max <= LoadLevel.LOWEST.total


def _first_occurrence(keys: list[int], value: int) -> int:
    """The oracle of first_index: the index of ``value``'s first occurrence in ``keys``, or len(keys) if it has none."""
    return next((k for k, key in enumerate(keys) if key == value), len(keys))


class TestFirstIndex:
    """core.first_index gives the oracle's answer whether core.ranked places its keys by a table or by a sort."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_table_and_the_sort_equal_the_oracle(self, data):
        # Small ids, the same spread past any table, or shifted to the top of int64, asked beside its extremes.
        to_id = data.draw(st.sampled_from([lambda p: p, lambda p: p * 2**33, lambda p: p + 2**63 - 16]))
        keys = [to_id(p) for p in data.draw(st.lists(st.integers(-3, 12), max_size=12))]  # repeats: a post created twice or more
        extremes = st.sampled_from([-(2**63), -(2**63) + 5, 2**63 - 1])
        queries = data.draw(st.lists(st.lists(st.integers(-6, 15).map(to_id) | extremes, max_size=20), max_size=3))
        args = [np.array(values, dtype=np.int64) for values in [keys, *queries]]
        got = first_index(*args)
        with mock.patch.object(core, "dense_span", return_value=None):
            by_sort = first_index(*args)
        want = [[_first_occurrence(keys, value) for value in values] for values in queries]
        assert [a.tolist() for a in got] == [b.tolist() for b in by_sort] == want
        assert all(a.dtype == b.dtype == np.intp for a, b in zip(got, by_sort))
        together = np.concatenate(args)
        assert (dense_span(together) is not None) == bool(together.size and int(together.max()) - int(together.min()) < 4 * together.size)

    def test_the_first_of_many_occurrences_wins(self):
        # Post 5 is created at creation indices 1, 2 and 4: a table filled by one fancy-index assignment
        # could keep any of them, as numpy does not say which of repeated indices it writes last.
        keys = np.array([0, 5, 5, 1, 5, 2], dtype=np.int64)
        assert dense_span(keys) is not None
        assert [a.tolist() for a in first_index(keys, np.array([5, 2, 3]), keys)] == [[1, 5, 6], [0, 1, 1, 3, 1, 5]]

    def test_no_keys_or_no_queries(self):
        none = np.array([], dtype=np.int64)
        assert [a.tolist() for a in first_index(none, np.array([3, -(2**63)]), none)] == [[0, 0], []]
        assert [a.tolist() for a in first_index(np.array([4, 4]), none)] == [[]] and first_index(none) == []


def _spread(ids):
    """Agent, post and time ids mapped apart, past any table of their span: id * 2**33 + 7."""
    return ids * 2**33 + 7


def test_sparse_ids_give_the_audit_and_pattern_table_of_dense_ones(small_inputs, tmp_path):
    profiles, graph, corpus = small_inputs
    cfg = RunConfig(seed=3, load=LoadLevel.MEDIUM, norm=NormRegime.REPOST_DOMINANT, n_agents=40, timesteps=40, activation_p=0.2)
    log = run(cfg, build_policy(mock_policy_spec(), cfg.load, cfg.norm), profiles, graph, corpus)
    e, c = log.exposures, log.creations
    # Every id is spread, and the counters scaled, so each key the audit, the reader and the fold rank is sparse.
    sparse = CellLog(
        replace(e, t=_spread(e.t), agent=_spread(e.agent), post=_spread(e.post), likes=e.likes * 2**33, reshares=e.reshares * 2**33),
        replace(c, post=_spread(c.post), author=_spread(c.author), source=np.where(c.source < 0, -1, _spread(c.source)), t=_spread(c.t)),
        log.is_exposure,
    )
    edges = {}
    for follower, followee in graph.edges():
        edges.setdefault(_spread(follower), set()).add(_spread(followee))
    sparse_graph = FollowGraph(edges)
    for dense_key, sparse_key in ((e.agent, sparse.exposures.agent), (c.post, sparse.creations.post), (e.likes + e.reshares, sparse.exposures.likes + sparse.exposures.reshares)):
        assert dense_span(dense_key) is not None and dense_span(sparse_key) is None

    audit = realized_load_audit(log, graph)
    assert audit.n_activations > 0 and realized_load_audit(sparse, sparse_graph) == audit
    dense_table, sparse_table = PatternCounts.of(e), PatternCounts.of(sparse.exposures)
    assert sparse_table.total.tolist() == (dense_table.total * 2**33).tolist()
    for a, b in zip(dense_table[1:], sparse_table[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    write_log(sparse, tmp_path / "sparse.jsonl")
    _assert_same_log(read_log(tmp_path / "sparse.jsonl"), sparse)
