import dataclasses
import json
import math
import re
import sys
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialsim.cli import SimulateInputs
from socialsim.core import (
    ActionKind,
    ConfigurationError,
    FormatError,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
    dense_span,
    from_obj,
    popularity_composite,
    ranked,
    read_table,
    read_text,
    to_obj,
    write_table,
)
from socialsim.engine import WorldState
from socialsim.harness import ExperimentPlan
from socialsim.policy import FixtureRow, LlmSpec, ParametricLogitSpec, ScriptedSpec, mock_policy_spec
from socialsim.population import CorpusRow, PopulationRow

from conftest import tiny_graph, tiny_profiles
from reference_rows import reference_from_obj, reference_to_obj


class TestPopularityComposite:
    def test_zero_counts(self):
        assert popularity_composite(0, 0) == 0.0

    def test_direct_evaluation(self):
        # ln(1 + 3 + 2) and ln(1 + 99), evaluated independently
        assert popularity_composite(3, 2) == pytest.approx(1.791759469228055, abs=1e-12)
        assert popularity_composite(99, 0) == pytest.approx(4.605170185988092, abs=1e-12)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            popularity_composite(-1, 0)
        with pytest.raises(ValueError):
            popularity_composite(0, -2)

    @given(
        likes=st.integers(min_value=0, max_value=10**9),
        resh=st.integers(min_value=0, max_value=10**9),
        dl=st.integers(min_value=0, max_value=10**6),
        dr=st.integers(min_value=0, max_value=10**6),
    )
    def test_monotone_in_both_arguments(self, likes, resh, dl, dr):
        base = popularity_composite(likes, resh)
        assert popularity_composite(likes + dl, resh + dr) >= base
        if dl + dr > 0:
            assert popularity_composite(likes + dl, resh + dr) > base

    def test_non_negative(self):
        assert popularity_composite(0, 1) > 0


class TestConditions:
    def test_load_totals(self):
        totals = {lv: lv.total for lv in LoadLevel}
        assert totals == {
            LoadLevel.LOWEST: 7,
            LoadLevel.LOW: 10,
            LoadLevel.MEDIUM: 18,
            LoadLevel.HIGH: 33,
        }
        assert all(lv.followed_count == 3 for lv in LoadLevel)

    def test_algorithmic_counts(self):
        assert [lv.algorithmic_count for lv in LoadLevel] == [4, 7, 15, 30]

    def test_no_norm_fragment_empty(self):
        assert NormRegime.NO_NORM.prompt_fragment == ""

    def test_like_dominant_fragment_has_triplet(self):
        frag = NormRegime.LIKE_DOMINANT.prompt_fragment
        for pct in ("80%", "15%", "5%"):
            assert pct in frag

    def test_repost_dominant_fragment(self):
        frag = NormRegime.REPOST_DOMINANT.prompt_fragment
        assert "90%" in frag and "10%" in frag
        # no explicit like percentage
        assert "like" not in frag.lower()


class TestActionKind:
    def test_read_is_not_engagement(self):
        assert not ActionKind.READ.is_engagement
        assert all(a.is_engagement for a in ActionKind if a is not ActionKind.READ)

    def test_exactly_four_values(self):
        assert {a.value for a in ActionKind} == {"read", "like", "repost", "quote"}


class TestPost:
    """WorldState.new_post checks a post's kind against its source."""

    def _world(self):
        cfg = RunConfig(seed=1, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, n_agents=5)
        world = WorldState(tiny_profiles(), tiny_graph(), cfg)
        world.new_post(0, "x", PostKind.SEED, None, 0)
        return world

    def test_seed_post_has_no_source(self):
        world = self._world()
        with pytest.raises(ValueError, match="seed posts carry no source link"):
            world.new_post(1, "x", PostKind.SEED, 0, 0)
        assert world.posts == ["x"]

    def test_repost_requires_source(self):
        world = self._world()
        for kind in (PostKind.REPOST, PostKind.QUOTE):
            with pytest.raises(ValueError, match=f"{kind.value} posts require a source link"):
                world.new_post(1, "x", kind, None, 0)
        assert world.posts == ["x"]
        assert world.new_post(1, "x", PostKind.REPOST, 0, 2) == 1


class TestRunConfig:
    def _cfg(self, **kw):
        base = dict(seed=1, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM)
        base.update(kw)
        return RunConfig(**base)

    def test_defaults(self):
        cfg = self._cfg()
        assert cfg.n_agents == 558
        assert cfg.timesteps == 480
        assert cfg.activation_p == 0.01
        assert cfg.history_window == 8

    def test_activation_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            self._cfg(activation_p=0.0)
        with pytest.raises(ConfigurationError):
            self._cfg(activation_p=1.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            self._cfg(w_recency=0.7, w_relevance=0.4)

    def test_history_window_must_be_positive(self):
        assert self._cfg(history_window=1).history_window == 1
        assert self._cfg(history_window=sys.maxsize).history_window == sys.maxsize
        for window in (0, -3, sys.maxsize + 1):  # a deque takes no maxlen past sys.maxsize
            with pytest.raises(ConfigurationError):
                self._cfg(history_window=window)

    def test_positive_timesteps(self):
        with pytest.raises(ConfigurationError):
            self._cfg(timesteps=0)

    def test_timesteps_below_2_58(self):
        # Regression: 1e20 and 2**63 passed the plan's checks, and every cell then failed building its schedule
        # (numpy refused the first's arrays; np.arange wrapped the second to an empty one). 2**58 is where a whole-run
        # schedule's seed words, 32 bytes a timestep, make no array (checked below). The schedule holds one block of
        # timesteps, and the bound stays: far past any run that can finish, and below int64's 2**63.
        assert self._cfg(timesteps=2**58 - 1).timesteps == 2**58 - 1
        with pytest.raises(ValueError, match="array is too big"):
            np.empty((2**58, 4), dtype=np.uint64)
        for timesteps in (2**58, 10**20, 2**63):
            with pytest.raises(ConfigurationError, match=rf"^timesteps must be in 1\.\.{2**58 - 1}, got {timesteps}$"):
                self._cfg(timesteps=timesteps)

    def test_seed_below_2_63(self):
        # Regression: a seed of 2**63 was accepted, and the run then failed with OverflowError
        # writing the int64 run column.
        assert self._cfg(seed=2**63 - 1).seed == 2**63 - 1
        for seed in (2**63, 2**64 + 5):
            with pytest.raises(ConfigurationError, match=r"^seed must be below 2\*\*63"):
                self._cfg(seed=seed)
        with pytest.raises(ConfigurationError, match="^seed must be a non-negative integer"):
            self._cfg(seed=-1)


class TestTables:
    """core.read_table and core.write_table, the one reader and one writer of every CSV table."""

    def test_round_trip_in_the_default_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("cell", "n", "mean"), [{"cell": "a,b", "n": 3, "mean": None}, {"cell": "c", "n": 0, "mean": "0.5000"}])
        assert path.read_bytes() == b'cell,n,mean\r\n"a,b",3,\r\nc,0,0.5000\r\n'
        assert read_table(path, "cell", ("n", "cell")) == [(2, {"cell": "a,b", "n": "3", "mean": ""}), (3, {"cell": "c", "n": "0", "mean": "0.5000"})]

    @pytest.mark.parametrize("text", ["a\u2028b", "a\u2029b", "a\x85b", "a\nb"])
    def test_round_trip_of_line_breaks_in_a_field(self, tmp_path, text):
        # Regression: the first three failed with "line 2: expected 2 fields, got 1", and "a\nb" read back as "ab".
        path = tmp_path / "t.csv"
        write_table(path, ("cell", "n"), [{"cell": text, "n": 1}, {"cell": "c", "n": 2}])
        end = 2 + text.count("\n")  # a row's line number is that of its last line
        assert read_table(path, "cell", ("cell", "n")) == [(end, {"cell": text, "n": "1"}), (end + 1, {"cell": "c", "n": "2"})]

    def test_blank_lines_are_skipped_and_lines_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b,a\n\n1,2\n\n3,4\n")
        assert read_table(path, "row", ("a", "b")) == [(3, {"b": "1", "a": "2"}), (5, {"b": "3", "a": "4"})]

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param("a\n1\n", ", line 1: header must name the columns a and b once each, got ['a']", id="missing_column"),
            pytest.param("a,b,a\n1,2,3\n", ", line 1: header must name the columns a and b once each, got ['a', 'b', 'a']", id="repeated_column"),
            pytest.param("", ", line 1: header must name the columns a and b once each, got []", id="empty_file"),
            pytest.param("a,b\n1,2\n\n1\n", ", line 4: expected 2 fields, got 1", id="short_row"),
            pytest.param("a,b\n1,2,3\n", ", line 2: expected 2 fields, got 3", id="long_row"),
            pytest.param("a,b\n\n", ": no cell rows", id="no_row"),
        ],
    )
    def test_bad_table_names_file_and_line(self, tmp_path, text, error):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path) + error)}$"):
            read_table(path, "cell", ("a", "b"))

    def test_extra_columns_are_kept(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,x,b\n1,2,3\n")
        assert read_table(path, "row", ("a", "b")) == [(2, {"a": "1", "x": "2", "b": "3"})]


class TestRanked:
    """core.ranked is np.unique(values, return_inverse=True), whichever way core.dense_span has it rank."""

    @staticmethod
    def _assert_is_unique(values: np.ndarray) -> None:
        want, got = np.unique(values, return_inverse=True), ranked(values)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_np_unique(self, data):
        dtype = data.draw(st.sampled_from([np.int8, np.int64]))
        info = np.iinfo(dtype)
        n = data.draw(st.integers(1, 40))
        # Spans just under and just over four per value, and any other that the dtype holds.
        span = data.draw(st.sampled_from([4 * n - 2, 4 * n - 1, 4 * n, 4 * n + 1]) | st.integers(0, info.max - info.min))
        span = 0 if n == 1 else min(span, info.max - info.min)
        low = data.draw(st.integers(info.min, info.max - span))
        ends = [0] if n == 1 else [0, span]  # the span is reached
        offsets = data.draw(st.lists(st.integers(0, span), min_size=n - len(ends), max_size=n - len(ends))) + ends
        values = np.array([low + o for o in data.draw(st.permutations(offsets))], dtype=dtype)
        assert (dense_span(values) is not None) == (span < 4 * n)
        self._assert_is_unique(values)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([], id="empty"),
            pytest.param([7], id="one_value"),
            pytest.param([-3, -1, -3, -2], id="negative"),
            pytest.param([2**63 - 1, -(2**63)], id="int64_extremes"),
            pytest.param([2**63 - 1, 2**63 - 3, 2**63 - 1], id="dense_at_the_int64_top"),
            pytest.param([-(2**63) + 2, -(2**63), -(2**63)], id="dense_at_the_int64_bottom"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_edge_cases(self, values, dtype):
        info = np.iinfo(dtype)
        if any(not info.min <= v <= info.max for v in values):
            values = [info.max if v > 0 else info.min for v in values]  # the same case at the dtype's own extremes
        self._assert_is_unique(np.array(values, dtype=dtype))

    def test_other_keys_are_ranked_by_np_unique(self):
        assert dense_span(np.array([1.0, 2.0])) is None and dense_span(np.ones((2, 2), dtype=np.int64)) is None
        self._assert_is_unique(np.array([0.5, -1.0, 0.5]))
        self._assert_is_unique(np.array([[3, 1], [1, 2]], dtype=np.int64))


class TestReadText:
    def test_missing_file_directory_and_bytes_not_utf8_are_format_errors(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape(f"config file not found: {tmp_path / 'none.json'}")):
            read_text(tmp_path / "none.json", "config")
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(FormatError, match=re.escape(f"config file is a directory: {tmp_path / 'dir.json'}")):
            read_text(tmp_path / "dir.json", "config")
        (tmp_path / "latin1.json").write_bytes(b"{\"name\": \"caf\xe9\"}")
        with pytest.raises(FormatError, match=re.escape(f"{tmp_path / 'latin1.json'}: not UTF-8 text (invalid continuation byte at byte 13)")):
            read_text(tmp_path / "latin1.json", "config")


# ---------------------------------------------------------------------------
# The row reader and writer against their per-value reference walks
# ---------------------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-3, 3).map(float),  # integral floats
    st.floats(),  # non-integral, infinite and nan too
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _values_of(tp):
    """Values for a field of type ``tp``: mostly of that type, some of a near type (bools, floats, nested lists)."""
    if isinstance(tp, types.UnionType):
        (inner,) = set(typing.get_args(tp)) - {type(None)}
        return st.none() | _values_of(inner)
    if typing.get_origin(tp) is list:
        item = _values_of(typing.get_args(tp)[0])
        return st.lists(item, max_size=6) | st.lists(item | _JSON_VALUES, max_size=4)
    return {
        int: st.integers(0, 2**64) | st.integers(0, 50).map(float) | st.floats(-3, 60) | st.sampled_from([math.inf, math.nan]) | st.booleans(),
        float: st.floats(-2, 2) | st.integers(-2, 2) | st.sampled_from([math.inf, -math.inf, math.nan, 2**1100]) | st.booleans(),
        str: st.text(max_size=6) | st.sampled_from(["http://x", "fixtures", "live", "read"]),
        bool: st.booleans() | st.integers(0, 1),
        list: st.lists(st.sampled_from(["read", ["like", 0], ["repost", 1], ["quote", 2, "c"]]) | _JSON_VALUES, max_size=4),
    }[tp]


def _field_values(cls):
    """Per init field of ``cls``, values for it: mostly of its type or near it, some any JSON value."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _JSON_VALUES if "read" in f.metadata else _values_of(hints[f.name]) | _values_of(hints[f.name]) | _JSON_VALUES
        for f in dataclasses.fields(cls)
        if f.init
    }


def _edited_objects(cls):
    """A valid JSON object for ``cls`` with one of its values replaced."""
    edits = st.one_of([st.fixed_dictionaries({name: values}) for name, values in _field_values(cls).items()])
    return st.builds(lambda base, edit: {**base, **edit}, st.sampled_from(_VALID_OBJECTS[cls.__name__]), edits)


def _objects_of(cls):
    """JSON objects for ``cls``: any subset of its keys with values as _field_values draws them, sometimes
    with unknown keys; or a valid object with up to two keys dropped and up to two values replaced."""
    known = _field_values(cls)
    unknown = st.dictionaries(st.text(max_size=4).filter(lambda key: key not in known), _JSON_VALUES, max_size=2)
    drawn = st.builds(lambda obj, extra: {**obj, **extra}, st.fixed_dictionaries({}, optional=known), unknown)
    edited = st.builds(
        lambda base, drop, edits: {k: v for k, v in base.items() if k not in drop} | edits,
        st.sampled_from(_VALID_OBJECTS[cls.__name__]),
        st.sets(st.sampled_from(sorted(known)), max_size=2),
        st.fixed_dictionaries({}, optional=known).filter(lambda edits: len(edits) <= 2),
    )
    return drawn | edited


def _outcome(read, cls, obj):
    """What reading ``obj`` gives: the object's type and repr (which tell 1 from 1.0 and True), or the error's."""
    try:
        value = read(cls, obj, "test key")
    except Exception as e:  # noqa: BLE001 - every error must match, type and text
        return type(e), str(e)
    return type(value), repr(value)


_ROW_CLASSES = [PopulationRow, CorpusRow, FixtureRow, ExperimentPlan, SimulateInputs, ScriptedSpec, ParametricLogitSpec, LlmSpec]


class TestRowsMatchReference:
    @pytest.mark.parametrize("cls", _ROW_CLASSES, ids=lambda cls: cls.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_from_obj_gives_the_reference_object_or_error(self, cls, data):
        obj = data.draw(_objects_of(cls), label="obj")
        assert _outcome(from_obj, cls, obj) == _outcome(reference_from_obj, cls, obj)

    @pytest.mark.parametrize("cls", _ROW_CLASSES, ids=lambda cls: cls.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_from_obj_reads_each_value_as_the_reference_does(self, cls, data):
        # Every other value valid, so the one drawn decides the outcome: bools, integral and other floats, null, lists.
        obj = data.draw(_edited_objects(cls), label="obj")
        assert _outcome(from_obj, cls, obj) == _outcome(reference_from_obj, cls, obj)

    @pytest.mark.parametrize("cls", _ROW_CLASSES, ids=lambda cls: cls.__name__)
    def test_from_obj_reads_the_reference_object_from_valid_rows(self, cls):
        # Valid rows are rare among drawn ones, so each class gets some it accepts.
        for obj in _VALID_OBJECTS[cls.__name__]:
            outcome = _outcome(from_obj, cls, obj)
            assert outcome[0] is cls and outcome == _outcome(reference_from_obj, cls, obj)

    @settings(max_examples=100, deadline=None)
    @given(plan=st.builds(
        lambda seed, n, steps, p, policy, reps: _plan(base_seed=seed, n_agents=n, timesteps=steps, activation_p=p, policy=policy, replications=reps),
        st.integers(0, 2**70), st.integers(1, 5000), st.integers(1, 500), st.floats(0.001, 0.999),
        st.sampled_from(["mock", "scripted", "llm"]), st.integers(1, 3),
    ))
    def test_to_obj_gives_the_reference_value_of_plans(self, plan):
        obj = to_obj(plan)
        assert obj == reference_to_obj(plan) and json.dumps(obj) == json.dumps(reference_to_obj(plan))
        assert _outcome(from_obj, type(plan), obj) == _outcome(reference_from_obj, type(plan), obj) == (type(plan), repr(plan))

    @settings(max_examples=100, deadline=None)
    @given(
        agent=st.integers(0, 2**63 - 1),
        name=st.text(max_size=8),
        keywords=st.lists(st.text(max_size=5), min_size=1, max_size=6),
        verified=st.booleans(),
        follows=st.lists(st.integers(0, 2**63 - 1), max_size=8),
        content=st.text(min_size=1, max_size=20),
    )
    def test_to_obj_gives_the_reference_value_of_rows(self, agent, name, keywords, verified, follows, content):
        follows = [f for f in follows if f != agent]
        for row in (PopulationRow(agent, name, keywords, verified, follows), CorpusRow(content), FixtureRow(name, content)):
            obj = to_obj(row)
            assert json.dumps(obj) == json.dumps(reference_to_obj(row))
            assert _outcome(from_obj, type(row), obj) == _outcome(reference_from_obj, type(row), obj) == (type(row), repr(row))

    def test_from_obj_copies_the_lists_it_reads(self):
        obj = {"id": 1, "name": "a", "keywords": ["x"], "verified": False, "follows": [2, 3]}
        row = from_obj(PopulationRow, obj, "test key")
        obj["keywords"].append("y")
        obj["follows"].append(4)
        assert row.keywords == ["x"] and row.follows == [2, 3]

    def test_to_obj_copies_a_list_it_returns_whole(self):
        row = PopulationRow(1, "a", ["x"], False, [2, 3])
        obj = to_obj(row)
        obj["follows"].append(4)
        assert row.follows == [2, 3]


def _plan(policy: str, **kw):
    spec = {"mock": mock_policy_spec(), "scripted": ScriptedSpec(intents=["read", ("like", 0), ["quote", 1, "c"]]), "llm": LlmSpec(endpoint="http://x")}[policy]
    return ExperimentPlan(policy=spec, **kw)


_VALID_OBJECTS = {
    "PopulationRow": [
        {"id": 0, "name": "a", "keywords": ["gpu"], "verified": False, "follows": []},
        {"id": 3.0, "name": "", "keywords": ["gpu", "x"], "verified": True, "follows": [1, 2.0, 2**62]},
        {"id": 2**63 - 1, "name": "é", "keywords": ["a"], "verified": False, "follows": [0, 1, 5]},
    ],
    "CorpusRow": [{"content": "a post"}, {"content": " "}],
    "FixtureRow": [{"request_hash": "h", "response_text": ""}],
    "ExperimentPlan": [
        {"base_seed": 1},
        {"base_seed": 2.0, "n_agents": 40, "timesteps": 30.0, "activation_p": 0.5, "recency_decay": 0, "w_recency": 1, "w_relevance": 0.0, "replications": 2},
        {"base_seed": 3, "policy": {"kind": "scripted", "intents": ["read", ["like", 0]]}, "history_window": 2},
        {"base_seed": 4, "policy": {"kind": "llm", "endpoint": "http://x"}},
    ],
    "SimulateInputs": [{}, {"population": None, "corpus": "c.jsonl", "population_seed": 4.0, "corpus_seed": 0}],
    "ScriptedSpec": [{"intents": ["read"]}, {"intents": [["quote", 2, "c"], ["repost", 0]]}],
    "ParametricLogitSpec": [{"threshold": [0] * 24, "allocation": [[1.5] * 24, [-1] * 24]}],
    "LlmSpec": [{"endpoint": "http://x"}, {"endpoint": "https://x:8000/v1", "temperature": 0, "timeout": 1, "max_retries": 0.0, "fixture_path": None}],
}
