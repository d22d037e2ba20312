import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialsim.core import (
    ActionKind,
    ConfigurationError,
    FormatError,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
    popularity_composite,
    read_table,
    read_text,
    write_table,
)
from socialsim.engine import WorldState

from conftest import tiny_graph, tiny_profiles


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
        for window in (0, -3):
            with pytest.raises(ConfigurationError):
                self._cfg(history_window=window)

    def test_positive_timesteps(self):
        with pytest.raises(ConfigurationError):
            self._cfg(timesteps=0)

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
