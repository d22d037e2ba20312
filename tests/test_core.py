import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialsim.core import (
    ActionKind,
    ConfigurationError,
    LoadLevel,
    NormRegime,
    PostKind,
    RunConfig,
    popularity_composite,
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
