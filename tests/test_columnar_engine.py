"""The columnar engine (Feed, table-based parametric decide, LogBuilder) against the
record-based reference in reference_engine.py."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import reference_parametric_decide, reference_run
from reference_feed import FeedSlot
from reference_log import records_of, reference_log_to_lines
from socialsim.core import Feed, LoadLevel, NormRegime, RunConfig, popularity_composite
from socialsim.engine import LogBuilder, run
from socialsim.harness import ExperimentPlan, run_experiment, write_log
from socialsim.policy import (
    Decision,
    DecisionContext,
    ParametricLogitPolicy,
    ParametricLogitSpec,
    ScriptedPolicy,
    build_policy,
    mock_policy_spec,
)
from socialsim.population import AgentProfile, FollowGraph
from socialsim.stats import N_COLUMNS

from conftest import make_feed, tiny_graph, tiny_profiles

_WORDS = ["alpha", "Beta", "gamma", "delta", "eps", "zeta"]
_COEF = st.floats(-2.0, 2.0, allow_nan=False)


def _written(log) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.jsonl"
        write_log(log, path)
        return path.read_text(encoding="utf-8")


@st.composite
def _runs(draw):
    """A small world, a run config and a factory of fresh, identical policies."""
    n = draw(st.integers(2, 7))
    profiles = [
        AgentProfile(a, f"u{a}", frozenset(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))), False, a == 0 or draw(st.booleans()))
        for a in range(n)
    ]
    graph = FollowGraph({a: draw(st.sets(st.integers(0, n - 1))) - {a} for a in range(n)})
    corpus = [" ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5))) for _ in range(draw(st.integers(1, 8)))]
    w_recency = draw(st.floats(0.0, 1.0))
    config = RunConfig(
        seed=draw(st.integers(0, 2**40)),
        load=draw(st.sampled_from(list(LoadLevel))),
        norm=draw(st.sampled_from(list(NormRegime))),
        n_agents=n,
        timesteps=draw(st.integers(1, 12)),
        activation_p=draw(st.floats(0.05, 0.95)),
        recency_decay=draw(st.floats(0.0, 0.3)),
        w_recency=w_recency,
        w_relevance=1.0 - w_recency,
        history_window=draw(st.integers(1, 16)),
    )
    if draw(st.booleans()):
        threshold = draw(st.lists(_COEF, min_size=N_COLUMNS, max_size=N_COLUMNS))
        threshold[0] = draw(st.floats(-4.0, 4.0))  # intercept: from rare engagement to nearly every post passing
        allocation = [draw(st.lists(_COEF, min_size=N_COLUMNS, max_size=N_COLUMNS)) for _ in range(2)]
        spec = ParametricLogitSpec(threshold=threshold, allocation=allocation)
        factory = lambda: build_policy(spec, config.load, config.norm)  # noqa: E731
    else:
        index = st.integers(0, 12)
        intent = st.one_of(
            st.just("read"),
            st.tuples(st.sampled_from(["like", "repost", "quote"]), index),
            st.tuples(st.just("quote"), index, st.sampled_from(["hm", "a second look"])),
        )
        intents = draw(st.lists(intent, min_size=1, max_size=6))
        factory = lambda: ScriptedPolicy(intents)  # noqa: E731
    return profiles, graph, corpus, config, factory


class TestRunMatchesReference:
    @staticmethod
    def _matches(profiles, graph, corpus, config, factory):
        log = run(config, factory(), profiles, graph, corpus)
        expected = reference_run(config, factory(), profiles, graph, corpus)
        assert records_of(log) == expected
        assert _written(log) == "".join(line + "\n" for line in reference_log_to_lines(expected))
        return log

    @settings(max_examples=150, deadline=None)
    @given(case=_runs())
    def test_records_and_bytes(self, case):
        self._matches(*case)

    def _tiny(self, activation_p, intents):
        config = RunConfig(
            seed=3, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, n_agents=5, timesteps=1, activation_p=activation_p
        )
        return tiny_profiles(), tiny_graph(), [f"post {i} body" for i in range(6)], config, lambda: ScriptedPolicy(intents)

    def test_no_activation_logs_seed_rows_only(self):
        log = self._matches(*self._tiny(1e-12, [("like", 0)]))
        assert len(log.exposures) == 0 and len(log.creations) == len(log) == 6

    def test_repost_by_the_last_activation_logs_a_creation_row_last(self):
        # Every agent activates once; the fifth and last one reposts.
        log = self._matches(*self._tiny(0.999999, ["read"] * 4 + [("repost", 0)]))
        agents = log.exposures.agent.tolist()
        assert agents == sorted(agents) and set(agents) == set(range(5))
        assert not log.is_exposure[-1] and log.is_exposure[-2]
        first_of_last_block = agents.index(4)
        assert len(log.creations) == 7 and log.creations.source[-1] == log.exposures.post[first_of_last_block]

    def test_agent_ids_of_two_seed_words(self):
        # An agent id of 2**32 or more adds a word to its decision keys (seed, 2, t, agent).
        ids = [5, 2**32 - 1, 2**32, 2**40]
        profiles = [AgentProfile(a, f"u{i}", frozenset(_WORDS[i : i + 2]), False, i == 0) for i, a in enumerate(ids)]
        graph = FollowGraph({ids[0]: {ids[1]}, ids[1]: {ids[0], ids[3]}, ids[2]: {ids[0]}, ids[3]: {ids[2]}})
        corpus = [" ".join(_WORDS[i : i + 3]) for i in range(4)]
        config = RunConfig(
            seed=2**32 + 3, load=LoadLevel.LOW, norm=NormRegime.NO_NORM, n_agents=4, timesteps=10, activation_p=0.5
        )
        spec = ParametricLogitSpec(threshold=[1.0] + [0.0] * (N_COLUMNS - 1), allocation=[[0.0] * N_COLUMNS] * 2)
        log = self._matches(profiles, graph, corpus, config, lambda: build_policy(spec, config.load, config.norm))
        engaged = log.exposures.agent[log.exposures.action != 0].tolist()
        assert set(ids[1:]) <= set(engaged)


@st.composite
def _feeds(draw):
    """Slots with distinct post ids and likes + reshares from 0 to 10**6."""
    totals = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40), st.integers(0, 10**6)), min_size=1, max_size=40))
    posts = draw(st.lists(st.integers(0, 10**6), min_size=len(totals), max_size=len(totals), unique=True))
    slots = []
    for post, total in zip(posts, totals):
        likes = draw(st.integers(0, total))
        slots.append(FeedSlot(post=post, likes=likes, reshares=total - likes, followed=False, content=""))
    return slots


class _CoarseDraws:
    """A generator whose draws are rounded down to multiples of 1/8, so that equal
    draws, and draws equal to a probability of 0, 0.5 or 1, are common."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 8) / 8


class TestParametricDecideMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        feeds=st.lists(_feeds(), min_size=1, max_size=4),
        intercept=st.one_of(st.floats(-6.0, 6.0), st.just(0.0), st.just(60.0), st.just(-1000.0)),
        slope=st.one_of(st.floats(-1.0, 1.0), st.just(0.0)),
        load=st.sampled_from(list(LoadLevel)),
        norm=st.sampled_from(list(NormRegime)),
        seed=st.integers(0, 2**32),
        coarse=st.booleans(),
    )
    def test_same_decision_and_draws(self, feeds, intercept, slope, load, norm, seed, coarse):
        threshold = [0.0] * N_COLUMNS
        threshold[0], threshold[1] = intercept, slope
        allocation = [[0.3] + [0.0] * (N_COLUMNS - 1), [-0.2, 0.1] + [0.0] * (N_COLUMNS - 2)]
        policy = ParametricLogitPolicy(threshold, allocation, load, norm)  # one table across the feeds
        make_rng = _CoarseDraws if coarse else np.random.default_rng
        rng, ref_rng = make_rng(seed), make_rng(seed)
        for slots in feeds:
            feed = make_feed([s.post for s in slots], [s.likes for s in slots], [s.reshares for s in slots])
            context = DecisionContext(feed=feed, profile=tiny_profiles()[0], history=(), regime=norm)
            # The table holds exactly the scalar per-slot probabilities.
            assert policy.engage_probabilities(feed.likes + feed.reshares).tolist() == [
                policy.engage_probability(popularity_composite(s.likes, s.reshares)) for s in slots
            ]
            decision = policy.decide(context, rng)
            assert decision == reference_parametric_decide(policy, slots, ref_rng)
            assert rng.random() == ref_rng.random()  # the same number of draws
            if intercept == 60.0:  # every draw passes: the highest draw's post is engaged
                assert decision.action.is_engagement
            if intercept == -1000.0:  # no draw passes
                assert decision == Decision.read_all()


def test_totals_past_the_table_are_computed_per_post():
    policy = build_policy(mock_policy_spec(), LoadLevel.LOW, NormRegime.NO_NORM)
    totals = np.array([0, 7, 2**22, 2**40, 3], dtype=np.int64)
    expected = [policy.engage_probability(popularity_composite(int(v), 0)) for v in totals]
    assert policy.engage_probabilities(totals).tolist() == expected
    assert policy.engage_probabilities(totals[[1, 4, 0]]).tolist() == [expected[1], expected[4], expected[0]]


def test_mock_run_reads_no_post_text(monkeypatch, small_population, small_corpus, tmp_path):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a feed's post text read on the mock-policy path")

    monkeypatch.setattr(Feed, "contents", forbidden)
    with pytest.raises(AssertionError):
        make_feed([0], [0], [0]).contents()

    profiles, graph = small_population
    cfg = RunConfig(seed=4, load=LoadLevel.HIGH, norm=NormRegime.REPOST_DOMINANT, n_agents=40, timesteps=60, activation_p=0.3)
    log = run(cfg, build_policy(mock_policy_spec(), cfg.load, cfg.norm), profiles, graph, small_corpus)
    write_log(log, tmp_path / "cell.jsonl")
    assert len(log.exposures) > 0 and np.count_nonzero(log.exposures.action) > 0
    plan = ExperimentPlan(base_seed=5, n_agents=40, timesteps=40, activation_p=0.2)
    manifest = run_experiment(plan, profiles, graph, small_corpus, tmp_path / "exp", cells=[(LoadLevel.HIGH, NormRegime.NO_NORM)])
    assert [c["status"] for c in manifest["cells"]] == ["ok"]


class TestRunCounts:
    """Hand-counted scenarios on five agents with 12 seed posts, where every agent
    activates at every step and only reads, so each step shows the same feeds
    under the lowest load (3 followed + 4 algorithmic slots)."""

    def _run(self, influencers, follows, timesteps):
        profiles = [AgentProfile(p.id, p.name, p.keywords, p.verified, p.id in influencers) for p in tiny_profiles()]
        cfg = RunConfig(
            seed=8, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, n_agents=5, timesteps=timesteps, activation_p=0.999999
        )
        builder = LogBuilder(cfg)
        log = run(cfg, ScriptedPolicy(["read"]), profiles, FollowGraph(follows), [f"post {i}" for i in range(12)], builder)
        return builder.counts(), log

    def test_empty_feeds(self):
        # Agent 0 authors every post, so its feed is empty. Agents 1 and 2 follow it
        # and see 3 followed posts. Agent 3 follows nobody and agent 4 follows only
        # agent 1, who authors nothing: 7 algorithmic posts each, 3 of them backfilled.
        counts, log = self._run({0}, {0: {1}, 1: {0}, 2: {0}, 3: set(), 4: {1}}, timesteps=4)
        assert counts == {"activations": 20, "empty_feeds": 4, "backfilled_slots": 24}
        assert len(log.creations) == 12 and len(log.exposures) == 4 * (3 + 3 + 7 + 7)
        assert 0 not in log.exposures.agent

    def test_partial_backfill(self):
        # Agents 0 and 1 author 6 posts each. Agent 0 sees 3 followed posts and nothing
        # else; agent 1 follows nobody and sees 0's 6 posts, 2 of them backfilled;
        # agent 2 gets a full feed (3 + 4); agent 3 follows nobody: 7 posts, 3
        # backfilled; agent 4 follows both authors: 3 followed posts.
        counts, log = self._run({0, 1}, {0: {1}, 1: set(), 2: {0}, 3: set(), 4: {0, 1}}, timesteps=3)
        assert counts == {"activations": 15, "empty_feeds": 0, "backfilled_slots": 3 * (2 + 3)}
        assert len(log.exposures) == 3 * (3 + 6 + 7 + 7 + 3)
