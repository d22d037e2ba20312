import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from socialsim.core import POST_KINDS, ActionKind, ConfigurationError, LoadLevel, NormRegime, PostKind, RunConfig
from socialsim.engine import LogBuilder, initialize, run, step, substream
from socialsim.harness import log_digest
from socialsim.policy import ScriptedPolicy
from socialsim.population import generate_population, generate_seed_corpus

from conftest import tiny_graph, tiny_profiles
from reference_feed import world_posts
from reference_log import ExposureRecord, PostCreation, records_of, recount_counters, world_counters


def _config(**kw):
    base = dict(seed=5, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, n_agents=5, timesteps=10, activation_p=0.5)
    base.update(kw)
    return RunConfig(**base)


def _corpus(n=4):
    return [f"body {i} words" for i in range(n)]


def _exposures(records):
    return [r for r in records if isinstance(r, ExposureRecord)]


def _creations(records):
    return [r for r in records if isinstance(r, PostCreation)]


class TestInitialize:
    def test_round_robin_authorship_over_influencers(self, small_population):
        profiles, graph = small_population
        corpus = generate_seed_corpus(seed=1)  # 50 posts
        cfg = _config(n_agents=40)
        world = initialize(profiles, graph, corpus, cfg)
        assert len(world.posts) == 50
        influencers = sorted(p.id for p in profiles if p.influencer)
        authored = Counter(p.author for p in world_posts(world))
        assert set(authored) == set(influencers)
        # 50 = 8*6 + 2: the first two influencers author 7, the rest 6
        assert sorted(authored.values()) == [6] * 6 + [7] * 2
        assert authored[influencers[0]] == 7 and authored[influencers[1]] == 7

    def test_all_counters_zero(self):
        world = initialize(tiny_profiles(), tiny_graph(), _corpus(), _config())
        assert len(world.likes) == len(world.reposts) == len(world.quotes) == len(world.posts) == 4
        assert not (world.likes.any() or world.reposts.any() or world.quotes.any())
        assert all(p.created_at == 0 for p in world_posts(world))

    def test_deterministic_state_digest(self):
        w1 = initialize(tiny_profiles(), tiny_graph(), _corpus(), _config())
        w2 = initialize(tiny_profiles(), tiny_graph(), _corpus(), _config())
        assert world_posts(w1) == world_posts(w2)
        for counter in ("likes", "reposts", "quotes"):
            assert np.array_equal(getattr(w1, counter), getattr(w2, counter))

    def test_requires_influencers(self):
        profiles = [p.__class__(p.id, p.name, p.keywords, p.verified, False) for p in tiny_profiles()]
        with pytest.raises(ConfigurationError, match="influencer"):
            initialize(profiles, tiny_graph(), _corpus(), _config())

    def test_requires_corpus(self):
        with pytest.raises(ConfigurationError, match="corpus"):
            initialize(tiny_profiles(), tiny_graph(), [], _config())

    def test_seed_creation_records_logged(self):
        log = LogBuilder(_config())
        world = initialize(tiny_profiles(), tiny_graph(), _corpus(3), _config())
        creations = _creations(records_of(log.finish(world)))
        assert [c.post for c in creations] == [0, 1, 2]
        assert all(c.kind is PostKind.SEED and c.t == 0 and c.source is None for c in creations)


    def test_creations_name_authors_by_agent_id(self):
        # Profiles in descending id order: row r holds agent 4 - r.
        world = initialize(tiny_profiles()[::-1], tiny_graph(), _corpus(3), _config())
        world.new_post(3, world.posts[1], PostKind.REPOST, 1, 2)
        c = world.creations()
        assert c.post.tolist() == [0, 1, 2, 3]
        assert c.author.tolist() == [0, 1, 0, 3]
        assert [POST_KINDS[k] for k in c.kind.tolist()] == [PostKind.SEED] * 3 + [PostKind.REPOST]
        assert c.source.tolist() == [-1, -1, -1, 1]
        assert c.t.tolist() == [0, 0, 0, 2]


class TestStepEffects:
    def _world_and_log(self, policy_intents, p=0.999999, timesteps=1):
        cfg = _config(activation_p=p, timesteps=timesteps)
        log = LogBuilder(cfg)
        world = initialize(tiny_profiles(), tiny_graph(), _corpus(), cfg)
        policy = ScriptedPolicy(policy_intents)
        for t in range(timesteps):
            step(world, t, cfg, policy, log)
        return world, records_of(log.finish(world))

    def test_like_increments_exactly_one_counter(self):
        world, _ = self._world_and_log([("like", 0), "read", "read", "read", "read"])
        likes = [(pid, n) for pid, n in enumerate(world.likes.tolist()) if n]
        assert len(likes) == 1 and likes[0][1] == 1
        assert world.reposts.sum() + world.quotes.sum() == 0

    def test_quote_creates_post_with_source(self):
        world, log = self._world_and_log(["read", ("quote", 0, "my two cents"), "read", "read", "read"])
        posts = world_posts(world)
        quotes = [p for p in posts if p.kind is PostKind.QUOTE]
        assert len(quotes) == 1
        q = quotes[0]
        assert q.source is not None
        source = posts[q.source]
        assert world.quotes[source.id] == 1
        assert "my two cents" in q.content and source.content in q.content
        assert q.created_at == 0
        creation = [c for c in _creations(log) if c.kind is PostKind.QUOTE]
        assert len(creation) == 1 and creation[0].source == q.source

    def test_repost_copies_content(self):
        world, _ = self._world_and_log(["read", "read", ("repost", 0), "read", "read"])
        posts = world_posts(world)
        reposts = [p for p in posts if p.kind is PostKind.REPOST]
        assert len(reposts) == 1
        r = reposts[0]
        assert r.content == posts[r.source].content
        assert world.reposts[r.source] == 1

    def test_new_posts_visible_later_in_same_timestep(self):
        # every agent activates; agent 0 reposts, higher-id agents can then see it
        world, log = self._world_and_log([("repost", 0), "read", "read", "read", "read"])
        new_post = next(p for p in world_posts(world) if p.kind is PostKind.REPOST)
        seen_by = {r.agent for r in _exposures(log) if r.post == new_post.id}
        assert seen_by  # at least one later agent was shown the brand-new repost
        assert all(a > new_post.author for a in seen_by)

    def test_engagement_recorded_in_history(self):
        world, _ = self._world_and_log([("like", 0), "read", "read", "read", "read"])
        histories = {a: list(h) for a, h in world.history.items() if h}
        assert len(histories) == 1
        (agent, entries), = histories.items()
        assert entries[0][0] is ActionKind.LIKE


@pytest.fixture(scope="module")
def medium_run(small_population):
    profiles, graph = small_population
    corpus = generate_seed_corpus(seed=2, size=20)
    cfg = _config(n_agents=40, timesteps=150, activation_p=0.05, seed=17, load=LoadLevel.LOW)
    policy = ScriptedPolicy([("like", 0), "read", ("quote", 1, "hm"), ("repost", 0), "read"])
    log = LogBuilder(cfg)
    world = initialize(profiles, graph, corpus, cfg)
    for t in range(cfg.timesteps):
        step(world, t, cfg, policy, log)
    return world, records_of(log.finish(world)), cfg


class TestRunProperties:

    def test_determinism_across_runs(self, small_population):
        profiles, graph = small_population
        corpus = generate_seed_corpus(seed=2, size=20)
        cfg = _config(n_agents=40, timesteps=60, activation_p=0.05, seed=17)
        policy_factory = lambda: ScriptedPolicy([("like", 0), "read"])
        d1 = log_digest(run(cfg, policy_factory(), profiles, graph, corpus))
        d2 = log_digest(run(cfg, policy_factory(), profiles, graph, corpus))
        assert d1 == d2

    def test_counters_match_brute_force_recount(self, medium_run):
        world, log, _ = medium_run
        recounted = recount_counters(log)
        assert len(recounted) == len(world.posts)
        assert recounted == world_counters(world)

    def test_snapshot_causality(self, medium_run):
        # replaying the log in order reproduces each exposure's snapshot
        _, log, _ = medium_run
        likes = defaultdict(int)
        reshares = defaultdict(int)
        group = []
        current = None

        def flush():
            for r in group:
                if r.action is ActionKind.LIKE:
                    likes[r.post] += 1
                elif r.action in (ActionKind.REPOST, ActionKind.QUOTE):
                    reshares[r.post] += 1

        for r in log:
            if isinstance(r, PostCreation):
                continue
            key = (r.t, r.agent)
            if key != current:
                flush()
                group = []
                current = key
            assert r.likes == likes[r.post], f"snapshot mismatch at {key}"
            assert r.reshares == reshares[r.post]
            group.append(r)
        flush()

    def test_one_engagement_per_activation(self, medium_run):
        _, log, _ = medium_run
        per_activation = defaultdict(int)
        for r in _exposures(log):
            if r.action.is_engagement:
                per_activation[(r.t, r.agent)] += 1
        assert all(v == 1 for v in per_activation.values())

    def test_no_agent_twice_per_timestep(self, medium_run):
        _, log, _ = medium_run
        positions = defaultdict(set)
        for r in _exposures(log):
            positions[(r.t, r.agent)].add(r.post)
        # within one activation, each post appears once (no duplicated agent block)
        for (t, agent), posts in positions.items():
            rows = [r for r in _exposures(log) if r.t == t and r.agent == agent]
            assert len(rows) == len(posts)

    def test_post_count_identity(self, medium_run):
        world, log, _ = medium_run
        n_reposts = sum(1 for r in _exposures(log) if r.action is ActionKind.REPOST)
        n_quotes = sum(1 for r in _exposures(log) if r.action is ActionKind.QUOTE)
        assert len(world.posts) == 20 + n_reposts + n_quotes

    def test_rows_bounded_by_condition_total(self, medium_run):
        _, log, cfg = medium_run
        per_activation = Counter((r.t, r.agent) for r in _exposures(log))
        assert max(per_activation.values()) <= cfg.load.total

    def test_feeds_never_contain_own_or_engaged_posts(self, medium_run):
        world, log, _ = medium_run
        authors = {p.id: p.author for p in world_posts(world)}
        engaged_before = defaultdict(set)
        for r in _exposures(log):
            assert authors[r.post] != r.agent
            assert r.post not in engaged_before[r.agent]
            if r.action.is_engagement:
                engaged_before[r.agent].add(r.post)

    def test_activation_count_within_binomial_band(self, small_population):
        profiles, graph = small_population
        corpus = generate_seed_corpus(seed=2, size=20)
        cfg = _config(n_agents=40, timesteps=200, activation_p=0.05, seed=23)
        log = run(cfg, ScriptedPolicy(["read"]), profiles, graph, corpus)
        activations = len({(r.t, r.agent) for r in _exposures(records_of(log))})
        n_draws = 40 * 200
        mean = n_draws * 0.05
        sigma = math.sqrt(n_draws * 0.05 * 0.95)
        assert abs(activations - mean) <= 4 * sigma

    def test_run_validates_population_size(self, small_population):
        profiles, graph = small_population
        cfg = _config(n_agents=99)
        with pytest.raises(ConfigurationError):
            run(cfg, ScriptedPolicy(["read"]), profiles, graph, _corpus())


class TestSubstream:
    def test_substreams_are_independent_of_call_order(self):
        a1 = substream(9, 2, 3, 1).random(4)
        b1 = substream(9, 2, 7, 2).random(4)
        b2 = substream(9, 2, 7, 2).random(4)
        a2 = substream(9, 2, 3, 1).random(4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(a1, b1)
