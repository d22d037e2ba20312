import hashlib
import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialsim import engine, harness
from socialsim.core import ACTIONS, POST_KINDS, ActionKind, CellLog, ConfigurationError, Feed, LoadLevel, NormRegime, PostKind, RunConfig
from socialsim.engine import (
    LogBuilder, WorldState, _generator, _seed_words, content_tokens, initialize, run, schedule, select_feed, step,
)
from socialsim.harness import ExperimentPlan, log_digest, read_log, run_experiment
from socialsim.policy import ScriptedPolicy, ScriptedSpec
from socialsim.population import AgentProfile, FollowGraph, generate_population, generate_seed_corpus

from conftest import tiny_graph, tiny_profiles
from reference_engine import reference_follows, substream
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
        assert len(world.likes) == len(world.reshares) == len(world.posts) == 4
        assert not (world.likes.any() or world.reshares.any())
        assert all(p.created_at == 0 for p in world_posts(world))

    def test_deterministic_state_digest(self):
        w1 = initialize(tiny_profiles(), tiny_graph(), _corpus(), _config())
        w2 = initialize(tiny_profiles(), tiny_graph(), _corpus(), _config())
        assert world_posts(w1) == world_posts(w2)
        for counter in ("likes", "reshares"):
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


def _arrays(value):
    """The numpy arrays held by ``value`` directly or inside a list, tuple, set or dict, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _arrays(item)


def test_world_memory_does_not_grow_with_agents_times_posts():
    # Regression: the world kept an agents x posts float64 relevance matrix (1,000 x 8,192 here).
    profiles, graph = generate_population(1000, seed=2)
    corpus = generate_seed_corpus(seed=2)
    world = initialize(profiles, graph, corpus, _config(n_agents=1000))
    agents = [p.id for p in profiles]
    while len(world.posts) < 5000:
        post = len(world.posts)
        world.new_post(agents[post % 1000], f"{world.posts[post // 7]} {post}", PostKind.QUOTE, post // 7, 1 + post // 500)
    world.now = 20
    assert world.scores(0).shape == (5000,)
    sizes = [a.size for a in _arrays(vars(world))]
    assert sizes and max(sizes) < 1000 * 5000, sorted(sizes)[-3:]


def test_world_memory_does_not_grow_with_agents_squared():
    # Regression: the world kept an agents x agents bool follow matrix (9 million entries here), and a set
    # and a deque for every agent before any engagement.
    profiles, graph = generate_population(3000, seed=3)
    world = initialize(profiles, graph, generate_seed_corpus(seed=3, size=10), _config(n_agents=3000))
    sizes = [a.size for a in _arrays(vars(world))]
    assert sizes and sum(sizes) < 3000 * 3000 // 20, sorted(sizes)[-3:]
    assert sum(f.size for f in world.followees) == sum(len(graph.follows_of(p.id)) for p in profiles)
    assert not world.engaged and not world.history
    world.now = 1
    assert len(select_feed(profiles[0].id, world, LoadLevel.HIGH, _config(n_agents=3000))) == 10
    assert not world.engaged and not world.history  # reading an agent's state creates none


def test_streamed_run_holds_one_piece_of_its_log(small_population, tmp_path):
    # Regression: a cell's LogBuilder held every activation's block until the run ended, and finish joined them
    # into whole columns before write_log and save_columns ran, so simulate's heap grew with the log's rows. A
    # read-only policy leaves the world as it starts, so what a run holds beyond it is the log's.
    profiles, graph = small_population
    corpus = generate_seed_corpus(seed=11, size=40)
    plan = ExperimentPlan(base_seed=3, n_agents=40, timesteps=250, activation_p=0.9, policy=ScriptedSpec(intents=["read"]))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (cell,) = run_experiment(plan, profiles, graph, corpus, tmp_path, cells=[(LoadLevel.HIGH, NormRegime.NO_NORM)])["cells"]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert cell["status"] == "ok" and cell["rows"] > 250_000
    # The run's columns take 51 bytes a row (14.6 MB here); the heap held stays under one fixed bound, about a
    # megabyte past what a run of a fifth of the rows holds.
    assert peak < 4 * 2**20, peak


def test_engagement_of_a_row_handed_off_is_refused(monkeypatch):
    # A row of an earlier piece is already written; marking it would wrap to another row of the held blocks.
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 8)
    config = _config()
    world = initialize(tiny_profiles(), tiny_graph(), _corpus(), config)
    posts = np.arange(3)
    feed = Feed(posts, world._likes[posts], world._reshares[posts], 0, world.posts)
    pieces = []
    log = LogBuilder(config, pieces.append)
    assert log.activation(world, 2, feed) == 0 and not pieces  # 4 creation rows and 3 exposures: 7 rows held
    assert log.activation(world, 3, feed) == 3 and len(pieces) == 1  # 3 more would make 10
    with pytest.raises(ValueError, match="exposure row 1 is not in a block the builder holds"):
        log.engagement(1, ActionKind.LIKE)
    log.engagement(4, ActionKind.LIKE)
    assert log.finish(world) is None
    assert [piece.exposures.action.tolist() for piece in pieces] == [[0, 0, 0], [0, ACTIONS.index(ActionKind.LIKE), 0]]


@pytest.mark.parametrize("rows", [1, 7, 64, harness._CHUNK_ROWS])
def test_pieces_in_turn_are_the_run_log(small_population, monkeypatch, rows):
    profiles, graph = small_population
    corpus = generate_seed_corpus(seed=2, size=20)
    cfg = _config(n_agents=40, timesteps=60, activation_p=0.2, seed=17, load=LoadLevel.HIGH)
    policy = lambda: ScriptedPolicy([("like", 0), "read", ("quote", 1, "hm"), ("repost", 0), "read"])
    whole = run(cfg, policy(), profiles, graph, corpus)
    monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
    pieces = []
    assert run(cfg, policy(), profiles, graph, corpus, LogBuilder(cfg, pieces.append)) is None
    # A feed is at most 33 slots, and a piece ends before the block that would take it past _CHUNK_ROWS; only the
    # last can hold one post more, made by its last block's repost or quote.
    assert all(len(piece) <= max(rows, 33) + 1 for piece in pieces)
    joined = CellLog.concat(pieces)
    for part in ("exposures", "creations"):
        for name, column in vars(getattr(whole, part)).items():
            assert np.array_equal(getattr(getattr(joined, part), name), column), (part, name)
    assert np.array_equal(joined.is_exposure, whole.is_exposure)
    assert log_digest(joined) == log_digest(whole)


class TestFolloweeRows:
    """WorldState.followees, each row's followee rows sorted, equals the follow matrix filled one agent at a time."""

    @staticmethod
    def _world(ids, follows):
        profiles = [AgentProfile(i, f"u{i}", frozenset({"kw"}), False, False) for i in ids]
        graph = FollowGraph(follows)
        return WorldState(profiles, graph, _config(n_agents=len(ids))), graph

    @staticmethod
    def _matrix(world):
        """The agents x agents bool matrix of the followee rows."""
        n = len(world.rows)
        matrix = np.zeros((n, n), dtype=bool)
        for r, followees in enumerate(world.followees):
            assert followees.dtype == np.intp and np.all(followees[1:] > followees[:-1]), followees
            matrix[r, followees] = True
        return matrix

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_agent_fill(self, data):
        # Profiles in any order; followers and followees outside the run; agents following no one.
        ids = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=20, unique=True), label="ids")
        everyone = sorted(set(ids) | set(data.draw(st.lists(st.integers(41, 50), max_size=4), label="outside")))
        follows = data.draw(st.dictionaries(st.sampled_from(everyone), st.frozensets(st.sampled_from(everyone)), max_size=len(everyone)), label="follows")
        world, graph = self._world(ids, {a: fs - {a} for a, fs in follows.items()})
        assert len(world.followees) == len(ids)
        assert np.array_equal(self._matrix(world), reference_follows(world, graph))

    @pytest.mark.parametrize("follows", [{}, {0: set(), 1: set(), 2: set()}, {0: {7}, 9: {1}}], ids=["no_agents", "no_followees", "no_edge_inside"])
    def test_graph_without_edges_in_the_run(self, follows):
        world, graph = self._world([2, 0, 1], follows)
        assert len(world.followees) == 3 and not any(f.size for f in world.followees)
        assert np.array_equal(self._matrix(world), reference_follows(world, graph))


class TestPostWordColumns:
    """Each post's keyword column and token count equal those that tokenizing its own text gives."""

    @staticmethod
    def _tokenized(world, text):
        tokens = content_tokens(text)
        column = np.zeros(len(world._vocab), dtype=np.float32)
        column[[row for word, row in world._vocab.items() if word in tokens]] = 1.0
        return column, np.float32(len(tokens))

    # Words whose lower case depends on their neighbours (a final sigma, also at the " // " seam), grows
    # ("İ") or stays ("ß"), and whitespace other than a space: a tab, and a no-break space inside a word.
    WORDS = ["kw0", "KW1", "kw2", "x", "y", "//", "Σ", "aΣ", "İ", "ß", "\t", "kw0\xa0x"]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["seed", "repost", "repost_other_text", "ends_in_source_text", "quote", "quote_repeating"]),
                st.integers(0, 2**16),
                st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([("seed", 0, "aΣ"), ("quote", 2, ""), ("quote", 3, "aΣ"), ("quote", 4, "Σ İ"), ("quote_repeating", 5, "")])
    def test_reposts_and_quotes_match_their_tokenized_text(self, ops):
        world = initialize(tiny_profiles(), tiny_graph(), ["kw0 kw1 seed", "x"], _config())
        for i, (kind, pick, words) in enumerate(ops):
            source = pick % len(world.posts)
            if kind == "seed":
                world.new_post(i % 5, words, PostKind.SEED, None, 1)
            elif kind == "repost":
                world.new_post(i % 5, world.posts[source], PostKind.REPOST, source, 1)
            elif kind == "repost_other_text":
                world.new_post(i % 5, f"{words} {world.posts[source]} x", PostKind.REPOST, source, 1)
            elif kind == "ends_in_source_text":  # no " // " before the source's text: "aΣ" ends in "Σ"
                world.new_post(i % 5, f"{words}a{world.posts[source]}", PostKind.REPOST, source, 1)
            elif kind == "quote":  # words may be empty: the commentary is then empty too
                world.new_post(i % 5, f"{words} // {world.posts[source]}", PostKind.QUOTE, source, 1)
            else:  # commentary that repeats its source's words, in another case
                world.new_post(i % 5, f"{world.posts[source].upper()} {words} // {world.posts[source]}", PostKind.QUOTE, source, 1)
        for post, text in enumerate(world.posts):
            column, n_tokens = self._tokenized(world, text)
            assert np.array_equal(world._words[:, post], column), (post, text)
            assert world._n_tokens[post] == n_tokens, (post, text)

    def test_repost_or_quote_of_a_post_that_does_not_exist_is_rejected(self):
        world = initialize(tiny_profiles(), tiny_graph(), ["kw0 body"], _config())
        for kind, source in ((PostKind.REPOST, 1), (PostKind.QUOTE, -1)):
            with pytest.raises(ValueError, match="does not exist"):
                world.new_post(2, "kw0 body", kind, source, 0)
        assert len(world.posts) == 1


class TestStepEffects:
    def _world_and_log(self, policy_intents, p=0.999999, timesteps=1):
        cfg = _config(activation_p=p, timesteps=timesteps)
        log = LogBuilder(cfg)
        world = initialize(tiny_profiles(), tiny_graph(), _corpus(), cfg)
        policy = ScriptedPolicy(policy_intents)
        for t, (agents, seeds) in enumerate(schedule(cfg, world.agent_ids)):
            step(world, t, cfg, policy, log, agents, seeds)
        return world, records_of(log.finish(world))

    def test_like_increments_exactly_one_counter(self):
        world, _ = self._world_and_log([("like", 0), "read", "read", "read", "read"])
        likes = [(pid, n) for pid, n in enumerate(world.likes.tolist()) if n]
        assert len(likes) == 1 and likes[0][1] == 1
        assert world.reshares.sum() == 0

    def test_quote_creates_post_with_source(self):
        world, log = self._world_and_log(["read", ("quote", 0, "my two cents"), "read", "read", "read"])
        posts = world_posts(world)
        quotes = [p for p in posts if p.kind is PostKind.QUOTE]
        assert len(quotes) == 1
        q = quotes[0]
        assert q.source is not None
        source = posts[q.source]
        assert world.reshares[source.id] == 1
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
        assert world.reshares[r.source] == 1

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
    for t, (agents, seeds) in enumerate(schedule(cfg, world.agent_ids)):
        step(world, t, cfg, policy, log, agents, seeds)
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
        assert {post: (c.likes, c.reshares) for post, c in recounted.items()} == world_counters(world)

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

    # Keys of mixed word counts: 0 is one word, 2**32 and above two.
    _KEY = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**63 - 1]), st.integers(0, 2**63 - 1))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1]),
        stream=st.sampled_from([1, 2]),
        rows=st.lists(st.tuples(_KEY, _KEY), min_size=1, max_size=12),
        n_columns=st.sampled_from([1, 2]),
    )
    def test_batched_seed_words_equal_one_seed_sequence_per_key(self, seed, stream, rows, n_columns):
        columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(n_columns)]
        words = _seed_words((seed, stream), *columns)
        for i, row in enumerate(rows):
            key = np.random.SeedSequence((seed, stream, *row[:n_columns]))
            assert np.array_equal(words[i], key.generate_state(4, np.uint64))
            assert np.array_equal(_generator(words[i]).random(4), substream(seed, stream, *row[:n_columns]).random(4))

    def test_schedule_draws_each_step_from_its_activation_stream(self):
        cfg = _config(seed=2**32 + 7, n_agents=5, timesteps=6, activation_p=0.4)
        agent_ids = np.array([0, 3, 2**32 - 1, 2**32, 2**40], dtype=np.int64)
        steps = schedule(cfg, agent_ids)
        assert len(steps) == cfg.timesteps
        for t, (agents, seeds) in enumerate(steps):
            expected = agent_ids[substream(cfg.seed, 1, t).random(5) < cfg.activation_p]
            assert agents.tolist() == expected.tolist() and seeds.shape == (agents.size, 4)
            for agent, words in zip(agents.tolist(), seeds):
                assert np.array_equal(_generator(words).random(3), substream(cfg.seed, 2, t, agent).random(3))


class TestGoldenLogDigests:
    """Every cell log's SHA-256 and manifest.json's for two fixed plans, mock policy.

    A change to the engine, the feed or the policy that moves any byte of a
    log fails here. The CI plan is the one the workflow runs through the CLI
    (``gen-population --n 40 --seed 5``, ``gen-corpus --seed 5``). The high
    repost-norm cell has algorithmic pools on both sides of ``_top``'s
    sort-whole cut-off, and reposts and quotes.
    """

    _CI_CELLS = {
        "lowest_no_norm_r0.jsonl": "45cee76c91c407ffe7dac3e7d2638302152128d90fbe85d96e6c96db33a7c85f",
        "lowest_like_dominant_r0.jsonl": "87dd201d2b33176ab2dd64d83ccc8c1de6c400c612f247f41074adb427b473ea",
        "lowest_repost_dominant_r0.jsonl": "e778521893119205ed04042d6df9a69902a83211c2264bcd3773e819e2287362",
        "low_no_norm_r0.jsonl": "550ff8604aca08416e0d5b947a498df0ee6445e8ef240741c6bed4b310c5e211",
        "low_like_dominant_r0.jsonl": "330ec3291c33204fdafc51ea14982df608fa4c03eecd1287612b64ecf64b6ab7",
        "low_repost_dominant_r0.jsonl": "4a0ad0125d86a5525ad02b76ac027dbdc68489942afbe456cc8e0d8d587fb940",
        "medium_no_norm_r0.jsonl": "ba817b5aad8a76797dea37c406df1b4701075fa4429f13690993eeaedd8f6d39",
        "medium_like_dominant_r0.jsonl": "509caeb92cd659cabec8a62a4f1b120415eb7741e104d86ec4db4f3bd9f4f343",
        "medium_repost_dominant_r0.jsonl": "937b3665b4a53b42b341e8fe58c0d80ce889216d4e801c5ff0763f6891a0cda5",
        "high_no_norm_r0.jsonl": "83c4c486a6eeba770395ade26a282507bbe59c7e47c4e1b29f236c0f236f219f",
        "high_like_dominant_r0.jsonl": "7ef2762e9e19ae8e0605cf3991d7b63aeaffb54e5fbb4f2413fb935ed41075af",
        "high_repost_dominant_r0.jsonl": "ae32e6a732065bdcf4a74ff45b22ad92ee926e3c5acec180eec3d7e9f054476b",
    }
    _CI_MANIFEST = "2a8285f0889aac23d11aac6a892e07c173fce5457c8488b3db4f3e6baec0191b"
    _HIGH_CELLS = {"high_repost_dominant_r0.jsonl": "b05fed2fc8c5b8aa3ef98bd256ff78e906296f9b52d783cf78756ce6ed91423b"}
    _HIGH_MANIFEST = "12d8e7d01d82b44576eb56ff8f7e42278cefb1d28ee6e778708e58ce64327455"

    @staticmethod
    def _digests(tmp_path, plan, corpus_size, cells=None):
        profiles, graph = generate_population(plan.n_agents, seed=5)
        manifest = run_experiment(plan, profiles, graph, generate_seed_corpus(5, size=corpus_size), tmp_path, cells=cells)
        logs = {c["file"]: c["sha256"] for c in manifest["cells"]}
        return logs, hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()

    def test_ci_plan(self, tmp_path):
        plan = ExperimentPlan(base_seed=5, n_agents=40, timesteps=40, activation_p=0.05)
        assert self._digests(tmp_path, plan, 50) == (self._CI_CELLS, self._CI_MANIFEST)

    def test_high_repost_cell_with_pools_past_the_cut_off(self, tmp_path, monkeypatch):
        pools, real_top = [], engine._top

        def top(score, mask, k):
            pools.append(int(np.count_nonzero(mask)))
            return real_top(score, mask, k)

        monkeypatch.setattr(engine, "_top", top)
        plan = ExperimentPlan(base_seed=5, n_agents=60, timesteps=80, activation_p=0.2)
        cell = [(LoadLevel.HIGH, NormRegime.REPOST_DOMINANT)]
        assert self._digests(tmp_path, plan, 200, cell) == (self._HIGH_CELLS, self._HIGH_MANIFEST)
        assert min(pools) <= engine._SORT_WHOLE_MAX < max(pools)
        kinds = read_log(tmp_path / "logs" / "high_repost_dominant_r0.jsonl").creations.kind.tolist()
        assert kinds.count(POST_KINDS.index(PostKind.REPOST)) and kinds.count(POST_KINDS.index(PostKind.QUOTE))
