import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialsim.core import LoadLevel, NormRegime, PostKind, RunConfig
from socialsim.engine import WorldState
from socialsim.population import AgentProfile, FollowGraph
from socialsim.recommender import Feed, select_feed

from conftest import make_feed, tiny_graph, tiny_profiles
from reference_feed import FeedSlot, keyword_relevance, reference_select_feed, score_post, world_posts


def _config(load=LoadLevel.LOWEST, **kw):
    base = dict(seed=1, load=load, norm=NormRegime.NO_NORM, n_agents=5, timesteps=10, activation_p=0.5)
    base.update(kw)
    return RunConfig(**base)


def _world(profiles, graph, config):
    return WorldState(profiles, graph, config)


def _post(world, author, content, t=0):
    """A new seed post; returns its PostRecord."""
    post = world.new_post(author, content, PostKind.SEED, None, t)
    return world_posts(world)[post]


def _slots(feed: Feed) -> list[FeedSlot]:
    """The feed's columns, slot by slot, as the reference builder's records."""
    columns = zip(feed.posts.tolist(), feed.likes.tolist(), feed.reshares.tolist(), feed.contents())
    return [
        FeedSlot(post, likes, reshares, i < feed.n_followed, content)
        for i, (post, likes, reshares, content) in enumerate(columns)
    ]


class TestScorePost:
    def test_fresh_post_no_overlap(self):
        cfg = _config()
        world = _world(tiny_profiles(), tiny_graph(), cfg)
        post = _post(world, 1, "alpha beta")
        profile = AgentProfile(9, "x", frozenset(["unrelated"]), False, False)
        assert score_post(post, profile, now=0) == pytest.approx(0.7)

    def test_ancient_post_full_overlap(self):
        cfg = _config()
        world = _world(tiny_profiles(), tiny_graph(), cfg)
        post = _post(world, 1, "alpha beta")
        profile = AgentProfile(9, "x", frozenset(["alpha", "beta"]), False, False)
        assert score_post(post, profile, now=10**6) == pytest.approx(0.3, abs=1e-9)

    def test_direct_evaluation(self):
        # age 10, decay 0.01, jaccard 0.5: 0.7 e^-0.1 + 0.3 * 0.5
        cfg = _config()
        world = _world(tiny_profiles(), tiny_graph(), cfg)
        post = _post(world, 1, "alpha beta")
        profile = AgentProfile(9, "x", frozenset(["alpha", "beta", "gamma", "delta"]), False, False)
        expected = 0.7 * math.exp(-0.1) + 0.3 * 0.5
        assert score_post(post, profile, now=10) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.7833861926, abs=1e-9)

    def test_world_scores_equal_score_post(self):
        # 300 posts outgrow the world's initial post capacity, so columns
        # written before and after a reallocation are both compared.
        cfg = _config()
        profiles = tiny_profiles()
        world = _world(profiles, tiny_graph(), cfg)
        for i in range(300):
            if i % 7 == 3:
                world.new_post(i % 5, world.posts[i // 2], PostKind.REPOST, i // 2, i // 4)
            elif i % 7 == 5:
                world.new_post(i % 5, f"KW{i % 5} says // {world.posts[i // 3]}", PostKind.QUOTE, i // 3, i // 4)
            else:
                world.new_post(i % 5, f"Kw{i % 3} kw{i % 5} word{i % 11} extra", PostKind.SEED, None, i // 4)
        world.now = 90
        for profile in profiles:
            scores = world.scores(world.rows[profile.id])
            assert len(scores) == 300
            assert scores.tolist() == [score_post(post, profile, now=90) for post in world_posts(world)]

    def test_world_scores_equal_score_post_across_case_misses_and_growth(self):
        # Keywords that differ only in case, posts that share no word with any keyword, and 2,613 posts:
        # the post columns start at 256 and double four times. Scores are checked at 255, 256, 257, 511
        # and 513 posts, then at each now before and after posts are added at that now, and after now
        # moves back and forth.
        profiles = [
            AgentProfile(0, "a", frozenset(["Alpha", "alpha", "ALPHA"]), True, True),
            AgentProfile(1, "b", frozenset(["alpha", "Beta"]), True, True),
            AgentProfile(2, "c", frozenset(["BETA", "beta", "gamma"]), False, False),
            AgentProfile(3, "d", frozenset(["Gamma", "delta", "DELTA", "eps"]), False, False),
        ]
        graph = FollowGraph({0: {1}, 1: {0}, 2: {0}, 3: {1, 2}})
        world = _world(profiles, graph, _config(n_agents=4))
        words = ["alpha", "ALPHA", "Beta", "beta", "GAMMA", "delta", "Delta", "eps", "zeta", "other"]

        def add(count, t):
            for _ in range(count):
                i = len(world.posts)
                if i % 5 == 4:  # shares no word with any keyword
                    world.new_post(i % 4, f"nothing here {i % 13}", PostKind.SEED, None, t)
                elif i % 5 == 3:
                    world.new_post(i % 4, world.posts[i // 2], PostKind.REPOST, i // 2, t)
                else:
                    text = " ".join(words[(i * k) % len(words)] for k in range(1 + i % 4))
                    world.new_post(i % 4, text, PostKind.SEED, None, t)

        def assert_equal_to_oracle():
            posts = world_posts(world)
            for profile in profiles:
                scores = world.scores(world.rows[profile.id])
                assert scores.dtype == np.float64
                assert scores.tolist() == [score_post(post, profile, now=world.now) for post in posts]

        for count in (255, 1, 1, 254, 2):  # 255, 256 and 257 posts in 256 and 512 columns, then 511 and 513
            add(count, 0)
            assert_equal_to_oracle()
        for t in range(0, 2100, 300):
            add(150, t)
            world.now = t
            assert_equal_to_oracle()
            add(150, t)  # posts made during this now
            assert_equal_to_oracle()
        assert len(world.posts) == 2613 and world._created_at.size == 4096
        for now in (2400, 1800, 2400):
            world.now = now
            assert_equal_to_oracle()

    def test_world_rejects_future_posts_and_unknown_authors(self):
        world = _world(tiny_profiles(), tiny_graph(), _config())
        _post(world, 1, "alpha", t=5)
        world.now = 4
        with pytest.raises(ValueError):
            world.scores(0)
        with pytest.raises(ValueError):
            _post(world, 99, "no such agent")

    def test_relevance_is_jaccard(self):
        assert keyword_relevance(frozenset("ab"), frozenset("bc")) == pytest.approx(1 / 3)
        assert keyword_relevance(frozenset(), frozenset("a")) == 0.0


class TestSelectFeed:
    def _seeded_world(self, n_posts=50, config=None):
        """World where agent 4 follows only agent 1; posts alternate authors 0/1."""
        cfg = config or _config()
        world = _world(tiny_profiles(), tiny_graph(), cfg)
        for i in range(n_posts):
            _post(world, i % 2, f"content {i}")
        return world, cfg

    def test_full_high_feed_partition(self):
        cfg = _config(load=LoadLevel.HIGH)
        world, _ = self._seeded_world(80, cfg)
        feed = select_feed(4, world, LoadLevel.HIGH, cfg)
        assert len(feed) == 33
        assert feed.n_followed == 3
        assert len(feed) - feed.n_followed == 30

    def test_no_followees_backfills_to_seven(self):
        cfg = _config()
        profiles = tiny_profiles()
        graph = FollowGraph({0: {1}, 1: {0}, 2: {0}, 3: {0, 1}, 4: set()})
        world = _world(profiles, graph, cfg)
        for i in range(50):
            _post(world, i % 2, f"content {i}")
        feed = select_feed(4, world, LoadLevel.LOWEST, cfg)
        assert len(feed) == 7
        assert len(feed) - feed.n_followed == 7

    def test_supply_limited_feed(self):
        cfg = _config(load=LoadLevel.MEDIUM)
        world, _ = self._seeded_world(5, cfg)
        feed = select_feed(4, world, LoadLevel.MEDIUM, cfg)
        assert len(feed) == 5

    def test_excludes_own_and_engaged_posts(self):
        cfg = _config()
        world, _ = self._seeded_world(10, cfg)
        world.engaged[4].add(3)
        own = world.new_post(4, "mine", PostKind.SEED, None, 0)
        feed = select_feed(4, world, LoadLevel.HIGH, cfg)
        ids = set(feed.posts.tolist())
        assert 3 not in ids
        assert own not in ids

    def test_tie_break_ascending_post_id(self):
        cfg = _config()
        world, _ = self._seeded_world(8, cfg)  # same created_at, relevance 0
        feed = select_feed(4, world, LoadLevel.LOWEST, cfg)
        followed = feed.posts[: feed.n_followed].tolist()
        algo = feed.posts[feed.n_followed :].tolist()
        assert followed == sorted(followed)
        assert algo == sorted(algo)
        assert followed == [1, 3, 5]  # agent 4 follows agent 1, who authored odd posts
        assert algo == [0, 2, 4, 6]

    def test_newer_posts_rank_first(self):
        cfg = _config()
        world, _ = self._seeded_world(6, cfg)
        fresh = world.new_post(1, "brand new", PostKind.SEED, None, 5)
        world.now = 5
        feed = select_feed(4, world, LoadLevel.LOWEST, cfg)
        assert feed.n_followed > 0 and feed.posts[0] == fresh

    def test_snapshots_taken_at_build_time(self):
        cfg = _config()
        world, _ = self._seeded_world(6, cfg)
        world.likes[1] = 4
        world.quotes[1] = 2
        feed = select_feed(4, world, LoadLevel.LOWEST, cfg)
        i = feed.position(1)
        assert (feed.likes[i], feed.reshares[i]) == (4, 2)
        world.likes[1] = 9  # later mutation must not leak in
        assert feed.likes[i] == 4

    def test_reshares_are_reposts_plus_quotes(self):
        cfg = _config()
        world, _ = self._seeded_world(6, cfg)
        world.likes[1], world.reposts[1], world.quotes[1] = 5, 2, 1
        world.likes[3], world.reposts[3], world.quotes[3] = 10, 0, 4
        feed = select_feed(4, world, LoadLevel.LOWEST, cfg)
        shown = {p: (l, r) for p, l, r in zip(feed.posts.tolist(), feed.likes.tolist(), feed.reshares.tolist())}
        assert [shown[p] for p in (1, 3, 5)] == [(5, 3), (10, 4), (0, 0)]

    def test_feed_never_exceeds_condition_total(self):
        for load in LoadLevel:
            cfg = _config(load=load)
            world, _ = self._seeded_world(200, cfg)
            feed = select_feed(4, world, load, cfg)
            assert len(feed) == load.total

    def test_empty_pool_empty_feed(self):
        cfg = _config()
        world = _world(tiny_profiles(), tiny_graph(), cfg)
        assert len(select_feed(4, world, LoadLevel.LOWEST, cfg)) == 0

    def test_deterministic(self):
        cfg = _config(load=LoadLevel.MEDIUM)
        world, _ = self._seeded_world(60, cfg)
        f1 = select_feed(4, world, LoadLevel.MEDIUM, cfg)
        f2 = select_feed(4, world, LoadLevel.MEDIUM, cfg)
        assert _slots(f1) == _slots(f2)


class TestRealizedCount:
    def test_empty_feed(self):
        feed = make_feed([], [], [])
        assert len(feed) - feed.n_followed == 0


_WORDS = ["alpha", "Alpha", "BETA", "beta", "Gamma", "delta", "EPS", "kw0", "Kw1"]


@st.composite
def _random_worlds(draw):
    """Small worlds: mixed-case keywords and content, reposts and quotes, engaged sets, any now."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=6)))
    profiles = [
        AgentProfile(a, f"u{a}", frozenset(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4))), False, False)
        for a in ids
    ]
    graph = FollowGraph({a: draw(st.sets(st.sampled_from(ids))) - {a} for a in ids})
    w_recency = draw(st.floats(0.0, 1.0))
    cfg = _config(
        n_agents=len(ids),
        recency_decay=draw(st.floats(0.0, 0.5)),
        w_recency=w_recency,
        w_relevance=1.0 - w_recency,
    )
    world = _world(profiles, graph, cfg)
    for _ in range(draw(st.integers(0, 45))):
        author = draw(st.sampled_from(ids))
        t = draw(st.integers(0, 30))
        kind = draw(st.sampled_from(PostKind)) if world.posts else PostKind.SEED
        if kind is PostKind.SEED:
            content = " ".join(draw(st.lists(st.sampled_from(_WORDS + ["other", "WORDS"]), max_size=6)))
            post = world.new_post(author, content, kind, None, t)
        else:
            source = draw(st.integers(0, len(world.posts) - 1))
            text = world.posts[source]
            content = text if kind is PostKind.REPOST else f"{draw(st.sampled_from(_WORDS))} // {text}"
            post = world.new_post(author, content, kind, source, t)
        world.likes[post] = draw(st.integers(0, 3))
        world.quotes[post] = draw(st.integers(0, 2))
    for a in ids:
        world.engaged[a].update(draw(st.sets(st.integers(0, len(world.posts) + 2), max_size=6)))
    world.now = draw(st.integers(max((p.created_at for p in world_posts(world)), default=0), 300))
    return world, graph, cfg


class TestSelectFeedMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_random_worlds())
    def test_identical_feeds(self, case):
        world, graph, cfg = case
        for agent in world.profiles:
            for load in LoadLevel:
                assert _slots(select_feed(agent, world, load, cfg)) == reference_select_feed(agent, world, graph, load, cfg)


@st.composite
def _large_tied_worlds(draw):
    """Worlds of 150-600 posts whose scores tie often, so pools fall on both sides of _top's cut-off.

    Few distinct texts, reposts that copy them, up to four creation times and
    a decay of 0 (recency equal at every age) make many equal scores. The
    per-post columns come from a numpy generator seeded by the draw.
    """
    ids = list(range(draw(st.integers(2, 5))))
    profiles = [
        AgentProfile(a, f"u{a}", frozenset(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))), False, False)
        for a in ids
    ]
    graph = FollowGraph({a: draw(st.sets(st.sampled_from(ids))) - {a} for a in ids})
    cfg = _config(n_agents=len(ids), recency_decay=draw(st.sampled_from([0.0, 0.01, 0.3])))
    texts = draw(st.lists(st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join), min_size=1, max_size=4))
    last_t = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    world = _world(profiles, graph, cfg)
    for _ in range(draw(st.integers(150, 600))):
        author, t, kind = ids[rng.integers(len(ids))], int(rng.integers(last_t + 1)), rng.integers(4)
        if kind < 2 or not world.posts:
            world.new_post(author, texts[rng.integers(len(texts))], PostKind.SEED, None, t)
        else:
            source = int(rng.integers(len(world.posts)))
            if kind == 2:
                world.new_post(author, world.posts[source], PostKind.REPOST, source, t)
            else:
                world.new_post(author, f"{texts[0]} // {world.posts[source]}", PostKind.QUOTE, source, t)
    for a in ids:
        world.engaged[a].update(rng.integers(0, len(world.posts), rng.integers(0, 20)).tolist())
    world.now = last_t + draw(st.integers(0, 5))
    return world, graph, cfg


class TestLargeTiedPoolsMatchReference:
    """Pools of a few hundred posts take _top's partition cut, small ones its whole sort; ties break by id on both."""

    @settings(max_examples=60, deadline=None)
    @given(_large_tied_worlds())
    def test_identical_feeds(self, case):
        world, graph, cfg = case
        for agent in world.profiles:
            for load in LoadLevel:
                assert _slots(select_feed(agent, world, load, cfg)) == reference_select_feed(agent, world, graph, load, cfg)
