"""Deterministic discrete-time scheduler for one simulated run.

Each timestep draws one activation Bernoulli per agent, then processes the
activated agents sequentially in ascending id order. Every activated agent
gets a feed built against the current world state (so it sees all updates
from earlier agents in the same timestep), one decision, one exposure
row per feed slot, and any resulting repost/quote enters the post pool
immediately.

The log is columnar from end to end: a feed is a few arrays (``Feed``), each
activation appends them to a ``LogBuilder`` as one block of exposure rows,
and ``run`` returns the finished ``CellLog``. No object is built per feed
slot: policies read the same columns (a scripted policy indexes ``posts``,
an LLM prompt zips the columns with the posts' text).

Feed ranking reads array state that WorldState keeps next to its post list:
per-post creation times and author rows, a follow matrix, and an agents x
posts relevance matrix filled one column per new post and reallocated at
twice its width when full (see WorldState).

Randomness comes from counter-keyed substreams of the run seed: one stream
per timestep for activations, one per (timestep, agent) for decisions.
Replays of the same (config, population, corpus, policy fixtures) produce
byte-identical logs regardless of refactoring order.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from .core import (
    ACTIONS,
    LOADS,
    NORMS,
    POST_KINDS,
    ActionKind,
    CellLog,
    ConfigurationError,
    CreationColumns,
    ExposureColumns,
    Post,
    PostKind,
    RunConfig,
)
from .policy import DecisionContext, Policy, decide
from .population import AgentProfile, FollowGraph
from .recommender import Feed, content_tokens, select_feed

_STREAM_ACTIVATION = 1
_STREAM_DECISION = 2


def substream(seed: int, stream: int, *keys: int) -> np.random.Generator:
    """Independent generator keyed by (seed, stream, keys...)."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, *keys)))


_ACTION_CODES = {a: i for i, a in enumerate(ACTIONS)}
_KIND_CODES = {k: i for i, k in enumerate(POST_KINDS)}


class LogBuilder:
    """The write side of one run's CellLog, plus the run's deterministic counts.

    Each activation appends its feed's columns as one block of exposure rows
    (all read until ``engagement`` marks one); post creations are rows
    between the blocks, in the order they happen. ``finish`` joins the
    blocks into a CellLog. The counts are:

    * ``activations``: agents activated, whether or not their feed was empty;
    * ``empty_feeds``: activations whose feed had no post (they log no row);
    * ``backfilled_slots``: algorithmic slots beyond the load's quota, i.e. the
      followed-pool shortfall filled from the algorithmic pool.
    """

    def __init__(self, config: RunConfig):
        self._config = config
        self._algorithmic_count = config.load.algorithmic_count
        self._posts: list[np.ndarray] = []  # per activation block
        self._likes: list[np.ndarray] = []
        self._reshares: list[np.ndarray] = []
        self._block_t: list[int] = []
        self._block_agent: list[int] = []
        self._engaged_rows: list[int] = []
        self._engaged_codes: list[int] = []
        self._creations: list[tuple[int, int, int, int, int]] = []  # CREATION_KEYS order, source -1 for none
        self._segments: list[int] = []  # per event in log order: block size, or 0 for a creation row
        self._n_exposures = 0
        self.activations = 0
        self.empty_feeds = 0
        self.backfilled_slots = 0

    def creation(self, kind: PostKind, post: int, author: int, source: int | None, t: int) -> None:
        self._creations.append((_KIND_CODES[kind], post, author, -1 if source is None else source, t))
        self._segments.append(0)

    def activation(self, t: int, agent: int, feed: Feed) -> int:
        """Count one activation and log its feed as read rows; returns the block's first exposure row."""
        start = self._n_exposures
        self.activations += 1
        n = len(feed)
        if not n:
            self.empty_feeds += 1
            return start
        self.backfilled_slots += max(0, n - feed.n_followed - self._algorithmic_count)
        self._posts.append(feed.posts)
        self._likes.append(feed.likes)
        self._reshares.append(feed.reshares)
        self._block_t.append(t)
        self._block_agent.append(agent)
        self._segments.append(n)
        self._n_exposures += n
        return start

    def engagement(self, row: int, action: ActionKind) -> None:
        """Set the action of exposure row ``row`` (read until now)."""
        self._engaged_rows.append(row)
        self._engaged_codes.append(_ACTION_CODES[action])

    def counts(self) -> dict[str, int]:
        return {
            "activations": self.activations,
            "empty_feeds": self.empty_feeds,
            "backfilled_slots": self.backfilled_slots,
        }

    def finish(self) -> CellLog:
        cfg, n = self._config, self._n_exposures
        segments = np.array(self._segments, dtype=np.int64)
        sizes = segments[segments > 0]

        def joined(blocks: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)

        action = np.zeros(n, dtype=np.int8)
        action[self._engaged_rows] = self._engaged_codes
        exposures = ExposureColumns(
            run=np.full(n, cfg.seed, dtype=np.int64),
            load=np.full(n, LOADS.index(cfg.load), dtype=np.int8),
            norm=np.full(n, NORMS.index(cfg.norm), dtype=np.int8),
            t=np.repeat(np.array(self._block_t, dtype=np.int64), sizes),
            agent=np.repeat(np.array(self._block_agent, dtype=np.int64), sizes),
            post=joined(self._posts),
            likes=joined(self._likes),
            reshares=joined(self._reshares),
            action=action,
        )
        rows = np.array(self._creations, dtype=np.int64).reshape(-1, 5)
        creations = CreationColumns(
            kind=rows[:, 0].astype(np.int8), post=rows[:, 1], author=rows[:, 2], source=rows[:, 3], t=rows[:, 4]
        )
        is_exposure = np.repeat(segments > 0, np.maximum(segments, 1))
        return CellLog(exposures, creations, is_exposure)


class WorldState:
    """Mutable run state: post store, counters, per-agent memory, ranking arrays.

    Feed ranking reads numpy state kept alongside ``posts``. Agents are rows,
    in profile order (``rows`` maps agent id to row); posts are columns, by id:

    * creation time and author row (``author_rows``): one int64 per post;
    * ``likes``, ``reposts`` and ``quotes``: one int64 per post, the only copy
      of the engagement counters;
    * ``follows``: agents x agents bool, ``follows[r, c]`` when row r follows row c;
    * an agents x posts float64 relevance matrix holding the Jaccard overlap
      of each agent's keywords with each post's tokens. ``new_post`` fills
      the post's column once: a post with its source's content copies the
      source's column, any other post is scored against every agent in one
      step from an agents x keyword-vocabulary incidence matrix.

    Post columns are allocated with spare capacity; when they run out, every
    post-indexed array is reallocated at twice its size, so adding a post
    costs amortized O(agents) and the relevance matrix takes O(agents x posts)
    memory.
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, profiles: Sequence[AgentProfile], graph: FollowGraph, config: RunConfig):
        self.profiles: dict[int, AgentProfile] = {p.id: p for p in profiles}
        self.posts: list[Post] = []
        self.engaged: dict[int, set[int]] = {p.id: set() for p in profiles}
        self.history: dict[int, deque] = {
            p.id: deque(maxlen=config.history_window) for p in profiles
        }
        self.now: int = 0
        self._decay = config.recency_decay
        self._w_rec = config.w_recency
        self._w_rel = config.w_relevance
        self._recency = np.ones(1)  # recency[age] = exp(-decay * age), grown on demand
        self._t_min = self._t_max = 0  # range of created_at over all posts

        self.agent_ids = np.array(sorted(self.profiles), dtype=np.int64)  # activation order
        self.rows: dict[int, int] = {agent: r for r, agent in enumerate(self.profiles)}
        n = len(self.rows)
        self.follows = np.zeros((n, n), dtype=bool)
        vocab: dict[str, int] = {}
        keyword_cols = []
        for agent, r in self.rows.items():
            self.follows[r, [self.rows[f] for f in graph.follows_of(agent) if f in self.rows]] = True
            keyword_cols.append({vocab.setdefault(k.lower(), len(vocab)) for k in self.profiles[agent].keywords})
        self._vocab = vocab
        self._keywords = np.zeros((n, len(vocab)), dtype=np.int64)
        for r, cols in enumerate(keyword_cols):
            self._keywords[r, list(cols)] = 1
        self._n_keywords = self._keywords.sum(axis=1)

        cap = self._INITIAL_CAPACITY
        self._created_at = np.zeros(cap, dtype=np.int64)
        self._author_rows = np.zeros(cap, dtype=np.int64)
        self._likes = np.zeros(cap, dtype=np.int64)
        self._reposts = np.zeros(cap, dtype=np.int64)
        self._quotes = np.zeros(cap, dtype=np.int64)
        self._rel = np.zeros((n, cap))

    @property
    def author_rows(self) -> np.ndarray:
        return self._author_rows[: len(self.posts)]

    # Views of the first len(posts) entries: writing to one writes the counter.
    @property
    def likes(self) -> np.ndarray:
        return self._likes[: len(self.posts)]

    @property
    def reposts(self) -> np.ndarray:
        return self._reposts[: len(self.posts)]

    @property
    def quotes(self) -> np.ndarray:
        return self._quotes[: len(self.posts)]

    def new_post(self, author: int, content: str, kind: PostKind, source: int | None, t: int) -> Post:
        pid = len(self.posts)
        post = Post(
            id=pid,
            author=author,
            content=content,
            kind=kind,
            source_link=source,
            created_at=t,
        )
        if author not in self.rows:
            raise ValueError(f"post author {author} is not an agent of this world")
        if pid == self._rel.shape[1]:
            self._grow()
        self._created_at[pid] = t
        self._author_rows[pid] = self.rows[author]
        if source is not None and content == self.posts[source].content:
            self._rel[:, pid] = self._rel[:, source]  # reposts: same tokens, same relevance
        else:
            self._rel[:, pid] = self._relevance_column(content_tokens(content))
        self._t_min = min(self._t_min, t) if pid else t
        self._t_max = max(self._t_max, t) if pid else t
        self.posts.append(post)
        return post

    def _relevance_column(self, tokens: frozenset[str]) -> np.ndarray:
        """The Jaccard overlap of ``tokens`` with every agent's lower-cased keywords.

        |tokens & keywords| / |tokens | keywords|, an int/int division, and 0.0
        when the two share no word.
        """
        idx = [self._vocab[w] for w in tokens if w in self._vocab]
        if not idx:
            return np.zeros(len(self.rows))
        inter = self._keywords[:, idx].sum(axis=1)
        union = len(tokens) + self._n_keywords - inter
        return np.where(inter > 0, inter / union, 0.0)

    def _grow(self) -> None:
        cap = 2 * self._rel.shape[1]
        for name in ("_created_at", "_author_rows", "_likes", "_reposts", "_quotes", "_rel"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (cap,), dtype=old.dtype)
            new[..., : old.shape[-1]] = old
            setattr(self, name, new)

    def scores(self, row: int) -> np.ndarray:
        """Ranking score of every post for the agent in ``row`` at ``now``.

        score = w_recency * exp(-decay * age) + w_relevance * jaccard, where
        age = now - created_at and jaccard is the overlap of the post's
        lower-cased whitespace tokens with the agent's lower-cased keywords
        (see ``_relevance_column``). With weights summing to 1 the score is
        in [0, 1]. exp comes from ``math.exp`` per integer age, and the
        multiply and add run in that order on float64 values, so each element
        is the same float a scalar evaluation of the formula gives.
        """
        if self.posts and self.now < self._t_max:
            raise ValueError(f"post created in the future (t={self._t_max} > now={self.now})")
        need = self.now - self._t_min + 1
        if len(self._recency) < need:
            size = max(need, 2 * len(self._recency))
            self._recency = np.array([math.exp(-self._decay * age) for age in range(size)])
        n = len(self.posts)
        ages = self.now - self._created_at[:n]
        return self._w_rec * self._recency[ages] + self._w_rel * self._rel[row, :n]


def initialize(
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    config: RunConfig,
    log: LogBuilder | None = None,
) -> WorldState:
    """Seed the world: corpus posts at t=0, authored round-robin by influencers.

    Influencers are taken in ascending id order. Production populations carry
    exactly eight (enforced by the population module); the engine itself only
    requires at least one so that reduced hand-built scenarios stay runnable.
    """
    if not corpus:
        raise ConfigurationError("corpus is empty")
    influencers = sorted(p.id for p in profiles if p.influencer)
    if not influencers:
        raise ConfigurationError("population has no influencers to author seed posts")
    world = WorldState(profiles, graph, config)
    for i, body in enumerate(corpus):
        author = influencers[i % len(influencers)]
        post = world.new_post(author, body, PostKind.SEED, None, 0)
        if log is not None:
            log.creation(PostKind.SEED, post.id, author, None, 0)
    return world


def step(world: WorldState, t: int, config: RunConfig, policy: Policy, log: LogBuilder) -> None:
    """Advance one timestep: activate, build feeds, decide, apply, log."""
    world.now = t
    draws = substream(config.seed, _STREAM_ACTIVATION, t).random(len(world.agent_ids))
    for agent in world.agent_ids[draws < config.activation_p].tolist():
        feed = select_feed(agent, world, config.load, config)
        start = log.activation(t, agent, feed)
        if not feed:
            continue  # nothing to read, nothing to log
        context = DecisionContext(
            feed=feed,
            profile=world.profiles[agent],
            history=tuple(world.history[agent]),
            regime=config.norm,
        )
        rng = substream(config.seed, _STREAM_DECISION, t, agent)
        decision = decide(policy, context, rng)
        if not decision.action.is_engagement:
            continue
        log.engagement(start + feed.position(decision.target), decision.action)
        _apply_engagement(world, agent, decision, t, log)


def _apply_engagement(world: WorldState, agent: int, decision, t: int, log: LogBuilder) -> None:
    source = world.posts[decision.target]
    if decision.action is ActionKind.LIKE:
        world.likes[source.id] += 1
    elif decision.action is ActionKind.REPOST:
        world.reposts[source.id] += 1
        post = world.new_post(agent, source.content, PostKind.REPOST, source.id, t)
        log.creation(PostKind.REPOST, post.id, agent, source.id, t)
    elif decision.action is ActionKind.QUOTE:
        world.quotes[source.id] += 1
        content = f"{decision.commentary} // {source.content}"
        post = world.new_post(agent, content, PostKind.QUOTE, source.id, t)
        log.creation(PostKind.QUOTE, post.id, agent, source.id, t)
    world.engaged[agent].add(decision.target)
    world.history[agent].append((decision.action, decision.target, t))


def run(
    config: RunConfig,
    policy: Policy,
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    log: LogBuilder | None = None,
) -> CellLog:
    """Initialize and execute all timesteps; returns the complete event log.

    Pass a LogBuilder to read the run's counts from it afterwards.
    """
    if len(profiles) != config.n_agents:
        raise ConfigurationError(
            f"config expects {config.n_agents} agents but population has {len(profiles)}"
        )
    log = LogBuilder(config) if log is None else log
    world = initialize(profiles, graph, corpus, config, log)
    for t in range(config.timesteps):
        step(world, t, config, policy, log)
    return log.finish()

