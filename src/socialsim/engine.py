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
an LLM prompt zips the columns with the posts' text). A run's creation rows
are the world's post columns, placed between the blocks when the log is
finished; nothing else records a post.

A post is one entry in each of WorldState's post columns: its text, kind,
source, creation time and author row. Feed ranking reads those arrays, a
follow matrix, and an agents x posts relevance matrix filled one column per
new post and reallocated at twice its width when full (see WorldState).

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
    (all read until ``engagement`` marks one) and notes how many posts the
    world held then. ``finish`` joins the blocks into a CellLog whose creation
    rows are the world's post columns in id order, the order posts are
    made: each block follows the posts that existed when it was logged. The
    counts are:

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
        self._block_created: list[int] = []  # posts in the world when the block was logged
        self._engaged_rows: list[int] = []
        self._engaged_codes: list[int] = []
        self._n_exposures = 0
        self.activations = 0
        self.empty_feeds = 0
        self.backfilled_slots = 0

    def activation(self, world: WorldState, agent: int, feed: Feed) -> int:
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
        self._block_t.append(world.now)
        self._block_agent.append(agent)
        self._block_created.append(len(world.posts))
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

    def finish(self, world: WorldState) -> CellLog:
        cfg, n = self._config, self._n_exposures
        sizes = np.array([block.size for block in self._posts], dtype=np.int64)

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
        creations = world.creations()
        # An exposure row's position: the exposure rows before it plus the creation rows before its block.
        is_exposure = np.zeros(n + len(creations), dtype=bool)
        is_exposure[np.arange(n) + np.repeat(np.array(self._block_created, dtype=np.int64), sizes)] = True
        return CellLog(exposures, creations, is_exposure)


class WorldState:
    """Mutable run state: post columns, counters, per-agent memory, ranking arrays.

    Agents are rows, in profile order (``rows`` maps agent id to row); posts
    are columns, by id, and these columns are the only record of a post:

    * ``posts``: the text of each post, a list of str;
    * kind (an int8 code into POST_KINDS), source (int64, -1 for none),
      creation time and author row (``author_rows``, int64); ``creations``
      reads them as a log's creation rows;
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
        self.posts: list[str] = []
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
        self._kinds = np.zeros(cap, dtype=np.int8)
        self._sources = np.zeros(cap, dtype=np.int64)
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

    def creations(self) -> CreationColumns:
        """Every post's creation row, by id; authors as agent ids.

        The columns are views: a post's entries never change once written.
        """
        n = len(self.posts)
        agents = np.fromiter(self.rows, dtype=np.int64, count=len(self.rows))  # by row: profile order
        return CreationColumns(
            kind=self._kinds[:n],
            post=np.arange(n, dtype=np.int64),
            author=agents[self._author_rows[:n]],
            source=self._sources[:n],
            t=self._created_at[:n],
        )

    def new_post(self, author: int, content: str, kind: PostKind, source: int | None, t: int) -> int:
        """Add a post and return its id. A seed post has no source; a repost or quote has one."""
        if kind is PostKind.SEED and source is not None:
            raise ValueError("seed posts carry no source link")
        if kind is not PostKind.SEED and source is None:
            raise ValueError(f"{kind.value} posts require a source link")
        if author not in self.rows:
            raise ValueError(f"post author {author} is not an agent of this world")
        pid = len(self.posts)
        if pid == self._rel.shape[1]:
            self._grow()
        self._created_at[pid] = t
        self._author_rows[pid] = self.rows[author]
        self._kinds[pid] = _KIND_CODES[kind]
        self._sources[pid] = -1 if source is None else source
        if source is not None and content == self.posts[source]:
            self._rel[:, pid] = self._rel[:, source]  # reposts: same tokens, same relevance
        else:
            self._rel[:, pid] = self._relevance_column(content_tokens(content))
        self._t_min = min(self._t_min, t) if pid else t
        self._t_max = max(self._t_max, t) if pid else t
        self.posts.append(content)
        return pid

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
        for name in ("_created_at", "_author_rows", "_kinds", "_sources", "_likes", "_reposts", "_quotes", "_rel"):
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
        world.new_post(influencers[i % len(influencers)], body, PostKind.SEED, None, 0)
    return world


def step(world: WorldState, t: int, config: RunConfig, policy: Policy, log: LogBuilder) -> None:
    """Advance one timestep: activate, build feeds, decide, apply, log."""
    world.now = t
    draws = substream(config.seed, _STREAM_ACTIVATION, t).random(len(world.agent_ids))
    for agent in world.agent_ids[draws < config.activation_p].tolist():
        feed = select_feed(agent, world, config.load, config)
        start = log.activation(world, agent, feed)
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
        _apply_engagement(world, agent, decision, t)


def _apply_engagement(world: WorldState, agent: int, decision, t: int) -> None:
    target = decision.target
    if decision.action is ActionKind.LIKE:
        world.likes[target] += 1
    elif decision.action is ActionKind.REPOST:
        world.reposts[target] += 1
        world.new_post(agent, world.posts[target], PostKind.REPOST, target, t)
    elif decision.action is ActionKind.QUOTE:
        world.quotes[target] += 1
        world.new_post(agent, f"{decision.commentary} // {world.posts[target]}", PostKind.QUOTE, target, t)
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
    world = initialize(profiles, graph, corpus, config)
    for t in range(config.timesteps):
        step(world, t, config, policy, log)
    return log.finish(world)

