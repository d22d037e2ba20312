"""Deterministic discrete-time scheduler for one simulated run.

Each timestep draws one activation Bernoulli per agent, then processes the
activated agents sequentially in ascending id order. Every activated agent
gets a feed built against the current world state (so it sees all updates
from earlier agents in the same timestep), one decision, one exposure
record per feed slot, and any resulting repost/quote enters the post pool
immediately.

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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ActionKind,
    ConfigurationError,
    ExposureRecord,
    PopularityCounters,
    Post,
    PostCreation,
    PostKind,
    RunConfig,
)
from .policy import DecisionContext, Policy, decide
from .population import AgentProfile, FollowGraph
from .recommender import content_tokens, select_feed

_STREAM_ACTIVATION = 1
_STREAM_DECISION = 2


def substream(seed: int, stream: int, *keys: int) -> np.random.Generator:
    """Independent generator keyed by (seed, stream, keys...)."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, *keys)))


@dataclass
class EventLog:
    """Append-only run log: exposure rows interleaved with post creations."""

    records: list[ExposureRecord | PostCreation] = field(default_factory=list)

    def append(self, record: ExposureRecord | PostCreation) -> None:
        self.records.append(record)

    def exposures(self) -> list[ExposureRecord]:
        return [r for r in self.records if isinstance(r, ExposureRecord)]

    def creations(self) -> list[PostCreation]:
        return [r for r in self.records if isinstance(r, PostCreation)]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class WorldState:
    """Mutable run state: post store, counters, per-agent memory, ranking arrays.

    Feed ranking reads numpy state kept alongside ``posts``. Agents are rows,
    in profile order (``rows`` maps agent id to row); posts are columns, by id:

    * creation time and author row (``author_rows``): one int64 per post;
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
        self._rel = np.zeros((n, cap))

    @property
    def author_rows(self) -> np.ndarray:
        return self._author_rows[: len(self.posts)]

    def new_post(self, author: int, content: str, kind: PostKind, source: int | None, t: int) -> Post:
        pid = len(self.posts)
        post = Post(
            id=pid,
            author=author,
            content=content,
            kind=kind,
            source_link=source,
            created_at=t,
            counters=PopularityCounters(),
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
        """keyword_relevance(tokens, keywords) for every agent, with the same int/int division."""
        idx = [self._vocab[w] for w in tokens if w in self._vocab]
        if not idx:
            return np.zeros(len(self.rows))
        inter = self._keywords[:, idx].sum(axis=1)
        union = len(tokens) + self._n_keywords - inter
        return np.where(inter > 0, inter / union, 0.0)

    def _grow(self) -> None:
        cap = 2 * self._rel.shape[1]
        for name in ("_created_at", "_author_rows", "_rel"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (cap,), dtype=old.dtype)
            new[..., : old.shape[-1]] = old
            setattr(self, name, new)

    def scores(self, row: int) -> np.ndarray:
        """Ranking score of every post for the agent in ``row`` at ``now``.

        Element for element this is score_post: ``w_recency * exp(-decay *
        age) + w_relevance * jaccard``, evaluated in the same order on the
        same float64 values, so it equals the scalar definition bit for bit.
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

    def state_digest(self) -> str:
        import hashlib
        import json

        payload = json.dumps(
            [
                (p.id, p.author, p.kind.value, p.source_link, p.created_at,
                 p.counters.likes, p.counters.reposts, p.counters.quotes)
                for p in self.posts
            ]
        ).encode()
        return hashlib.sha256(payload).hexdigest()


def initialize(
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    config: RunConfig,
    log: EventLog | None = None,
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
            log.append(PostCreation(post=post.id, kind=PostKind.SEED, author=author, source=None, t=0))
    return world


def step(world: WorldState, t: int, config: RunConfig, policy: Policy, log: EventLog) -> None:
    """Advance one timestep: activate, build feeds, decide, apply, log."""
    world.now = t
    agent_ids = sorted(world.profiles)
    draws = substream(config.seed, _STREAM_ACTIVATION, t).random(len(agent_ids))
    for agent, u in zip(agent_ids, draws):
        if u >= config.activation_p:
            continue
        feed = select_feed(agent, world, config.load, config)
        if not feed:
            continue  # nothing to read, nothing to log
        context = DecisionContext(
            feed=tuple(feed),
            profile=world.profiles[agent],
            history=tuple(world.history[agent]),
            regime=config.norm,
        )
        rng = substream(config.seed, _STREAM_DECISION, t, agent)
        decision = decide(policy, context, rng)
        target = decision.target if decision.action.is_engagement else None
        for entry in feed:
            action = decision.action if entry.post == target else ActionKind.READ
            log.append(
                ExposureRecord(
                    run=config.seed,
                    load=config.load,
                    norm=config.norm,
                    t=t,
                    agent=agent,
                    post=entry.post,
                    likes=entry.likes,
                    reshares=entry.reshares,
                    action=action,
                )
            )
        if target is None:
            continue
        _apply_engagement(world, agent, decision, t, log)


def _apply_engagement(world: WorldState, agent: int, decision, t: int, log: EventLog) -> None:
    source = world.posts[decision.target]
    if decision.action is ActionKind.LIKE:
        source.counters.likes += 1
    elif decision.action is ActionKind.REPOST:
        source.counters.reposts += 1
        post = world.new_post(agent, source.content, PostKind.REPOST, source.id, t)
        log.append(PostCreation(post=post.id, kind=PostKind.REPOST, author=agent, source=source.id, t=t))
    elif decision.action is ActionKind.QUOTE:
        source.counters.quotes += 1
        content = f"{decision.commentary} // {source.content}"
        post = world.new_post(agent, content, PostKind.QUOTE, source.id, t)
        log.append(PostCreation(post=post.id, kind=PostKind.QUOTE, author=agent, source=source.id, t=t))
    world.engaged[agent].add(decision.target)
    world.history[agent].append((decision.action, decision.target, t))


def run(
    config: RunConfig,
    policy: Policy,
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
) -> EventLog:
    """Initialize and execute all timesteps; returns the complete event log."""
    if len(profiles) != config.n_agents:
        raise ConfigurationError(
            f"config expects {config.n_agents} agents but population has {len(profiles)}"
        )
    log = EventLog()
    world = initialize(profiles, graph, corpus, config, log)
    for t in range(config.timesteps):
        step(world, t, config, policy, log)
    return log


def recount_counters(records: Iterable[ExposureRecord | PostCreation]) -> dict[int, PopularityCounters]:
    """Brute-force recount of every post's counters from the log alone.

    Independent oracle for the engine's incremental bookkeeping: likes are
    like-rows targeting the post, reposts/quotes are the matching engagement
    rows (equivalently, creation records pointing at it as source).
    """
    counters: dict[int, PopularityCounters] = {}
    for r in records:
        if isinstance(r, PostCreation):
            counters.setdefault(r.post, PopularityCounters())
        elif isinstance(r, ExposureRecord):
            c = counters.setdefault(r.post, PopularityCounters())
            if r.action is ActionKind.LIKE:
                c.likes += 1
            elif r.action is ActionKind.REPOST:
                c.reposts += 1
            elif r.action is ActionKind.QUOTE:
                c.quotes += 1
    return counters
