"""Reference feed builder: the plain per-post loop that select_feed must match.

Every eligible post is scored with the scalar score_post below (the
one-post definition WorldState.scores must equal bit for bit), each pool is
sorted by (-score, post id), and the followed quota with its algorithmic
backfill is applied as in select_feed's contract. It reads only the posts
(as PostRecords from ``world_posts``), the engaged sets, the profiles, the
follow graph and each shown post's entries in the world's counter arrays,
none of the world's ranking arrays. A feed here is a list of FeedSlot
records, one per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from socialsim.core import POST_KINDS, LoadLevel, PostKind, RunConfig
from socialsim.engine import WorldState, content_tokens
from socialsim.population import AgentProfile, FollowGraph


@dataclass(slots=True, frozen=True)
class PostRecord:
    """One post: the entries of its id in the world's post columns."""

    id: int
    author: int
    content: str
    kind: PostKind
    source: int | None
    created_at: int


def world_posts(world: WorldState) -> list[PostRecord]:
    """Every post, by id, as ``world.creations()`` and the text list ``world.posts`` hold it."""
    c = world.creations()
    columns = (c.post.tolist(), c.author.tolist(), world.posts, c.kind.tolist(), c.source.tolist(), c.t.tolist())
    return [
        PostRecord(post, author, content, POST_KINDS[kind], None if source < 0 else source, t)
        for post, author, content, kind, source, t in zip(*columns, strict=True)
    ]


@dataclass(slots=True, frozen=True)
class FeedSlot:
    """One feed slot: the post, its popularity snapshot, its pool and its text."""

    post: int
    likes: int
    reshares: int
    followed: bool  # False: the algorithmic pool
    content: str


def keyword_relevance(tokens: frozenset[str], keywords: frozenset[str]) -> float:
    """Jaccard overlap between post tokens and the agent's interest keywords."""
    if not tokens or not keywords:
        return 0.0
    inter = len(tokens & keywords)
    if inter == 0:
        return 0.0
    return inter / len(tokens | keywords)


def score_post(
    post: PostRecord,
    profile: AgentProfile,
    now: int,
    *,
    w_recency: float = 0.7,
    w_relevance: float = 0.3,
    decay: float = 0.01,
) -> float:
    """Ranking score in [0, 1] when the weights sum to 1.

    score = w_recency * exp(-decay * age) + w_relevance * jaccard(tokens, keywords)
    """
    age = now - post.created_at
    if age < 0:
        raise ValueError(f"post {post.id} created in the future (t={post.created_at} > now={now})")
    rel = keyword_relevance(content_tokens(post.content), frozenset(k.lower() for k in profile.keywords))
    return w_recency * math.exp(-decay * age) + w_relevance * rel


def reference_select_feed(
    agent: int, world: WorldState, graph: FollowGraph, load: LoadLevel, config: RunConfig
) -> list[FeedSlot]:
    followees = graph.follows_of(agent)
    engaged = world.engaged.get(agent, ())
    profile = world.profiles[agent]

    followed_pool: list[tuple[float, int]] = []
    algo_pool: list[tuple[float, int]] = []
    posts = world_posts(world)
    for post in posts:
        if post.author == agent or post.id in engaged:
            continue
        s = score_post(
            post,
            profile,
            world.now,
            w_recency=config.w_recency,
            w_relevance=config.w_relevance,
            decay=config.recency_decay,
        )
        (followed_pool if post.author in followees else algo_pool).append((-s, post.id))
    followed_pool.sort()
    algo_pool.sort()

    n_followed = min(load.followed_count, len(followed_pool))
    shortfall = load.followed_count - n_followed
    n_algo = min(load.algorithmic_count + shortfall, len(algo_pool))

    slots = []
    for pool, n, followed in ((followed_pool, n_followed, True), (algo_pool, n_algo, False)):
        for _, pid in pool[:n]:
            slots.append(
                FeedSlot(
                    post=pid,
                    likes=int(world.likes[pid]),
                    reshares=int(world.reshares[pid]),
                    followed=followed,
                    content=posts[pid].content,
                )
            )
    return slots
