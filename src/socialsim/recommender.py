"""Feed construction: followed-account posts plus recency/relevance-ranked algorithmic posts.

Ranking uses only recency and topic relevance; popularity counters never
enter the score, so popularity-cue effects stay in the decision stage. For
a viewing agent, the followed pool is every eligible post authored by a
followee and the algorithmic pool is every other eligible post. Labeling by
authorship keeps the partition reconstructable from persisted logs plus the
population file.

A feed is one pass of array work over the world's state, not a loop over
posts. The score vector ``w_recency * recency[now - created_at] +
w_relevance * relevance[agent]`` multiplies and adds in the same order as
score_post, on the same float64 values, so each element equals the scalar
score bit for bit. An eligibility mask (not the agent's own post, not
engaged) is split by the follow matrix into the followed and algorithmic
pools; each pool's top k comes from ``np.partition`` to cut the candidates
and ``np.lexsort`` on (-score, id), so ties break by ascending post id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import LoadLevel, Post, RunConfig

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorldState
    from .population import AgentProfile

FOLLOWED = "followed"
ALGORITHMIC = "algorithmic"


@dataclass(slots=True, frozen=True)
class FeedEntry:
    """One feed slot: the post, its popularity snapshot, and its pool label."""

    post: int
    likes: int
    reshares: int
    slot: str  # FOLLOWED or ALGORITHMIC
    content: str = ""


def content_tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def keyword_relevance(tokens: frozenset[str], keywords: frozenset[str]) -> float:
    """Jaccard overlap between post tokens and the agent's interest keywords."""
    if not tokens or not keywords:
        return 0.0
    inter = len(tokens & keywords)
    if inter == 0:
        return 0.0
    return inter / len(tokens | keywords)


def score_post(
    post: Post,
    profile: "AgentProfile",
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


def select_feed(agent: int, world: "WorldState", load: LoadLevel, config: RunConfig) -> list[FeedEntry]:
    """Build the agent's feed for the current timestep.

    Up to 3 highest-scoring eligible followee posts, then up to
    load.algorithmic_count highest-scoring posts from the rest of the pool.
    A followed shortfall is backfilled from the algorithmic pool so the
    total stays on target when supply allows. Eligible means: not authored
    by the agent and not previously engaged by the agent. Ties break by
    ascending post id; the result is deterministic in the world state.
    """
    row = world.rows[agent]
    score = world.scores(row)
    authors = world.author_rows
    eligible = authors != row
    engaged = world.engaged.get(agent)
    if engaged:
        ids = np.fromiter(engaged, dtype=np.int64, count=len(engaged))
        eligible[ids[(ids >= 0) & (ids < len(eligible))]] = False
    followed = world.follows[row, authors]

    followed_ids = _top(score, eligible & followed, load.followed_count)
    shortfall = load.followed_count - len(followed_ids)
    algo_ids = _top(score, eligible & ~followed, load.algorithmic_count + shortfall)

    entries = [_entry(world, pid, FOLLOWED) for pid in followed_ids.tolist()]
    entries += [_entry(world, pid, ALGORITHMIC) for pid in algo_ids.tolist()]
    return entries


def _top(score: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring posts in mask, best first, ties by ascending id."""
    ids = np.flatnonzero(mask)
    neg = -score[ids]
    if 0 < k < len(ids):
        # Keep only candidates that can reach the top k, ties at the cut included.
        keep = neg <= np.partition(neg, k - 1)[k - 1]
        ids, neg = ids[keep], neg[keep]
    return ids[np.lexsort((ids, neg))[:k]]


def _entry(world: "WorldState", pid: int, slot: str) -> FeedEntry:
    post = world.posts[pid]
    c = post.counters
    return FeedEntry(post=pid, likes=c.likes, reshares=c.reshares, slot=slot, content=post.content)


def realized_algorithmic_count(feed: list[FeedEntry]) -> int:
    """Number of algorithmic slots actually delivered, backfill included."""
    return sum(1 for e in feed if e.slot == ALGORITHMIC)
