"""Feed construction: followed-account posts plus recency/relevance-ranked algorithmic posts.

Ranking uses only recency and topic relevance; popularity counters never
enter the score, so popularity-cue effects stay in the decision stage. For
a viewing agent, the followed pool is every eligible post authored by a
followee and the algorithmic pool is every other eligible post. Labeling by
authorship keeps the partition reconstructable from persisted logs plus the
population file.

A feed is one pass of array work over the world's state, not a loop over
posts. The score vector ``recency[now - created_at] + w_relevance *
relevance``, where ``recency`` is a table of ``w_recency * exp(-decay * age)``
by age, comes from ``WorldState.scores``, which states the formula. An
eligibility mask (not the agent's own post, not engaged) is split by the
follow matrix into the followed and algorithmic pools; each pool's top k
comes from ``np.partition`` to cut the candidates and a stable sort of
-score over ids in ascending order, so ties break by ascending post id.

The feed is columnar (``Feed``): post ids and the popularity snapshot as
arrays. Every reader takes the columns: the engine logs them as they are, a
scripted policy reads ``posts`` at an index, and an LLM prompt zips
``posts``, ``likes`` and ``reshares`` with ``contents()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import LoadLevel, RunConfig

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorldState


class Feed:
    """One activation's feed as columns, best first within each pool.

    ``posts``, ``likes`` and ``reshares`` are int64 arrays with one element
    per slot: the post id and its likes and reposts + quotes when the feed
    was built. The first ``n_followed`` slots are followed, the rest
    algorithmic. ``contents`` reads each slot's text from the post store.
    """

    __slots__ = ("posts", "likes", "reshares", "n_followed", "_store")

    def __init__(
        self,
        posts: np.ndarray,
        likes: np.ndarray,
        reshares: np.ndarray,
        n_followed: int,
        store: Sequence[str],
    ):
        self.posts = posts
        self.likes = likes
        self.reshares = reshares
        self.n_followed = n_followed
        self._store = store  # post id -> text

    def __len__(self) -> int:
        return self.posts.size

    def contents(self) -> list[str]:
        """The text of each slot's post, in slot order."""
        return [self._store[post] for post in self.posts.tolist()]

    def position(self, post: int) -> int | None:
        """Index of the slot showing ``post``, None if the feed does not show it."""
        ids = self.posts.tolist()
        return ids.index(post) if post in ids else None


def content_tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def select_feed(agent: int, world: "WorldState", load: LoadLevel, config: RunConfig) -> Feed:
    """Build the agent's feed for the current timestep.

    Up to 3 highest-scoring eligible followee posts, then up to
    load.algorithmic_count highest-scoring posts from the rest of the pool.
    A followed shortfall is backfilled from the algorithmic pool so the
    total stays on target when supply allows. Eligible means: not authored
    by the agent and not previously engaged by the agent. Ties break by
    ascending post id; the result is deterministic in the world state.
    The likes and reshares are copies of the world's counters at this call.
    """
    row = world.rows[agent]
    score = world.scores(row)
    authors = world.author_rows
    eligible = authors != row
    engaged = world.engaged.get(agent)
    if engaged:
        eligible[[post for post in engaged if 0 <= post < eligible.size]] = False
    followed = eligible & world.follows[row][authors]  # a view of the row, then one gather: faster than follows[row, authors]
    eligible ^= followed  # the algorithmic pool: eligible, not followed

    followed_ids = _top(score, followed, load.followed_count)
    shortfall = load.followed_count - len(followed_ids)
    algo_ids = _top(score, eligible, load.algorithmic_count + shortfall)

    ids = np.concatenate((followed_ids, algo_ids))
    return Feed(ids, world.likes[ids], world.reposts[ids] + world.quotes[ids], followed_ids.size, world.posts)


def _top(score: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring posts in mask, best first, ties by ascending id.

    ``nonzero`` gives the ids in ascending order, and a stable sort keeps
    that order among equal scores.
    """
    ids = mask.nonzero()[0]
    s = score[ids]
    if 0 < k < len(ids):
        # Keep only candidates that can reach the top k, ties at the cut included.
        keep = s >= np.partition(s, len(ids) - k)[len(ids) - k]
        ids, s = ids[keep], s[keep]
    return ids[(-s).argsort(kind="stable")[:k]]
