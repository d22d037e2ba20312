"""Feed construction: followed-account posts plus recency/relevance-ranked algorithmic posts.

Ranking uses only recency and topic relevance; popularity counters never
enter the score, so popularity-cue effects stay in the decision stage. For
a viewing agent, the followed pool is every eligible post authored by a
followee and the algorithmic pool is every other eligible post. Labeling by
authorship keeps the partition reconstructable from persisted logs plus the
population file.

A feed is one pass of array work over the world's state, not a loop over
posts. The score vector ``w_recency * recency[now - created_at] +
w_relevance * relevance[agent]`` comes from ``WorldState.scores``, which
states the formula. An eligibility mask (not the agent's own post, not
engaged) is split by the follow matrix into the followed and algorithmic
pools; each pool's top k comes from ``np.partition`` to cut the candidates
and ``np.lexsort`` on (-score, id), so ties break by ascending post id.

The feed itself stays columnar (``Feed``): post ids and the popularity
snapshot as arrays. FeedEntry objects are built only for code that iterates
or indexes a feed, such as scripted policies and LLM prompts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .core import LoadLevel, Post, RunConfig

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorldState

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


class Feed:
    """One activation's feed as columns, best first within each pool.

    ``posts``, ``likes`` and ``reshares`` are int64 arrays with one element
    per slot: the post id and its likes and reposts + quotes when the feed
    was built. The first ``n_followed`` slots are followed, the rest
    algorithmic. Iterating or indexing yields FeedEntry objects, built on
    demand from the columns and the post store.
    """

    __slots__ = ("posts", "likes", "reshares", "n_followed", "_store", "_entries")

    def __init__(
        self,
        posts: np.ndarray,
        likes: np.ndarray,
        reshares: np.ndarray,
        n_followed: int,
        store: Sequence[Post],
    ):
        self.posts = posts
        self.likes = likes
        self.reshares = reshares
        self.n_followed = n_followed
        self._store = store  # post id -> Post, for the content of built entries
        self._entries: tuple[FeedEntry, ...] | None = None

    @classmethod
    def from_entries(cls, entries: Iterable[FeedEntry]) -> "Feed":
        """A feed of hand-built entries; iterating or indexing it yields those same entries."""
        entries = tuple(entries)
        columns = [np.array([getattr(e, k) for e in entries], dtype=np.int64) for k in ("post", "likes", "reshares")]
        if any(col.size and col.min() < 0 for col in columns[1:]):
            raise ValueError("engagement counts must be non-negative")
        n_followed = next((i for i, e in enumerate(entries) if e.slot != FOLLOWED), len(entries))
        feed = cls(*columns, n_followed, ())
        feed._entries = entries
        return feed

    def __len__(self) -> int:
        return self.posts.size

    def __getitem__(self, i: int) -> FeedEntry:
        if self._entries is not None:
            return self._entries[i]
        i = range(len(self))[i]  # negative indexes count from the end; IndexError past it
        post = int(self.posts[i])
        slot = FOLLOWED if i < self.n_followed else ALGORITHMIC
        return FeedEntry(post, int(self.likes[i]), int(self.reshares[i]), slot, self._store[post].content)

    def __iter__(self) -> Iterator[FeedEntry]:
        return (self[i] for i in range(len(self)))

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
        ids = np.fromiter(engaged, dtype=np.int64, count=len(engaged))
        eligible[ids[(ids >= 0) & (ids < len(eligible))]] = False
    followed = world.follows[row, authors]

    followed_ids = _top(score, eligible & followed, load.followed_count)
    shortfall = load.followed_count - len(followed_ids)
    algo_ids = _top(score, eligible & ~followed, load.algorithmic_count + shortfall)

    ids = np.concatenate((followed_ids, algo_ids))
    return Feed(ids, world.likes[ids], world.reposts[ids] + world.quotes[ids], followed_ids.size, world.posts)


def _top(score: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring posts in mask, best first, ties by ascending id."""
    ids = np.flatnonzero(mask)
    neg = -score[ids]
    if 0 < k < len(ids):
        # Keep only candidates that can reach the top k, ties at the cut included.
        keep = neg <= np.partition(neg, k - 1)[k - 1]
        ids, neg = ids[keep], neg[keep]
    return ids[np.lexsort((ids, neg))[:k]]

