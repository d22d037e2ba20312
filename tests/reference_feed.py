"""Reference feed builder: the plain per-post loop that select_feed must match.

Every eligible post is scored with the scalar score_post, each pool is
sorted by (-score, post id), and the followed quota with its algorithmic
backfill is applied as in select_feed's contract. It reads only the post
list, the engaged sets, the profiles, the follow graph and each shown
post's counters (``world.counters``), none of the world's ranking arrays.
"""

from __future__ import annotations

from socialsim.core import LoadLevel, RunConfig
from socialsim.engine import WorldState
from socialsim.population import FollowGraph
from socialsim.recommender import ALGORITHMIC, FOLLOWED, FeedEntry, score_post


def reference_select_feed(
    agent: int, world: WorldState, graph: FollowGraph, load: LoadLevel, config: RunConfig
) -> list[FeedEntry]:
    followees = graph.follows_of(agent)
    engaged = world.engaged.get(agent, ())
    profile = world.profiles[agent]

    followed_pool: list[tuple[float, int]] = []
    algo_pool: list[tuple[float, int]] = []
    for post in world.posts:
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

    entries = []
    for pool, n, slot in ((followed_pool, n_followed, FOLLOWED), (algo_pool, n_algo, ALGORITHMIC)):
        for _, pid in pool[:n]:
            counters = world.counters(pid)
            entries.append(
                FeedEntry(
                    post=pid,
                    likes=counters.likes,
                    reshares=counters.reshares,
                    slot=slot,
                    content=world.posts[pid].content,
                )
            )
    return entries
