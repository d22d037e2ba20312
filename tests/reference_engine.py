"""Reference engine: the record-based step/run the columnar engine must match.

Each activation builds its feed as a list of FeedSlot records with the
per-post loop of reference_feed.py, asks the policy for a decision (a
parametric policy through the per-slot loop below), and appends one
ExposureRecord per feed slot and one PostCreation per new post. Counters
are the world's arrays, read and incremented one post at a time. Only a
non-parametric policy gets a Feed, built from the slot list by
``make_feed``; nothing here reads a Feed's columns, a LogBuilder or a
CellLog. Each stream gets its own SeedSequence (``substream``), where the
engine seeds a run's streams in batches.
"""

from __future__ import annotations

import numpy as np

from socialsim.core import ActionKind, PostKind, RunConfig, popularity_composite
from socialsim.engine import _STREAM_ACTIVATION, _STREAM_DECISION, initialize
from socialsim.policy import Decision, DecisionContext, ParametricLogitPolicy, decide
from socialsim.population import FollowGraph

from conftest import make_feed
from reference_feed import reference_select_feed
from reference_log import ExposureRecord, PostCreation


def substream(seed: int, stream: int, *keys: int) -> np.random.Generator:
    """Independent generator keyed by (seed, stream, keys...): one SeedSequence per stream."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, *keys)))


def reference_parametric_decide(
    policy: ParametricLogitPolicy, feed: list, rng: np.random.Generator
) -> Decision:
    """ParametricLogitPolicy.decide as a loop over FeedSlot records."""
    draws = rng.random(len(feed))
    best: tuple[float, int] | None = None
    for slot, u in zip(feed, draws):
        p = policy.engage_probability(popularity_composite(slot.likes, slot.reshares))
        if u < p and (best is None or u > best[0]):
            best = (float(u), slot.post)
    if best is None:
        return Decision.read_all()
    target = best[1]
    slot = next(s for s in feed if s.post == target)
    p_like, p_repost, _ = policy.allocation_probabilities(popularity_composite(slot.likes, slot.reshares))
    v = rng.random()
    if v < p_like:
        return Decision(action=ActionKind.LIKE, target=target)
    if v < p_like + p_repost:
        return Decision(action=ActionKind.REPOST, target=target)
    return Decision(action=ActionKind.QUOTE, target=target, commentary=f"worth a closer look at post {target}")


def reference_step(world, t: int, config: RunConfig, policy, graph: FollowGraph, records: list) -> None:
    world.now = t
    agent_ids = sorted(world.profiles)
    draws = substream(config.seed, _STREAM_ACTIVATION, t).random(len(agent_ids))
    for agent, u in zip(agent_ids, draws):
        if u >= config.activation_p:
            continue
        feed = reference_select_feed(agent, world, graph, config.load, config)
        if not feed:
            continue
        rng = substream(config.seed, _STREAM_DECISION, t, agent)
        if isinstance(policy, ParametricLogitPolicy):
            decision = reference_parametric_decide(policy, feed, rng)
        else:
            shown = make_feed(
                [s.post for s in feed],
                [s.likes for s in feed],
                [s.reshares for s in feed],
                n_followed=sum(s.followed for s in feed),
                store=world.posts,
            )
            context = DecisionContext(
                feed=shown, profile=world.profiles[agent], history=tuple(world.history[agent]), regime=config.norm
            )
            decision = decide(policy, context, rng)
        target = decision.target if decision.action.is_engagement else None
        for slot in feed:
            action = decision.action if slot.post == target else ActionKind.READ
            records.append(
                ExposureRecord(
                    run=config.seed,
                    load=config.load,
                    norm=config.norm,
                    t=t,
                    agent=agent,
                    post=slot.post,
                    likes=slot.likes,
                    reshares=slot.reshares,
                    action=action,
                )
            )
        if target is not None:
            _reference_apply(world, agent, decision, t, records)


def _reference_apply(world, agent: int, decision: Decision, t: int, records: list) -> None:
    source = decision.target
    if decision.action is ActionKind.LIKE:
        world.likes[source] += 1
    elif decision.action is ActionKind.REPOST:
        world.reshares[source] += 1
        post = world.new_post(agent, world.posts[source], PostKind.REPOST, source, t)
        records.append(PostCreation(post=post, kind=PostKind.REPOST, author=agent, source=source, t=t))
    elif decision.action is ActionKind.QUOTE:
        world.reshares[source] += 1
        content = f"{decision.commentary} // {world.posts[source]}"
        post = world.new_post(agent, content, PostKind.QUOTE, source, t)
        records.append(PostCreation(post=post, kind=PostKind.QUOTE, author=agent, source=source, t=t))
    world.engaged[agent].add(decision.target)
    world.history[agent].append((decision.action, decision.target, t))


def reference_run(config: RunConfig, policy, profiles, graph: FollowGraph, corpus) -> list:
    """The interleaved ExposureRecord/PostCreation list of one run.

    The seed rows come from the corpus and the influencers in ascending id
    order, each post authored round-robin, as initialize's contract states.
    """
    world = initialize(profiles, graph, corpus, config)
    influencers = sorted(p.id for p in profiles if p.influencer)
    records: list = [
        PostCreation(post=i, kind=PostKind.SEED, author=influencers[i % len(influencers)], source=None, t=0)
        for i in range(len(corpus))
    ]
    for t in range(config.timesteps):
        reference_step(world, t, config, policy, graph, records)
    return records


def reference_follows(world, graph: FollowGraph) -> np.ndarray:
    """The follow matrix filled one agent at a time: row r's followees that are in the run set True."""
    rows = world.rows
    follows = np.zeros((len(rows), len(rows)), dtype=bool)
    for agent, r in rows.items():
        follows[r, [rows[f] for f in graph.follows_of(agent) if f in rows]] = True
    return follows
