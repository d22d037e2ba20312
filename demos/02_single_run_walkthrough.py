"""Walk through one simulated run at reduced scale.

Each run is a 480-step day at 3 minutes per step; here we use 120 steps and
80 agents so the script finishes in about a second. Agents activate with
fixed probability, get a feed of 3 followed posts plus an algorithmic batch
sized by the load condition, and either read everything or engage exactly
one post. Every feed slot becomes one exposure row carrying the
popularity counts the agent actually saw; the run returns them as numpy
columns (a CellLog).
"""

from collections import Counter

import numpy as np

from socialsim import (
    ActionKind,
    DecisionContext,
    LoadLevel,
    NormRegime,
    RunConfig,
    build_policy,
    build_prompt,
    descriptive_shares,
    generate_population,
    generate_seed_corpus,
    initialize,
    mock_policy_spec,
    run,
    select_feed,
)

profiles, graph = generate_population(80, seed=3)
corpus = generate_seed_corpus(seed=3, size=50)
cfg = RunConfig(
    seed=11,
    load=LoadLevel.MEDIUM,
    norm=NormRegime.REPOST_DOMINANT,
    n_agents=80,
    timesteps=120,
    activation_p=0.05,
)

# peek at what an activated agent would see before running anything
world = initialize(profiles, graph, corpus, cfg)
feed = select_feed(21, world, cfg.load, cfg)
print(f"agent 21's feed under {cfg.load.value} load: {len(feed)} posts "
      f"({feed.n_followed} followed + {len(feed) - feed.n_followed} algorithmic)")

context = DecisionContext(feed=feed, profile=world.profiles[21], history=(), regime=cfg.norm)
prompt = build_prompt(context)
print("\nprompt an LLM-backed policy would receive (first 5 lines):")
for line in prompt.splitlines()[:5]:
    print(f"  | {line}")

# now the actual run, with the offline parametric policy
policy = build_policy(mock_policy_spec(), cfg.load, cfg.norm)
log = run(cfg, policy, profiles, graph, corpus)
e = log.exposures  # one numpy array per field; action holds codes, 0 = read
print(f"\nrun complete: {len(e)} exposure rows, "
      f"{len(set(zip(e.t.tolist(), e.agent.tolist())))} activations")
print(f"action mix: {descriptive_shares(log).counts}")

popular = Counter(e.post[e.action != 0].tolist()).most_common(3)
print("most-engaged posts:", popular)

# the log alone reconstructs every counter: per engagement kind, a bincount
# of the post ids on the rows with that action (post ids run 0..n-1 per run)
n_posts = len(log.creations)
recount = {
    kind.value: np.bincount(e.post[e.action == code], minlength=n_posts)
    for code, kind in enumerate(ActionKind)
    if kind.is_engagement
}
total = sum(int(counts.sum()) for counts in recount.values())
print(f"cumulative engagement recounted from the log: {total}")
print(f"new posts created by reshares: {n_posts - 50}")
