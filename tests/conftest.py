import numpy as np
import pytest

from socialsim.population import AgentProfile, FollowGraph, generate_population, generate_seed_corpus
from socialsim.recommender import Feed


@pytest.fixture(scope="session")
def small_population():
    return generate_population(40, seed=11)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_seed_corpus(seed=11, size=12)


def tiny_profiles():
    """Five hand-built agents; 0 and 1 are influencers."""
    return [
        AgentProfile(0, "ua", frozenset(["kw0"]), True, True),
        AgentProfile(1, "ub", frozenset(["kw1"]), True, True),
        AgentProfile(2, "uc", frozenset(["kw2"]), False, False),
        AgentProfile(3, "ud", frozenset(["kw3"]), False, False),
        AgentProfile(4, "ue", frozenset(["kw4"]), False, False),
    ]


def tiny_graph():
    return FollowGraph({0: {1}, 1: {0}, 2: {0}, 3: {0, 1}, 4: {1}})


def make_feed(posts, likes, reshares, *, n_followed=0, store=None) -> Feed:
    """A hand-built Feed from per-slot values, followed slots first.

    ``store`` maps a post id to its text (a world's post list does); by
    default each shown post's text is "body <id>".
    """
    posts = np.asarray(posts, dtype=np.int64)
    if store is None:
        store = {p: f"body {p}" for p in posts.tolist()}
    return Feed(posts, np.asarray(likes, dtype=np.int64), np.asarray(reshares, dtype=np.int64), n_followed, store)
