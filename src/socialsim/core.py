"""Shared domain types: actions, experimental conditions, posts, and log records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

AgentId = int
PostId = int
RunId = int


class ConfigurationError(ValueError):
    """Raised when inputs cannot seat a valid run (bad sizes, bad rates)."""


class FormatError(ValueError):
    """Raised by file loaders on malformed or invariant-violating records."""


class ActionKind(Enum):
    READ = "read"
    LIKE = "like"
    REPOST = "repost"
    QUOTE = "quote"

    @property
    def is_engagement(self) -> bool:
        return self is not ActionKind.READ


ENGAGEMENT_ACTIONS = (ActionKind.LIKE, ActionKind.REPOST, ActionKind.QUOTE)


class LoadLevel(Enum):
    """Choice-set size condition: 3 followed posts plus a level-specific algorithmic quota."""

    LOWEST = "lowest"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def algorithmic_count(self) -> int:
        return _ALGO_COUNTS[self]

    @property
    def followed_count(self) -> int:
        return 3

    @property
    def total(self) -> int:
        return self.followed_count + self.algorithmic_count


_ALGO_COUNTS = {
    LoadLevel.LOWEST: 4,
    LoadLevel.LOW: 7,
    LoadLevel.MEDIUM: 15,
    LoadLevel.HIGH: 30,
}


class NormRegime(Enum):
    """Prevalence framing injected into the agent's system prompt."""

    NO_NORM = "no_norm"
    LIKE_DOMINANT = "like_dominant"
    REPOST_DOMINANT = "repost_dominant"

    @property
    def prompt_fragment(self) -> str:
        return _NORM_FRAGMENTS[self]


# Canonical wording. The fragments state prevalence of engagement forms only;
# they never instruct how often to engage at all versus read.
_NORM_FRAGMENTS = {
    NormRegime.NO_NORM: "",
    NormRegime.LIKE_DOMINANT: (
        "When users here engage with posts, they typically like (about 80%), "
        "repost (about 15%), or quote (about 5%)."
    ),
    NormRegime.REPOST_DOMINANT: (
        "When users here redistribute posts, they typically repost (about 90%) "
        "rather than quote (about 10%)."
    ),
}


class PostKind(Enum):
    SEED = "seed"
    REPOST = "repost"
    QUOTE = "quote"


@dataclass(slots=True)
class PopularityCounters:
    """Cumulative engagement tallies for one post. Mutated only by the engine."""

    likes: int = 0
    reposts: int = 0
    quotes: int = 0

    @property
    def reshares(self) -> int:
        """Combined redistribution count: reposts plus quotes, reported as one number."""
        return self.reposts + self.quotes

    def copy(self) -> "PopularityCounters":
        return PopularityCounters(self.likes, self.reposts, self.quotes)


def popularity_composite(likes: int, reshares: int) -> float:
    """Single visibility signal for a post: ln(1 + likes + reshares).

    The log damps the heavy right skew of raw counts; the +1 offset keeps
    zero-count posts (every post at run start) well defined. Strictly
    increasing in both arguments.
    """
    if likes < 0 or reshares < 0:
        raise ValueError("engagement counts must be non-negative")
    return math.log1p(likes + reshares)


@dataclass(slots=True)
class Post:
    id: PostId
    author: AgentId
    content: str
    kind: PostKind
    source_link: PostId | None
    created_at: int
    counters: PopularityCounters = field(default_factory=PopularityCounters)

    def __post_init__(self) -> None:
        if self.kind is PostKind.SEED and self.source_link is not None:
            raise ValueError("seed posts carry no source link")
        if self.kind is not PostKind.SEED and self.source_link is None:
            raise ValueError(f"{self.kind.value} posts require a source link")


@dataclass(slots=True, frozen=True)
class ExposureRecord:
    """One agent x post x activation observation; the regression row unit.

    The likes/reshares snapshot is taken when the feed is built, strictly
    before the focal decision is applied to the world.
    """

    run: RunId
    load: LoadLevel
    norm: NormRegime
    t: int
    agent: AgentId
    post: PostId
    likes: int
    reshares: int
    action: ActionKind


@dataclass(slots=True, frozen=True)
class PostCreation:
    """Log record for a post entering the world (seed injection or redistribution)."""

    post: PostId
    kind: PostKind
    author: AgentId
    source: PostId | None
    t: int


@dataclass
class RunConfig:
    """Full parameterization of one simulated run."""

    seed: int
    load: LoadLevel
    norm: NormRegime
    n_agents: int = 558
    timesteps: int = 480
    activation_p: float = 0.01
    recency_decay: float = 0.01
    w_recency: float = 0.7
    w_relevance: float = 0.3
    history_window: int = 8  # engagements a policy sees; the engine's per-agent deque bound

    def __post_init__(self) -> None:
        if not 0.0 < self.activation_p < 1.0:
            raise ConfigurationError(f"activation_p must be in (0, 1), got {self.activation_p}")
        if self.timesteps <= 0:
            raise ConfigurationError(f"timesteps must be positive, got {self.timesteps}")
        if self.n_agents <= 0:
            raise ConfigurationError(f"n_agents must be positive, got {self.n_agents}")
        if abs(self.w_recency + self.w_relevance - 1.0) > 1e-9:
            raise ConfigurationError("recency and relevance weights must sum to 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.history_window < 1:
            raise ConfigurationError(f"history_window must be at least 1, got {self.history_window}")
