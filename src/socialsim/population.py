"""Synthetic agent populations, follow graphs, and seed corpora, plus JSONL loaders.

The real platform data behind the study design (profiles, partial follower
network, topic-specific posts) is not redistributable, so this module
generates structurally comparable stand-ins: a heavy-tailed follow graph
whose top accounts act as influencers, and a synthetic topical corpus in
the required token range. Loaders accept user-supplied files in the same
format for runs against real data.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import AgentId, ConfigurationError, FormatError, read_rows, to_obj

N_INFLUENCERS = 8  # agents flagged as influencers: the top in-degree ones
MIN_INFLUENCER_FOLLOWS = 2  # every generated agent follows at least this many of them
ZIPF_EXPONENT = 2.5  # of the generated in-degree distribution
SEED_CORPUS_SIZE = 50
TOKEN_RANGE = (150, 300)


@dataclass(slots=True, frozen=True)
class AgentProfile:
    id: AgentId
    name: str
    keywords: frozenset[str]
    verified: bool
    influencer: bool

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError(f"agent {self.id}: keywords must be non-empty")


class FollowGraph:
    """Directed follower -> followee edges, fixed for a whole experiment."""

    def __init__(self, follows: Mapping[AgentId, Iterable[AgentId]]):
        self._follows: dict[AgentId, frozenset[AgentId]] = {}
        for follower, followees in follows.items():
            fs = frozenset(followees)
            if follower in fs:
                raise ValueError(f"agent {follower} cannot follow itself")
            self._follows[int(follower)] = fs

    def follows_of(self, agent: AgentId) -> frozenset[AgentId]:
        return self._follows.get(agent, frozenset())

    def agents(self) -> list[AgentId]:
        return sorted(self._follows)

    def edges(self) -> list[tuple[AgentId, AgentId]]:
        return sorted(
            (follower, followee)
            for follower, followees in self._follows.items()
            for followee in followees
        )

    @property
    def n_edges(self) -> int:
        return sum(len(f) for f in self._follows.values())

    def in_degrees(self) -> dict[AgentId, int]:
        deg = {a: 0 for a in self._follows}
        for followees in self._follows.values():
            for followee in followees:
                deg[followee] = deg.get(followee, 0) + 1
        return deg

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FollowGraph) and self._follows == other._follows


def top_influencers(graph: FollowGraph, k: int = N_INFLUENCERS) -> list[AgentId]:
    """The k agents with highest in-degree; ties broken by smaller id."""
    deg = graph.in_degrees()
    return sorted(deg, key=lambda a: (-deg[a], a))[:k]


# Vocabulary shared by profile keywords and synthetic post bodies so that
# keyword relevance varies across agent-post pairs instead of pinning at zero.
_TOPIC_WORDS = [
    "model", "benchmark", "inference", "weights", "opensource", "training",
    "tokens", "latency", "reasoning", "alignment", "chips", "compute",
    "dataset", "finetune", "agents", "search", "coding", "math", "release",
    "pricing", "context", "scaling", "eval", "safety", "quantization",
    "distillation", "multimodal", "api", "startup", "research", "deploy",
    "throughput", "gpu", "cluster", "pipeline", "demo", "leaderboard",
    "hallucination", "retrieval", "embedding", "translation", "assistant",
    "openweights", "robotics", "speech", "vision", "ranking", "memory",
]

_FILLER_WORDS = [
    "the", "a", "this", "that", "new", "fast", "still", "really", "just",
    "today", "again", "better", "worse", "cheaper", "impressive", "wild",
    "honestly", "apparently", "finally", "everyone", "nobody", "somehow",
    "quietly", "massively", "barely", "already", "surprisingly",
]

_VERBS = [
    "ships", "beats", "drops", "claims", "shows", "breaks", "matches",
    "needs", "runs", "costs", "tests", "compares", "outperforms", "misses",
    "doubles", "halves", "reports", "confirms", "questions", "measures",
]


def generate_population(n: int, seed: int) -> tuple[list[AgentProfile], FollowGraph]:
    """Generate n agents with a heavy-tailed follow graph.

    In-degrees are drawn from a discrete power law (zipf with ZIPF_EXPONENT,
    capped at n-1) and followers assigned uniformly at random. Every agent is
    then guaranteed to follow at least MIN_INFLUENCER_FOLLOWS of the
    provisional top-in-degree accounts, so followed feeds have ample
    supply from the first timestep. The final top-8 in-degree agents are
    flagged as influencers, ties broken by ascending id. Pure function of
    (n, seed).
    """
    if n < 10:
        raise ConfigurationError(f"population needs at least 10 agents to seat {N_INFLUENCERS} influencers, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x506F50)))

    in_deg = np.minimum(rng.zipf(ZIPF_EXPONENT, size=n), n - 1)
    follows: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        picks = rng.choice(n - 1, size=int(in_deg[i]), replace=False)
        for p in picks:
            follower = int(p) if p < i else int(p) + 1  # skip self
            follows[follower].add(i)

    # Backbone: everyone follows a couple of high-in-degree accounts. Extra
    # edges only land on the provisional top set, so it stays the top set.
    candidates = top_influencers(FollowGraph(follows))
    for i in range(n):
        options = [c for c in candidates if c != i and c not in follows[i]]
        missing = MIN_INFLUENCER_FOLLOWS - len(follows[i] & set(candidates))
        for _ in range(max(missing, 0)):
            pick = options.pop(int(rng.integers(len(options))))
            follows[i].add(pick)

    graph = FollowGraph(follows)
    influencers = set(top_influencers(graph))
    keyword_counts = rng.integers(3, 7, size=n)
    verified_draws = rng.random(n)
    profiles = []
    for i in range(n):
        kw = rng.choice(len(_TOPIC_WORDS), size=int(keyword_counts[i]), replace=False)
        profiles.append(
            AgentProfile(
                id=i,
                name=f"user_{i:04d}",
                keywords=frozenset(_TOPIC_WORDS[j] for j in kw),
                verified=(i in influencers) or bool(verified_draws[i] < 0.05),
                influencer=i in influencers,
            )
        )
    return profiles, graph


def generate_seed_corpus(seed: int, *, size: int = SEED_CORPUS_SIZE) -> list[str]:
    """Generate `size` unique synthetic post bodies of TOKEN_RANGE whitespace tokens."""
    if size < 1:
        raise ConfigurationError(f"corpus size must be at least 1, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x436F72)))
    lo, hi = TOKEN_RANGE
    bodies: list[str] = []
    seen: set[str] = set()
    while len(bodies) < size:
        target = int(rng.integers(lo, hi + 1))
        words: list[str] = []
        while len(words) < target:
            sentence = _sentence(rng)
            words.extend(sentence)
        body = " ".join(words[:target])
        if body in seen:
            continue
        seen.add(body)
        bodies.append(body)
    return bodies


def _sentence(rng: np.random.Generator) -> list[str]:
    n_mid = int(rng.integers(4, 9))
    words = [_TOPIC_WORDS[int(rng.integers(len(_TOPIC_WORDS)))]]
    words.append(_VERBS[int(rng.integers(len(_VERBS)))])
    for _ in range(n_mid):
        pool = _TOPIC_WORDS if rng.random() < 0.45 else _FILLER_WORDS
        words.append(pool[int(rng.integers(len(pool)))])
    words[0] = words[0].capitalize()
    words[-1] = words[-1] + "."
    return words


def token_count(body: str) -> int:
    """Whitespace tokenization; the corpus length check uses this count."""
    return len(body.split())


@dataclass
class PopulationRow:
    """One line of a population file. The influencer flag is not stored: a
    loaded population recomputes it as top-8 in-degree."""

    id: AgentId
    name: str
    keywords: list[str]
    verified: bool
    follows: list[AgentId]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"id must be non-negative, got {self.id}")
        if not self.keywords:
            raise ValueError("keywords must be non-empty")
        if self.id in self.follows:
            raise ValueError(f"agent {self.id} follows itself")


@dataclass
class CorpusRow:
    """One line of a corpus file: a seed post body."""

    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("content must be non-empty")


def _line(row: PopulationRow | CorpusRow) -> str:
    return json.dumps(to_obj(row), separators=(",", ":"), ensure_ascii=False)


def population_to_lines(profiles: Sequence[AgentProfile], graph: FollowGraph) -> list[str]:
    return [
        _line(PopulationRow(p.id, p.name, sorted(p.keywords), p.verified, sorted(graph.follows_of(p.id))))
        for p in sorted(profiles, key=lambda p: p.id)
    ]


def save_population(profiles: Sequence[AgentProfile], graph: FollowGraph, path: str | Path) -> str:
    """Write the population file; returns its population_digest."""
    payload = "\n".join(population_to_lines(profiles, graph))
    Path(path).write_text(payload + "\n", encoding="utf-8")
    return _sha256(payload)


def population_digest(profiles: Sequence[AgentProfile], graph: FollowGraph) -> str:
    """SHA-256 of the population file's lines joined by newlines (no final newline)."""
    return _sha256("\n".join(population_to_lines(profiles, graph)))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_population(path: str | Path) -> tuple[list[AgentProfile], FollowGraph]:
    """Read a population file of PopulationRow lines (core.read_rows), then
    check the rules across rows: ids unique, every followee a known id.

    FormatError names the file and the line. The influencer flag is derived
    from the loaded graph (top-8 in-degree, ties by smaller id).
    """
    rows = read_rows(path, PopulationRow, "population")
    if not rows:
        raise FormatError(f"{path}: empty population file")
    ids: set[AgentId] = set()
    for number, row in rows:
        if row.id in ids:
            raise FormatError(f"{path}, line {number}: duplicate agent id {row.id}")
        ids.add(row.id)
    for number, row in rows:
        unknown = set(row.follows) - ids
        if unknown:
            raise FormatError(f"{path}, line {number}: follows reference unknown agent ids {sorted(unknown)}")

    graph = FollowGraph({row.id: row.follows for _, row in rows})
    influencers = set(top_influencers(graph))
    profiles = [
        AgentProfile(row.id, row.name, frozenset(row.keywords), row.verified, influencer=row.id in influencers)
        for _, row in rows
    ]
    profiles.sort(key=lambda p: p.id)
    return profiles, graph


def save_corpus(bodies: Sequence[str], path: str | Path) -> None:
    Path(path).write_text("\n".join(_line(CorpusRow(b)) for b in bodies) + "\n", encoding="utf-8")


def corpus_digest(bodies: Sequence[str]) -> str:
    """SHA-256 of the post bodies joined by newlines (not of the corpus file's JSON lines)."""
    return _sha256("\n".join(bodies))


def load_corpus(path: str | Path) -> list[str]:
    """Read a corpus file of CorpusRow lines (core.read_rows). Duplicate bodies
    are errors; out-of-range token counts only warn, since real corpora may
    legitimately differ."""
    rows = read_rows(path, CorpusRow, "corpus")
    if not rows:
        raise FormatError(f"{path}: empty corpus file")
    seen: set[str] = set()
    for number, row in rows:
        if row.content in seen:
            raise FormatError(f"{path}, line {number}: duplicate post body")
        seen.add(row.content)
        n_tok = token_count(row.content)
        if not TOKEN_RANGE[0] <= n_tok <= TOKEN_RANGE[1]:
            warnings.warn(f"{path}, line {number}: token count {n_tok} outside {TOKEN_RANGE}", stacklevel=2)
    return [row.content for _, row in rows]
