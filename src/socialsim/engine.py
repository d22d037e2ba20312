"""Deterministic discrete-time scheduler for one simulated run.

Each timestep draws one activation Bernoulli per agent, then processes the
activated agents sequentially in ascending id order. Every activated agent
gets a feed built against the current world state (so it sees all updates
from earlier agents in the same timestep), one decision, one exposure
row per feed slot, and any resulting repost/quote enters the post pool
immediately.

The log is columnar from end to end: a feed is a few arrays (``Feed``), each
activation appends them to a ``LogBuilder`` as one block of exposure rows,
and the builder hands the rows on a piece at a time, to a sink that writes
them (``harness.LogWriter``) or, by default, to be joined into the
``CellLog`` that ``run`` returns. No object is built per feed slot: policies
read the same columns (a scripted policy indexes ``posts``, an LLM prompt
zips the columns with the posts' text). A run's creation rows are the
world's post columns, placed between the blocks as each piece is handed
off; nothing else records a post.

A post is one entry in each of WorldState's post columns: its text, kind,
source, creation time and author row. ``select_feed`` ranks those columns
for an agent: up to 3 posts by its followees, then the load's quota of
other posts, each pool best first by ``WorldState.scores``. The score is
recency and keyword relevance only; the popularity counters never enter it,
so a popularity cue acts only through decisions and the feedback from
engagement to exposure stays endogenous. The pools are labelled by
authorship (followed: written by a followee), so the partition can be
rebuilt from the logs plus the population file. This module is the only one
that reads the post columns' layout.

Randomness comes from counter-keyed substreams of the run seed: one stream
per timestep for activations, keyed (seed, 1, t), and one per activated
(timestep, agent) for decisions, keyed (seed, 2, t, agent). Each is the
generator ``np.random.default_rng(key)`` would give. Neither key reads the
world, so ``schedule`` seeds all of a run's streams before its first step,
in two vectorized passes of SeedSequence's hash: one for the timesteps'
activation streams, then one for the decision streams of the agents those
draws activate. A decision keeps only its four seed words until its feed
turns out non-empty; then PCG64 is seeded from them. Replays of the same
(config, population, corpus, policy fixtures) produce byte-identical logs
regardless of refactoring order.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict, deque
from typing import Callable, Sequence

import numpy as np

from . import harness
from .core import (
    ACTIONS,
    LOADS,
    NORMS,
    POST_KINDS,
    ActionKind,
    CellLog,
    ConfigurationError,
    CreationColumns,
    ExposureColumns,
    Feed,
    LoadLevel,
    PostKind,
    RunConfig,
)
from .policy import DecisionContext, Policy, decide
from .population import AgentProfile, FollowGraph

_STREAM_ACTIVATION = 1
_STREAM_DECISION = 2

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _int_words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int: its little-endian 32-bit words, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(prefix: tuple[int, ...], *columns: np.ndarray) -> np.ndarray:
    """Row i: ``generate_state(4, np.uint64)`` of numpy's SeedSequence of ``(*prefix, *(c[i] for c in columns))``.

    Those are the words PCG64 seeds from. ``columns`` are equal-length arrays
    of non-negative int64. A value of 2**32 or more gives two entropy words
    where a smaller one gives one, so the rows are hashed in groups of equal
    word count.
    """
    head = [w for key in prefix for w in _int_words(key)]
    cols = [np.asarray(c, dtype=np.uint64) for c in columns]
    wide = sum((c > _MASK32).astype(np.intp) << i for i, c in enumerate(cols))  # bit i: column i takes two words
    out = np.empty((len(cols[0]), 4), dtype=np.uint64)
    for pattern in set(wide.tolist()):
        rows = np.flatnonzero(wide == pattern)
        entropy = [np.full(rows.size, w, dtype=np.uint32) for w in head]
        for i, c in enumerate(cols):
            values = c[rows]
            entropy.append((values & _MASK32).astype(np.uint32))
            if pattern >> i & 1:
                entropy.append((values >> 32).astype(np.uint32))
        out[rows] = _seed_sequence_state(entropy)
    return out


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's pool mixing and ``generate_state(4, np.uint64)``, one row per element of the word arrays.

    ``entropy`` holds a key's words in order, one uint32 array per word
    position. numpy's uint32 arithmetic wraps, as the C code's does.
    """
    n = entropy[0].size
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> 16
        return result

    # Keys shorter than the pool of 4 words are padded with the hash of 0.
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 words from the pool in turn, each pair (low, high) one uint64.
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        value ^= value >> 16
        state.append(value.astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << 32 for j in range(4)], axis=1)


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(key)`` gives, from the key's 4 seed words (``_seed_words``)."""
    return np.random.Generator(np.random.PCG64(_seed_type()(words)))


@functools.cache
def _seed_type() -> type:
    """A numpy ISeedSequence whose ``generate_state`` returns the words it holds (PCG64 asks for 4 uint64).

    Built on first use: importing numpy.random.bit_generator with this module
    would load numpy.random into every CLI process, simulating or not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


_ACTION_CODES = {a: i for i, a in enumerate(ACTIONS)}
_KIND_CODES = {k: i for i, k in enumerate(POST_KINDS)}


class LogBuilder:
    """The write side of one run's CellLog, handed off a piece of rows at a time, plus the run's deterministic counts.

    Each activation appends its feed's columns as one block of exposure rows
    (all read until ``engagement`` marks one) and notes how many posts the
    world held then. A block's action is set before the next activation, and
    a post made after a block comes after it in the log, so the rows held are
    final whenever an activation begins. Then, if its block would take them
    past the log format's ``_CHUNK_ROWS``, the builder hands them to ``sink``
    as one piece: a CellLog of its blocks, each after the posts that existed
    when it was logged, and the creation rows of every post made since the
    last piece, read from the world's post columns in id order. ``finish``
    hands off the rest, so the pieces in turn are the run's log, and a run
    holds at most one piece of its rows. Without a sink the builder keeps the
    pieces, and ``finish`` returns them joined. The counts are:

    * ``activations``: agents activated, whether or not their feed was empty;
    * ``empty_feeds``: activations whose feed had no post (they log no row);
    * ``backfilled_slots``: algorithmic slots beyond the load's quota, i.e. the
      followed-pool shortfall filled from the algorithmic pool.
    """

    def __init__(self, config: RunConfig, sink: Callable[[CellLog], object] | None = None):
        self._config = config
        self._algorithmic_count = config.load.algorithmic_count
        self._pieces: list[CellLog] | None = [] if sink is None else None
        self._sink = self._pieces.append if sink is None else sink
        self._posts: list[np.ndarray] = []  # per activation block since the last piece
        self._likes: list[np.ndarray] = []
        self._reshares: list[np.ndarray] = []
        self._block_t: list[int] = []
        self._block_agent: list[int] = []
        self._block_created: list[int] = []  # posts in the world when the block was logged
        self._engaged_rows: list[int] = []  # exposure rows of the blocks held
        self._engaged_codes: list[int] = []
        self._n_exposures = 0  # exposure rows logged
        self._held = 0  # exposure rows in the blocks held
        self._created = 0  # posts whose creation rows were handed off
        self.activations = 0
        self.empty_feeds = 0
        self.backfilled_slots = 0

    def activation(self, world: WorldState, agent: int, feed: Feed) -> int:
        """Count one activation and log its feed as read rows; returns the block's first exposure row."""
        self.activations += 1
        n = len(feed)
        if not n:
            self.empty_feeds += 1
            return self._n_exposures
        if self._held + len(world.posts) - self._created + n > harness._CHUNK_ROWS:
            self._hand_off(world)
        self.backfilled_slots += max(0, n - feed.n_followed - self._algorithmic_count)
        self._posts.append(feed.posts)
        self._likes.append(feed.likes)
        self._reshares.append(feed.reshares)
        self._block_t.append(world.now)
        self._block_agent.append(agent)
        self._block_created.append(len(world.posts))
        start = self._n_exposures
        self._held += n
        self._n_exposures += n
        return start

    def engagement(self, row: int, action: ActionKind) -> None:
        """Set the action of exposure row ``row`` (read until now), a row of a block not yet handed off."""
        first = self._n_exposures - self._held
        if not first <= row < self._n_exposures:
            raise ValueError(f"exposure row {row} is not in a block the builder holds (rows {first} to {self._n_exposures - 1})")
        self._engaged_rows.append(row - first)
        self._engaged_codes.append(_ACTION_CODES[action])

    def counts(self) -> dict[str, int]:
        return {
            "activations": self.activations,
            "empty_feeds": self.empty_feeds,
            "backfilled_slots": self.backfilled_slots,
        }

    def finish(self, world: WorldState) -> CellLog | None:
        """Hand off the rows still held; without a sink, return the run's CellLog, the pieces joined."""
        self._hand_off(world)
        return None if self._pieces is None else CellLog.concat(self._pieces)

    def _hand_off(self, world: WorldState) -> None:
        """Give the sink the blocks held and the creation rows of the posts made since the last piece."""
        cfg, n, made = self._config, self._held, len(world.posts)
        sizes = np.array([block.size for block in self._posts], dtype=np.int64)

        def joined(blocks: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)

        action = np.zeros(n, dtype=np.int8)
        action[self._engaged_rows] = self._engaged_codes
        exposures = ExposureColumns(
            run=np.full(n, cfg.seed, dtype=np.int64),
            load=np.full(n, LOADS.index(cfg.load), dtype=np.int8),
            norm=np.full(n, NORMS.index(cfg.norm), dtype=np.int8),
            t=np.repeat(np.array(self._block_t, dtype=np.int64), sizes),
            agent=np.repeat(np.array(self._block_agent, dtype=np.int64), sizes),
            post=joined(self._posts),
            likes=joined(self._likes),
            reshares=joined(self._reshares),
            action=action,
        )
        # An exposure row's place in the piece: the exposure rows before it plus the piece's creation rows before its block.
        is_exposure = np.zeros(n + made - self._created, dtype=bool)
        positions = np.repeat(np.array(self._block_created, dtype=np.int64) - self._created, sizes)
        positions += np.arange(n)
        is_exposure[positions] = True
        piece = CellLog(exposures, world.creations(self._created, made), is_exposure)
        for held in (self._posts, self._likes, self._reshares, self._block_t, self._block_agent, self._block_created,
                     self._engaged_rows, self._engaged_codes):
            held.clear()
        self._held, self._created = 0, made
        self._sink(piece)


def content_tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


class WorldState:
    """Mutable run state: post columns, counters, followee rows, per-agent memory, ranking arrays.

    Agents are rows, in profile order (``rows`` maps agent id to row); posts
    are columns, by id, and these columns are the only record of a post:

    * ``posts``: the text of each post, a list of str;
    * kind (an int8 code into POST_KINDS), source (int64, -1 for none),
      creation time and author row (int64); ``creations`` reads them as a
      log's creation rows;
    * ``likes`` and ``reshares`` (reposts and quotes together): one int64 per
      post each, the only copy of the two popularity cues a feed shows;
    * ``followees``: by agent row, the sorted rows (intp) of the agents that row
      follows within the run;
    * ``engaged`` and ``history``: each agent's engaged post ids and recent
      engagements, an entry made on the agent's first engagement;
    * a keywords x posts incidence of post words (float32): one row per
      distinct lower-cased agent keyword, 1.0 where the post's lower-cased
      whitespace tokens hold that word; each post's token count, and its
      token set. ``new_post`` fills the post's column once: a repost with its
      source's text copies the source's column and shares its set, and a
      quote ending in " // " and that text adds the tokens before it to the
      source's, so its text is never tokenized whole. ``scores`` computes an
      agent's keyword relevance to every post from the rows of its keywords
      when the agent is scored.

    Post columns are allocated with spare capacity; when they run out, every
    post-indexed array is reallocated at twice its size, so adding a post
    costs amortized O(keywords), scoring an agent reads only its own keywords'
    rows over the live posts (not the spare columns), and the world takes
    O(agents + follow edges + posts x keywords) memory and no array with
    agents x agents or agents x posts entries. At ``crowd`` scale (2,232
    agents, 8,264 follow edges) the followee rows take 0.3 MB, where an
    agents x agents bool matrix would take 4.8 MB (76 MB at 8,928 agents).
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, profiles: Sequence[AgentProfile], graph: FollowGraph, config: RunConfig):
        self.profiles: dict[int, AgentProfile] = {p.id: p for p in profiles}
        self.posts: list[str] = []
        self._tokens: list[frozenset[str]] = []  # each post's content_tokens; a repost shares its source's set
        # Made on an agent's first engagement; the engine reads them with .get, so reading creates no entry.
        self.engaged: defaultdict[int, set[int]] = defaultdict(set)
        self.history: defaultdict[int, deque] = defaultdict(functools.partial(deque, maxlen=config.history_window))
        self.now: int = 0
        self._decay = config.recency_decay
        self._w_recency = config.w_recency
        self._w_relevance = config.w_relevance
        self._recency = np.zeros(0)  # w_recency * exp(-decay * age) by age, grown on demand
        self._t_min = self._t_max = 0  # range of created_at over all posts

        self.agent_ids = np.array(sorted(self.profiles), dtype=np.int64)  # activation order
        self.rows: dict[int, int] = {agent: r for r, agent in enumerate(self.profiles)}
        rows = self.rows
        self._row_agents = np.fromiter(rows, dtype=np.int64, count=len(rows))  # agent id by row: profile order
        self.followees = [np.array(sorted(rows[f] for f in graph.follows_of(agent) if f in rows), dtype=np.intp) for agent in rows]
        self._followed = np.zeros(len(rows), dtype=bool)  # select_feed's scratch row, all False between calls
        vocab: dict[str, int] = {}
        keyword_cols = [{vocab.setdefault(k.lower(), len(vocab)) for k in self.profiles[agent].keywords} for agent in rows]
        self._vocab = vocab
        self._keyword_rows = [np.array(sorted(cols), dtype=np.intp) for cols in keyword_cols]  # by agent row

        cap = self._INITIAL_CAPACITY
        self._created_at = np.zeros(cap, dtype=np.int64)
        self._authors = np.zeros(cap, dtype=np.int64)  # each post's author, as an agent row
        self._kinds = np.zeros(cap, dtype=np.int8)
        self._sources = np.zeros(cap, dtype=np.int64)
        self._likes = np.zeros(cap, dtype=np.int64)
        self._reshares = np.zeros(cap, dtype=np.int64)
        # Word incidence (keywords x posts) and token counts. Whole numbers up to
        # 2**24 are exact in float32, and so are their sums and differences here.
        self._words = np.zeros((len(vocab), cap), dtype=np.float32)
        self._n_tokens = np.zeros(cap, dtype=np.float32)

    # Views of the first len(posts) entries: writing to one writes the counter.
    @property
    def likes(self) -> np.ndarray:
        return self._likes[: len(self.posts)]

    @property
    def reshares(self) -> np.ndarray:
        return self._reshares[: len(self.posts)]

    def creations(self, lo: int = 0, hi: int | None = None) -> CreationColumns:
        """The creation rows of posts ``lo`` up to ``hi`` (every post by default), by id; authors as agent ids.

        The columns other than post and author are views: a post's entries never change once written.
        """
        hi = len(self.posts) if hi is None else hi
        return CreationColumns(
            kind=self._kinds[lo:hi],
            post=np.arange(lo, hi, dtype=np.int64),
            author=self._row_agents[self._authors[lo:hi]],
            source=self._sources[lo:hi],
            t=self._created_at[lo:hi],
        )

    def new_post(self, author: int, content: str, kind: PostKind, source: int | None, t: int) -> int:
        """Add a post and return its id. A seed post has no source; a repost or quote has one."""
        if kind is PostKind.SEED and source is not None:
            raise ValueError("seed posts carry no source link")
        if kind is not PostKind.SEED and source is None:
            raise ValueError(f"{kind.value} posts require a source link")
        if source is not None and not 0 <= source < len(self.posts):
            raise ValueError(f"{kind.value} of post {source}, which does not exist")
        if author not in self.rows:
            raise ValueError(f"post author {author} is not an agent of this world")
        pid = len(self.posts)
        if pid == self._created_at.size:
            self._grow()
        self._created_at[pid] = t
        self._authors[pid] = self.rows[author]
        self._kinds[pid] = _KIND_CODES[kind]
        self._sources[pid] = -1 if source is None else source
        text = None if source is None else self.posts[source]
        if text is not None and (content == text or content.endswith(" // " + text)):
            # A repost keeps its source's text and a quote ends in " // " and that text, so either takes the source's
            # tokens and a quote adds those before it: lower-casing and splitting never reach across the seam's spaces.
            own = content_tokens(content[: len(content) - len(text)])
            tokens = own | self._tokens[source] if own else self._tokens[source]
            self._words[:, pid] = self._words[:, source]
        else:
            own = tokens = content_tokens(content)
        if own:
            self._words[[self._vocab[w] for w in own.intersection(self._vocab)], pid] = 1.0
        self._n_tokens[pid] = len(tokens)
        self._tokens.append(tokens)
        self._t_min = min(self._t_min, t) if pid else t
        self._t_max = max(self._t_max, t) if pid else t
        self.posts.append(content)
        return pid

    def _grow(self) -> None:
        cap = 2 * self._created_at.size
        for name in ("_created_at", "_authors", "_kinds", "_sources", "_likes", "_reshares", "_words", "_n_tokens"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (cap,), dtype=old.dtype)
            new[..., : old.shape[-1]] = old
            setattr(self, name, new)

    def scores(self, row: int) -> np.ndarray:
        """Ranking score of every post for the agent in ``row`` at ``now``.

        score = w_recency * exp(-decay * age) + w_relevance * jaccard, where
        age = now - created_at and jaccard is the overlap of the post's
        lower-cased whitespace tokens with the agent's lower-cased keywords:
        |tokens & keywords| / |tokens | keywords|, 0.0 when they share no word.
        Both counts are whole numbers, held exactly in float32 and divided in
        float64, so each quotient is the float an int/int division gives. The
        recency term is read from a table by integer age, each entry the
        scalar product ``w_recency * math.exp(-decay * age)``, and the add runs
        on float64 values, so each element is the same float a scalar
        evaluation of the formula gives. With weights summing to 1 the score
        is in [0, 1]. No popularity counter enters it.
        """
        if self.posts and self.now < self._t_max:
            raise ValueError(f"post created in the future (t={self._t_max} > now={self.now})")
        n = len(self.posts)
        need = self.now - self._t_min + 1  # the oldest post's age, plus one
        if self._recency.size < need:
            size = max(need, 2 * self._recency.size)
            self._recency = np.array([self._w_recency * math.exp(-self._decay * age) for age in range(size)])
        keywords = self._keyword_rows[row]
        inter = self._words[keywords, :n].sum(axis=0)  # the live posts' columns only, not the spare capacity
        union = self._n_tokens[:n] - inter
        union += len(keywords)  # >= 1: every agent has a keyword
        return self._recency[self.now - self._created_at[:n]] + self._w_relevance * np.divide(inter, union, dtype=np.float64)


def select_feed(agent: int, world: WorldState, load: LoadLevel, config: RunConfig) -> Feed:
    """Build the agent's feed for the current timestep.

    Up to 3 highest-scoring eligible followee posts, then up to
    load.algorithmic_count highest-scoring posts from the rest of the pool.
    A followed shortfall is backfilled from the algorithmic pool so the
    total stays on target when supply allows. Eligible means: not authored
    by the agent and not previously engaged by the agent. Ties break by
    ascending post id; the result is deterministic in the world state.
    The likes and reshares are copies of the world's counters at this call;
    they are shown, never ranked on.
    """
    row = world.rows[agent]
    score = world.scores(row)
    authors = world._authors[: score.size]  # the backing arrays, here and below: no property call per read
    eligible = authors != row
    engaged = world.engaged.get(agent)
    if engaged:
        eligible[[post for post in engaged if 0 <= post < eligible.size]] = False
    # The agent's follow row, set from its followee rows, gathered by author, and cleared again.
    mark, followees = world._followed, world.followees[row]
    mark[followees] = True
    followed = eligible & mark[authors]
    mark[followees] = False
    eligible ^= followed  # the algorithmic pool: eligible, not followed

    followed_ids = _top(score, followed, load.followed_count)
    shortfall = load.followed_count - len(followed_ids)
    algo_ids = _top(score, eligible, load.algorithmic_count + shortfall)

    ids = np.concatenate((followed_ids, algo_ids))
    return Feed(ids, world._likes[ids], world._reshares[ids], followed_ids.size, world.posts)


_SORT_WHOLE_MAX = 256  # largest pool _top sorts without the partition cut


def _top(score: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring posts in mask, best first, ties by ascending id.

    ``nonzero`` gives the ids in ascending order, and a stable sort keeps
    that order among equal scores. A pool of more than ``_SORT_WHOLE_MAX``
    posts is first cut with ``np.partition`` to the scores at or above the
    k-th, ties at the cut kept, so the cut changes no result. The cut-off is
    where the two cost the same: timed on algorithmic pools taken from paper
    and crowd runs (k 3 to 33, numpy 2.4, one pinned vCPU), sorting alone is
    faster below about 192 posts (4.3 against 9.1 us under 64), the two are
    even from 192 to 320, and the cut is faster above (16.8 against 39.2 us
    past 800).
    """
    ids = mask.nonzero()[0]
    s = score[ids]
    if _SORT_WHOLE_MAX < len(ids) and 0 < k < len(ids):
        keep = s >= np.partition(s, len(ids) - k)[len(ids) - k]
        ids, s = ids[keep], s[keep]
    return ids[(-s).argsort(kind="stable")[:k]]


def initialize(
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    config: RunConfig,
) -> WorldState:
    """Seed the world: corpus posts at t=0, authored round-robin by influencers.

    Influencers are taken in ascending id order. Production populations carry
    exactly eight (enforced by the population module); the engine itself only
    requires at least one so that reduced hand-built scenarios stay runnable.
    """
    if not corpus:
        raise ConfigurationError("corpus is empty")
    influencers = sorted(p.id for p in profiles if p.influencer)
    if not influencers:
        raise ConfigurationError("population has no influencers to author seed posts")
    world = WorldState(profiles, graph, config)
    for i, body in enumerate(corpus):
        world.new_post(influencers[i % len(influencers)], body, PostKind.SEED, None, 0)
    return world


def schedule(config: RunConfig, agent_ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per timestep: the activated agents, ascending, and the seed words of their decision streams, row for row.

    Step t activates the agents whose draw from the stream keyed (seed, 1, t),
    one uniform per agent of ``agent_ids`` in order, is below activation_p.
    An activated agent's decision stream is keyed (seed, 2, t, agent).
    """
    ts = np.arange(config.timesteps, dtype=np.int64)
    active = [
        agent_ids[_generator(words).random(len(agent_ids)) < config.activation_p]
        for words in _seed_words((config.seed, _STREAM_ACTIVATION), ts)
    ]
    counts = [agents.size for agents in active]
    seeds = _seed_words((config.seed, _STREAM_DECISION), np.repeat(ts, counts), np.concatenate(active))
    return list(zip(active, np.split(seeds, np.cumsum(counts)[:-1])))


def step(
    world: WorldState, t: int, config: RunConfig, policy: Policy, log: LogBuilder, agents: np.ndarray, seeds: np.ndarray
) -> None:
    """Advance one timestep: build feeds, decide, apply, log.

    ``agents`` and ``seeds`` are the step's entry of ``schedule``: the activated
    agents in ascending id order and their decision streams' seed words.
    """
    world.now = t
    for agent, words in zip(agents.tolist(), seeds):
        feed = select_feed(agent, world, config.load, config)
        start = log.activation(world, agent, feed)
        if not feed:
            continue  # nothing to read, nothing to log
        context = DecisionContext(
            feed=feed,
            profile=world.profiles[agent],
            history=tuple(world.history.get(agent, ())),
            regime=config.norm,
        )
        decision = decide(policy, context, _generator(words))
        if not decision.action.is_engagement:
            continue
        log.engagement(start + feed.position(decision.target), decision.action)
        _apply_engagement(world, agent, decision, t)


def _apply_engagement(world: WorldState, agent: int, decision, t: int) -> None:
    target = decision.target
    if decision.action is ActionKind.LIKE:
        world._likes[target] += 1
    elif decision.action is ActionKind.REPOST:
        world._reshares[target] += 1
        world.new_post(agent, world.posts[target], PostKind.REPOST, target, t)
    elif decision.action is ActionKind.QUOTE:
        world._reshares[target] += 1
        world.new_post(agent, f"{decision.commentary} // {world.posts[target]}", PostKind.QUOTE, target, t)
    world.engaged[agent].add(decision.target)
    world.history[agent].append((decision.action, decision.target, t))


def run(
    config: RunConfig,
    policy: Policy,
    profiles: Sequence[AgentProfile],
    graph: FollowGraph,
    corpus: Sequence[str],
    log: LogBuilder | None = None,
) -> CellLog | None:
    """Initialize and execute all timesteps; returns the complete event log.

    Pass a LogBuilder to read the run's counts from it afterwards. A builder
    with a sink hands the log to it a piece at a time, and then ``run``
    returns None.
    """
    if len(profiles) != config.n_agents:
        raise ConfigurationError(
            f"config expects {config.n_agents} agents but population has {len(profiles)}"
        )
    log = LogBuilder(config) if log is None else log
    world = initialize(profiles, graph, corpus, config)
    for t, (agents, seeds) in enumerate(schedule(config, world.agent_ids)):
        step(world, t, config, policy, log, agents, seeds)
    return log.finish(world)

