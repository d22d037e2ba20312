"""Agent decision-making: pluggable policies, prompt assembly, and response parsing.

Three interchangeable policies produce one decision per activation:

* ScriptedPolicy replays a fixed intent sequence (tests, trace fixtures).
* ParametricLogitPolicy draws from a known two-stage logistic process and
  is the ground-truth generator for estimator recovery checks.
* LlmPolicy sends a prompt over an OpenAI-compatible chat endpoint (or a
  recorded fixture transport) and parses the reply.

Whatever the policy does, the engine only ever sees a valid Decision:
malformed model output, transport failures, and invariant violations all
degrade to read-only with a logged warning, never an exception.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence
from urllib.parse import urlsplit

import numpy as np

from .core import (
    LOADS,
    N_COLUMNS,
    NORMS,
    ActionKind,
    ConfigurationError,
    Feed,
    LoadLevel,
    NormRegime,
    design_matrix,
    from_obj,
    popularity_composite,
    read_rows,
)
from .population import AgentProfile


@dataclass(slots=True, frozen=True)
class DecisionContext:
    """Everything a policy may condition on for one activation."""

    feed: Feed
    profile: AgentProfile
    history: tuple[tuple[ActionKind, int, int], ...]  # (action, post, timestep)
    regime: NormRegime


@dataclass(slots=True, frozen=True)
class Decision:
    """Either read everything, or engage exactly one feed post."""

    action: ActionKind
    target: int | None = None
    commentary: str | None = None

    def __post_init__(self) -> None:
        if self.action is ActionKind.READ:
            if self.target is not None or self.commentary is not None:
                raise ValueError("read-only decisions carry no target or commentary")
        else:
            if self.target is None:
                raise ValueError(f"{self.action.value} requires a target post")
            if self.action is ActionKind.QUOTE and not self.commentary:
                raise ValueError("quote requires non-empty commentary")
            if self.action is not ActionKind.QUOTE and self.commentary is not None:
                raise ValueError("commentary is only valid for quotes")

    @classmethod
    def read_all(cls) -> "Decision":
        return cls(action=ActionKind.READ)


class Policy(Protocol):
    def decide(self, context: DecisionContext, rng: np.random.Generator) -> Decision: ...


def decide(policy: Policy, context: DecisionContext, rng: np.random.Generator) -> Decision:
    """Obtain a decision, guaranteeing the Decision invariants hold.

    An empty feed always yields read-only. Policy-internal failures (LLM
    transport errors after retries, invalid targets) degrade to read-only
    rather than aborting the run.
    """
    if not context.feed:
        return Decision.read_all()
    try:
        decision = policy.decide(context, rng)
    except TransportError as e:
        return _degrade("policy transport failed, degrading to read-only: %s", e)
    if decision.action.is_engagement:
        if context.feed.position(decision.target) is None:
            return _degrade("policy targeted post %s outside the feed, degrading to read-only", decision.target)
    return decision


def _degrade(message: str, *args: Any) -> Decision:
    """Log a degradation as a warning of the ``socialsim.policy`` logger, and return read-only.

    ``logging`` is imported here, at the first degradation: a run whose
    decisions never degrade, as a mock or parametric one's cannot, does not
    load it.
    """
    import logging

    logging.getLogger(__name__).warning(message, *args)
    return Decision.read_all()


# ---------------------------------------------------------------------------
# Scripted policy
# ---------------------------------------------------------------------------

Intent = str | tuple  # "read" | (action_name, feed_index[, commentary])


class ScriptedPolicy:
    """Replays a cyclic sequence of intents against whatever feed shows up.

    An intent is "read", (action, feed_index) or ("quote", feed_index,
    commentary); the index is resolved against the current feed so scripts
    stay valid regardless of which posts are shown. An index past the feed's
    end falls back to read-only.
    """

    def __init__(self, intents: Sequence[Intent]):
        self.intents = _checked_intents(intents)
        self._cursor = 0

    def decide(self, context: DecisionContext, rng: np.random.Generator) -> Decision:
        intent = self.intents[self._cursor % len(self.intents)]
        self._cursor += 1
        if intent == "read":
            return Decision.read_all()
        name, index = intent[0], intent[1]
        commentary = intent[2] if len(intent) > 2 else None
        if index >= len(context.feed):
            return Decision.read_all()
        action = ActionKind(name)
        if action is ActionKind.QUOTE and commentary is None:
            commentary = "adding a note on this"
        return Decision(action=action, target=int(context.feed.posts[index]), commentary=commentary)


def _checked_intents(intents: Sequence[Intent]) -> list[Intent]:
    """The intents, each list made a tuple; ConfigurationError names a value that is not an intent.

    An intent is "read", [action, index] or ["quote", index, commentary]:
    action is like, repost or quote, index a non-negative int and
    commentary a non-empty string.
    """
    if not isinstance(intents, (list, tuple)) or not intents:
        raise ConfigurationError(f"policy key 'intents' must be a non-empty list, got {intents!r}")
    for intent in intents:
        if intent != "read" and not (
            isinstance(intent, (list, tuple)) and len(intent) in (2, 3) and intent[0] in ("like", "repost", "quote")
            and type(intent[1]) is int and intent[1] >= 0  # not a bool
            and (len(intent) == 2 or (intent[0] == "quote" and isinstance(intent[2], str) and intent[2] != ""))
        ):
            raise ConfigurationError(
                f"policy key 'intents' holds {intent!r}, which is not \"read\", [action, index] or [\"quote\", index, commentary]"
            )
    return [intent if intent == "read" else tuple(intent) for intent in intents]


# ---------------------------------------------------------------------------
# Parametric logistic policy
# ---------------------------------------------------------------------------


def _coefficients(threshold: Sequence[float], allocation: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients as float64 arrays of shape (N_COLUMNS,) and (2, N_COLUMNS).

    ConfigurationError names the policy key whose value is not numbers of that shape.
    """
    arrays = []
    for key, value, shape in (("threshold", threshold, (N_COLUMNS,)), ("allocation", allocation, (2, N_COLUMNS))):
        try:
            a = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigurationError(f"policy key {key!r} must be an array of numbers") from None
        if a.shape != shape:
            raise ConfigurationError(f"policy key {key!r} must have shape {shape}, got {a.shape}")
        arrays.append(a)
    return arrays[0], arrays[1]


class ParametricLogitPolicy:
    """Two-stage logistic decision process with known coefficients.

    Threshold stage: every feed post i gets an independent engagement draw
    with probability p_i = logistic(x_i . b_threshold), where x_i is the
    24-column design row for the post's popularity composite and the run's
    condition cell. If several posts pass, the one with the highest draw is
    engaged (one engagement per activation); if none pass, read-only.

    Allocation stage: the engaged post's action is sampled from the
    multinomial logit over {like, repost, quote} defined by the two
    allocation coefficient blocks (like is the reference outcome).

    Within one condition cell the linear predictor is affine in the
    composite, so both stages reduce to precomputed (offset, slope) pairs.
    The threshold probability depends only on likes + reshares, so decide
    reads it from a dict keyed by that total, filled on demand by the scalar
    engage_probability: the same floats as a per-post loop.
    """

    def __init__(
        self,
        threshold: Sequence[float],
        allocation: Sequence[Sequence[float]],
        load: LoadLevel,
        norm: NormRegime,
    ):
        t, a = _coefficients(threshold, allocation)
        x0, x1 = design_matrix([0.0, 1.0], LOADS.index(load), NORMS.index(norm))
        self._thr_offset = float(x0 @ t)
        self._thr_slope = float(x1 @ t) - self._thr_offset
        self._alloc_offset = a @ x0  # (2,)
        self._alloc_slope = a @ x1 - self._alloc_offset
        self._p_by_total: dict[int, float] = {}  # engage probability by likes + reshares

    def engage_probability(self, composite: float) -> float:
        eta = self._thr_offset + self._thr_slope * composite
        if eta >= 0:
            return 1.0 / (1.0 + math.exp(-eta))
        e = math.exp(eta)
        return e / (1.0 + e)

    def allocation_probabilities(self, composite: float) -> tuple[float, float, float]:
        """(like, repost, quote) probabilities for an engaged post."""
        eta_r = self._alloc_offset[0] + self._alloc_slope[0] * composite
        eta_q = self._alloc_offset[1] + self._alloc_slope[1] * composite
        m = max(0.0, eta_r, eta_q)
        el, er, eq = math.exp(-m), math.exp(eta_r - m), math.exp(eta_q - m)
        z = el + er + eq
        return el / z, er / z, eq / z

    def _probabilities(self, totals: list[int]) -> dict[int, float]:
        """The engage probability by likes + reshares, filled for every total in ``totals``."""
        p = self._p_by_total
        for v in totals:
            if v not in p:
                p[v] = self.engage_probability(math.log1p(v))
        return p

    def decide(self, context: DecisionContext, rng: np.random.Generator) -> Decision:
        feed = context.feed
        if not len(feed):
            return Decision.read_all()
        draws = rng.random(len(feed)).tolist()
        totals = (feed.likes + feed.reshares).tolist()
        p = self._probabilities(totals)
        # The engaged post is the passing one with the highest draw, the first
        # of equal draws; draws are >= 0, so -1.0 means none passed.
        best, i = -1.0, 0
        for j, draw in enumerate(draws):
            if draw > best and draw < p[totals[j]]:
                best, i = draw, j
        if best < 0:
            return Decision.read_all()
        target = int(feed.posts[i])
        p_like, p_repost, _ = self.allocation_probabilities(
            popularity_composite(int(feed.likes[i]), int(feed.reshares[i]))
        )
        v = rng.random()
        if v < p_like:
            return Decision(action=ActionKind.LIKE, target=target)
        if v < p_like + p_repost:
            return Decision(action=ActionKind.REPOST, target=target)
        return Decision(action=ActionKind.QUOTE, target=target, commentary=f"worth a closer look at post {target}")


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------

_RESPONSE_INSTRUCTIONS = (
    'Reply with a single JSON object and nothing else: {"action": "read" | "like" | '
    '"repost" | "quote", "post_id": <post id, required unless action is "read">, '
    '"comment": "<your commentary, required only when quoting>"}'
)


def system_prompt(regime: NormRegime) -> str:
    lines = [
        "You are a social media user browsing your feed on a microblogging platform.",
        "You can read the posts shown to you, or engage with exactly one of them by",
        "liking it, reposting it to your followers, or quoting it with your own commentary.",
    ]
    if regime.prompt_fragment:
        lines.append(regime.prompt_fragment)
    lines.append(_RESPONSE_INSTRUCTIONS)
    return "\n".join(lines)


def user_prompt(context: DecisionContext) -> str:
    p = context.profile
    lines = [
        f"Your profile: {p.name}"
        + (", verified account" if p.verified else "")
        + f". Interests: {', '.join(sorted(p.keywords))}.",
    ]
    if context.history:
        lines.append("Your recent interactions:")
        for action, post, t in context.history:
            lines.append(f"- {action.value} post {post} at step {t}")
    else:
        lines.append("You have no recent interactions.")
    lines.append("Your feed now:")
    feed = context.feed
    slots = zip(feed.posts.tolist(), feed.likes.tolist(), feed.reshares.tolist(), feed.contents())
    for post, likes, reshares, content in slots:
        lines.append(f"[post {post}] (likes: {likes}, reshares: {reshares}) {content}")
    return "\n".join(lines)


def build_prompt(context: DecisionContext) -> str:
    """Deterministic full prompt text (system part, blank line, user part)."""
    return system_prompt(context.regime) + "\n\n" + user_prompt(context)


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_ACTION_NAMES = {a.value: a for a in ActionKind}


def parse_response(raw: str, feed: Feed) -> Decision:
    """Parse arbitrary model output into a valid Decision.

    Expects one JSON object with an "action" key; any deviation (no JSON,
    unknown action, target outside the feed, quote without commentary)
    degrades to read-only with a logged warning. Total over all inputs.
    """
    obj = _extract_json(raw)
    if obj is None:
        return _degrade("unparseable policy response, degrading to read-only: %.120r", raw)
    action_name = str(obj.get("action", "")).strip().lower()
    action = _ACTION_NAMES.get(action_name)
    if action is None:
        return _degrade("unknown action %r in policy response, degrading to read-only", action_name)
    if action is ActionKind.READ:
        return Decision.read_all()
    target = obj.get("post_id")
    if isinstance(target, str):
        try:
            target = int(target)
        except ValueError:  # "²" is a digit that int() refuses; the str degrades below
            pass
    if not isinstance(target, int) or isinstance(target, bool):
        return _degrade("missing or non-integer post_id in policy response, degrading to read-only")
    if feed.position(target) is None:
        return _degrade("post_id %s not in feed, degrading to read-only", target)
    commentary = obj.get("comment")
    if action is ActionKind.QUOTE:
        if not isinstance(commentary, str) or not commentary.strip():
            return _degrade("quote without commentary, degrading to read-only")
        return Decision(action=action, target=target, commentary=commentary)
    return Decision(action=action, target=target)


def _extract_json(raw: str) -> dict | None:
    """The first "{" of ``raw`` at which a JSON object parses; a brace inside a JSON string is text."""
    if not isinstance(raw, str):
        return None
    decoder = json.JSONDecoder()
    start = raw.find("{")
    while start != -1:
        try:
            obj, _ = decoder.raw_decode(raw, start)
            if isinstance(obj, dict):
                return obj
        except (json.JSONDecodeError, RecursionError):
            pass
        start = raw.find("{", start + 1)
    return None


# ---------------------------------------------------------------------------
# LLM transport and policy
# ---------------------------------------------------------------------------


class TransportError(RuntimeError):
    """A chat-completion round trip failed after all retries."""


class FixtureMiss(TransportError):
    """A fixture file holds no response for a request; no retry can change that."""


def request_hash(request: dict) -> str:
    payload = json.dumps(request, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class FixtureRow:
    """One line of a fixture file: a recorded response and the hash of its request."""

    request_hash: str
    response_text: str


def read_fixtures(path: str | Path) -> dict[str, str]:
    """The responses of a fixture file of FixtureRow lines by request hash (a
    later line for the same hash wins). FormatError names the file and a bad line."""
    return {row.request_hash: row.response_text for _, row in read_rows(path, FixtureRow, "fixture")}


class FixtureTransport:
    """Replays recorded responses keyed by request hash (offline tests); see read_fixtures."""

    def __init__(self, path: str | Path):
        self.responses = read_fixtures(path)

    def complete(self, request: dict) -> str:
        h = request_hash(request)
        if h not in self.responses:
            raise FixtureMiss(f"no recorded response for request hash {h[:12]}...")
        return self.responses[h]


class HttpTransport:
    """One OpenAI-compatible chat-completion round trip per request, a new connection each time."""

    def __init__(self, base_url: str, api_key: str | None = None, timeout: float = 30.0):
        import ssl  # for a live run only; the one context below spares urlopen a CA store load (about 50 ms) per https request

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.headers = {"Content-Type": "application/json"} | ({"Authorization": f"Bearer {api_key}"} if api_key else {})
        self._tls = ssl.create_default_context() if urlsplit(self.base_url).scheme == "https" else None

    def complete(self, request: dict) -> str:
        import urllib.request  # loads http.client, which only a run that calls an endpoint needs

        try:
            body = json.dumps(request, allow_nan=False).encode("utf-8")
            post = urllib.request.Request(f"{self.base_url}/chat/completions", body, self.headers, method="POST")
            with urllib.request.urlopen(post, timeout=self.timeout, context=self._tls) as resp:
                return json.loads(resp.read())["choices"][0]["message"]["content"]
        except Exception as e:  # noqa: BLE001 - any transport problem is retryable
            if isinstance(e, urllib.error.HTTPError):
                e.close()  # an error status comes with its reply still open
            raise TransportError(str(e)) from e


_RETRY_WAIT = 0.5  # seconds before retry k (1-based) of a failed round trip: k * _RETRY_WAIT


class LlmPolicy:
    """Decision policy backed by a chat-completion endpoint."""

    def __init__(self, transport, model: str, temperature: float = 0.6, max_retries: int = 3):
        self.transport = transport
        self.model = model
        self.temperature = temperature
        self.max_retries = max_retries

    def build_request(self, context: DecisionContext) -> dict:
        return {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [
                {"role": "system", "content": system_prompt(context.regime)},
                {"role": "user", "content": user_prompt(context)},
            ],
        }

    def decide(self, context: DecisionContext, rng: np.random.Generator) -> Decision:
        request = self.build_request(context)
        for attempt in range(self.max_retries + 1):
            try:
                raw = self.transport.complete(request)
                return parse_response(raw, context.feed)
            except FixtureMiss:
                raise
            except TransportError as e:
                last = e
                if attempt < self.max_retries:
                    time.sleep(_RETRY_WAIT * (attempt + 1))
        raise last


# ---------------------------------------------------------------------------
# Policy configs (serializable; built into live policies per run)
#
# Each spec checks its values when it is built, so a plan holding one runs:
# build_policy raises no configuration error for a spec that exists. A spec's
# JSON object is its kind plus its init fields, read by core.from_obj.
# ---------------------------------------------------------------------------


@dataclass
class ScriptedSpec:
    kind: str = field(default="scripted", init=False)
    intents: list

    def __post_init__(self) -> None:
        self.intents = _checked_intents(self.intents)


@dataclass
class ParametricLogitSpec:
    kind: str = field(default="parametric", init=False)
    threshold: list[float]
    allocation: list[list[float]]

    def __post_init__(self) -> None:
        _coefficients(self.threshold, self.allocation)


@dataclass
class LlmSpec:
    kind: str = field(default="llm", init=False)
    endpoint: str = ""
    model: str = "qwen3-8b"
    temperature: float = 0.6
    timeout: float = 30.0
    max_retries: int = 3
    transport: str = "live"  # "live" | "fixtures"
    fixture_path: str | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ConfigurationError(f"policy key 'temperature' must be non-negative, got {self.temperature}")
        if self.timeout <= 0:
            raise ConfigurationError(f"policy key 'timeout' must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ConfigurationError(f"policy key 'max_retries' must be non-negative, got {self.max_retries}")
        if self.transport == "fixtures":
            if not self.fixture_path:
                raise ConfigurationError("fixture transport requires policy key 'fixture_path'")
            if not Path(self.fixture_path).is_file():
                raise ConfigurationError(f"fixture file not found: {self.fixture_path}")
            read_fixtures(self.fixture_path)
        elif self.transport == "live":
            try:
                url = urlsplit(self.endpoint)
                port = url.port  # raises ValueError unless the port, if any, is a number in 0-65535
            except ValueError:
                url = None
            if url is None or url.scheme not in ("http", "https") or not url.hostname or port == 0:
                raise ConfigurationError(f"live transport requires policy key 'endpoint', an http or https URL with a host, got {self.endpoint!r}")
        else:
            raise ConfigurationError(f"policy key 'transport' must be 'live' or 'fixtures', got {self.transport!r}")

PolicySpec = ScriptedSpec | ParametricLogitSpec | LlmSpec


def default_mock_coefficients() -> tuple[list[float], list[list[float]]]:
    """Plausible two-stage coefficients for offline (mock) runs.

    Engagement is rare and load-dampened; popularity raises it. Allocation
    leans toward likes except under the repost-heavy regime. Values chosen
    for lively but sparse logs, not to reproduce any particular estimate.
    """
    threshold = [0.0] * N_COLUMNS
    threshold[0] = -3.6   # intercept
    threshold[1] = 0.5    # popularity
    threshold[2] = -0.3   # low load
    threshold[3] = -0.6   # medium load
    threshold[4] = -1.0   # high load
    threshold[5] = 0.3    # like-dominant regime
    threshold[6] = -0.3   # repost-dominant regime
    repost = [0.0] * N_COLUMNS
    quote = [0.0] * N_COLUMNS
    repost[0], quote[0] = -1.2, -0.8
    repost[1], quote[1] = 0.1, -0.2
    repost[5], quote[5] = -1.2, -1.0   # like-dominant: everything else recedes
    repost[6], quote[6] = 3.0, 0.4     # repost-dominant: reposts dominate
    return threshold, [repost, quote]


def mock_policy_spec() -> ParametricLogitSpec:
    threshold, allocation = default_mock_coefficients()
    return ParametricLogitSpec(threshold=threshold, allocation=allocation)


_SPEC_KINDS = {spec.kind: spec for spec in (ScriptedSpec, ParametricLogitSpec, LlmSpec)}


def policy_spec_from_obj(obj: Any) -> PolicySpec:
    """A policy spec from a plan's "policy" object.

    ``kind`` selects the spec, and the other keys are its init fields, read by
    core.from_obj. ``{"kind": "mock"}`` is the default parametric coefficients
    and takes no other key. ConfigurationError names what is wrong.
    """
    if not isinstance(obj, Mapping):
        raise ConfigurationError(f"plan key 'policy' must be an object, got {obj!r}")
    values = dict(obj)
    kind = values.pop("kind", None)
    if kind == "mock":
        if values:
            raise ConfigurationError(f"unknown policy key {min(values)!r} for kind 'mock'")
        return mock_policy_spec()
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ConfigurationError(f"unknown policy kind {kind!r}")
    return from_obj(_SPEC_KINDS[kind], values, "policy key")


def build_policy(
    spec: PolicySpec,
    load: LoadLevel,
    norm: NormRegime,
    *,
    api_key: str | None = None,
) -> Policy:
    """Instantiate a live policy for one run of the given condition cell."""
    if isinstance(spec, ScriptedSpec):
        return ScriptedPolicy(spec.intents)
    if isinstance(spec, ParametricLogitSpec):
        return ParametricLogitPolicy(spec.threshold, spec.allocation, load, norm)
    if isinstance(spec, LlmSpec):
        if spec.transport == "fixtures":
            transport = FixtureTransport(spec.fixture_path)
        else:
            transport = HttpTransport(spec.endpoint, api_key=api_key, timeout=spec.timeout)
        return LlmPolicy(transport, model=spec.model, temperature=spec.temperature, max_retries=spec.max_retries)
    raise ConfigurationError(f"unknown policy spec {spec!r}")
