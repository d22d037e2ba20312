import hashlib
import json
import math
import re
import socket
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import socialsim as ss
from socialsim.core import (
    LOADS,
    N_COLUMNS,
    NORMS,
    ActionKind,
    ConfigurationError,
    FormatError,
    LoadLevel,
    NormRegime,
    RunConfig,
    popularity_composite,
    to_obj,
)
from socialsim.engine import run
from socialsim.harness import ExperimentPlan, run_experiment
from socialsim.policy import (
    Decision,
    DecisionContext,
    FixtureTransport,
    HttpTransport,
    LlmPolicy,
    LlmSpec,
    ParametricLogitPolicy,
    ParametricLogitSpec,
    ScriptedPolicy,
    ScriptedSpec,
    TransportError,
    build_policy,
    build_prompt,
    decide,
    mock_policy_spec,
    parse_response,
    policy_spec_from_obj,
    request_hash,
)
from socialsim.population import generate_population, generate_seed_corpus

from conftest import chat_reply, make_feed, tiny_profiles
from test_acceptance import RecordingTransport, _DeterministicResponder


def _feed(*slots):
    """An algorithmic-only feed of (post, likes, reshares) slots; post p's text is "body p"."""
    return make_feed(*zip(*slots)) if slots else make_feed([], [], [])


def _context(feed=None, regime=NormRegime.NO_NORM, history=()):
    return DecisionContext(
        feed=feed if feed is not None else _feed((3, 0, 0), (7, 2, 1)),
        profile=tiny_profiles()[2],
        history=tuple(history),
        regime=regime,
    )


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestDecision:
    def test_read_all_carries_nothing(self):
        with pytest.raises(ValueError):
            Decision(action=ActionKind.READ, target=3)

    def test_quote_requires_commentary(self):
        with pytest.raises(ValueError):
            Decision(action=ActionKind.QUOTE, target=3)

    def test_like_rejects_commentary(self):
        with pytest.raises(ValueError):
            Decision(action=ActionKind.LIKE, target=3, commentary="nope")

    def test_engagement_requires_target(self):
        with pytest.raises(ValueError):
            Decision(action=ActionKind.LIKE)


class TestScriptedPolicy:
    def test_read_script(self):
        policy = ScriptedPolicy(["read"])
        for _ in range(5):
            assert policy.decide(_context(), _rng()).action is ActionKind.READ

    def test_intents_resolve_against_feed(self):
        policy = ScriptedPolicy([("like", 1)])
        d = policy.decide(_context(), _rng())
        assert d.action is ActionKind.LIKE
        assert d.target == 7

    def test_out_of_range_index_reads(self):
        policy = ScriptedPolicy([("like", 9)])
        assert policy.decide(_context(), _rng()).action is ActionKind.READ

    def test_cycles(self):
        policy = ScriptedPolicy([("like", 0), "read"])
        actions = [policy.decide(_context(), _rng()).action for _ in range(4)]
        assert actions == [ActionKind.LIKE, ActionKind.READ, ActionKind.LIKE, ActionKind.READ]

    def test_quote_gets_default_commentary(self):
        policy = ScriptedPolicy([("quote", 0)])
        d = policy.decide(_context(), _rng())
        assert d.action is ActionKind.QUOTE and d.commentary


class TestParametricLogitPolicy:
    def _policy(self, intercept=-1.0, pop=0.5, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM):
        thr = [0.0] * N_COLUMNS
        thr[0], thr[1] = intercept, pop
        alloc = [[0.0] * N_COLUMNS, [0.0] * N_COLUMNS]
        return ParametricLogitPolicy(thr, alloc, load, norm)

    def test_degenerate_intercept_always_reads(self):
        for intercept in (float("-inf"), -1e9):
            policy = self._policy(intercept=intercept, pop=0.0)
            rng = _rng(1)
            assert all(policy.decide(_context(), rng).action is ActionKind.READ for _ in range(200))

    def test_engage_rate_matches_closed_form(self):
        # empirical any-engagement rate over 1e5 draws vs 1 - prod(1 - p_i)
        policy = self._policy(intercept=-2.0, pop=0.6)
        context = _context(feed=_feed((1, 0, 0), (2, 3, 2), (3, 10, 5), (4, 1, 0), (5, 0, 2)))
        feed = context.feed
        ps = [policy.engage_probability(popularity_composite(l, r)) for l, r in zip(feed.likes.tolist(), feed.reshares.tolist())]
        closed_form = 1.0 - math.prod(1.0 - p for p in ps)
        n = 100_000
        rng = _rng(7)
        engaged = sum(policy.decide(context, rng).action.is_engagement for _ in range(n))
        rate = engaged / n
        sigma = math.sqrt(closed_form * (1 - closed_form) / n)
        assert abs(rate - closed_form) <= 3 * sigma

    def test_allocation_probabilities_sum_to_one(self):
        policy = self._policy()
        for c in (0.0, 1.3, 4.0):
            assert sum(policy.allocation_probabilities(c)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_condition_coefficients_make_cells_exchangeable(self):
        # Only intercept and popularity are nonzero: the action distribution on a
        # fixed feed must be the same in every condition cell (3-sigma chi-square).
        thr = [0.0] * N_COLUMNS
        thr[0], thr[1] = -1.2, 0.4
        alloc = [[0.0] * N_COLUMNS, [0.0] * N_COLUMNS]
        alloc[0][0], alloc[1][0] = -0.4, -0.8
        feed = _feed((1, 2, 1), (2, 0, 0), (3, 6, 3))
        n = 4000
        table = []
        for i, load in enumerate(LoadLevel):
            for j, norm in enumerate(NormRegime):
                policy = ParametricLogitPolicy(thr, alloc, load, norm)
                context = _context(feed=feed, regime=norm)
                rng = np.random.default_rng(1234)  # same stream per cell
                counts = {a: 0 for a in ActionKind}
                for _ in range(n):
                    counts[policy.decide(context, rng).action] += 1
                table.append([counts[a] for a in ActionKind])
        # identical streams and identical probabilities give identical rows; a
        # chi-square over the 12 x 4 table cannot reject homogeneity
        _, p, _, _ = chi2_contingency(np.array(table))
        assert p > 0.0027

    def test_quote_decisions_carry_commentary(self):
        thr = [0.0] * N_COLUMNS
        thr[0] = 5.0  # nearly always engage
        alloc = [[0.0] * N_COLUMNS, [0.0] * N_COLUMNS]
        alloc[1][0] = 8.0  # nearly always quote
        policy = ParametricLogitPolicy(thr, alloc, LoadLevel.LOWEST, NormRegime.NO_NORM)
        d = policy.decide(_context(), _rng(3))
        assert d.action is ActionKind.QUOTE and d.commentary

    def test_coefficient_shape_validation(self):
        with pytest.raises(Exception):
            ParametricLogitPolicy([0.0] * 3, [[0.0] * N_COLUMNS] * 2, LoadLevel.LOWEST, NormRegime.NO_NORM)


class TestDecideWrapper:
    def test_empty_feed_reads(self):
        policy = ScriptedPolicy([("like", 0)])
        context = _context(feed=_feed())
        assert decide(policy, context, _rng()).action is ActionKind.READ

    def test_out_of_feed_target_degrades(self):
        class Rogue:
            def decide(self, context, rng):
                return Decision(action=ActionKind.LIKE, target=999)

        assert decide(Rogue(), _context(), _rng()).action is ActionKind.READ

    @pytest.mark.parametrize(
        "failure, message",
        [
            ("transport", "policy transport failed, degrading to read-only: boom"),
            ("target", "policy targeted post 999 outside the feed, degrading to read-only"),
        ],
    )
    def test_degradation_logs_one_warning(self, caplog, failure, message):
        # policy imports logging at its first degradation; each of decide's own degradations still logs.
        class Rogue:
            def decide(self, context, rng):
                if failure == "transport":
                    raise TransportError("boom")
                return Decision(action=ActionKind.LIKE, target=999)

        with caplog.at_level("WARNING", logger="socialsim.policy"):
            assert decide(Rogue(), _context(), _rng()) == Decision.read_all()
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [("socialsim.policy", "WARNING", message)]

    def test_transport_failure_degrades_to_read(self, monkeypatch):
        class FailingTransport:
            calls = 0

            def complete(self, request):
                FailingTransport.calls += 1
                raise TransportError("boom")

        waits = []
        monkeypatch.setattr("socialsim.policy.time.sleep", waits.append)
        policy = LlmPolicy(FailingTransport(), model="m", max_retries=2)
        d = decide(policy, _context(), _rng())
        assert d.action is ActionKind.READ
        assert FailingTransport.calls == 3  # initial try + 2 retries
        assert waits == [0.5, 1.0]  # a longer wait before each retry, none after the last try

    def test_digit_that_is_no_integer_degrades_to_read(self, caplog):
        # Regression: "²".isdigit() is true but int("²") fails, so the ValueError left decide and failed the cell.
        class Replier:
            def complete(self, request):
                return '{"action":"like","post_id":"²"}'

        with caplog.at_level("WARNING", logger="socialsim.policy"):
            d = decide(LlmPolicy(Replier(), model="m"), _context(), _rng())
        assert d == Decision.read_all()
        assert "non-integer post_id" in caplog.text


class TestPrompts:
    def test_no_norm_prompt_has_no_percentages(self):
        prompt = build_prompt(_context(regime=NormRegime.NO_NORM))
        assert "%" not in prompt

    def test_like_dominant_prompt(self):
        prompt = build_prompt(_context(regime=NormRegime.LIKE_DOMINANT))
        for pct in ("80%", "15%", "5%"):
            assert pct in prompt

    def test_repost_dominant_prompt(self):
        prompt = build_prompt(_context(regime=NormRegime.REPOST_DOMINANT))
        assert "90%" in prompt and "10%" in prompt
        # never an explicit like percentage
        assert "80%" not in prompt and "5%" not in prompt
        assert "like (" not in prompt

    def test_prompt_never_mentions_load_condition(self):
        for load_word in ("load", "lowest", "medium", "algorithmic"):
            prompt = build_prompt(_context()).lower()
            assert load_word not in prompt

    def test_prompt_is_deterministic(self):
        c = _context(history=[(ActionKind.LIKE, 4, 2)])
        assert build_prompt(c) == build_prompt(c)

    def test_prompt_shows_feed_with_counters_and_history(self):
        c = _context(history=[(ActionKind.QUOTE, 4, 2)])
        prompt = build_prompt(c)
        assert "(likes: 2, reshares: 1)" in prompt
        assert "quote post 4 at step 2" in prompt
        assert "body 7" in prompt


class _RequestHashing:
    """A scripted policy that also hashes the LLM request each context would send."""

    def __init__(self, intents):
        self.scripted = ScriptedPolicy(intents)
        self.llm = LlmPolicy(None, model="qwen3-8b")
        self.hashes = []

    def decide(self, context, rng):
        self.hashes.append(request_hash(self.llm.build_request(context)))
        return self.scripted.decide(context, rng)


class TestRequestBytes:
    # Request hashes key every recorded fixture file, so any change to the
    # prompt text or the request layout orphans recorded fixtures.
    def test_request_hashes_of_a_scripted_run_are_pinned(self, small_population, small_corpus):
        profiles, graph = small_population
        policy = _RequestHashing([("quote", 2, "on point"), "read", ("repost", 0), ("like", 5), ("quote", 9)])
        for load, norm in ((LoadLevel.LOW, NormRegime.LIKE_DOMINANT), (LoadLevel.HIGH, NormRegime.REPOST_DOMINANT)):
            cfg = RunConfig(seed=21, load=load, norm=norm, n_agents=40, timesteps=30, activation_p=0.2)
            run(cfg, policy, profiles, graph, small_corpus)
        assert len(policy.hashes) == 478
        digest = hashlib.sha256("\n".join(policy.hashes).encode("ascii")).hexdigest()
        assert digest == "b3532898711fcf3b6778373f50a86039b549fbe7792d786eaadba4e1df5431b6"


class TestParseResponse:
    def test_well_formed_like(self):
        d = parse_response('{"action":"like","post_id":7}', _context().feed)
        assert d.action is ActionKind.LIKE and d.target == 7

    def test_quote_without_comment_degrades(self):
        d = parse_response('{"action":"quote","post_id":7}', _context().feed)
        assert d.action is ActionKind.READ

    def test_prose_fallback(self):
        d = parse_response("I think I will just read.", _context().feed)
        assert d.action is ActionKind.READ

    def test_json_embedded_in_prose(self):
        raw = 'Sure! Here is my choice: {"action": "repost", "post_id": 3} hope that helps'
        d = parse_response(raw, _context().feed)
        assert d.action is ActionKind.REPOST and d.target == 3

    def test_closing_brace_inside_a_string_in_prose(self):
        # Regression: counting braces ended the object at the "}" of the comment, and the reply read as read-only.
        d = parse_response('Sure: {"action": "quote", "post_id": 3, "comment": "nice :}"}', _context().feed)
        assert d.action is ActionKind.QUOTE and d.target == 3 and d.commentary == "nice :}"

    def test_opening_brace_inside_a_string_in_prose(self):
        d = parse_response('Here {"action": "like", "post_id": 7, "comment": "{"} ok', _context().feed)
        assert d.action is ActionKind.LIKE and d.target == 7

    def test_unknown_action_degrades(self):
        assert parse_response('{"action":"share","post_id":7}', _context().feed).action is ActionKind.READ

    def test_target_not_in_feed_degrades(self):
        assert parse_response('{"action":"like","post_id":999}', _context().feed).action is ActionKind.READ

    def test_string_post_id_accepted(self):
        d = parse_response('{"action":"like","post_id":"7"}', _context().feed)
        assert d.target == 7

    @pytest.mark.parametrize("post_id, target", [("3", 3), (" 7 ", 7), ("\u0663", 3)], ids=["plain", "spaced", "arabic_indic"])
    def test_string_post_id_that_int_reads(self, post_id, target):
        d = parse_response(json.dumps({"action": "like", "post_id": post_id}), _context().feed)
        assert d.action is ActionKind.LIKE and d.target == target

    @pytest.mark.parametrize("post_id", ["\u00b2", "3\u00b2", "\u2460"], ids=["superscript", "digit_superscript", "circled"])
    def test_string_post_id_that_int_refuses_degrades(self, caplog, post_id):
        # Regression: the superscript and circled digits pass str.isdigit, and int() raised ValueError out of parse_response.
        with caplog.at_level("WARNING", logger="socialsim.policy"):
            d = parse_response(json.dumps({"action": "like", "post_id": post_id}), _context().feed)
        assert d == Decision.read_all()
        assert "non-integer post_id" in caplog.text

    def test_boolean_post_id_degrades(self):
        assert parse_response('{"action":"like","post_id":true}', _context().feed).action is ActionKind.READ

    def test_non_object_json_degrades(self):
        assert parse_response("[1, 2, 3]", _context().feed).action is ActionKind.READ

    def test_quote_full_round(self):
        d = parse_response('{"action":"quote","post_id":3,"comment":"nice"}', _context().feed)
        assert d.action is ActionKind.QUOTE and d.commentary == "nice"


class TestTransports:
    def test_fixture_round_trip(self, tmp_path):
        fixture = tmp_path / "fixtures.jsonl"

        class Stub:
            def complete(self, request):
                return '{"action":"like","post_id":3}'

        recorder = RecordingTransport(Stub(), fixture)
        request = {"model": "m", "temperature": 0.6, "messages": [{"role": "user", "content": "hi"}]}
        assert recorder.complete(request) == '{"action":"like","post_id":3}'

        replay = FixtureTransport(fixture)
        assert replay.complete(request) == '{"action":"like","post_id":3}'
        with pytest.raises(TransportError):
            replay.complete({"model": "other", "temperature": 0.6, "messages": []})

    def test_request_hash_is_order_insensitive(self):
        a = {"model": "m", "temperature": 0.6}
        b = {"temperature": 0.6, "model": "m"}
        assert request_hash(a) == request_hash(b)

    def test_llm_policy_with_fixture(self, tmp_path):
        context = _context()
        policy = LlmPolicy(None, model="m", temperature=0.6)
        request = policy.build_request(context)
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text(
            json.dumps({"request_hash": request_hash(request), "response_text": '{"action":"repost","post_id":3}'})
            + "\n"
        )
        policy.transport = FixtureTransport(fixture)
        d = decide(policy, context, _rng())
        assert d.action is ActionKind.REPOST and d.target == 3


    def test_fixture_miss_degrades_without_a_retry(self, tmp_path, monkeypatch):
        # Regression: a miss was retried as a network failure is, waiting 0.5 + 1.0 + 1.5 s before it degraded.
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("")
        transport = FixtureTransport(fixture)
        calls, complete = [], transport.complete
        monkeypatch.setattr(transport, "complete", lambda request: calls.append(request) or complete(request))
        waits = []
        monkeypatch.setattr("socialsim.policy.time.sleep", waits.append)
        assert decide(LlmPolicy(transport, model="m"), _context(), _rng()) == Decision.read_all()
        assert len(calls) == 1 and waits == []

    def test_http_failure_is_retried_with_growing_waits(self, monkeypatch):
        with socket.socket() as s:  # a loopback port nothing listens on: every connection is refused
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        transport = HttpTransport(f"http://127.0.0.1:{port}/v1")
        with pytest.raises(TransportError, match="refused"):
            transport.complete({"model": "m"})
        calls, complete = [], transport.complete
        monkeypatch.setattr(transport, "complete", lambda request: calls.append(request) or complete(request))
        waits = []
        monkeypatch.setattr("socialsim.policy.time.sleep", waits.append)
        assert decide(LlmPolicy(transport, model="m"), _context(), _rng()) == Decision.read_all()
        assert len(calls) == 4 and waits == [0.5, 1.0, 1.5]  # the default 3 retries

    def test_https_transport_loads_the_ca_store_once(self, monkeypatch):
        # Regression: urlopen without a context builds one, loading the system's CA store, per request.
        import ssl
        import urllib.request

        built, contexts, urlopen = [], [], urllib.request.urlopen
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda *a, **k: built.append(create(*a, **k)) or built[-1])
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: contexts.append(k.get("context")) or urlopen(*a, **k))
        with socket.socket() as s:  # nothing listens here, so each request is refused before a handshake
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        transport = HttpTransport(f"https://127.0.0.1:{port}/v1")
        for _ in range(3):
            with pytest.raises(TransportError, match="refused"):
                transport.complete({"model": "m"})
        assert len(built) == 1 and contexts == built * 3
        assert HttpTransport(f"http://127.0.0.1:{port}/v1")._tls is None

    def test_http_reply_gives_its_content(self, chat_server):
        request = {"model": "m", "temperature": 0.6, "messages": [{"role": "user", "content": "caf\u00e9 \u2603"}]}
        chat_server.reply = lambda posted: (200, chat_reply('{"action":"like","post_id":3}'))
        assert HttpTransport(chat_server.endpoint + "/").complete(request) == '{"action":"like","post_id":3}'
        assert HttpTransport(chat_server.endpoint, api_key="sk-test").complete(request) == '{"action":"like","post_id":3}'
        (path, headers, body), (_, keyed_headers, _) = chat_server.seen
        assert path == "/v1/chat/completions"
        assert body == json.dumps(request, allow_nan=False).encode("utf-8")
        assert headers["Content-Type"] == "application/json" and "Authorization" not in headers
        assert keyed_headers["Authorization"] == "Bearer sk-test"

    @pytest.mark.parametrize(
        "status, body, delay",
        [
            pytest.param(500, b'{"error": "overloaded"}', 0.0, id="http_500"),
            pytest.param(200, b"<html>busy</html>", 0.0, id="not_json"),
            pytest.param(200, b'{"error": {"message": "no model"}}', 0.0, id="no_choices"),
            pytest.param(200, chat_reply('{"action":"like","post_id":3}'), 5.0, id="slower_than_timeout"),
        ],
    )
    def test_bad_http_reply_degrades_after_the_retries(self, chat_server, monkeypatch, status, body, delay):
        chat_server.reply = lambda posted: (status, body)
        chat_server.delay = delay
        waits = []
        monkeypatch.setattr("socialsim.policy.time.sleep", waits.append)
        transport = HttpTransport(chat_server.endpoint, timeout=0.25)
        assert decide(LlmPolicy(transport, model="m"), _context(), _rng()) == Decision.read_all()
        assert len(chat_server.seen) == 4 and waits == [0.5, 1.0, 1.5]

    def test_http_error_status_closes_its_reply(self, chat_server):
        chat_server.reply = lambda posted: (500, b'{"error": "overloaded"}')
        with pytest.raises(TransportError, match="HTTP Error 500") as caught:
            HttpTransport(chat_server.endpoint).complete({"model": "m"})
        assert caught.value.__cause__.fp.closed

    def test_live_transport_on_loopback_gives_the_fixture_replays_logs(self, chat_server, tmp_path):
        # c10's plan, its fixtures recorded in-process from the responder, replayed; then the same
        # responder served over HTTP to a live-transport plan: each cell's log must be the same bytes.
        profiles, graph = generate_population(40, seed=7)
        corpus = generate_seed_corpus(seed=7, size=12)
        fixture_path = tmp_path / "responses.jsonl"
        plan = ExperimentPlan(base_seed=55, n_agents=40, timesteps=25, activation_p=0.05)
        for load in LOADS:
            for norm in NORMS:
                policy = LlmPolicy(RecordingTransport(_DeterministicResponder(), fixture_path), model="offline-test")
                ss.run(plan.cell_config(load, norm, 0), policy, profiles, graph, corpus)
        replay_spec = LlmSpec(model="offline-test", transport="fixtures", fixture_path=str(fixture_path))
        replay = run_experiment(replace(plan, policy=replay_spec), profiles, graph, corpus, tmp_path / "replay")

        responder = _DeterministicResponder()
        chat_server.reply = lambda posted: (200, chat_reply(responder.complete(posted)))
        live_spec = LlmSpec(model="offline-test", endpoint=chat_server.endpoint)
        live = run_experiment(replace(plan, policy=live_spec), profiles, graph, corpus, tmp_path / "live")

        assert len(chat_server.seen) == len(fixture_path.read_text().splitlines()) > 100
        assert [c["status"] for c in live["cells"]] == ["ok"] * 12
        assert [c["sha256"] for c in live["cells"]] == [c["sha256"] for c in replay["cells"]]
        logs = (tmp_path / "live" / "logs").glob("*.jsonl")
        assert any('"action":"like"' in path.read_text() for path in logs)  # replies were used, not read-only fallbacks


class TestPolicySpecs:
    def test_round_trip(self):
        for spec in (ScriptedSpec(intents=["read", ("like", 0)]), mock_policy_spec(), LlmSpec(endpoint="http://x", model="q")):
            obj = to_obj(spec)
            assert to_obj(policy_spec_from_obj(json.loads(json.dumps(obj)))) == obj

    def test_build_policy_dispatch(self):
        assert isinstance(build_policy(ScriptedSpec(intents=["read"]), LoadLevel.LOW, NormRegime.NO_NORM), ScriptedPolicy)
        assert isinstance(build_policy(mock_policy_spec(), LoadLevel.LOW, NormRegime.NO_NORM), ParametricLogitPolicy)

    @pytest.mark.parametrize("endpoint", ["http://x", "HTTPS://x/v1", "http://x:1/v1", "http://x:65535/v1", "http://[::1]:8000/v1"])
    def test_usable_endpoint_is_accepted(self, endpoint):
        assert policy_spec_from_obj({"kind": "llm", "endpoint": endpoint}).endpoint == endpoint

    def test_mock_kind_gives_the_default_coefficients(self):
        assert policy_spec_from_obj({"kind": "mock"}) == mock_policy_spec()

    @pytest.mark.parametrize(
        "obj, named",
        [
            pytest.param("mock", "'policy'", id="not_an_object"),
            pytest.param({"kind": "greedy"}, "'greedy'", id="unknown_kind"),
            pytest.param({"kind": "mock", "threshold": [0.0] * N_COLUMNS}, "'threshold'", id="mock_with_a_key"),
            pytest.param({"kind": "parametric", "thresold": [0.0] * N_COLUMNS, "allocation": [[0.0] * N_COLUMNS] * 2}, "'thresold'", id="misspelled_threshold"),
            pytest.param({"kind": "parametric", "allocation": [[0.0] * N_COLUMNS] * 2}, "'threshold'", id="missing_threshold"),
            pytest.param({"kind": "parametric", "threshold": [0.0] * N_COLUMNS}, "'allocation'", id="missing_allocation"),
            pytest.param({"kind": "parametric", "threshold": [0.0, 0.0], "allocation": [[0.0] * N_COLUMNS] * 2}, "'threshold'", id="short_threshold"),
            pytest.param({"kind": "parametric", "threshold": [0.0] * N_COLUMNS, "allocation": [[0.0] * N_COLUMNS, [0.0]]}, "'allocation'", id="ragged_allocation"),
            pytest.param({"kind": "parametric", "threshold": ["a"] * N_COLUMNS, "allocation": [[0.0] * N_COLUMNS] * 2}, "'threshold'", id="text_coefficients"),
            pytest.param({"kind": "scripted"}, "'intents'", id="missing_intents"),
            pytest.param({"kind": "scripted", "intents": []}, "'intents'", id="no_intents"),
            pytest.param({"kind": "scripted", "intents": ["read"], "steps": 3}, "'steps'", id="scripted_unknown_key"),
            pytest.param({"kind": "scripted", "intents": ["reed"]}, "'intents'", id="misspelled_read"),
            pytest.param({"kind": "scripted", "intents": [["lik", 0]]}, "'intents'", id="unknown_action"),
            pytest.param({"kind": "scripted", "intents": [["like", "x"]]}, "'intents'", id="text_index"),
            pytest.param({"kind": "scripted", "intents": [["like", -1]]}, "'intents'", id="negative_index"),
            pytest.param({"kind": "scripted", "intents": [["like", True]]}, "'intents'", id="bool_index"),
            pytest.param({"kind": "scripted", "intents": [["read", 0]]}, "'intents'", id="read_with_index"),
            pytest.param({"kind": "scripted", "intents": [["like", 0, "note"]]}, "'intents'", id="like_with_commentary"),
            pytest.param({"kind": "scripted", "intents": [["quote", 0, ""]]}, "'intents'", id="empty_commentary"),
            pytest.param({"kind": "scripted", "intents": "read"}, "'intents'", id="intents_not_a_list"),
            pytest.param({"kind": "llm", "modle": "x", "endpoint": "http://x"}, "'modle'", id="misspelled_model"),
            pytest.param({"kind": "llm", "model": "x"}, "'endpoint'", id="live_without_endpoint"),
            pytest.param({"kind": "llm", "endpoint": "localhost:8000/v1"}, "'endpoint'", id="endpoint_without_scheme"),
            pytest.param({"kind": "llm", "endpoint": "ftp://x/v1"}, "'endpoint'", id="ftp_endpoint"),
            pytest.param({"kind": "llm", "endpoint": "http:///v1"}, "'endpoint'", id="endpoint_without_host"),
            pytest.param({"kind": "llm", "endpoint": "http://x:99999/v1"}, "'endpoint'", id="endpoint_port_out_of_range"),
            pytest.param({"kind": "llm", "endpoint": "http://x:0/v1"}, "'endpoint'", id="endpoint_port_zero"),
            pytest.param({"kind": "llm", "transport": "fixtures"}, "'fixture_path'", id="fixtures_without_path"),
            pytest.param({"kind": "llm", "transport": "replay", "endpoint": "http://x"}, "'transport'", id="unknown_transport"),
            pytest.param({"kind": "llm", "endpoint": "http://x", "max_retries": -1}, "'max_retries'", id="negative_retries"),
            pytest.param({"kind": "llm", "endpoint": "http://x", "timeout": 0}, "'timeout'", id="zero_timeout"),
            pytest.param({"kind": "llm", "endpoint": "http://x/v1", "temperature": -1.0}, "'temperature'", id="negative_temperature"),
        ],
    )
    def test_bad_policy_object_is_rejected_naming_the_key(self, obj, named):
        # Regression: a misspelled or missing key ran the mock coefficients or the
        # llm defaults, and shape and transport errors surfaced only once cells ran.
        with pytest.raises(ConfigurationError, match=named):
            policy_spec_from_obj(obj)

    @pytest.mark.parametrize("line", ["not json", "[1, 2]", '{"request_hash": "ab"}', '{"request_hash": 1, "response_text": "x"}'])
    def test_bad_fixture_line_is_rejected_when_the_spec_is_built(self, tmp_path, line):
        # Regression: a fixture file with a line that is not a recorded response
        # passed plan validation, then raised from build_policy in every cell.
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text(json.dumps({"request_hash": "ab", "response_text": "{}"}) + "\n\n" + line + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{fixture}, line 3")):
            policy_spec_from_obj({"kind": "llm", "transport": "fixtures", "fixture_path": str(fixture)})
        with pytest.raises(FormatError, match=re.escape(f"{fixture}, line 3")):
            FixtureTransport(fixture)

    def test_integral_temperature_keeps_its_request_hash(self, tmp_path):
        # A fixture recorded with "temperature": 0 hashes the request with the int 0;
        # a plan read from JSON must send the same request to replay it.
        context = _context()
        recorded = LlmPolicy(None, model="m", temperature=0).build_request(context)
        fixture = tmp_path / "fx.jsonl"
        reply = '{"action":"repost","post_id":3}'
        fixture.write_text(json.dumps({"request_hash": request_hash(recorded), "response_text": reply}) + "\n")
        obj = {"kind": "llm", "model": "m", "temperature": 0, "transport": "fixtures", "fixture_path": str(fixture)}
        spec = policy_spec_from_obj(json.loads(json.dumps(obj)))
        assert to_obj(spec)["temperature"] == 0 and type(to_obj(spec)["temperature"]) is int
        policy = build_policy(spec, LoadLevel.LOW, NormRegime.NO_NORM)
        assert request_hash(policy.build_request(context)) == request_hash(recorded)
        assert decide(policy, context, _rng()) == Decision(action=ActionKind.REPOST, target=3)

    def test_fixture_file_must_exist_when_the_spec_is_built(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fixture file not found"):
            policy_spec_from_obj({"kind": "llm", "transport": "fixtures", "fixture_path": str(tmp_path / "none.jsonl")})
        (tmp_path / "fx.jsonl").write_text("")
        spec = policy_spec_from_obj({"kind": "llm", "transport": "fixtures", "fixture_path": str(tmp_path / "fx.jsonl")})
        assert isinstance(build_policy(spec, LoadLevel.LOW, NormRegime.NO_NORM), LlmPolicy)

    def test_llm_spec_requires_endpoint_or_fixture(self):
        with pytest.raises(Exception):
            build_policy(LlmSpec(endpoint="", transport="live"), LoadLevel.LOW, NormRegime.NO_NORM)
        with pytest.raises(Exception):
            build_policy(LlmSpec(transport="fixtures", fixture_path=None), LoadLevel.LOW, NormRegime.NO_NORM)
