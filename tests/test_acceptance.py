"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import random
import re
import string
import time
from collections import defaultdict

import numpy as np
import pytest

import socialsim as ss
from socialsim.core import LOADS, NORMS, ActionKind, LoadLevel, NormRegime, RunConfig
from socialsim.engine import LogBuilder, initialize, schedule, step
from socialsim.harness import (
    ExperimentPlan,
    cell_seed,
    descriptive_shares,
    realized_load_audit,
    run_experiment,
)
from socialsim.policy import (
    Decision,
    LlmPolicy,
    LlmSpec,
    ParametricLogitSpec,
    ScriptedPolicy,
    build_policy,
    mock_policy_spec,
    parse_response,
    request_hash,
)
from socialsim.population import AgentProfile, FollowGraph, generate_population, generate_seed_corpus
from socialsim.stats import (
    DESIGN_COLUMNS,
    REFERENCE_THRESHOLD_FIT,
    PatternCounts,
    build_design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    fit_statistics,
    table_consistency_check,
)
from socialsim.stats import _binary, _multinomial

from conftest import make_feed
from reference_fit import one_hot
from reference_log import ExposureRecord, log_from_records, records_of, recount_counters, world_counters

POPULATION_SEED = 2026
RECOVERY_BASE_SEED = 202


def _ok(n: int, name: str, detail: str = "") -> None:
    print(f"[acceptance {n:02d}] {name}: PASS" + (f" ({detail})" if detail else ""))


def recovery_coefficients() -> tuple[list[float], list[list[float]]]:
    """Known two-stage coefficients used as ground truth for recovery."""
    names = DESIGN_COLUMNS
    t = dict.fromkeys(names, 0.0)
    t.update(
        intercept=-4.4, popularity=0.30,
        low_load=-0.25, medium_load=-0.5, high_load=-0.9,
        like_norm=0.25, repost_norm=-0.25,
    )
    t["popularity:high_load"] = 0.12
    t["popularity:repost_norm"] = 0.18
    t["high_load:repost_norm"] = -0.2
    t["popularity:high_load:repost_norm"] = 0.25

    r = dict.fromkeys(names, 0.0)
    r.update(intercept=-0.5, popularity=0.10, high_load=-0.2, like_norm=-0.6, repost_norm=1.0)
    r["popularity:repost_norm"] = -0.15
    r["high_load:repost_norm"] = 0.3

    q = dict.fromkeys(names, 0.0)
    q.update(intercept=-0.9, popularity=-0.12, medium_load=0.15, like_norm=-0.5, repost_norm=0.2)
    q["popularity:like_norm"] = 0.1

    return [t[n] for n in names], [[r[n] for n in names], [q[n] for n in names]]


@pytest.fixture(scope="module")
def recovery_experiment():
    """Full-scale 12-cell factorial with a known parametric policy, run once."""
    threshold_true, allocation_true = recovery_coefficients()
    spec = ParametricLogitSpec(threshold=threshold_true, allocation=allocation_true)
    profiles, graph = generate_population(558, seed=POPULATION_SEED)
    corpus = generate_seed_corpus(seed=POPULATION_SEED)
    follows = {p.id: graph.follows_of(p.id) for p in profiles}

    t0 = time.perf_counter()
    per_cell = {}
    for load in LOADS:
        for norm in NORMS:
            cfg = RunConfig(seed=cell_seed(RECOVERY_BASE_SEED, load, norm, 0), load=load, norm=norm)
            policy = build_policy(spec, load, norm)
            per_cell[(load, norm)] = ss.run(cfg, policy, profiles, graph, corpus)
    elapsed = time.perf_counter() - t0
    return {
        "per_cell": per_cell,
        "table": PatternCounts.fold(PatternCounts.of(log.exposures) for log in per_cell.values()),
        "follows": follows,
        "threshold_true": threshold_true,
        "allocation_true": allocation_true,
        "sim_seconds": elapsed,
    }


def test_c01_reference_table_or_consistency():
    t0 = time.perf_counter()
    report = table_consistency_check()
    elapsed = time.perf_counter() - t0
    assert len(report.rows) == 72
    assert report.ok, f"rows failing exp(B) vs reported OR: {report.failures}"
    spot = {r["term"]: r["exp_B"] for r in report.rows if r["table"] == "threshold"}
    assert spot["popularity"] == pytest.approx(101.871, rel=0.01)
    assert spot["high_load"] == pytest.approx(0.273, rel=0.01)
    alloc = {(r["equation"], r["term"]): r["exp_B"] for r in report.rows if r["table"] == "allocation"}
    assert alloc[("repost_vs_like", "repost_norm")] == pytest.approx(89.100, rel=0.01)
    assert elapsed < 1.0
    _ok(1, "reference tables: exp(B) reproduces every reported odds ratio", f"72 rows in {elapsed:.3f}s")


def test_c02_fit_identity_back_solve():
    t0 = time.perf_counter()
    fs = fit_statistics(
        REFERENCE_THRESHOLD_FIT["ll_full"],
        REFERENCE_THRESHOLD_FIT["ll_null"],
        REFERENCE_THRESHOLD_FIT["k"],
        REFERENCE_THRESHOLD_FIT["k_null"],
    )
    assert fs.aic == 144_132.0
    assert abs(fs.chi2 - 141_852.5) <= 0.1
    assert abs(fs.mcfadden - 0.496) <= 0.001
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, "reported fit statistics are jointly consistent", f"AIC={fs.aic:.0f} chi2={fs.chi2:.2f} R2={fs.mcfadden:.4f}")


def test_c03_threshold_design_has_23_predictors():
    records = [
        ExposureRecord(run=1, load=load, norm=norm, t=0, agent=0, post=0, likes=1, reshares=0,
                       action=ActionKind.READ)
        for load in LoadLevel
        for norm in NormRegime
    ]
    X, names, _ = build_design_matrix(PatternCounts.of(log_from_records(records).exposures), "threshold")
    assert X.shape[1] == 24
    assert names[0] == "intercept"
    assert len(names) - 1 == 23
    _ok(3, "threshold design matrix has exactly 23 predictor columns")


def test_c04_coefficient_recovery(recovery_experiment):
    ex = recovery_experiment
    assert ex["table"].counts.sum() >= 200_000

    t0 = time.perf_counter()
    X, names, counts = build_design_matrix(ex["table"], "threshold")
    mt = fit_binary_logistic(X, counts, terms=names)
    Xa, names_a, counts_a = build_design_matrix(ex["table"], "allocation")
    ma = fit_multinomial_logistic(Xa, counts_a, terms=names_a)
    fit_seconds = time.perf_counter() - t0

    for j, name in enumerate(names):
        err = abs(mt.coef[0, j] - ex["threshold_true"][j])
        assert err <= max(0.1, 3 * mt.se[0, j]), f"threshold {name}: err {err:.3f}"
    for e, eq in enumerate(ma.equations):
        for j, name in enumerate(names_a):
            err = abs(ma.coef[e, j] - ex["allocation_true"][e][j])
            assert err <= max(0.1, 3 * ma.se[e, j]), f"{eq} {name}: err {err:.3f}"

    total = ex["sim_seconds"] + fit_seconds
    assert total < 180.0, f"recovery took {total:.0f}s"
    _ok(4, "both stages recover known coefficients",
        f"{ex['table'].counts.sum()} rows, {ma.n_obs} engaged, {total:.0f}s total")


def test_c05_closed_form_intercepts():
    X = np.ones((400, 1))
    y = np.array([1.0] * 100 + [0.0] * 300)
    m = fit_binary_logistic(X, one_hot(y, 2), terms=["intercept"])
    assert m.coef[0, 0] == pytest.approx(-1.098612, abs=1e-6)

    Xm = np.ones((100, 1))
    ym = np.array([0] * 60 + [1] * 30 + [2] * 10)
    mm = fit_multinomial_logistic(Xm, one_hot(ym, 3), terms=["intercept"])
    assert mm.coef[0, 0] == pytest.approx(-0.693147, abs=1e-6)
    assert mm.coef[1, 0] == pytest.approx(-1.791759, abs=1e-6)
    _ok(5, "intercept-only fits match closed forms to 1e-6")


def test_c06_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    X = np.column_stack([np.ones(250), rng.normal(size=(250, 4))])
    yb = (rng.random(250) < 0.3).astype(float)
    ym = rng.integers(0, 3, size=250)
    h = 1e-6
    loglik, score, _ = _binary(X, one_hot(yb, 2))
    loglik_m, score_m, _ = _multinomial(X, one_hot(ym, 3))
    for _ in range(10):
        beta = rng.normal(scale=0.7, size=5)
        g = score(loglik(beta)[1])
        fd = np.array([(loglik(beta + h * e)[0] - loglik(beta - h * e)[0]) / (2 * h) for e in np.eye(5)])
        assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g))) < 1e-5

        theta = rng.normal(scale=0.5, size=10)  # the two equations' coefficients, laid end to end
        gm = score_m(loglik_m(theta)[1])
        fdm = np.array([(loglik_m(theta + h * e)[0] - loglik_m(theta - h * e)[0]) / (2 * h) for e in np.eye(10)])
        assert np.max(np.abs(gm - fdm) / np.maximum(1.0, np.abs(gm))) < 1e-5
    _ok(6, "analytic gradients match central differences at 10 random points")


def test_c07_engine_conservation_oracle():
    profiles, graph = generate_population(558, seed=POPULATION_SEED)
    corpus = generate_seed_corpus(seed=POPULATION_SEED)
    cfg = RunConfig(seed=424242, load=LoadLevel.MEDIUM, norm=NormRegime.LIKE_DOMINANT)
    policy = build_policy(mock_policy_spec(), cfg.load, cfg.norm)
    log = LogBuilder(cfg)
    world = initialize(profiles, graph, corpus, cfg)
    for t, (agents, seeds) in enumerate(schedule(cfg, world.agent_ids)):
        step(world, t, cfg, policy, log, agents, seeds)
    log = log.finish(world)

    recounted = recount_counters(records_of(log))
    counters = world_counters(world)
    assert len(recounted) == len(world.posts)
    for post in range(len(world.posts)):
        assert (recounted[post].likes, recounted[post].reshares) == counters[post], f"post {post} counters diverge from log recount"
    engaged = int(np.count_nonzero(log.exposures.action))  # code 0 is read
    _ok(7, "558x480 mock run: counters equal brute-force log recounts",
        f"{len(world.posts)} posts, {engaged} engagements")


def test_c08_activation_statistics(recovery_experiment):
    mean = 558 * 480 * 0.01
    sigma = math.sqrt(558 * 480 * 0.01 * 0.99)
    assert abs(mean - 2678.4) < 1e-9
    for (load, norm), log in recovery_experiment["per_cell"].items():
        activations = len(set(zip(log.exposures.t.tolist(), log.exposures.agent.tolist())))
        assert abs(activations - mean) <= 4 * sigma, f"{load.value}/{norm.value}: {activations}"
    _ok(8, "per-cell activations within binomial 4-sigma band", f"mean {mean:.1f}, sigma {sigma:.1f}")


def test_c09_realized_load_audit(recovery_experiment):
    follows = recovery_experiment["follows"]
    details = []
    for (load, norm), log in recovery_experiment["per_cell"].items():
        audit = realized_load_audit(log, FollowGraph(follows))
        target = load.algorithmic_count
        assert not audit.flagged
        assert abs(audit.mean - target) <= 0.5, f"{load.value}/{norm.value}: mean {audit.mean}"
        assert audit.mean <= target, f"{load.value}/{norm.value}: mean exceeds target"
        details.append(f"{load.value[0]}{norm.value[0]}:{audit.mean:.2f}")
    _ok(9, "realized algorithmic means on target and never above it")


class _DeterministicResponder:
    """Stands in for a live endpoint while recording fixtures: replies are a
    pure function of the request, so recorded fixtures replay exactly."""

    def complete(self, request: dict) -> str:
        h = int(request_hash(request), 16)
        user = request["messages"][1]["content"]
        posts = re.findall(r"\[post (\d+)\]", user)
        if posts and h % 3 == 0:
            return json.dumps({"action": "like", "post_id": int(posts[h % len(posts)])})
        if posts and h % 7 == 0:
            return json.dumps({"action": "quote", "post_id": int(posts[0]), "comment": "echoing this"})
        return '{"action": "read"}'


class RecordingTransport:
    """Wraps a live transport and appends fixture lines for later replay."""

    def __init__(self, inner, path):
        self.inner = inner
        self.path = path

    def complete(self, request: dict) -> str:
        text = self.inner.complete(request)
        line = json.dumps({"request_hash": request_hash(request), "response_text": text}, ensure_ascii=False)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return text


def test_c10_determinism_with_fixture_transport(tmp_path):
    profiles, graph = generate_population(40, seed=7)
    corpus = generate_seed_corpus(seed=7, size=12)
    fixture_path = tmp_path / "responses.jsonl"

    # record pass: drive every cell once against the deterministic responder
    record_plan = ExperimentPlan(base_seed=55, n_agents=40, timesteps=25, activation_p=0.05)
    for load in LOADS:
        for norm in NORMS:
            cfg = record_plan.cell_config(load, norm, 0)
            policy = LlmPolicy(RecordingTransport(_DeterministicResponder(), fixture_path), model="offline-test")
            ss.run(cfg, policy, profiles, graph, corpus)

    plan = ExperimentPlan(
        base_seed=55, n_agents=40, timesteps=25, activation_p=0.05,
        policy=LlmSpec(model="offline-test", transport="fixtures", fixture_path=str(fixture_path)),
    )
    m1 = run_experiment(plan, profiles, graph, corpus, tmp_path / "run1")
    m2 = run_experiment(plan, profiles, graph, corpus, tmp_path / "run2")
    bytes1 = (tmp_path / "run1" / "manifest.json").read_bytes()
    bytes2 = (tmp_path / "run2" / "manifest.json").read_bytes()
    assert bytes1 == bytes2
    digests1 = [c["sha256"] for c in m1["cells"]]
    digests2 = [c["sha256"] for c in m2["cells"]]
    assert digests1 == digests2
    assert all(c["status"] == "ok" for c in m1["cells"])
    _ok(10, "fixture-transport replays are byte-identical", f"12 cells, {len(digests1)} digests")


# Hand-derived trace for a 5-agent, 10-step run (seed 99, activation_p 0.15,
# lowest load, no norm, scripted policy cycling like/read/quote/repost).
#
# Derivation notes. Follow edges: 0->{1}, 1->{0}, 2->{0}, 3->{0,1}, 4->{1};
# influencers 0 and 1 author the three seed posts round-robin (0,1,0). All
# keyword sets are disjoint from post tokens, so ranking is recency-only with
# post-id tie-breaks. Activations (from the seeded per-timestep substream):
# t0:4, t2:2, t3:2, t5:0,2,4, t6:4, t8:0. Walking the script against those
# activations gives, in order: agent 4 likes post 1; agent 2 reads; agent 2
# quotes post 2 (creating post 3); agent 0 reposts post 1 (post 4); agent 2
# likes the brand-new post 4 (same timestep, sequential update); agent 4
# reads a feed that already shows post 1 at likes=1/reshares=1; agent 4
# quotes post 3 (post 5); agent 0 reposts post 5 (post 6).
TINY_TRACE_FIXTURE = [
    '{"kind":"seed","post":0,"author":0,"source":null,"t":0}',
    '{"kind":"seed","post":1,"author":1,"source":null,"t":0}',
    '{"kind":"seed","post":2,"author":0,"source":null,"t":0}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":0,"agent":4,"post":1,"likes":0,"reshares":0,"action":"like"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":0,"agent":4,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":0,"agent":4,"post":2,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":2,"agent":2,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":2,"agent":2,"post":2,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":2,"agent":2,"post":1,"likes":1,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":3,"agent":2,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":3,"agent":2,"post":2,"likes":0,"reshares":0,"action":"quote"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":3,"agent":2,"post":1,"likes":1,"reshares":0,"action":"read"}',
    '{"kind":"quote","post":3,"author":2,"source":2,"t":3}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":0,"post":1,"likes":1,"reshares":0,"action":"repost"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":0,"post":3,"likes":0,"reshares":0,"action":"read"}',
    '{"kind":"repost","post":4,"author":0,"source":1,"t":5}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":2,"post":4,"likes":0,"reshares":0,"action":"like"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":2,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":2,"post":1,"likes":1,"reshares":1,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":4,"post":4,"likes":1,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":4,"post":3,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":4,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":5,"agent":4,"post":2,"likes":0,"reshares":1,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":6,"agent":4,"post":4,"likes":1,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":6,"agent":4,"post":3,"likes":0,"reshares":0,"action":"quote"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":6,"agent":4,"post":0,"likes":0,"reshares":0,"action":"read"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":6,"agent":4,"post":2,"likes":0,"reshares":1,"action":"read"}',
    '{"kind":"quote","post":5,"author":4,"source":3,"t":6}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":8,"agent":0,"post":5,"likes":0,"reshares":0,"action":"repost"}',
    '{"run":99,"load":"lowest","norm":"no_norm","t":8,"agent":0,"post":3,"likes":0,"reshares":1,"action":"read"}',
    '{"kind":"repost","post":6,"author":0,"source":5,"t":8}',
]


def test_c11_tiny_trace_matches_hand_written_fixture(tmp_path):
    profiles = [
        AgentProfile(0, "ua", frozenset(["kw0"]), True, True),
        AgentProfile(1, "ub", frozenset(["kw1"]), True, True),
        AgentProfile(2, "uc", frozenset(["kw2"]), False, False),
        AgentProfile(3, "ud", frozenset(["kw3"]), False, False),
        AgentProfile(4, "ue", frozenset(["kw4"]), False, False),
    ]
    graph = FollowGraph({0: {1}, 1: {0}, 2: {0}, 3: {0, 1}, 4: {1}})
    corpus = ["alpha beta", "gamma delta", "epsilon zeta"]
    cfg = RunConfig(
        seed=99, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM,
        n_agents=5, timesteps=10, activation_p=0.15,
    )
    policy = ScriptedPolicy([("like", 0), "read", ("quote", 1, "hot take"), ("repost", 0)])
    log = ss.run(cfg, policy, profiles, graph, corpus)
    ss.write_log(log, tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == TINY_TRACE_FIXTURE
    _ok(11, "5-agent 10-step trace equals the hand-written fixture", f"{len(lines)} lines")


def test_c12_parser_fuzz_never_breaks():
    feed = make_feed([3, 7], [0, 2], [0, 1], n_followed=1)
    rng = random.Random(991)
    alphabet = string.printable + '{}[]":,'
    n = 10_000
    for _ in range(n):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 160)))
        decision = parse_response(raw, feed)
        assert isinstance(decision, Decision)
        if decision.action.is_engagement:
            assert decision.target in (3, 7)

    violating = [
        '{"action":"like"}',
        '{"action":"like","post_id":99}',
        '{"action":"quote","post_id":3}',
        '{"action":"quote","post_id":3,"comment":""}',
        '{"action":"destroy","post_id":3}',
        '{"post_id":3}',
        "null",
        '{"action":null,"post_id":3}',
        '{"action":"like","post_id":[3]}',
    ]
    for raw in violating:
        assert parse_response(raw, feed).action is ActionKind.READ
    _ok(12, "parser fuzz: 10^4 random strings always yield a valid decision")


LIVE_ENDPOINT_ENV = "SOCIALSIM_LLM_ENDPOINT"
LIVE_MODEL_ENV = "SOCIALSIM_LLM_MODEL"


@pytest.mark.skipif(LIVE_ENDPOINT_ENV not in os.environ, reason="live LLM endpoint not configured (non-gating)")
def test_c13_live_llm_reduced_run():
    spec = LlmSpec(
        endpoint=os.environ[LIVE_ENDPOINT_ENV],
        model=os.environ.get(LIVE_MODEL_ENV, "qwen3-8b"),
        temperature=0.6,
    )
    profiles, graph = generate_population(100, seed=POPULATION_SEED)
    corpus = generate_seed_corpus(seed=POPULATION_SEED)
    cfg = RunConfig(
        seed=31337, load=LoadLevel.MEDIUM, norm=NormRegime.NO_NORM,
        n_agents=100, timesteps=120,
    )
    policy = build_policy(spec, cfg.load, cfg.norm, api_key=os.environ.get("SOCIALSIM_LLM_API_KEY"))
    log = ss.run(cfg, policy, profiles, graph, corpus)
    shares = descriptive_shares(log)
    read_share = shares.shares["read"]
    print(f"live read share: {read_share:.3f}; reported reference band [0.731, 0.980] (not asserted)")
    assert 0.5 <= read_share < 1.0
    _ok(13, "live reduced run completes with plausible read share", f"read={read_share:.3f}")
