#!/usr/bin/env python3
"""socialsim benchmark: CLI stage timings with output checks, plus a traced per-layer run.

    python3 perfbench/run.py --workload {paper,crowd,fieldlogs} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/` as is, nothing is installed. Work files go to `.bench_work/` and each
run removes its own directory when it ends.

The benchmark and every process it starts run on one CPU, and each timed
interval is scaled to a fixed reference CPU speed by a probe that samples
that CPU while the interval runs (speedprobe.py).

`--trace 0` drives the `socialsim` CLI as subprocesses, one stage after
another (closed loop, one client), repeating the workload's stages until
`--seconds` have been measured, and reports the end-to-end metrics named in
BENCHMARK.json (medians over the repetitions, in reference seconds).
`--trace 1` calls `socialsim.cli.main` in-process with `--workers 1`, first
untraced and then with spans around the program's public functions (see
tracing.py), and reports the per-layer metrics and the tracing overhead.

Every run checks its outputs; each check, stage exit and manifest cell is
one attempted operation, and the last stdout line is the JSON result.
`--record` stores this seed's log digests and fitted values in
recorded.json, against which later runs of that seed are checked.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from speedprobe import REF_KERNEL_S, SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDED = HERE / "recorded.json"
PROBE = SpeedProbe()

SETUP_REPS = 3
SWEEP_AGENTS = (558, 1116, 2232)
SWEEP_REPS = 2
FIT_RTOL = 1e-8
REPORT_FILES = (
    "report.md",
    "shares_by_condition.svg",
    "threshold_probability_curves.svg",
    "allocation_like_curves.svg",
    "allocation_repost_curves.svg",
    "allocation_quote_curves.svg",
)


@dataclass(frozen=True)
class Workload:
    agents: int
    steps: int
    cell: str | None  # simulate --cell filter; None runs all 12 cells
    simulate: bool
    analyze: bool  # analyze --stage both, then report

    @property
    def cells(self) -> int:
        """Cell logs each pass writes or reads: one under a --cell filter, else the 4 x 3 design."""
        return 1 if self.cell else 12


WORKLOADS = {
    # The path users run: the paper-scale plan (558 agents, 480 steps, p=0.01,
    # mock policy, 12 cells), then analyze and report. Both halves carry real
    # weight (feed ranking in simulate, log parsing in analyze), so a gain on
    # either side shows, and so does a trade between them.
    "paper": Workload(agents=558, steps=480, cell=None, simulate=True, analyze=True),
    # One HIGH/repost cell at four times the agents: feed ranking does most of
    # the work, each activation scans about three times paper's posts, and the
    # (agent, post) relevance memo sets the peak memory. Analysis does not run,
    # so an analysis change predicts no change here.
    "crowd": Workload(agents=2232, steps=240, cell="load=high,norm=repost", simulate=True, analyze=False),
    # Analyze and report on synthetic logs from fieldlogs.py: a stress case for
    # low pattern sharing, not a model of real logs. Paper's row count, but
    # heavy-tailed counters give tens of thousands of (load, norm,
    # likes+reshares) patterns against paper's few hundred, the worst case for
    # a grouped fit. Feed ranking does no work here.
    "fieldlogs": Workload(agents=558, steps=0, cell=None, simulate=False, analyze=True),
}

_EXPOSURE = re.compile(
    rb'"load":"(\w+)","norm":"(\w+)","t":\d+,"agent":\d+,"post":\d+,"likes":(\d+),"reshares":(\d+),"action":"(\w+)"'
)


class Checks:
    """Attempted and failed operations: stage exits, manifest cells, output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Timed:
    code: int
    wall: float  # s
    scaled: float  # s at the reference CPU speed (speedprobe.py)
    rss: float  # peak RSS MB of the process tree


def run_cli(argv: list[str], log: Path) -> Timed:
    """One `socialsim` subprocess, timed."""
    t0 = time.monotonic()
    with open(log, "ab") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "socialsim.cli", *argv], stdout=fh, stderr=subprocess.STDOUT, env=program_env()
        )
        _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(proc.returncode, t1 - t0, PROBE.scaled(t0, t1), usage.ru_maxrss / 1024.0)


def write_plan(path: Path, wl: Workload, seed: int, inputs: Path) -> Path:
    plan = {
        "base_seed": seed,
        "n_agents": wl.agents,
        "timesteps": wl.steps,
        "activation_p": 0.01,
        "policy": {"kind": "mock"},
        "population": str(inputs / "population.jsonl"),
        "corpus": str(inputs / "corpus.jsonl"),
    }
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def stage_argvs(wl: Workload, plan: Path | None, logs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's timed stages, in order, as (stage, CLI argv)."""
    stages = []
    if wl.simulate:
        # One worker: the benchmark runs on one CPU (speedprobe.py).
        argv = ["simulate", "--config", str(plan), "--out", str(logs), "--workers", "1"]
        stages.append(("simulate", argv + (["--cell", wl.cell] if wl.cell else [])))
    if wl.analyze:
        stages.append(("analyze", ["analyze", "--logs", str(logs), "--out", str(out / "analysis"), "--stage", "both"]))
        stages.append(("report", ["report", "--analysis", str(out / "analysis"), "--out", str(out / "report")]))
    return stages


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_logs(checks: Checks, logs: Path, cells_expected: int, recorded: dict | None) -> list[str]:
    """The manifest lists the expected cells, each ok and matching its log's (and the recorded) SHA-256."""
    manifest_path = logs / "manifest.json"
    if not checks.check("manifest exists", manifest_path.exists()):
        return []
    cells = json.loads(manifest_path.read_text(encoding="utf-8"))["cells"]
    checks.check(f"manifest lists {cells_expected} cells", len(cells) == cells_expected)
    digests = []
    for i, cell in enumerate(cells):
        name = cell["file"]
        checks.check(f"cell {name} ok", cell.get("status") == "ok")
        digest = sha256_file(logs / "logs" / name) if (logs / "logs" / name).exists() else ""
        digests.append(digest)
        checks.check(f"cell {name} sha256 equals manifest", digest == cell.get("sha256"))
        if recorded is not None:
            want = recorded["digests"]
            checks.check(f"cell {name} sha256 equals recorded", i < len(want) and digest == want[i])
    if recorded is not None:
        checks.check("cell count equals recorded", len(digests) == len(recorded["digests"]))
    return digests


def count_exposures(logs: Path) -> tuple[int, int]:
    """(exposure rows, engaged exposure rows) over every cell log."""
    total = read = 0
    for path in sorted((logs / "logs").glob("*.jsonl")):
        data = path.read_bytes()
        total += data.count(b'"action":"')
        read += data.count(b'"action":"read"')
    return total, total - read


def check_analysis(checks: Checks, analysis: Path, exposures: int, engaged: int, recorded: dict | None) -> dict:
    """fit_metrics identities, row counts, convergence, and fitted values against the recorded ones."""
    metrics_path = analysis / "fit_metrics.csv"
    if not checks.check("fit_metrics.csv exists", metrics_path.exists()):
        return {}
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        rows = {r["stage"]: r for r in csv.DictReader(fh)}
    fits = {}
    for stage, n_want in (("threshold", exposures), ("allocation", engaged)):
        row = rows.get(stage)
        if not checks.check(f"{stage} row in fit_metrics.csv", row is not None):
            continue
        k, ll_full, ll_null = int(row["k"]), float(row["ll_full"]), float(row["ll_null"])
        checks.check(f"{stage} n equals rows written", int(row["n"]) == n_want)
        checks.check(f"{stage} converged", row["converged"] == "True")
        checks.check(f"{stage} AIC = 2k - 2 ll_full", math.isclose(float(row["aic"]), 2.0 * k - 2.0 * ll_full, rel_tol=1e-12))
        checks.check(f"{stage} chi2 = 2 (ll_full - ll_null)", math.isclose(float(row["chi2"]), 2.0 * (ll_full - ll_null), rel_tol=1e-12))
        model = json.loads((analysis / f"{stage}_model.json").read_text(encoding="utf-8"))
        fit = {"ll_full": model["ll_full"], "ll_null": model["ll_null"], "coef": [b for eq in model["coef"] for b in eq]}
        fits[stage] = fit
        if recorded is not None:
            want = recorded["fits"][stage]
            got_values = [fit["ll_full"], fit["ll_null"], *fit["coef"]]
            want_values = [want["ll_full"], want["ll_null"], *want["coef"]]
            same = len(got_values) == len(want_values) and all(
                math.isclose(a, b, rel_tol=FIT_RTOL) for a, b in zip(got_values, want_values)
            )
            checks.check(f"{stage} ll and coefficients equal recorded", same)
    return fits


def check_report(checks: Checks, report: Path) -> None:
    for name in REPORT_FILES:
        path = report / name
        checks.check(f"report {name} written", path.exists() and path.stat().st_size > 0)


def check_outputs(checks: Checks, wl: Workload, logs: Path, out: Path, recorded: dict | None) -> dict:
    """All output checks of one pass over the workload's stages; returns what --record stores."""
    result = {"digests": check_logs(checks, logs, wl.cells, recorded)}
    if wl.analyze:
        exposures, engaged = count_exposures(logs)
        result["fits"] = check_analysis(checks, out / "analysis", exposures, engaged, recorded)
        check_report(checks, out / "report")
    return result


# ---------------------------------------------------------------------------
# Untraced end-to-end run
# ---------------------------------------------------------------------------


def prepare(checks: Checks, agents: int, seed: int, work: Path, reps: int = 1) -> tuple[Path, list[tuple[float, float]]]:
    """Run the program's set-up commands `reps` times; returns the first inputs and each rep's (wall, scaled) s."""
    times = []
    for i in range(reps):
        out = work / f"inputs{agents}-{i}"
        out.mkdir()
        wall = scaled = 0.0
        for argv in (
            ["gen-population", "--n", str(agents), "--seed", str(seed), "--out", str(out / "population.jsonl")],
            ["gen-corpus", "--seed", str(seed), "--out", str(out / "corpus.jsonl")],
        ):
            timed = run_cli(argv, work / "setup.log")
            checks.check(f"{argv[0]} exit 0", timed.code == 0)
            wall += timed.wall
            scaled += timed.scaled
        times.append((wall, scaled))
        if i:
            first = work / f"inputs{agents}-0"
            for name in ("population.jsonl", "corpus.jsonl"):
                checks.check(f"set-up rep {i} {name} identical", sha256_file(out / name) == sha256_file(first / name))
    return work / f"inputs{agents}-0", times


def write_fieldlogs_if_needed(wl: Workload, seed: int, inputs: Path, work: Path) -> None:
    """A workload without a simulate stage analyzes logs from fieldlogs.py, written once per run."""
    if not wl.simulate:
        from fieldlogs import write_fieldlogs

        write_fieldlogs(work / "fieldlogs", seed, inputs / "population.jsonl", inputs / "corpus.jsonl")


def run_untraced(checks: Checks, label: str, seed: int, seconds: float, work: Path, recorded: dict | None):
    wl = WORKLOADS[label]
    inputs, setup_times = prepare(checks, wl.agents, seed, work, SETUP_REPS)
    plan = write_plan(work / "plan.json", wl, seed, inputs) if wl.simulate else None
    write_fieldlogs_if_needed(wl, seed, inputs, work)

    passes: list[dict] = []
    stored: dict = {}
    t_start = time.monotonic()
    while not passes or time.monotonic() - t_start < seconds:
        out = work / f"pass{len(passes)}"
        out.mkdir()
        logs = out / "runs" if wl.simulate else work / "fieldlogs"
        stages = {}
        for stage, argv in stage_argvs(wl, plan, logs, out):
            stages[stage] = run_cli(argv, out / "stages.log")
            checks.check(f"{stage} exit 0", stages[stage].code == 0)
        stored = check_outputs(checks, wl, logs, out, recorded)
        passes.append(stages)
        shutil.rmtree(out)

    def median(values) -> float:
        return statistics.median(list(values))

    detail = {}
    for s in passes[0]:
        detail[f"{s}_s"] = (median(p[s].scaled for p in passes), "s")
        detail[f"{s}_wall_s"] = (median(p[s].wall for p in passes), "s")
    for s in ("simulate", "analyze"):
        if s in passes[0]:
            detail[f"{s}_peak_rss_mb"] = (median(p[s].rss for p in passes), "MB")
    detail["pipeline_wall_s"] = (median(sum(t.wall for t in p.values()) for p in passes), "s")
    detail["setup_wall_s"] = (median(w for w, _ in setup_times), "s")
    metrics = {
        "pipeline_s": (median(sum(t.scaled for t in p.values()) for p in passes), "s"),
        "setup_s": (median(s for _, s in setup_times), "s"),
        "peak_rss_mb": (median(max(t.rss for t in p.values()) for p in passes), "MB"),
    }
    print(f"{label}: {len(passes)} pass(es) in {time.monotonic() - t_start:.1f} s, {SETUP_REPS} set-up reps")
    return metrics, detail, stored


# ---------------------------------------------------------------------------
# Traced per-layer run
# ---------------------------------------------------------------------------


def in_process(work: Path, label: str, seed: int, tag: str, stages: list, traced: bool) -> dict:
    """One fresh process running `stages` through `socialsim.cli.main` (inproc.py); returns its result."""
    job = {
        "run_id": f"{label}-seed{seed}-{tag}",
        "stages": stages,
        "traced": traced,
        "cli_log": str(work / "cli.log"),
        "result": str(work / f"{tag}.result.json"),
        "spans": str(WORK / f"trace-{label}-{tag}.jsonl"),
    }
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "inproc.py"), str(job_path)], env=program_env(), check=True)
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    result["scaled_s"] = PROBE.scaled(result["t_start"], result["t_end"])
    return result


def run_traced(checks: Checks, label: str, seed: int, work: Path, recorded: dict | None) -> tuple[dict, dict, dict]:
    """Per-layer values, self times and counts of the traced pass, plus the sweep and the overhead."""
    wl = WORKLOADS[label]

    inputs, _ = prepare(checks, wl.agents, seed, work)
    write_fieldlogs_if_needed(wl, seed, inputs, work)

    def one_pass(tag: str, traced: bool) -> tuple[dict, list[str], Path]:
        out = work / tag
        out.mkdir()
        plan = write_plan(out / "plan.json", wl, seed, inputs) if wl.simulate else None
        logs = out / "runs" if wl.simulate else work / "fieldlogs"
        res = in_process(work, label, seed, tag, stage_argvs(wl, plan, logs, out), traced)
        for stage, code in res["codes"].items():
            checks.check(f"{tag} {stage} exit 0", code == 0)
        digests = check_outputs(checks, wl, logs, out, recorded)["digests"]
        return res, digests, logs

    untraced, digests_u, _ = one_pass("untraced", traced=False)
    shutil.rmtree(work / "untraced")
    traced, digests_t, logs = one_pass("traced", traced=True)
    if wl.simulate:  # without a simulate stage both passes read the same pre-written logs
        checks.check("traced and untraced log digests identical", digests_t == digests_u)
    threshold_patterns, allocation_patterns = count_patterns(logs)
    shutil.rmtree(work / "traced")

    metrics: dict = {}
    import_times = [untraced["import_s"], traced["import_s"]]
    if label == "crowd":
        metrics["recommender.select_feed.growth_exponent"] = population_sweep(
            checks, seed, work, inputs, feed_self_scaled(traced), import_times
        )

    st, ct = traced["self_s"], traced["counts"]

    def ratio(a: str, b: str) -> float:
        return ct.get(a, 0.0) / ct[b] if ct.get(b) else 0.0

    metrics |= {
        "recommender.select_feed.fill_ratio": ratio("recommender.select_feed.entries", "recommender.select_feed.capacity"),
        "policy.decide.engage_ratio": ratio("policy.decide.engagements", "policy.decide.calls"),
        "analysis.threshold_patterns": threshold_patterns,
        "analysis.allocation_patterns": allocation_patterns,
        "import.socialsim_s": statistics.median(import_times),
        "trace.untraced_s": untraced["scaled_s"],
        "trace.traced_s": traced["scaled_s"],
        "trace.overhead_s": traced["scaled_s"] - untraced["scaled_s"],
        "trace.overhead_est_s": traced["spans"] * traced["span_cost_s"],
    }
    for stage in ("simulate", "analyze", "report"):
        metrics[f"cli.{stage}.wall_s"] = traced["stage_walls"].get(stage, 0.0)
    print(f"{label}: traced {traced['scaled_s']:.2f} s ({traced['wall_s']:.2f} s wall), "
          f"untraced {untraced['scaled_s']:.2f} s ({untraced['wall_s']:.2f} s wall), "
          f"{traced['spans']} spans at {traced['span_cost_s'] * 1e6:.2f} us each")
    return metrics, st, ct


def population_sweep(checks: Checks, seed: int, work: Path, inputs: Path, feed_self_2232: float,
                     import_times: list[float]) -> float:
    """`select_feed` self time of crowd's cell at 558, 1116 and 2232 agents, SWEEP_REPS times.

    Each point's self time is scaled to the reference CPU speed, so that host
    drift between the fresh processes does not tilt the slope.

    Each point is a fresh traced process; the first 2232-agent point is crowd's
    own traced pass. Returns the median of the per-sweep log-log slopes.
    """
    crowd = WORKLOADS["crowd"]
    populations = {crowd.agents: inputs}
    slopes = []
    for rep in range(SWEEP_REPS):
        feed_self = {}
        for agents in SWEEP_AGENTS:
            if rep == 0 and agents == crowd.agents:
                feed_self[agents] = feed_self_2232
                continue
            if agents not in populations:
                populations[agents] = prepare(checks, agents, seed, work)[0]
            out = work / f"sweep{agents}-{rep}"
            out.mkdir()
            sweep = replace(crowd, agents=agents)
            plan = write_plan(out / "plan.json", sweep, seed, populations[agents])
            res = in_process(work, "crowd", seed, f"sweep{agents}-{rep}", stage_argvs(sweep, plan, out / "runs", out), True)
            checks.check(f"sweep {agents} simulate exit 0", res["codes"]["simulate"] == 0)
            check_logs(checks, out / "runs", sweep.cells, None)
            feed_self[agents] = feed_self_scaled(res)
            import_times.append(res["import_s"])
            shutil.rmtree(out)
        slopes.append(loglog_slope(feed_self))
        print(f"sweep {rep}: select_feed self s at reference speed " + ", ".join(f"{n} agents {v:.3f}" for n, v in sorted(feed_self.items()))
              + f"; exponent {slopes[-1]:.3f}")
    print(f"growth exponent over {SWEEP_REPS} sweeps: min {min(slopes):.3f}, median {statistics.median(slopes):.3f}, "
          f"max {max(slopes):.3f}")
    return statistics.median(slopes)


def feed_self_scaled(res: dict) -> float:
    """`select_feed` self time of one in-process pass, scaled to the reference speed as the whole pass is."""
    return res["self_s"]["recommender.select_feed"] * res["scaled_s"] / res["wall_s"]


def count_patterns(logs: Path) -> tuple[int, int]:
    """Distinct (load, norm, likes+reshares) among all exposure rows and among engaged ones."""
    threshold, allocation = set(), set()
    for path in sorted((logs / "logs").glob("*.jsonl")):
        for load, norm, likes, reshares, action in _EXPOSURE.findall(path.read_bytes()):
            key = (load, norm, int(likes) + int(reshares))
            threshold.add(key)
            if action != b"read":
                allocation.add(key)
    return len(threshold), len(allocation)


def loglog_slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(value) against log(agents)."""
    xs = [math.log(n) for n in points]
    ys = [math.log(max(v, 1e-9)) for v in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's digests and fitted values in recorded.json")
    args = parser.parse_args()

    if not (SRC / "socialsim" / "cli.py").exists():
        print(f"error: no socialsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    recorded_all = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}
    recorded = None if args.record else recorded_all.get(args.workload, {}).get(str(args.seed))

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    checks = Checks()
    cpu = pin_to_one_cpu()
    try:
        with PROBE:
            if args.trace:
                values, self_s, counts = run_traced(checks, args.workload, args.seed, work, recorded)
                for name in declared:
                    if name not in values:  # a layer that did not run on this workload reads 0
                        layer, _, what = name.rpartition(".")
                        values[name] = self_s.get(layer, 0.0) if what == "self_s" else counts.get(name, 0.0)
                metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
            else:
                e2e, detail, stored = run_untraced(checks, args.workload, args.seed, args.seconds, work, recorded)
                for name, (value, unit) in detail.items():
                    print(f"  {name}: {value:.4f} {unit}")
                metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in declared.items()}
                if args.record and not checks.failures:
                    recorded_all.setdefault(args.workload, {})[str(args.seed)] = stored
                    RECORDED.write_text(json.dumps(recorded_all, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kernel_s = [k for _, k in PROBE.samples]
    print(f"  speed probe on CPU {cpu}: {len(kernel_s)} samples, mean kernel {statistics.fmean(kernel_s) * 1e3:.3f} ms "
          f"(reference {REF_KERNEL_S * 1e3:.3f} ms)")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac: {len(checks.failures) / checks.attempted:.6g} ratio ({len(checks.failures)} of {checks.attempted} operations failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    result = {"correct": not checks.failures, "attempted": checks.attempted, "failed": len(checks.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
