"""The benchmark's trace points name functions the package still has, and the
commands call them by those names.

perfbench/tracing.py wraps functions by module attribute; a renamed or
deleted one would otherwise show up only as a failed traced benchmark run,
and one that a command no longer looks up by that name only as a layer that
records no calls.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import socialsim
from socialsim.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_to_a_callable():
    # In a fresh interpreter, as perfbench/inproc.py installs them: right after `import socialsim.cli`.
    points = [(module, attr) for module, attr, *_ in _tracing_module().TRACE_POINTS]
    assert points
    code = (
        "import importlib, socialsim.cli\n"
        f"print([f'{{m}}.{{a}}' for m, a in {points!r} if not callable(getattr(importlib.import_module(m), a, None))])"
    )
    src = str(Path(socialsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_traced_analyze_and_report_record_every_cli_trace_point(tmp_path):
    tracing = _tracing_module()
    plan = {"base_seed": 5, "n_agents": 40, "timesteps": 40, "activation_p": 0.05}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main(["simulate", "--config", str(tmp_path / "plan.json"), "--out", str(tmp_path / "runs")]) == 0
    tracer = tracing.Tracer("test")
    saved = tracing.install(tracer)
    try:
        assert main(["analyze", "--logs", str(tmp_path / "runs"), "--out", str(tmp_path / "analysis")]) == 0
        assert main(["report", "--analysis", str(tmp_path / "analysis"), "--out", str(tmp_path / "report")]) == 0
    finally:
        tracing.uninstall(saved)
    cli_points = {name for module, _, name, _ in tracing.TRACE_POINTS if module == "socialsim.cli"}
    assert cli_points
    assert cli_points - set(tracer.names) == set()
    assert {"harness.read_log", "figures.svg"} <= set(tracer.names)


def test_traced_simulate_records_the_engine_points_and_one_write_log_per_cell(tmp_path):
    # Each cell streams its log to disk as it runs, and write_log, called once per cell as (writer, path),
    # closes it: perfbench reads the cell's rows from the writer and its bytes from the file at that path.
    tracing = _tracing_module()
    plan = {"base_seed": 5, "n_agents": 40, "timesteps": 40, "activation_p": 0.05}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    tracer = tracing.Tracer("test")
    saved = tracing.install(tracer)
    try:
        assert main(["simulate", "--config", str(tmp_path / "plan.json"), "--out", str(tmp_path / "runs")]) == 0
    finally:
        tracing.uninstall(saved)
    cells = json.loads((tmp_path / "runs" / "manifest.json").read_text())["cells"]
    assert len(cells) == 12 and all(c["status"] == "ok" for c in cells)
    assert tracer.names.count("harness.write_log") == tracer.counts["harness.write_log.calls"] == 12
    assert tracer.counts["harness.write_log.rows"] == sum(c["rows"] for c in cells)
    assert tracer.counts["harness.write_log.bytes"] == sum((tmp_path / "runs" / "logs" / c["file"]).stat().st_size for c in cells)
    assert {"engine.step", "recommender.select_feed", "policy.decide"} <= set(tracer.names)
