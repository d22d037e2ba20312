"""Run `socialsim` CLI stages inside one fresh process, with or without tracing.

    python3 perfbench/inproc.py <job.json>

The job names the stages (`[[stage, argv], ...]`), whether to trace, a
run id, and where to write the result JSON and, when traced, the spans.
run.py starts one such process per pass, so the traced and the untraced
pass both start cold and their wall times compare.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import socialsim.cli as cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer, install, span_cost, uninstall

    tracer = Tracer(job["run_id"])
    saved = install(tracer) if job["traced"] else []
    walls, codes = {}, {}
    try:
        with open(job["cli_log"], "a", encoding="utf-8") as log, redirect_stdout(log):
            t_start = time.monotonic()
            for stage, argv in job["stages"]:
                t = time.monotonic()
                if job["traced"]:
                    with tracer.span(f"cli.{stage}"):
                        codes[stage] = cli.main(argv)
                else:
                    codes[stage] = cli.main(argv)
                walls[stage] = time.monotonic() - t
            t_end = time.monotonic()
    finally:
        uninstall(saved)
    if job["traced"]:
        tracer.write(Path(job["spans"]))
    result = {
        "import_s": import_s,
        "wall_s": t_end - t_start,
        "t_start": t_start,  # monotonic clock, shared with the parent's speed probe
        "t_end": t_end,
        "stage_walls": walls,
        "codes": codes,
        "self_s": tracer.self_times() if job["traced"] else {},
        "counts": tracer.counts,
        "spans": len(tracer.names),
        "span_cost_s": span_cost() if job["traced"] else 0.0,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
