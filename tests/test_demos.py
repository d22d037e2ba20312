"""Every demo script runs to completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp_path)  # demos 01 and 03 write their files to a fresh temporary directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_use_block_fits_a_clean_model(capsys):
    # README "Library use" opens with one code block that simulates, folds and fits: it must run as
    # printed, and its threshold fit must converge on an identified design, with no ridge added.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md Library use", "exec"), namespace)
    model = namespace["model"]
    assert model.converged and model.diagnostics == []
    assert capsys.readouterr().out.startswith("True []\n")


COST_SECTIONS = ("What a feed costs", "What simulate costs", "What a process loads", "What analyze costs")


def test_readme_cost_sections_cite_benchmark_records_that_exist():
    # The cost sections state today's figures and cite the BENCH_<n>.json records that hold their history:
    # each section cites at least one, and every record the README names is at the repository root.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sections = {part.split("\n", 1)[0]: part for part in text.split("\n## ")[1:]}
    for title in COST_SECTIONS:
        assert re.search(r"\bBENCH_\d+\.json\b", sections[title]), f"README '{title}' cites no BENCH_<n>.json"
    cited = set(re.findall(r"\bBENCH_\d+\.json\b", text))
    assert sorted(name for name in cited if not (ROOT / name).is_file()) == []
