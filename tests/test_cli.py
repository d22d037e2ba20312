import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import socialsim.cli as cli
from socialsim.cli import main
from socialsim.core import CellLog, ExposureColumns, LoadLevel, NormRegime
from socialsim.population import generate_population, save_population
from socialsim.stats import load_model

from reference_prediction import reference_predicted_probabilities


@pytest.fixture()
def plan_file(tmp_path):
    cfg = {
        "base_seed": 5,
        "n_agents": 40,
        "timesteps": 40,
        "activation_p": 0.05,
        "policy": {"kind": "mock"},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def run_dir(plan_file, tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(plan_file), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def analysis_dir(run_dir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 0
    return out


# Population values the reader once took wrongly or failed on with a traceback.
_BAD_POPULATION_VALUES = [
    pytest.param("verified", "false", id="verified_text"),
    pytest.param("keywords", "gpu", id="keywords_text"),
    pytest.param("name", 5, id="name_number"),
    pytest.param("keywords", [1, 2], id="keywords_numbers"),
    pytest.param("id", True, id="id_bool"),
    pytest.param("follows", 3, id="follows_int"),
    pytest.param("follows", "1", id="follows_text"),
]


def _edit_population_row(path: Path, key: str, value) -> None:
    """Set ``key`` of the population file's second row (line 2) to ``value``."""
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    path.write_text("\n".join(lines) + "\n")


# The 11 cells a run of the low/no_norm cell alone leaves empty, in LOADS x NORMS order.
_ALL_BUT_LOW_NO_NORM = ", ".join(
    f"{load.value}/{norm.value}" for load in LoadLevel for norm in NormRegime
    if (load, norm) != (LoadLevel.LOW, NormRegime.NO_NORM)
)


class TestGenerators:
    def test_gen_population(self, tmp_path):
        out = tmp_path / "pop.jsonl"
        assert main(["gen-population", "--n", "40", "--seed", "3", "--out", str(out)]) == 0
        from socialsim.population import load_population

        profiles, _ = load_population(out)
        assert len(profiles) == 40

    def test_gen_corpus(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--seed", "3", "--size", "10", "--out", str(out)]) == 0
        from socialsim.population import load_corpus

        assert len(load_corpus(out)) == 10

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_gen_corpus_without_posts_exits_2_and_writes_nothing(self, tmp_path, capsys, size):
        # Regression: --size 0 exited 0 and wrote a corpus file that load_corpus rejects as empty.
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--seed", "3", "--size", size, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: corpus size must be at least 1, got {size}"]
        assert not out.exists()


class TestSimulate:
    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_single_cell_run(self, plan_file, tmp_path):
        out = tmp_path / "one"
        rc = main(
            ["simulate", "--config", str(plan_file), "--out", str(out), "--cell", "load=high,norm=repost", "--policy", "mock"]
        )
        assert rc == 0
        logs = list((out / "logs").glob("*.jsonl"))
        assert len(logs) == 1
        assert logs[0].name == "high_repost_dominant_r0.jsonl"

    def test_invalid_plan_value_exits_2_before_any_cell(self, plan_file, tmp_path):
        bad = tmp_path / "bad_window.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "history_window": 0}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("replications", [0, -2])
    def test_non_positive_replications_exit_2_before_any_cell(self, plan_file, tmp_path, replications):
        bad = tmp_path / "no_reps.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "replications": replications}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("edit", [{"timestep": 3, "replicatons": 2}, {"timesteps": 2.9}])
    def test_misspelled_key_or_fractional_count_exits_2_before_any_cell(self, plan_file, tmp_path, capsys, edit):
        # Regression: these ran 480 steps and 1 replication, or 2 steps, and exited 0.
        bad = tmp_path / "bad_keys.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), **edit}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"'{sorted(edit)[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, named",
        [
            pytest.param({"kind": "parametric", "thresold": [0.0] * 24, "allocation": [[0.0] * 24] * 2}, "unknown policy key 'thresold'", id="misspelled_key"),
            pytest.param({"kind": "llm", "modle": "x"}, "unknown policy key 'modle'", id="llm_misspelled_key"),
            pytest.param("mock", "'policy' must be an object", id="not_an_object"),
            pytest.param({"kind": "scripted"}, "missing policy key 'intents'", id="missing_intents"),
            pytest.param({"kind": "parametric", "threshold": [0.0, 0.0], "allocation": [[0.0] * 24] * 2}, "key 'threshold' must have shape", id="short_threshold"),
            pytest.param({"kind": "llm", "transport": "fixtures"}, "requires policy key 'fixture_path'", id="fixtures_without_path"),
        ],
    )
    def test_bad_policy_exits_2_before_writing_anything(self, plan_file, tmp_path, capsys, policy, named):
        # Regression: the first ran the mock coefficients and exited 0; the others
        # exited 1 or 2 from inside the run, some after writing the inputs and logs.
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "policy": policy}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param({"recency_decay": -2.0, "timesteps": 480}, "recency_decay", id="negative_decay"),
            pytest.param({"policy": {"kind": "scripted", "intents": [["lik", 0]]}}, "'intents'", id="unknown_action"),
            pytest.param({"policy": {"kind": "scripted", "intents": [["like", "x"]]}}, "'intents'", id="text_index"),
            pytest.param({"policy": {"kind": "scripted", "intents": ["reed"]}}, "'intents'", id="misspelled_read"),
            pytest.param({"policy": {"kind": "llm", "endpoint": "http://x", "max_retries": "3"}}, "'max_retries'", id="text_retries"),
            pytest.param({"activation_p": "0.2"}, "'activation_p'", id="text_rate"),
            pytest.param({"w_recency": float("nan")}, "'w_recency'", id="nan_weight"),
        ],
    )
    def test_plan_that_would_fail_at_run_time_exits_2_before_writing_anything(self, plan_file, tmp_path, capsys, edit, named):
        # Regression: the first four passed validation and failed every cell (exit 1);
        # the rest were accepted, and the NaN weight ran with NaN ranking scores.
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), **edit}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_bad_fixture_file_exits_2_before_writing_anything(self, plan_file, tmp_path, capsys):
        # Regression: a fixture line that is not JSON escaped run_experiment from
        # build_policy (exit 1, traceback) after the inputs and logs/ were written.
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("not json\n")
        bad = tmp_path / "bad_fixture.json"
        policy = {"kind": "llm", "transport": "fixtures", "fixture_path": str(fixture)}
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "policy": policy}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{fixture}, line 1" in capsys.readouterr().err

    def test_mock_override_ignores_the_plans_own_policy(self, plan_file, tmp_path):
        # Regression: the plan's policy was read and checked first, so a missing
        # fixture file exited 2 even with --policy mock.
        cfg = {**json.loads(plan_file.read_text()), "policy": {"kind": "llm", "transport": "fixtures", "fixture_path": str(tmp_path / "none.jsonl")}}
        plan_file.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--policy", "mock", "--cell", "load=low,norm=none"]) == 0
        assert json.loads((out / "manifest.json").read_text())["plan"]["policy"]["kind"] == "parametric"

    def test_relative_fixture_path_resolves_against_the_config(self, plan_file, tmp_path, monkeypatch):
        # Regression: it resolved against the working directory, unlike population and corpus.
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "fx.jsonl").write_text("")
        policy = {"kind": "llm", "model": "m", "max_retries": 0, "transport": "fixtures", "fixture_path": "fx.jsonl"}
        (sub / "plan.json").write_text(json.dumps({**json.loads(plan_file.read_text()), "policy": policy}))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "sub/plan.json", "--out", "o", "--cell", "load=low,norm=none"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert Path(manifest["plan"]["policy"]["fixture_path"]) == Path("sub") / "fx.jsonl"
        assert [c["status"] for c in manifest["cells"]] == ["ok"]

    @pytest.mark.parametrize("key, value", _BAD_POPULATION_VALUES)
    def test_bad_population_row_exits_2_naming_file_line_and_key(self, plan_file, tmp_path, capsys, key, value):
        population = tmp_path / "pop.jsonl"
        save_population(*generate_population(40, seed=5), population)
        _edit_population_row(population, key, value)
        plan_file.write_text(json.dumps({**json.loads(plan_file.read_text()), "population": str(population)}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{population}, line 2: " in err[0] and f"'{key}'" in err[0]

    def test_bad_cell_spec_exits_2(self, plan_file, tmp_path):
        assert main(["simulate", "--config", str(plan_file), "--out", str(tmp_path / "o"), "--cell", "load=enormous,norm=repost"]) == 2

    def test_determinism_same_flags_same_manifest(self, plan_file, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--seed", "9"]) == 0
            digests.append(hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_unknown_flag_exits_2(self, plan_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(plan_file), "--out", str(tmp_path / "o"), "--bogus"])
        assert exc.value.code == 2


class TestAnalyze:
    def test_coefficient_csv_row_counts(self, analysis_dir):
        threshold = (analysis_dir / "threshold_coefficients.csv").read_text().strip().splitlines()
        assert len(threshold) == 1 + 24
        allocation = (analysis_dir / "allocation_coefficients.csv").read_text().strip().splitlines()
        assert len(allocation) == 1 + 48

    def test_stage_filter_skips_allocation(self, run_dir, tmp_path):
        out = tmp_path / "thr_only"
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out), "--stage", "threshold"]) == 0
        assert (out / "threshold_coefficients.csv").exists()
        assert not (out / "allocation_coefficients.csv").exists()

    def test_missing_logs_exit_1(self, tmp_path):
        assert main(["analyze", "--logs", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 1

    def test_all_cells_failed_exits_1(self, run_dir, tmp_path, capsys):
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for cell in manifest["cells"]:
            cell["status"] = "failed"
            cell["error"] = "RuntimeError: synthetic cell failure"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis")]) == 1
        assert "logs contain no exposure records" in capsys.readouterr().err

    def test_fewer_engagements_than_design_columns_exits_1(self, tmp_path, capsys):
        # 8 engaged rows in one cell cannot identify the 24-column design: no model is fitted.
        plan = tmp_path / "short.json"
        plan.write_text(json.dumps({"base_seed": 3, "n_agents": 40, "timesteps": 12, "activation_p": 0.05, "policy": {"kind": "mock"}}))
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(plan), "--out", str(runs), "--cell", "load=low,norm=no_norm"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--logs", str(runs), "--out", str(tmp_path / "analysis")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: threshold stage cannot be fitted: no rows in cell(s) {_ALL_BUT_LOW_NO_NORM}"]

    def test_one_cell_run_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # Regression: the fit of a one-cell run "converged" with standard errors of 1000,
        # and analyze and report both exited 0.
        plan = tmp_path / "dense.json"
        plan.write_text(json.dumps({"base_seed": 3, "n_agents": 40, "timesteps": 60, "activation_p": 0.5, "policy": {"kind": "mock"}}))
        runs = tmp_path / "runs"
        assert main(["simulate", "--config", str(plan), "--out", str(runs), "--cell", "load=low,norm=no_norm"]) == 0
        for stage in ("both", "threshold", "allocation"):
            capsys.readouterr()
            out = tmp_path / f"analysis_{stage}"
            assert main(["analyze", "--logs", str(runs), "--out", str(out), "--stage", stage]) == 1
            first = "allocation" if stage == "allocation" else "threshold"
            assert capsys.readouterr().err.splitlines() == [
                f"error: {first} stage cannot be fitted: no rows in cell(s) {_ALL_BUT_LOW_NO_NORM}"
            ]
            assert not out.exists()

    def test_allocation_needs_an_engagement_in_every_cell(self):
        # Exposures in all 12 cells; engagements (action 1, like) in all but the last two.
        cells = [(load, norm) for load in range(4) for norm in range(3)]
        n = len(cells)
        exposures = ExposureColumns.from_lists({
            "run": [0] * n, "t": [0] * n, "agent": [0] * n, "post": [0] * n, "likes": [0] * n, "reshares": [0] * n,
            "load": [list(LoadLevel)[load].value for load, _ in cells],
            "norm": [list(NormRegime)[norm].value for _, norm in cells],
            "action": ["like"] * (n - 2) + ["read"] * 2,
        })
        log = CellLog(exposures, CellLog.concat([]).creations, np.ones(n, dtype=bool))
        assert cli._empty_cells(log, "threshold") == []
        assert cli._empty_cells(log, "allocation") == ["high/like_dominant", "high/repost_dominant"]

    def test_a_failed_fit_writes_nothing(self, run_dir, tmp_path, capsys, monkeypatch):
        # Regression: the shares, the audit and the threshold outputs were written before the allocation fit failed.
        def fail(*args, **kwargs):
            raise ValueError("synthetic fit failure")

        monkeypatch.setattr(cli, "fit_multinomial_logistic", fail)
        out = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: allocation stage cannot be fitted: synthetic fit failure"]
        assert not out.exists()

    def test_swapped_population_exits_2_naming_the_file(self, run_dir, tmp_path, capsys):
        # Regression: analyze once audited loads against whatever population file it found.
        population = run_dir / "population.jsonl"
        assert main(["gen-population", "--n", "40", "--seed", "99", "--out", str(population)]) == 0
        capsys.readouterr()
        out = tmp_path / "analysis"
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{population}: " in err[0] and "population_sha256" in err[0]
        assert not out.exists()

    def test_manifest_without_population_digest_is_not_checked(self, run_dir, tmp_path):
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["population_sha256"]
        manifest_path.write_text(json.dumps(manifest))
        assert main(["gen-population", "--n", "40", "--seed", "99", "--out", str(run_dir / "population.jsonl")]) == 0
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis")]) == 0

    def test_descriptive_outputs_exist(self, analysis_dir):
        assert (analysis_dir / "descriptive_shares.csv").exists()
        assert (analysis_dir / "load_audit.csv").exists()
        assert (analysis_dir / "fit_metrics.csv").exists()

    def test_shares_rows_sum_to_one(self, analysis_dir):
        import csv

        with open(analysis_dir / "descriptive_shares.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                total = sum(float(row[a]) for a in ("read", "like", "repost", "quote"))
                # file values carry six decimals, so allow their rounding error
                assert total == pytest.approx(1.0, abs=2e-6)


def _corrupt_first_exposure(run_dir: Path, edit, *, update_manifest: bool = True) -> tuple[str, int]:
    """Rewrite the first exposure row of the first cell's log; returns (file name, 1-based line)."""
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    cell = manifest["cells"][0]
    path = run_dir / "logs" / cell["file"]
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"action"' in line)
    lines[i] = edit(json.loads(lines[i]))
    payload = ("\n".join(lines) + "\n").encode()
    path.write_bytes(payload)
    if update_manifest:
        cell["sha256"] = hashlib.sha256(payload).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
    return cell["file"], i + 1


class TestAnalyzeMalformedLogs:
    """A bad log makes analyze exit 2 with one line on stderr naming the file (and the line)."""

    def _analyze(self, run_dir, tmp_path, capsys) -> tuple[int, list[str]]:
        capsys.readouterr()
        rc = main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis")])
        return rc, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda obj: json.dumps(obj)[:-1], id="invalid_json"),
            pytest.param(lambda obj: json.dumps({k: v for k, v in obj.items() if k != "likes"}), id="missing_key"),
            pytest.param(lambda obj: json.dumps({**obj, "action": "destroy"}), id="unknown_value"),
            pytest.param(lambda obj: json.dumps({**obj, "reshares": -1}), id="negative_counter"),
            pytest.param(lambda obj: json.dumps({**obj, "post": 10**9}), id="uncreated_post"),
        ],
    )
    def test_bad_row_exits_2(self, run_dir, tmp_path, capsys, edit):
        name, line = _corrupt_first_exposure(run_dir, edit)
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and name in err[0] and f"line {line}:" in err[0]

    @pytest.mark.parametrize("manifest", ['{"cells": [', '{"cells": [{"status": "ok", "file": "x.jsonl"}]}', "[]"])
    def test_bad_manifest_exits_2(self, run_dir, tmp_path, capsys, manifest):
        (run_dir / "manifest.json").write_text(manifest)
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and "manifest.json: not a valid manifest" in err[0]

    @pytest.mark.parametrize("key, value", _BAD_POPULATION_VALUES)
    def test_bad_population_row_exits_2(self, run_dir, tmp_path, capsys, key, value):
        # Regression: "follows": 3 escaped as a TypeError traceback; "verified": "false"
        # and "keywords": "gpu" were analyzed as verified and as three one-letter keywords.
        population = run_dir / "population.jsonl"
        _edit_population_row(population, key, value)
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and f"{population}, line 2: " in err[0] and f"'{key}'" in err[0]

    def test_digest_mismatch_exits_2(self, run_dir, tmp_path, capsys):
        name, _ = _corrupt_first_exposure(run_dir, lambda obj: json.dumps({**obj, "likes": obj["likes"] + 1}), update_manifest=False)
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and name in err[0] and "SHA-256" in err[0]


class TestReport:
    def test_outputs(self, analysis_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(out)]) == 0
        svgs = list(out.glob("*.svg"))
        assert len(svgs) >= 2
        assert (out / "report.md").exists()

    def test_twelve_curves(self, analysis_dir, tmp_path):
        out = tmp_path / "report"
        main(["report", "--analysis", str(analysis_dir), "--out", str(out)])
        svg = (out / "threshold_probability_curves.svg").read_text()
        assert svg.count('class="curve"') == 4 * 3

    def test_stacked_bars_cover_all_cells_and_actions(self, analysis_dir, tmp_path):
        out = tmp_path / "report"
        main(["report", "--analysis", str(analysis_dir), "--out", str(out)])
        svg = (out / "shares_by_condition.svg").read_text()
        assert svg.count("seg-read") == 12
        for action in ("like", "repost", "quote"):
            assert svg.count(f"seg-{action}") == 12

    def test_bar_segment_heights_sum_to_plot_height(self, analysis_dir, tmp_path):
        import re

        out = tmp_path / "report"
        main(["report", "--analysis", str(analysis_dir), "--out", str(out)])
        svg = (out / "shares_by_condition.svg").read_text()
        heights = {}
        for m in re.finditer(r'<rect class="seg-\w+" x="([\d.]+)" y="[\d.]+" width="[\d.]+" height="([\d.]+)"', svg):
            heights.setdefault(m.group(1), 0.0)
            heights[m.group(1)] += float(m.group(2))
        assert len(heights) == 12
        for total in heights.values():
            assert total == pytest.approx(270.0, abs=0.1)  # plot height: full bar

    def test_missing_fit_metrics_exits_1(self, analysis_dir, tmp_path, capsys):
        # Regression: a report was written from an analysis without its fit metrics.
        partial = tmp_path / "partial"
        shutil.copytree(analysis_dir, partial)
        (partial / "fit_metrics.csv").unlink()
        out = tmp_path / "report"
        capsys.readouterr()
        assert main(["report", "--analysis", str(partial), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: missing analysis file: {partial / 'fit_metrics.csv'}"]
        assert not out.exists()

    def test_missing_analysis_file_named(self, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["report", "--analysis", str(tmp_path / "void"), "--out", str(out)])
        assert rc == 1
        assert "descriptive_shares.csv" in capsys.readouterr().err

    def test_custom_scenario_grid(self, analysis_dir, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "composite,load,norm\n"
            + "\n".join(f"{c},{l},no_norm" for c in (0.0, 0.5, 1.0) for l in ("lowest", "high"))
        )
        out = tmp_path / "report"
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(out), "--grid", str(grid)]) == 0
        svg = (out / "threshold_probability_curves.svg").read_text()
        assert svg.count('class="curve"') == 2

    def test_curves_equal_those_of_the_per_scenario_oracle(self, plan_file, tmp_path, monkeypatch):
        # The one array pass draws byte-identical figures to the per-stage loop it replaced, on a
        # scripted run whose two fits both converge. (The mock run's allocation fit is separated:
        # its bands are rounding noise in either path.)
        plan = json.loads(plan_file.read_text())
        plan["policy"] = {"kind": "scripted", "intents": ["read", ["like", 0], ["repost", 1], ["like", 2], ["quote", 0], ["like", 1], ["repost", 0]]}
        plan_file.write_text(json.dumps(plan))
        assert main(["simulate", "--config", str(plan_file), "--out", str(tmp_path / "runs")]) == 0
        assert main(["analyze", "--logs", str(tmp_path / "runs"), "--out", str(tmp_path / "analysis")]) == 0
        analysis = str(tmp_path / "analysis")
        assert all(load_model(tmp_path / "analysis" / f"{stage}_model.json").converged for stage in ("threshold", "allocation"))
        assert main(["report", "--analysis", analysis, "--out", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(cli, "predicted_probabilities", reference_predicted_probabilities)
        assert main(["report", "--analysis", analysis, "--out", str(tmp_path / "oracle")]) == 0
        names = sorted(path.name for path in (tmp_path / "new").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "oracle").iterdir())
        assert len([n for n in names if n.endswith("_curves.svg")]) == 4
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes(), name


# Grids that once ended report in a traceback after --out held shares_by_condition.svg.
_BAD_GRIDS = [
    pytest.param("composite,load,norm\n0.5,high,no_norm\n1.0,bogus,no_norm\n", 3, "bogus", id="unknown_load"),
    pytest.param("composite,load\n0.5,high\n", 1, "header", id="missing_norm_column"),
    pytest.param("composite,load,norm\nx,high,no_norm\n", 2, "'x'", id="composite_text"),
    pytest.param("composite,load,norm\n-0.5,high,no_norm\n", 2, "'-0.5'", id="composite_negative"),
    pytest.param("composite,load,norm\ninf,high,no_norm\n", 2, "'inf'", id="composite_infinite"),
    pytest.param("composite,load,norm\n0.5,HIGH,no_norm\n", 2, "HIGH", id="load_not_canonical"),
    pytest.param("composite,load,norm\n0.5,high,none\n", 2, "none", id="norm_alias"),
    pytest.param("composite,load,norm\n0.5,high\n", 2, "expected 3 fields", id="short_row"),
]


class TestReportWritesAllOrNothing:
    def _report(self, analysis_dir, tmp_path, capsys, *extra) -> tuple[int, list[str], Path]:
        out = tmp_path / "report"
        capsys.readouterr()
        rc = main(["report", "--analysis", str(analysis_dir), "--out", str(out), *extra])
        return rc, capsys.readouterr().err.splitlines(), out

    @pytest.mark.parametrize("text, line, named", _BAD_GRIDS)
    def test_bad_grid_exits_2_naming_file_and_line(self, analysis_dir, tmp_path, capsys, text, line, named):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        rc, err, out = self._report(analysis_dir, tmp_path, capsys, "--grid", str(grid))
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {grid}, line {line}: ") and named in err[0]
        assert not out.exists()

    def test_grid_without_rows_exits_2(self, analysis_dir, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("composite,load,norm\n\n")
        rc, err, out = self._report(analysis_dir, tmp_path, capsys, "--grid", str(grid))
        assert (rc, err) == (2, [f"error: {grid}: no scenario rows"])
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["threshold", "allocation"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda obj: {**obj, "coef": "x"}, "could not convert", id="coef_text"),
            pytest.param(lambda obj: {k: v for k, v in obj.items() if k != "diagnostics"}, "missing key 'diagnostics'", id="no_diagnostics"),
            pytest.param(lambda obj: {k: v for k, v in obj.items() if k != "composite_max"}, "missing key 'composite_max'", id="no_composite_max"),
            pytest.param(lambda obj: {**obj, "coef": [row[:-1] for row in obj["coef"]]}, "do not fit 24 terms", id="coef_short"),
            pytest.param(lambda obj: {**obj, "stage": "engagement"}, "'engagement'", id="unknown_stage"),
            pytest.param(lambda obj: [obj], "list indices", id="not_an_object"),
        ],
    )
    def test_bad_model_file_exits_2_naming_the_file(self, analysis_dir, tmp_path, capsys, stage, edit, named):
        path = analysis_dir / f"{stage}_model.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc, err, out = self._report(analysis_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and named in err[0]
        assert not out.exists()

    def test_model_file_not_json_exits_2(self, analysis_dir, tmp_path, capsys):
        path = analysis_dir / "allocation_model.json"
        path.write_text("{")
        rc, err, out = self._report(analysis_dir, tmp_path, capsys)
        assert rc == 2 and len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert not out.exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "analyze", "report", "gen-population", "gen-corpus"])
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
