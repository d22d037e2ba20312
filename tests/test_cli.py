import csv
import hashlib
import importlib
import json
import re
import shutil
import struct
import sys
import weakref
import zipfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import socialsim.cli as cli
import socialsim.harness as harness
from socialsim.cli import main
from socialsim.core import N_COLUMNS, ExposureColumns, LoadLevel, NormRegime, write_table
from socialsim.harness import load_experiment
from socialsim.population import generate_population, load_population, save_population
from socialsim.stats import (
    PatternCounts,
    build_design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    load_model,
    save_model,
    write_coefficient_csv,
)

from reference_design import reference_patterns
from reference_fit import one_hot
from reference_log import concat_logs
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

    @pytest.mark.parametrize(
        "command, sha256",
        [
            (["gen-population", "--n", "40"], "02c72bbb9d9ede8419337f39625e82d9e060c9a072777d5e0bdaba26ca0c4fa7"),
            (["gen-population", "--n", "558"], "7c663d73caec9020241409d7267846f5d82bd37dcc803dfd00f61c122bde77cf"),
            (["gen-population", "--n", "2232"], "83afc8d92536a70ddcffe8d194e0bfb5e6dc2821ab94456f39313709d346f135"),
            (["gen-corpus"], "f6600400ec086d1e50419c5bf5bf8ba605edb6058f9f8782e4ba83d0ce1361bc"),
        ],
        ids=["population_40", "population_558", "population_2232", "corpus"],
    )
    def test_generated_files_keep_their_bytes(self, tmp_path, command, sha256):
        # Digests of seed 1's files as the writer made them before rows were encoded by one shared encoder.
        out = tmp_path / "out.jsonl"
        assert main([*command, "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_run_directory_copies_equal_the_input_files(self, plan_file, tmp_path):
        # simulate rewrites its inputs into the run directory from the loaded rows; the bytes must not change.
        population, corpus = tmp_path / "population.jsonl", tmp_path / "corpus.jsonl"
        assert main(["gen-population", "--n", "40", "--seed", "5", "--out", str(population)]) == 0
        assert main(["gen-corpus", "--seed", "5", "--out", str(corpus)]) == 0
        plan_file.write_text(json.dumps({**json.loads(plan_file.read_text()), "population": str(population), "corpus": str(corpus)}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--cell", "load=high,norm=repost"]) == 0
        assert (out / "population.jsonl").read_bytes() == population.read_bytes()
        assert (out / "corpus.jsonl").read_bytes() == corpus.read_bytes()

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_gen_corpus_without_posts_exits_2_and_writes_nothing(self, tmp_path, capsys, size):
        # Regression: --size 0 exited 0 and wrote a corpus file that load_corpus rejects as empty.
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--seed", "3", "--size", size, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: corpus size must be at least 1, got {size}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["gen-population", "--n", "20"], ["gen-corpus"]], ids=["gen-population", "gen-corpus"])
    @pytest.mark.parametrize("case", ["directory", "under_a_file"])
    def test_out_that_cannot_be_a_file_exits_2_and_writes_nothing(self, tmp_path, capsys, command, case):
        # Regression: --out a directory ended in an IsADirectoryError traceback, and a path
        # under a regular file in a NotADirectoryError traceback, both with exit 1.
        taken = tmp_path / "taken"
        if case == "directory":
            taken.mkdir()
            out, error = taken, f"error: --out {taken} is a directory"
        else:
            taken.write_text("kept\n")
            out, error = taken / "x.jsonl", f"error: --out {taken / 'x.jsonl'}: {taken} is not a directory"
        assert main([*command, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [error]
        assert list(tmp_path.rglob("*")) == [taken] and (taken.is_dir() or taken.read_text() == "kept\n")

    @pytest.mark.parametrize("command", ["gen-population", "gen-corpus"])
    def test_out_under_a_missing_directory_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "x.jsonl"
        assert main([command, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]
        assert list(tmp_path.iterdir()) == []


class TestNegativeSeed:
    """A seed is a non-negative integer wherever it is given; a negative one exits 2 naming it and writes nothing."""

    @pytest.mark.parametrize("command", ["gen-population", "gen-corpus"])
    def test_generator_flag(self, tmp_path, capsys, command):
        # Regression: each ended in a numpy traceback with exit 1.
        out = tmp_path / "out.jsonl"
        assert main([command, "--seed", "-2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be a non-negative integer, got -2"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, key, value",
        [
            pytest.param({"base_seed": -1}, "base_seed", -1, id="base_seed"),
            pytest.param({"population_seed": -4}, "population_seed", -4, id="population_seed"),
            pytest.param({"corpus_seed": -3}, "corpus_seed", -3, id="corpus_seed"),
        ],
    )
    def test_plan_key(self, plan_file, tmp_path, capsys, edit, key, value):
        # Regression: the first two exited 2 with "expected non-negative integer", which named no key;
        # a negative corpus_seed did the same.
        plan_file.write_text(json.dumps({**json.loads(plan_file.read_text()), **edit}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {key} must be a non-negative integer, got {value}"]
        assert not out.exists()

    def test_base_seed_with_input_files(self, plan_file, tmp_path, capsys):
        # Regression: with no seed drawn for the inputs, the run went ahead and echoed -1 into the manifest.
        population, corpus = tmp_path / "pop.jsonl", tmp_path / "corpus.jsonl"
        assert main(["gen-population", "--n", "40", "--seed", "1", "--out", str(population)]) == 0
        assert main(["gen-corpus", "--seed", "1", "--out", str(corpus)]) == 0
        cfg = {**json.loads(plan_file.read_text()), "base_seed": -1, "population": str(population), "corpus": str(corpus)}
        plan_file.write_text(json.dumps(cfg))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: base_seed must be a non-negative integer, got -1"]
        assert not out.exists()

    def test_simulate_flag_is_checked_as_the_plans_base_seed(self, plan_file, tmp_path, capsys):
        # Regression: --seed replaced the base seed after the plan was checked.
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--seed", "-3"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: base_seed must be a non-negative integer, got -3"]
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

    def test_history_window_past_a_deque_bound_exits_2_before_any_cell(self, plan_file, tmp_path, capsys):
        # Regression: 1e20 passed the plan's checks, and every cell with an engagement then failed with
        # OverflowError building its history deque.
        bad = tmp_path / "huge_window.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "history_window": 1e20}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: history_window must be in 1..{sys.maxsize}, got {10**20}"]

    @pytest.mark.parametrize("timesteps, read", [(1e20, 10**20), (2**63, 2**63)], ids=["1e20", "2_63"])
    def test_timesteps_past_the_schedule_exit_2_before_any_cell(self, plan_file, tmp_path, capsys, timesteps, read):
        # Regression: both passed the plan's checks, and the cell then failed (numpy refused 1e20 timesteps'
        # arrays, and np.arange wrapped 2**63 to an empty one), so simulate exited 1.
        bad = tmp_path / "long_run.json"
        bad.write_text(json.dumps({**json.loads(plan_file.read_text()), "timesteps": timesteps}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(bad), "--out", str(out), "--cell", "load=low,norm=none"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: timesteps must be in 1..{2**58 - 1}, got {read}"]

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

    def test_population_id_past_int64_exits_2_before_writing(self, plan_file, tmp_path, capsys):
        # Regression: the population loaded, and every cell then failed on an OverflowError from the int64 agent ids.
        population = tmp_path / "pop.jsonl"
        save_population(*generate_population(40, seed=5), population)
        rows = [json.loads(line) for line in population.read_text().splitlines()]
        for row in rows:  # agent rows[1]["id"] becomes agent 2**63, followees included
            row["follows"] = [2**63 if f == rows[1]["id"] else f for f in row["follows"]]
        rows[1]["id"] = 2**63
        population.write_text("".join(json.dumps(row) + "\n" for row in rows))
        plan_file.write_text(json.dumps({**json.loads(plan_file.read_text()), "population": str(population)}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {population}, line 2: id must be non-negative and below 2**63, got {2**63}"
        ]

    def test_bad_cell_spec_exits_2(self, plan_file, tmp_path):
        assert main(["simulate", "--config", str(plan_file), "--out", str(tmp_path / "o"), "--cell", "load=enormous,norm=repost"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--workers", "0"], id="workers_0"),
            pytest.param(["--workers", "-3"], id="workers_negative"),
            pytest.param(["--cell", "load=high,norm=repost,rep=2"], id="cell_unknown_key"),
            pytest.param(["--cell", "load=high,norm"], id="cell_token_without_value"),
            pytest.param(["--cell", "load=high,load=low,norm=none"], id="cell_repeated_key"),
            pytest.param(["--cell", "load=high;norm=repost"], id="cell_no_comma"),
        ],
    )
    def test_bad_flag_exits_2_before_writing_anything(self, plan_file, tmp_path, capsys, flags):
        # Regression: --workers 0 and -3 ran serially, and the unknown key rep=2 was dropped, so every
        # replication ran; each exited 0.
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flags[0] in err[0] and flags[1] in err[0]
        assert not out.exists()

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

    def test_fewer_patterns_than_design_columns_fit_as_their_rows_do(self, run_dir, tmp_path, capsys):
        # With every exposure's likes and reshares 0, each stage's rows form at most 12 patterns, fewer
        # than the 24 design columns, while the rows still outnumber the columns. analyze fits them and
        # reports what the fit of the same rows, one design row each, reports: the composite's columns
        # are all zero, so both take the ridge in every iteration.
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for cell in manifest["cells"]:
            path = run_dir / "logs" / cell["file"]
            path.write_bytes(re.sub(rb'"likes":\d+,"reshares":\d+', b'"likes":0,"reshares":0', path.read_bytes()))
            path.with_suffix(".npz").unlink()
            cell["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 0
        logs = [log for _, log in load_experiment(run_dir)[1]]
        rows = concat_logs(logs).exposures
        table = PatternCounts.fold(PatternCounts.of(log.exposures) for log in logs)
        assert not table.total.any()
        for stage, fit in (("threshold", fit_binary_logistic), ("allocation", fit_multinomial_logistic)):
            X, names, counts = build_design_matrix(table, stage)
            _, inverse, y = reference_patterns(rows, stage)
            per_row = fit(X[inverse], one_hot(y, counts.shape[1]), terms=names)
            model = load_model(out / f"{stage}_model.json")
            assert len(X) < N_COLUMNS <= model.n_obs
            assert (model.n_obs, model.n_iter, model.converged, model.diagnostics) == (
                per_row.n_obs, per_row.n_iter, per_row.converged, per_row.diagnostics
            )
            assert model.diagnostics[0] == "iteration 1: singular information matrix, ridge 1e-06 added"

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
        exposures = ExposureColumns(
            **{k: np.zeros(n, dtype=np.int64) for k in ("run", "t", "agent", "post", "likes", "reshares")},
            load=np.array([load for load, _ in cells], dtype=np.int8),
            norm=np.array([norm for _, norm in cells], dtype=np.int8),
            action=np.array([1] * (n - 2) + [0] * 2, dtype=np.int8),
        )
        table = PatternCounts.of(exposures)
        assert cli._empty_cells(table, "threshold") == []
        assert cli._empty_cells(table, "allocation") == ["high/like_dominant", "high/repost_dominant"]

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

    def test_files_equal_the_concatenated_log_path(self, run_dir, analysis_dir, tmp_path):
        # The path analyze took before it reduced each cell as it read it: every log held,
        # one concatenated log (the oracle concat_logs), both fits, the same writers.
        _, graph = load_population(run_dir / "population.jsonl")
        per_cell = dict(load_experiment(run_dir)[1])
        log = concat_logs(per_cell[cell] for cell in sorted(per_cell))
        out = tmp_path / "oracle"
        out.mkdir()
        write_table(out / "descriptive_shares.csv", cli._SHARES_COLUMNS, [cli._shares_row(c, per_cell[c]) for c in sorted(per_cell)])
        write_table(out / "load_audit.csv", cli._AUDIT_COLUMNS, [cli._audit_row(c, per_cell[c], graph) for c in sorted(per_cell)])
        models = []
        for stage, fit in (("threshold", fit_binary_logistic), ("allocation", fit_multinomial_logistic)):
            X, names, counts = build_design_matrix(PatternCounts.of(log.exposures), stage)
            models.append(fit(X, counts, terms=names))
            write_coefficient_csv(models[-1], out / f"{stage}_coefficients.csv")
            save_model(models[-1], out / f"{stage}_model.json")
        write_table(out / "fit_metrics.csv", cli._METRICS_COLUMNS, [cli._metrics_row(m) for m in models])
        assert sorted(f.name for f in analysis_dir.iterdir()) == sorted(f.name for f in out.iterdir())
        for f in out.iterdir():
            assert (analysis_dir / f.name).read_bytes() == f.read_bytes(), f.name

    def test_one_log_alive_at_a_time(self, run_dir, tmp_path, monkeypatch):
        # Each cell's log is reduced and dropped before the next is read, and none is left for the fits.
        logs, alive_at = [], []
        original = harness.read_log

        def counted(path, *args, **kwargs):
            alive_at.append(sum(ref() is not None for ref in logs))
            log = original(path, *args, **kwargs)
            logs.append(weakref.ref(log))
            return log

        def design(table, stage):
            alive_at.append(sum(ref() is not None for ref in logs))
            return build_design_matrix(table, stage)

        monkeypatch.setattr(harness, "read_log", counted)
        monkeypatch.setattr(cli, "build_design_matrix", design)
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis")]) == 0
        assert len(logs) == 12 and alive_at == [0] * 14


    def test_files_equal_with_and_without_saved_columns(self, run_dir, tmp_path, monkeypatch):
        # simulate saves each cell's columns beside its log; analyze reads them instead of parsing the JSONL.
        # Without them it decodes the JSONL as write_log's lines, and with the decoder disabled it parses the
        # JSON. All three write the same bytes.
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_parsed_log", None)  # a parse would fail
            assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "saved")]) == 0
            saved = sorted((run_dir / "logs").glob("*.npz"))
            assert len(saved) == 12
            for path in saved:
                path.unlink()
            assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "decoded")]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_decoded_log", lambda data: None)
            assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "parsed")]) == 0
        names = sorted(path.name for path in (tmp_path / "saved").iterdir())
        assert len(names) == 7
        for leg in ("decoded", "parsed"):
            assert sorted(path.name for path in (tmp_path / leg).iterdir()) == names
            for name in names:
                assert (tmp_path / "saved" / name).read_bytes() == (tmp_path / leg / name).read_bytes(), (leg, name)

    @pytest.mark.parametrize(
        "offset, value",
        [
            pytest.param(10, 99, id="method_99"),  # zipfile raises NotImplementedError
            pytest.param(8, 1, id="encrypted"),  # RuntimeError: a password is required
            pytest.param(10, 14, id="lzma_over_stored_bytes"),  # LZMAError
        ],
    )
    def test_npz_whose_members_fail_to_open_is_not_read(self, run_dir, tmp_path, offset, value):
        # Regression: a .npz whose zip entries name a compression method or flag that zipfile fails on with
        # an error other than BadZipFile made analyze exit 1 with a traceback. It is a cache, so read_log
        # gives the log's columns and analyze writes the files of a run without it.
        # The largest cell: its exposures.run member is long enough that LZMA reads its bytes as options, not to their end.
        cell = max(json.loads((run_dir / "manifest.json").read_text())["cells"], key=lambda cell: cell["rows"])
        path = run_dir / "logs" / cell["file"]
        _set_zip_entry_field(path.with_suffix(".npz"), offset, value)
        corrupt = harness.read_log(path, cell["sha256"])
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "corrupt")]) == 0
        path.with_suffix(".npz").unlink()
        plain = harness.read_log(path, cell["sha256"])
        for part in ("exposures", "creations"):
            for name, column in vars(getattr(plain, part)).items():
                got = getattr(getattr(corrupt, part), name)
                assert got.dtype == column.dtype and np.array_equal(got, column), (part, name)
        assert np.array_equal(corrupt.is_exposure, plain.is_exposure)
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "plain")]) == 0
        names = sorted(f.name for f in (tmp_path / "plain").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "corrupt").iterdir())
        for name in names:
            assert (tmp_path / "corrupt" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def _set_zip_entry_field(path: Path, offset: int, value: int) -> None:
    """Set the two-byte field at ``offset`` of each central-directory entry of the zip at ``path`` to ``value``:
    8 is the flags, 10 the compression method."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        at = zf.start_dir
    while data[at : at + 4] == b"PK\x01\x02":
        data[at + offset : at + offset + 2] = struct.pack("<H", value)
        at += 46 + sum(struct.unpack("<HHH", data[at + 28 : at + 34]))  # the entry's fixed part, name, extra and comment
    path.write_bytes(data)


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

    @pytest.mark.parametrize(
        "edit, says",
        [
            pytest.param(lambda cells: cells[0].update(file=5), "must be strings", id="file_number"),
            pytest.param(lambda cells: cells[0].update(sha256=None), "must be strings", id="sha256_null"),
            pytest.param(lambda cells: cells[1].update(file=cells[0]["file"], sha256=cells[0]["sha256"]), "twice", id="file_twice"),
        ],
    )
    def test_bad_manifest_cell_exits_2(self, run_dir, tmp_path, capsys, edit, says):
        # Regression: "file": 5 ended in a TypeError traceback, and a log named twice was read once.
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest["cells"])
        manifest_path.write_text(json.dumps(manifest))
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and f"{manifest_path}: " in err[0] and says in err[0]
        assert not (tmp_path / "analysis").exists()

    def test_digest_mismatch_in_the_last_cell_writes_nothing(self, run_dir, tmp_path, capsys):
        # The last log in sorted order is read after every other cell is reduced; its mismatch still stops analyze.
        last = max(c["file"] for c in json.loads((run_dir / "manifest.json").read_text())["cells"])
        path = run_dir / "logs" / last
        path.write_bytes(path.read_bytes().replace(b'"likes":0', b'"likes":1', 1))
        rc, err = self._analyze(run_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and last in err[0] and "SHA-256" in err[0]
        assert not (tmp_path / "analysis").exists()


class TestOutThatIsNotADirectory:
    """An --out naming an existing file, or a path under one, exits 2 with one error line before the command
    reads, simulates or writes anything.

    Regression: simulate, analyze and report each ended in a FileExistsError or NotADirectoryError
    traceback from mkdir, analyze only after reading every log and fitting both stages.
    """

    @pytest.fixture(params=["file", "under_a_file"])
    def out(self, request, tmp_path):
        path = tmp_path / "taken"
        path.write_text("kept\n")
        return str(path if request.param == "file" else path / "sub")

    def _exits_2(self, argv, capsys, tmp_path) -> None:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: --out {argv[-1]}: {tmp_path / 'taken'} is not a directory"]
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_simulate(self, plan_file, out, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_text", None)  # reading the config would fail
        self._exits_2(["simulate", "--config", str(plan_file), "--out", out], capsys, tmp_path)

    def test_analyze(self, run_dir, out, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_experiment", None)
        self._exits_2(["analyze", "--logs", str(run_dir), "--out", out], capsys, tmp_path)

    def test_report(self, analysis_dir, out, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_model", None)
        self._exits_2(["report", "--analysis", str(analysis_dir), "--out", out], capsys, tmp_path)


class TestSimulateOutInTheWay:
    """A path simulate writes under --out that is taken by the wrong kind of file exits 2 with one error line
    naming it, before the config is read or any cell runs; a manifest that cannot be written later exits 1 with
    one error line.

    Regression: each ended in a traceback (IsADirectoryError, FileExistsError), the first hiding its own error
    behind the failed removal of the temporary manifest, and under --workers 2 every queued cell ran on.
    """

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "name, make, says",
        [
            pytest.param("manifest.json.part", Path.mkdir, "is a directory", id="part_is_a_directory"),
            pytest.param("manifest.json", Path.mkdir, "is a directory", id="manifest_is_a_directory"),
            pytest.param("logs", Path.touch, "is not a directory", id="logs_is_a_file"),
        ],
    )
    def test_taken_path_exits_2_and_runs_no_cell(self, plan_file, tmp_path, capsys, monkeypatch, workers, name, make, says):
        out = tmp_path / "run"
        out.mkdir()
        make(out / name)
        monkeypatch.setattr(cli, "read_text", None)  # reading the config would fail
        monkeypatch.setattr(cli, "run_experiment", None)
        capsys.readouterr()
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: --out {out}: {out / name} {says}"]
        assert [path.name for path in out.iterdir()] == [name]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_manifest_write_exits_1(self, plan_file, tmp_path, capsys, monkeypatch, workers):
        real_replace = harness.os.replace

        def replace(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError("synthetic failure to replace")
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", replace)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["simulate", "--config", str(plan_file), "--out", str(out), "--workers", workers]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: synthetic failure to replace"]
        assert sorted(path.name for path in out.iterdir()) == ["corpus.jsonl", "logs", "population.jsonl"]
        assert 1 <= len(list((out / "logs").glob("*.jsonl"))) < 12


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

    def test_figures_of_a_fit_that_did_not_converge_are_named(self, analysis_dir, tmp_path):
        # The mock run's allocation fit is separated (converged=False): its three figures are named
        # once under "Figures"; the converged threshold fit's figure is not.
        assert load_model(analysis_dir / "threshold_model.json").converged
        assert not load_model(analysis_dir / "allocation_model.json").converged
        out = tmp_path / "report"
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(out)]) == 0
        lines = (out / "report.md").read_text().splitlines()
        named = [line for line in lines if "did not converge" in line]
        assert named == [
            "Drawn from a fit that did not converge, so their bands mean nothing: "
            "allocation_like_curves.svg, allocation_quote_curves.svg, allocation_repost_curves.svg"
        ]
        assert lines.index("## Figures") < lines.index(named[0]) < lines.index("## Model fit")

    def test_diagnostics_of_a_fit_that_did_not_converge_are_listed(self, run_dir, tmp_path, capsys):
        # analyze prints each diagnostics line after the converged=False line, and report.md lists
        # them under the note that names the fit's figures.
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis")]) == 0
        out = capsys.readouterr().out.splitlines()
        diagnostics = load_model(tmp_path / "analysis" / "allocation_model.json").diagnostics
        assert diagnostics
        start = next(i for i, line in enumerate(out) if line.startswith("allocation:")) + 1
        assert out[start - 1].endswith("converged=False")
        assert out[start : start + len(diagnostics)] == [f"  {line}" for line in diagnostics]
        assert out[start + len(diagnostics)].startswith("analysis written to")
        assert main(["report", "--analysis", str(tmp_path / "analysis"), "--out", str(tmp_path / "report")]) == 0
        lines = (tmp_path / "report" / "report.md").read_text().splitlines()
        note = next(i for i, line in enumerate(lines) if "did not converge" in line)
        assert lines[note + 1 : note + 6 + len(diagnostics)] == [
            "", "The solver's diagnostics for each such fit:", "", *(f"- allocation: {line}" for line in diagnostics), "", "## Model fit"
        ]

    def test_diagnostics_of_a_hand_written_nan_fit_are_listed(self, analysis_dir, tmp_path):
        # The fit an allocation stage without quotes gives: NaN estimates, converged=False, one reason.
        obj = json.loads((analysis_dir / "allocation_model.json").read_text())
        nan = float("nan")
        for key in ("coef", "se", "cov"):
            obj[key] = [[nan] * len(row) for row in obj[key]]
        obj.update(ll_full=nan, converged=False, diagnostics=["outcome class 2 has no observations; equation inestimable"])
        (analysis_dir / "allocation_model.json").write_text(json.dumps(obj))
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(tmp_path / "report")]) == 0
        report = (tmp_path / "report" / "report.md").read_text()
        assert (
            "allocation_repost_curves.svg\n\nThe solver's diagnostics for each such fit:\n\n"
            "- allocation: outcome class 2 has no observations; equation inestimable\n\n## Model fit"
        ) in report
        assert "- threshold:" not in report

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
        assert "did not converge" not in (tmp_path / "new" / "report.md").read_text()


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


# Shares files that once ended report in a KeyError or ValueError traceback: (text, line named, text named).
_SHARES_HEADER = "cell,n,read,like,repost,quote\n"
_BAD_SHARES = [
    pytest.param("cell,n,read,like,repost,quotes\nc,4,0.5,0.5,0,0\n", 1, "header", id="renamed_column"),
    pytest.param("cell,n,read,like,read,quote\nc,4,0.5,0.5,0,0\n", 1, "header", id="repeated_column"),
    pytest.param(_SHARES_HEADER + "c,4,0.5,0.5,0,0\nd,4,half,0.5,0,0\n", 3, "'half'", id="share_text"),
    pytest.param(_SHARES_HEADER + "c,4,0.5,0.5,0\n", 2, "expected 6 fields, got 5", id="short_row"),
    pytest.param(_SHARES_HEADER + "c,4,0.5,0.5,0,0,0\n", 2, "expected 6 fields, got 7", id="long_row"),
    pytest.param(_SHARES_HEADER + "c,4,1.5,0.5,0,0\n", 2, "'1.5'", id="share_above_one"),
    pytest.param(_SHARES_HEADER + "c,4,nan,0.5,0,0\n", 2, "'nan'", id="share_nan"),
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

    @pytest.mark.parametrize("text, line, named", _BAD_SHARES)
    def test_bad_shares_file_exits_2_naming_file_and_line(self, analysis_dir, tmp_path, capsys, text, line, named):
        path = analysis_dir / "descriptive_shares.csv"
        path.write_text(text)
        rc, err, out = self._report(analysis_dir, tmp_path, capsys)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith(f"error: {path}, line {line}: ") and named in err[0]
        assert not out.exists()

    def test_shares_file_without_rows_exits_2(self, analysis_dir, tmp_path, capsys):
        path = analysis_dir / "descriptive_shares.csv"
        path.write_text(_SHARES_HEADER)
        rc, err, out = self._report(analysis_dir, tmp_path, capsys)
        assert (rc, err) == (2, [f"error: {path}: no cell rows"])
        assert not out.exists()

    def test_model_file_not_json_exits_2(self, analysis_dir, tmp_path, capsys):
        path = analysis_dir / "allocation_model.json"
        path.write_text("{")
        rc, err, out = self._report(analysis_dir, tmp_path, capsys)
        assert rc == 2 and len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert not out.exists()


# Each file a command reads, as (command, file name); "grid" is report's --grid file.
_INPUT_FILES = [
    pytest.param("simulate", "plan.json", id="simulate_config"),
    pytest.param("analyze", "manifest.json", id="analyze_manifest"),
    pytest.param("report", "descriptive_shares.csv", id="report_shares"),
    pytest.param("report", "fit_metrics.csv", id="report_fit_metrics"),
    pytest.param("report", "load_audit.csv", id="report_load_audit"),
    pytest.param("report", "threshold_coefficients.csv", id="report_threshold_coefficients"),
    pytest.param("report", "allocation_coefficients.csv", id="report_allocation_coefficients"),
    pytest.param("report", "grid", id="report_grid"),
]


class TestUnreadableInputFile:
    """Every file a command reads goes through core.read_bytes, which read_text builds on: a directory in its
    place, or bytes that are not UTF-8, make the command exit 2 with one stderr line naming the file, and create
    no --out.

    Regression: the config, the manifest, fit_metrics.csv, load_audit.csv and the coefficient CSVs were read
    by hand, and each case of theirs ended in a traceback (exit 1), except a manifest that is not UTF-8 (exit 2,
    "not a valid manifest").
    """

    @pytest.mark.parametrize(
        "kind, named", [pytest.param("directory", "is a directory", id="directory"), pytest.param("bytes", "not UTF-8 text", id="not_utf8")]
    )
    @pytest.mark.parametrize("command, name", _INPUT_FILES)
    def test_exits_2_naming_the_file(self, request, tmp_path, capsys, command, name, kind, named):
        out = tmp_path / "out"
        if command == "simulate":
            path = request.getfixturevalue("plan_file")
            argv = ["simulate", "--config", str(path), "--out", str(out)]
        elif command == "analyze":
            run_dir = request.getfixturevalue("run_dir")
            path = run_dir / "manifest.json"
            argv = ["analyze", "--logs", str(run_dir), "--out", str(out)]
        else:
            analysis = request.getfixturevalue("analysis_dir")
            path = tmp_path / "grid.csv" if name == "grid" else analysis / name
            argv = ["report", "--analysis", str(analysis), "--out", str(out)] + (["--grid", str(path)] if name == "grid" else [])
        path.unlink(missing_ok=True)
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"caf\xe9,\xff\n")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, named", [pytest.param("directory", "is a directory", id="directory"), pytest.param("missing", "not found", id="missing")]
    )
    def test_event_log_missing_or_a_directory_exits_2(self, run_dir, tmp_path, capsys, kind, named):
        # Regression: read_log read the bytes itself, so a directory in place of a log the manifest names ended
        # analyze in an IsADirectoryError traceback (exit 1), and a missing log in a bare "[Errno 2]" line (exit 1).
        path = run_dir / "logs" / "high_like_dominant_r0.jsonl"
        path.unlink()
        if kind == "directory":
            path.mkdir()
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: event log file {named}: {path}"]
        assert not out.exists()

    def test_event_log_with_an_integer_past_the_digit_limit_exits_2(self, run_dir, tmp_path, capsys):
        # Regression: json.loads raises a plain ValueError for an integer of more than 4,300 digits, and analyze
        # ended in its traceback.
        path = run_dir / "logs" / "high_like_dominant_r0.jsonl"
        path.write_text('{"kind":"seed","post":0,"author":' + "7" * 5000 + ',"source":null,"t":0}\n')
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        (cell,) = [cell for cell in manifest["cells"] if cell["file"] == path.name]
        cell["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", "--logs", str(run_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}, line 1: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestReportText:
    def test_cell_name_is_escaped_in_the_svg(self, analysis_dir, tmp_path):
        # Regression: a cell named a<b&c gave a shares figure that is not well-formed XML.
        path = analysis_dir / "descriptive_shares.csv"
        lines = path.read_text().splitlines()
        lines[1] = "a<b&c" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report"
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(out)]) == 0
        doc = minidom.parseString((out / "shares_by_condition.svg").read_bytes())
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.getAttribute("font-size") == "9"]
        assert labels[0] == "a<b&c" and len(labels) == 12

    def test_report_embeds_each_table_as_written(self, analysis_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--analysis", str(analysis_dir), "--out", str(out)]) == 0
        report = (out / "report.md").read_text()
        for name in ("fit_metrics.csv", "threshold_coefficients.csv", "allocation_coefficients.csv", "load_audit.csv", "descriptive_shares.csv"):
            with open(analysis_dir / name, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            table = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)] + ["| " + " | ".join(row) + " |" for row in rows]
            assert "\n".join(table) + "\n" in report, name


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "analyze", "report", "gen-population", "gen-corpus"])
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out


# Runs the CLI module as `python -m socialsim.cli <argv>` does (so socialsim/__init__'s imports count);
# _RUN_CLI then prints the scipy modules the process loaded.
_CLI_MAIN = """
import runpy, sys
sys.argv = ["socialsim", *sys.argv[1:]]
try:
    runpy.run_module("socialsim.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    if e.code:
        raise
"""
_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
_RUN_CLI = _CLI_MAIN + _SCIPY_MODULES + "\n"
_HTTP_MODULES = "print(sorted(m for m in ('requests', 'urllib.request') if m in sys.modules))"


# The names socialsim/__init__.py exported from each module when it imported them all.
_PACKAGE_EXPORTS = {
    "core": ["ActionKind", "CellLog", "Feed", "LoadLevel", "NormRegime", "PostKind", "RunConfig", "from_obj", "popularity_composite", "to_obj"],
    "engine": ["LogBuilder", "WorldState", "initialize", "run", "select_feed", "step"],
    "harness": ["ExperimentPlan", "cell_seed", "descriptive_shares", "load_experiment", "log_digest", "read_log",
                "realized_load_audit", "run_experiment", "write_log"],
    "policy": ["Decision", "DecisionContext", "LlmSpec", "ParametricLogitPolicy", "ParametricLogitSpec", "ScriptedPolicy",
               "ScriptedSpec", "build_policy", "build_prompt", "decide", "mock_policy_spec", "parse_response"],
    "population": ["AgentProfile", "FollowGraph", "generate_population", "generate_seed_corpus", "load_corpus",
                   "load_population", "save_corpus", "save_population", "top_influencers"],
    "stats": ["DESIGN_COLUMNS", "FittedModel", "PatternCounts", "Scenario", "build_design_matrix", "design_matrix",
              "fit_binary_logistic", "fit_multinomial_logistic", "fit_statistics", "predicted_probabilities",
              "table_consistency_check"],
}


# Makes every import of scipy or a scipy submodule raise, as if scipy were not installed.
_BLOCK_SCIPY = """
import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, _NoScipy())
"""


class TestProcessImports:
    """What each command loads, scipy above all, which the runtime does not need: each command runs in a
    fresh interpreter, and a check prints what it found on its last line."""

    def _last_line(self, code: str, *argv: str) -> str:
        import os
        import subprocess
        import sys

        import socialsim

        src = str(Path(socialsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @pytest.mark.parametrize("module", ["socialsim", "socialsim.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        assert self._last_line(f"import sys, {module}; " + _SCIPY_MODULES) == "[]"

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads when a command first seeds a generator, not with the CLI.
        code = "import sys, socialsim.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        assert self._last_line(code) == "[]"

    def test_commands_other_than_analyze_leave_scipy_unloaded(self, plan_file, analysis_dir, tmp_path):
        commands = [
            ["gen-population", "--n", "40", "--seed", "1", "--out", str(tmp_path / "population.jsonl")],
            ["gen-corpus", "--seed", "1", "--out", str(tmp_path / "corpus.jsonl")],
            ["simulate", "--config", str(plan_file), "--out", str(tmp_path / "sim"), "--cell", "load=low,norm=none"],
            ["report", "--analysis", str(analysis_dir), "--out", str(tmp_path / "report")],
        ]
        for argv in commands:
            assert self._last_line(_RUN_CLI, *argv) == "[]", argv[0]
        assert (tmp_path / "report" / "report.md").exists()

    def test_cli_import_leaves_urllib_request_unloaded(self):
        # urllib.request loads ssl and http.client, which only a run that calls an endpoint needs.
        assert self._last_line("import sys, socialsim.cli; " + _HTTP_MODULES) == "[]"

    def test_llm_fixture_cell_loads_no_http_client(self, tmp_path):
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("")  # every request misses, and its activation reads
        plan = {"base_seed": 5, "n_agents": 40, "timesteps": 40, "activation_p": 0.05,
                "policy": {"kind": "llm", "transport": "fixtures", "fixture_path": str(fixture)}}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        argv = ["simulate", "--config", str(tmp_path / "plan.json"), "--out", str(tmp_path / "sim"), "--cell", "load=low,norm=none"]
        assert self._last_line(_CLI_MAIN + _HTTP_MODULES, *argv) == "[]"
        assert (tmp_path / "sim" / "logs" / "low_no_norm_r0.jsonl").exists()

    @pytest.mark.parametrize("policy, loaded", [("mock", "False"), ("llm", "True")])
    def test_simulate_loads_logging_only_where_a_decision_degrades(self, policy, loaded, tmp_path):
        # policy imports logging at its first degradation. A mock run's decisions never degrade; an LLM cell
        # whose fixture file misses every request degrades each one, the check's positive control.
        fixture = tmp_path / "fx.jsonl"
        fixture.write_text("")
        spec = {"kind": "mock"} if policy == "mock" else {"kind": "llm", "transport": "fixtures", "fixture_path": str(fixture)}
        plan = {"base_seed": 5, "n_agents": 40, "timesteps": 40, "activation_p": 0.05, "policy": spec}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        argv = ["simulate", "--config", str(tmp_path / "plan.json"), "--out", str(tmp_path / "sim"), "--cell", "load=low,norm=none"]
        assert self._last_line(_CLI_MAIN + "print('logging' in sys.modules)", *argv) == loaded
        assert (tmp_path / "sim" / "logs" / "low_no_norm_r0.jsonl").exists()

    def test_http_transport_loads_urllib_request_not_requests(self, chat_server):
        # The check sees urllib.request where it is loaded: one round trip to a loopback endpoint.
        code = f"import sys; from socialsim.policy import HttpTransport; HttpTransport({chat_server.endpoint!r}).complete({{}}); " + _HTTP_MODULES
        assert self._last_line(code) == "['urllib.request']"
        assert len(chat_server.seen) == 1

    def test_analyze_leaves_scipy_unloaded(self, run_dir, tmp_path):
        loaded = self._last_line(_RUN_CLI, "analyze", "--logs", str(run_dir), "--out", str(tmp_path / "analysis"))
        assert loaded == "[]"
        assert (tmp_path / "analysis" / "threshold_model.json").exists()

    # The socialsim modules each command loads besides the package itself; the CLI runs as __main__.
    @pytest.mark.parametrize(
        "command, modules",
        [
            ("gen-population", ["core", "population"]),
            ("gen-corpus", ["core", "population"]),
            ("simulate", ["core", "engine", "harness", "policy", "population"]),
            ("analyze", ["core", "harness", "population", "stats"]),
            ("report", ["core", "figures", "stats"]),
        ],
    )
    def test_command_loads_only_its_stage_modules(self, command, modules, request, tmp_path):
        out = str(tmp_path / "out")
        argv = {
            "gen-population": lambda: ["--n", "40", "--seed", "1", "--out", out],
            "gen-corpus": lambda: ["--seed", "1", "--out", out],
            "simulate": lambda: ["--config", str(request.getfixturevalue("plan_file")), "--out", out, "--cell", "load=low,norm=none"],
            "analyze": lambda: ["--logs", str(request.getfixturevalue("run_dir")), "--out", out],
            "report": lambda: ["--analysis", str(request.getfixturevalue("analysis_dir")), "--out", out],
        }[command]()
        code = _CLI_MAIN + "print(sorted(m.partition('.')[2] for m in sys.modules if m.startswith('socialsim.')))"
        assert self._last_line(code, command, *argv) == str(modules)
        assert Path(out).exists()

    def test_package_import_loads_no_submodule(self):
        assert self._last_line("import sys, socialsim; print(sorted(m for m in sys.modules if m.startswith('socialsim.')))") == "[]"

    def test_package_names_are_the_modules_objects(self):
        import socialsim

        for module, names in _PACKAGE_EXPORTS.items():
            loaded = importlib.import_module(f"socialsim.{module}")
            assert getattr(socialsim, module) is loaded
            for name in names:
                assert getattr(socialsim, name) is getattr(loaded, name), f"{module}.{name}"
                assert name in dir(socialsim)
        with pytest.raises(AttributeError, match="no attribute 'cell_name'"):
            socialsim.cell_name

    def test_analyze_leaves_numpy_ma_unloaded(self, tmp_path):
        # 200 agents make the follow codes' range wide against the rows, where np.isin sorts and so loads numpy.ma.
        (tmp_path / "plan.json").write_text(json.dumps({"base_seed": 5, "n_agents": 200, "timesteps": 10, "activation_p": 0.05}))
        assert main(["simulate", "--config", str(tmp_path / "plan.json"), "--out", str(tmp_path / "runs")]) == 0
        argv = ["analyze", "--logs", str(tmp_path / "runs"), "--out", str(tmp_path / "analysis")]
        assert self._last_line(_CLI_MAIN + "print('numpy.ma' in sys.modules)", *argv) == "False"
        assert (tmp_path / "analysis" / "load_audit.csv").exists()

    def test_check_sees_scipy_special(self):
        # The positive control: the check sees scipy where a process loads it.
        assert "'scipy.special'" in self._last_line("import sys, scipy.special; " + _SCIPY_MODULES)

    def test_pipeline_without_scipy_writes_the_same_files(self, plan_file, tmp_path):
        # simulate -> analyze -> report with every scipy import made to fail, against the same run without the block.
        trees = {}
        for leg, prefix in (("open", ""), ("blocked", _BLOCK_SCIPY)):
            out = tmp_path / leg
            for argv in (
                ["simulate", "--config", str(plan_file), "--out", str(out / "runs")],
                ["analyze", "--logs", str(out / "runs"), "--out", str(out / "analysis")],
                ["report", "--analysis", str(out / "analysis"), "--out", str(out / "report")],
            ):
                assert self._last_line(prefix + _RUN_CLI, *argv) == "[]", (leg, argv[0])
            trees[leg] = {
                str(f.relative_to(out)): f.read_bytes()
                for d in ("analysis", "report") for f in sorted((out / d).rglob("*")) if f.is_file()
            }
        assert "report/report.md" in trees["open"] and "analysis/allocation_model.json" in trees["open"]
        assert trees["blocked"] == trees["open"]
