import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import multiprocessing
import os
import re
import resource
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smirsim import abm, cli, contactnet, infonet, meanfield, scenario
from smirsim.cli import _Run, main, write_trajectory_csv
from smirsim.contactnet import ContactNetwork, save_contact_network
from smirsim.errors import NumericError

from oracles import contact_rows


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


SCENARIO_FILES = ("counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv")

PIPELINE_BASE = [
    "pipeline", "--synthetic", "--counties", "4", "--sample", "0.05",
    "--k-bar", "10", "--steps", "15", "--reps", "2",
    "--initial-infected", "20", "--seed", "7",
]


@pytest.fixture
def outputs_outside_stages(monkeypatch):
    """The names `_Run.output` is given while no `_Run.stage` is open, as a
    list that fills while the test runs."""
    open_stages, outside = [], []
    stage, output = _Run.stage, _Run.output

    @contextlib.contextmanager
    def tracked_stage(self, name):
        with stage(self, name):
            open_stages.append(name)
            try:
                yield
            finally:
                open_stages.pop()

    def tracked_output(self, name):
        if not open_stages:
            outside.append(name)
        return output(self, name)

    monkeypatch.setattr(_Run, "stage", tracked_stage)
    monkeypatch.setattr(_Run, "output", tracked_output)
    return outside


class TestMeanfieldCommand:
    def test_lambda_sweep_has_21_rows_and_reference_peaks(self, tmp_path, capsys):
        out = tmp_path / "mf"
        rc = run_cli(
            "meanfield", "--beta-o", "0.3", "--gamma", "0.2", "--mu", "0.5",
            "--sweep", "lambda=1:3:0.1", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "sweep_summary.csv")
        assert len(rows) == 21
        by_value = {float(r["value"]): r for r in rows}
        assert int(float(by_value[1.0]["peak_day"])) == 59
        assert int(float(by_value[3.0]["peak_day"])) == 21
        diff = float(by_value[3.0]["total_infected"]) - float(by_value[1.0]["total_infected"])
        assert diff == pytest.approx(0.292, abs=0.015)
        assert (out / "manifest.json").exists()
        table = capsys.readouterr().out
        assert "lambda" in table and "peak_day" in table

    def test_single_run_writes_trajectory(self, tmp_path):
        out = tmp_path / "one"
        rc = run_cli("meanfield", "--beta-o", "0.3", "--gamma", "0.2",
                     "--lambda", "3", "--svg", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 101
        assert rows[0]["S_O"] == "0.4995"
        assert (out / "trajectory.svg").exists()

    def test_grid_emits_heatmap_panels(self, tmp_path):
        out = tmp_path / "grid"
        rc = run_cli(
            "meanfield", "--lambda", "3", "--method", "rk4",
            "--sweep", "alpha=0.5:1.0:0.125", "--grid", "beta-o=0.1:0.4:0.15",
            "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "grid.csv")
        assert len(rows) == 5 * 3
        assert {"beta_o", "alpha", "ordinary", "misinformed", "overall"} <= rows[0].keys()
        ax = read_csv(out / "grid_argmax.csv")
        assert len(ax) == 3
        for panel in ("ordinary", "misinformed", "overall"):
            assert (out / f"grid_{panel}.svg").exists()

    def test_grid_default_step_layout(self, tmp_path):
        # step omitted on --grid: 13 evenly spaced values across the range
        out = tmp_path / "g13"
        rc = run_cli(
            "meanfield", "--lambda", "3",
            "--sweep", "alpha=0.5:1:0.025", "--grid", "beta-o=0.1:0.4",
            "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "grid.csv")
        assert len(rows) == 21 * 13
        assert (out / "grid_overall.svg").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        rc = run_cli("meanfield", "--beta-o", "2.0", "--gamma", "0.2",
                     "--out", str(tmp_path / "x"))
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_bad_argument_exit_code(self):
        with pytest.raises(SystemExit) as e:
            run_cli("meanfield", "--beta-o", "lots")
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "method,name,values", [("euler", "lambda", (1, 2, 3)), ("rk4", "tau", (2, 4, 6))]
    )
    def test_sweep_trajectories_match_single_runs(self, tmp_path, method, name, values):
        out = tmp_path / "mf"
        spec = f"{name}={values[0]}:{values[-1]}:{values[1] - values[0]}"
        rc = run_cli("meanfield", "--lambda", "2", "--method", method, "--horizon", "40",
                     "--sweep", spec, "--out", str(out))
        assert rc == 0
        base = meanfield.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=2.0)
        expected = tmp_path / "expected.csv"
        for v in values:
            p = meanfield.apply_param(base, name, float(v))
            write_trajectory_csv(meanfield.integrate(p, 40, None, method), expected)
            produced = out / "trajectories" / f"traj_{name}_{v:g}.csv"
            assert produced.read_bytes() == expected.read_bytes(), produced.name

    def test_bad_sweep_spec_is_input_error(self, tmp_path, capsys):
        rc = run_cli("meanfield", "--sweep", "lambda=banana",
                     "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPipelineCommand:
    def test_runs_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "p"
        rc = run_cli(*PIPELINE_BASE, "--phi", "1", "--out", str(out))
        assert rc == 0
        for name in (
            "contactnet.bin", "result.csv", "summary.json", "manifest.json",
            "counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_degree"] == pytest.approx(10.0, rel=0.02)
        assert summary["n_nodes"] > 1000
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    @pytest.mark.parametrize("argv, samples", [
        (PIPELINE_BASE, 1),
        (["sweep", *PIPELINE_BASE[1:], "--vary", "phi", "--values", "1,3"], 1),
        (["sweep", *PIPELINE_BASE[1:], "--vary", "k-bar", "--values", "6,10"], 2),
    ], ids=["pipeline", "phi_sweep", "k_bar_sweep"])
    def test_sampling_sees_only_seed_sourced_edges(self, tmp_path, monkeypatch, argv, samples):
        seen, sample = [], contactnet.sample_population

        def recording_sample(sc, net, *args):
            seen.append(net)
            return sample(sc, net, *args)

        monkeypatch.setattr(contactnet, "sample_population", recording_sample)
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 0
        assert len(seen) == samples  # phi rows share one sample; a k-bar row has its own
        assert all(net.n_edges and net.seed[net.edge_src].all() for net in seen)

    def test_synthetic_run_saves_every_retweet_edge(self, tmp_path):
        pipe, gen = tmp_path / "p", tmp_path / "g"
        assert run_cli(*PIPELINE_BASE, "--out", str(pipe)) == 0
        assert run_cli("gen-scenario", "--counties", "4", "--seed", "7", "--out", str(gen)) == 0
        for name in SCENARIO_FILES:
            assert (pipe / name).read_bytes() == (gen / name).read_bytes(), name
        net = infonet.load_infonet(pipe / "infonet_nodes.csv", pipe / "infonet_edges.csv")
        assert not net.seed[net.edge_src].all()  # edges from non-seeds are saved too

    def test_stages_report_their_time_on_stderr(self, tmp_path, capsys):
        assert run_cli(*PIPELINE_BASE, "--out", str(tmp_path / "p")) == 0
        err = capsys.readouterr().err
        started = re.findall(r"^stage (\S+)$", err, re.M)
        done = re.findall(r"^stage (\S+) done in \d+\.\d{3}s$", err, re.M)
        assert started == done
        assert {"generate_scenario", "build_contact_network", "abm"} <= set(done)

    def test_each_stderr_line_is_one_write(self, tmp_path, monkeypatch):
        # Forked workers share stderr: a line written in two calls can
        # have another process's output land between its text and newline.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stderr", Recorder())
        assert run_cli(*PIPELINE_BASE, "--out", str(tmp_path / "p")) == 0
        assert writes
        assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes), writes

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*PIPELINE_BASE, "--out", str(a)) == 0
        assert run_cli(*PIPELINE_BASE, "--out", str(b)) == 0
        for name in ("contactnet.bin", "result.csv", "summary.json",
                     "counties.csv", "mobility.csv", "infonet_edges.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = PIPELINE_BASE[:-1]  # strip seed value
        assert run_cli(*base, "3", "--out", str(a)) == 0
        assert run_cli(*base, "4", "--out", str(b)) == 0
        assert (a / "result.csv").read_bytes() != (b / "result.csv").read_bytes()

    def test_missing_scenario_dir_exit_2_names_stage(self, tmp_path, capsys):
        rc = run_cli("pipeline", "--scenario-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "load_scenario" in capsys.readouterr().err

    def test_scenario_dir_round_trip(self, tmp_path):
        gen = tmp_path / "scen"
        assert run_cli("gen-scenario", "--counties", "4", "--seed", "5",
                       "--out", str(gen)) == 0
        out = tmp_path / "p"
        rc = run_cli(
            "pipeline", "--scenario-dir", str(gen), "--sample", "0.05",
            "--k-bar", "8", "--steps", "10", "--reps", "1",
            "--initial-infected", "10", "--seed", "5", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["input_hashes"]) == 4

    def test_regen_network_flag(self, tmp_path):
        out = tmp_path / "r"
        rc = run_cli(*PIPELINE_BASE, "--regen-network", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "result.csv")
        assert len(rows) == 16

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*PIPELINE_BASE, "--out", str(a)) == 0
        rc = run_cli("pipeline", "--from-manifest", str(a / "manifest.json"),
                     "--out", str(b))
        assert rc == 0
        for name in ("contactnet.bin", "result.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_scenario_source_is_input_error(self, tmp_path, capsys):
        rc = run_cli("pipeline", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "scenario source" in capsys.readouterr().err

    def test_retry_budget_exit_3_names_the_county_pair(self, tmp_path, capsys, monkeypatch):
        # Two sampled nodes, one edge, one draw: a self-loop exhausts the budget.
        monkeypatch.setattr(contactnet, "RETRY_FACTOR", 1)
        scen = tmp_path / "scen"
        scen.mkdir()
        for name, text in (
            ("counties.csv", "fips,voters,republican_share,twitter_users\n1000,100,0.5,2\n"),
            ("mobility.csv", "x_fips,y_fips,value\n1000,1000,1.0\n"),
            ("infonet_nodes.csv",
             "id,county_fips,alignment,misinformed_seed\n0,1000,1.0,1\n1,1000,-1.0,1\n"),
            ("infonet_edges.csv", "src,dst,weight\n"),
        ):
            (scen / name).write_text(text)
        codes = []
        for seed in range(32):
            codes.append(run_cli(
                "pipeline", "--scenario-dir", str(scen), "--sample", "0.02", "--k-bar", "1",
                "--steps", "1", "--reps", "1", "--initial-infected", "1",
                "--seed", str(seed), "--out", str(tmp_path / f"o{seed}"),
            ))
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if codes[-1] == 3:
                last = err.splitlines()[-1]
                assert "stage build_contact_network" in last
                assert "county pair (1000, 1000)" in last
        assert 3 in codes and set(codes) <= {0, 3}


    @pytest.mark.parametrize("k_bar, message", [
        ("1e300", "stage expected_edges: k_bar 1e+300 asks for more edges than 469 nodes have pairs"),
        ("400", "stage build_contact_network: county pair (1000, 1000) allocated 20906 edges but "
                "holds at most 9180"),
    ], ids=["k_bar_past_the_pairs", "block_past_its_capacity"])
    def test_error_names_its_stage_once(self, tmp_path, capsys, k_bar, message):
        # A network that one repetition reads is built inside abm (--reps 1), one that two
        # read before it (--reps 2), and one per repetition under --regen-network.
        lines = []
        for extra in (["--reps", "1"], ["--reps", "2"], ["--regen-network", "--reps", "2"]):
            assert run_cli("pipeline", "--synthetic", "--counties", "3", "--k-bar", k_bar,
                           "--steps", "1", "--initial-infected", "1", *extra,
                           "--out", str(tmp_path / "out")) == 3
            lines.append(capsys.readouterr().err.splitlines()[-1])
        if k_bar == "400":  # a regenerated network has its own seed, and its build's stage name
            assert lines.pop().startswith("numeric failure: stage build_contact_network[rep=0]: "
                                          "county pair (1000, 1000) allocated ")
        assert lines == [f"numeric failure: {message}"] * len(lines)

    def test_stages_annotate_an_error_or_interrupt_once(self, tmp_path):
        # A stage re-raises what left it, tagged with the innermost stage; `main` words it.
        run = _Run(tmp_path)
        for error in (NumericError("x"), ValueError("array is too big"), OSError("disk"),
                      KeyboardInterrupt()):
            with pytest.raises(type(error)) as e:
                with run.stage("outer"), run.stage("inner"):
                    raise error
            assert e.value is error and e.value.stage == "inner"

    @pytest.mark.parametrize("k_bar", ["5e-324", "1e-3"])
    def test_budget_of_no_edges_builds_an_empty_network(self, tmp_path, k_bar):
        # round(k_bar * N / 2) is 0 for both; at 5e-324 every expected count is 0 as well.
        out = tmp_path / "p"
        assert run_cli("pipeline", "--synthetic", "--counties", "3", "--k-bar", k_bar,
                       "--steps", "2", "--reps", "1", "--initial-infected", "1",
                       "--out", str(out)) == 0
        assert json.loads((out / "summary.json").read_text())["n_edges"] == 0
        assert contactnet.load_contact_network(out / "contactnet.bin").n_edges == 0


class TestSweepCommand:
    def test_phi_sweep_misinformed_non_increasing(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--synthetic", "--counties", "4", "--sample", "0.05",
            "--k-bar", "10", "--steps", "15", "--reps", "2",
            "--initial-infected", "20", "--seed", "7",
            "--vary", "phi", "--values", "1,3,8", "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "sweep_summary.csv")
        assert [float(r["value"]) for r in rows] == [1.0, 3.0, 8.0]
        mis = [float(r["misinformed_fraction"]) for r in rows]
        assert mis[0] >= mis[1] >= mis[2]
        # largest phi anchors the relative column
        assert float(rows[-1]["relative_increase_vs_baseline"]) == 0.0
        assert (out / "rows" / "phi_1" / "result.csv").exists()
        assert (out / "sweep_cumulative.svg").exists()

    @pytest.mark.parametrize("vary, values", [("phi", "1,2"), ("sample", "0.04,0.05"),
                                              ("k-bar", "4,6")])
    def test_only_the_values_that_run_are_checked(self, tmp_path, capsys, vary, values):
        # The flag the varied field replaces is recorded as given, but never run.
        out = tmp_path / "s"
        assert run_cli(*SMALL_SWEEP, f"--{vary}", "0", "--vary", vary, "--values", values,
                       "--out", str(out)) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params[vary.replace("-", "_")] == 0
        assert [r["value"] for r in read_csv(out / "sweep_summary.csv")] == [
            f"{float(v)!r}" for v in values.split(",")]

    def test_single_value_sweep_matches_pipeline(self, tmp_path):
        sweep_out = tmp_path / "s"
        pipe_out = tmp_path / "p"
        rc = run_cli(
            "sweep", *PIPELINE_BASE[1:], "--phi", "2",
            "--vary", "phi", "--values", "2", "--out", str(sweep_out),
        )
        assert rc == 0
        assert run_cli(*PIPELINE_BASE, "--phi", "2", "--out", str(pipe_out)) == 0
        row = read_csv(sweep_out / "sweep_summary.csv")[0]
        summary = json.loads((pipe_out / "summary.json").read_text())
        assert float(row["cumulative_final_mean"]) == summary["cumulative_final_mean"]
        assert (
            (sweep_out / "rows" / "phi_2" / "result.csv").read_bytes()
            == (pipe_out / "result.csv").read_bytes()
        )

    def test_from_manifest_reproduces_pipeline(self, tmp_path):
        pipe_out, sweep_out = tmp_path / "p", tmp_path / "s"
        assert run_cli(*PIPELINE_BASE, "--phi", "2", "--out", str(pipe_out)) == 0
        rc = run_cli("sweep", "--from-manifest", str(pipe_out / "manifest.json"),
                     "--vary", "phi", "--values", "2", "--out", str(sweep_out))
        assert rc == 0
        assert (
            (sweep_out / "rows" / "phi_2" / "result.csv").read_bytes()
            == (pipe_out / "result.csv").read_bytes()
        )

    def test_from_manifest_reads_an_old_sweep_manifest(self, tmp_path):
        # Sweeps once recorded "jobs", the count of processes their rows were split over.
        old, new = tmp_path / "old", tmp_path / "new"
        argv = ["--vary", "phi", "--values", "1,3"]
        assert run_cli("sweep", *PIPELINE_BASE[1:], *argv, "--out", str(old)) == 0
        manifest = json.loads((old / "manifest.json").read_text())
        assert "jobs" not in manifest["parameters"]
        manifest["parameters"]["jobs"] = 2
        (old / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("sweep", "--from-manifest", str(old / "manifest.json"), *argv,
                       "--out", str(new)) == 0
        for name in ["sweep_summary.csv", *(f"rows/phi_{phi}/{f}" for phi in (1, 3)
                                            for f in ("result.csv", "contactnet.bin"))]:
            assert (old / name).read_bytes() == (new / name).read_bytes(), name

    def test_parallel_rows_match_serial(self, tmp_path, cpus):
        serial, par = tmp_path / "ser", tmp_path / "par"
        argv = [
            "sweep", "--synthetic", "--counties", "3", "--sample", "0.04",
            "--k-bar", "6", "--steps", "8", "--reps", "1",
            "--initial-infected", "5", "--seed", "2",
            "--vary", "phi", "--values", "1,4",
        ]
        cpus(1)
        assert run_cli(*argv, "--out", str(serial)) == 0
        cpus(2)  # the two rows' items run in two workers
        assert run_cli(*argv, "--out", str(par)) == 0
        row_files = [f"{row}/{name}" for row in ("phi_1", "phi_4")
                     for name in ("contactnet.bin", "result.csv")]
        for out in (serial, par):
            # The scenario is saved once, at the top; rows hold only their own runs.
            assert sorted(
                p.relative_to(out / "rows").as_posix()
                for p in (out / "rows").rglob("*") if p.is_file()
            ) == row_files
            assert all((out / name).is_file() for name in SCENARIO_FILES)
        for name in ["sweep_summary.csv", *(f"rows/{f}" for f in row_files)]:
            assert (serial / name).read_bytes() == (par / name).read_bytes(), name

    def test_scenario_dir_sweep_records_inputs(self, tmp_path):
        gen = tmp_path / "scen"
        assert run_cli("gen-scenario", "--counties", "4", "--seed", "5",
                       "--out", str(gen)) == 0
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--scenario-dir", str(gen), "--sample", "0.05",
            "--k-bar", "8", "--steps", "10", "--reps", "1",
            "--initial-infected", "10", "--seed", "5",
            "--vary", "phi", "--values", "1,3", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["input_hashes"]) == sorted(str(gen / n) for n in SCENARIO_FILES)
        names = [s["name"] for s in manifest["stages"]]
        assert names[0] == "load_scenario" and names.count("load_scenario") == 1
        assert not any((out / name).exists() for name in SCENARIO_FILES)

    def test_scenario_config_sweep_records_the_config(self, tmp_path):
        config = tmp_path / "scenario.txt"
        config.write_text("county_count = 3\n")
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--synthetic", "--scenario-config", str(config), "--sample", "0.04",
            "--k-bar", "6", "--steps", "5", "--reps", "1", "--initial-infected", "5",
            "--vary", "k-bar", "--values", "4,6", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["input_hashes"]) == [str(config)]


# A sweep small enough to run in well under a second per row.
SMALL_SWEEP = [
    "sweep", "--synthetic", "--counties", "3", "--sample", "0.04", "--k-bar", "6",
    "--steps", "3", "--reps", "1", "--initial-infected", "5", "--seed", "2",
]


class FakePool:
    """A ProcessPoolExecutor stand-in that starts no process: it records each
    pool's max_workers and the work items it is given, and maps them serially.
    It does not run the worker initializer, which would act on this process."""

    def __init__(self, max_workers=None, mp_context=None, initializer=None):
        self.calls.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.calls[-1]["items"] = list(items)
        return map(fn, self.calls[-1]["items"])


@pytest.fixture
def fake_pool(monkeypatch):
    """FakePool in place of concurrent.futures.ProcessPoolExecutor; returns
    its list of calls."""
    import concurrent.futures

    pool = type("RecordingPool", (FakePool,), {"calls": []})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may use to range(k) and lets a network of any
    size fan its repetitions out."""
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


class TestSweepShares:
    """Phi rows share one sample and each network built; a command's repetitions
    and rows fan out as (group, rep, rows) work items of one pool."""

    @pytest.fixture(scope="class")
    def lone_runs(self, tmp_path_factory):
        """contactnet.bin and result.csv of a lone pipeline per phi and
        --regen-network setting."""
        out = tmp_path_factory.mktemp("lone")
        runs = {}
        for regen in ([], ["--regen-network"]):
            for phi in (1, 3, 5):
                run = out / f"{len(regen)}_{phi}"
                assert run_cli(*PIPELINE_BASE, *regen, "--phi", str(phi), "--out", str(run)) == 0
                runs[bool(regen), phi] = {name: (run / name).read_bytes()
                                          for name in ("contactnet.bin", "result.csv")}
        return runs

    @pytest.mark.parametrize("k", [1, 2])  # CPUs, with the items forked at 2
    @pytest.mark.parametrize("regen", [[], ["--regen-network"]], ids=["one_network", "regen"])
    def test_rows_equal_lone_pipelines(self, tmp_path, lone_runs, cpus, k, regen):
        cpus(k)
        out = tmp_path / "s"
        assert run_cli("sweep", *PIPELINE_BASE[1:], *regen, "--vary", "phi", "--values", "1,3,5",
                       "--out", str(out)) == 0
        assert multiprocessing.active_children() == []
        for phi in (1, 3, 5):
            for name, data in lone_runs[bool(regen), phi].items():
                assert (out / "rows" / f"phi_{phi}" / name).read_bytes() == data, (phi, name)
        names = [s["name"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
        builds = [f"phi_1/build_contact_network{b}"
                  for b in (["[rep=0]", "[rep=1]"] if regen else [""])]
        assert [n for n in names if "sample_population" in n] == ["phi_1/sample_population"]
        assert [n for n in names if "build_contact_network" in n] == builds
        assert [n for n in names if "spread_misinformation" in n] == [
            f"phi_{phi}/spread_misinformation" for phi in (1, 3, 5)]
        # One abm stage; a regenerated network's build is recorded inside it.
        assert [n for n in names if "/abm" in n] == ["phi_1/abm"]
        at = names.index("phi_1/abm")
        assert names[at - len(builds):at] == builds

    @pytest.mark.parametrize("vary, extra, items", [
        # one item per (repetition, row) on the rows' one network
        ("phi", [], [(0, rep, [row]) for rep in range(3) for row in (0, 1)]),
        # one item per repetition, as its one build serves both rows
        ("phi", ["--regen-network"], [(0, rep, [0, 1]) for rep in range(3)]),
        # a k-bar row is a group of its own, with its own sample and network
        ("k-bar", [], [(row, rep, [row]) for row in (0, 1) for rep in range(3)]),
    ], ids=["phi", "regen_phi", "k_bar"])
    def test_work_items(self, tmp_path, cpus, fake_pool, vary, extra, items):
        cpus(64)
        assert run_cli(*SMALL_SWEEP, "--reps", "3", *extra, "--vary", vary,
                       "--values", "4,6", "--out", str(tmp_path / "s")) == 0
        assert fake_pool.calls == [{"max_workers": len(items), "items": items}]

    def test_small_network_sweep_starts_no_pool(self, tmp_path, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert run_cli(*SMALL_SWEEP, "--reps", "3", "--vary", "phi", "--values", "4,6",
                       "--out", str(tmp_path / "s")) == 0
        assert fake_pool.calls == []

    def test_one_rep_sweep_starts_one_pool(self, tmp_path, cpus, fake_pool):
        # At --reps 1 each k-bar row is one work item; both share one pool.
        cpus(64)
        assert run_cli(*SMALL_SWEEP, "--vary", "k-bar", "--values", "4,6",
                       "--out", str(tmp_path / "s")) == 0
        assert fake_pool.calls == [{"max_workers": 2, "items": [(0, 0, [0]), (1, 0, [1])]}]

    def test_dead_worker_exits_3(self, tmp_path, cpus, fake_pool, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        def broken_map(self, fn, items, chunksize=1):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(fake_pool, "map", broken_map)
        cpus(2)
        out = tmp_path / "s"
        assert run_cli(*SMALL_SWEEP, "--vary", "phi", "--values", "1,3", "--out", str(out)) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == ("numeric failure: stage phi_1/abm: a repetition worker died "
                        "(killed, or out of memory)")
        assert not (out / "manifest.json").exists()


needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="repetitions fan out only where the platform forks safely")


@needs_fork
class TestForkedRepetitions:
    """A pipeline's repetitions run in forked workers, one per CPU it may use,
    with the same artifacts and exit codes as a serial run, and no worker left."""

    PIPELINE_FILES = ["result.csv", "summary.json", "contactnet.bin"]
    SWEEP = ["sweep", *PIPELINE_BASE[1:], "--reps", "3", "--vary", "phi", "--values", "1,3"]
    SWEEP_FILES = ["sweep_summary.csv", *(f"rows/phi_{phi}/{name}" for phi in (1, 3)
                                          for name in ("result.csv", "contactnet.bin"))]
    K_BAR_SWEEP = ["sweep", *PIPELINE_BASE[1:], "--reps", "3", "--vary", "k-bar",
                   "--values", "6,10"]
    K_BAR_FILES = ["sweep_summary.csv", *(f"rows/k_bar_{k}/{name}" for k in (6, 10)
                                          for name in ("result.csv", "contactnet.bin"))]
    SAMPLE_SWEEP = ["sweep", *PIPELINE_BASE[1:], "--reps", "1", "--vary", "sample",
                    "--values", "0.04,0.05,0.06"]
    SAMPLE_FILES = ["sweep_summary.csv", *(f"rows/sample_{s}/{name}" for s in (0.04, 0.05, 0.06)
                                           for name in ("result.csv", "contactnet.bin"))]

    @pytest.mark.parametrize("command, files", [
        ([*PIPELINE_BASE, "--reps", "3"], PIPELINE_FILES),
        (SWEEP, SWEEP_FILES),
        ([*PIPELINE_BASE, "--reps", "3", "--regen-network"], PIPELINE_FILES),
        ([*SWEEP, "--regen-network"], SWEEP_FILES),
        (K_BAR_SWEEP, K_BAR_FILES),
        ([*K_BAR_SWEEP, "--regen-network"], K_BAR_FILES),
        (SAMPLE_SWEEP, SAMPLE_FILES),
    ], ids=["pipeline", "phi_sweep", "regen_pipeline", "regen_phi_sweep", "k_bar_sweep",
            "regen_k_bar_sweep", "sample_sweep"])
    def test_artifacts_equal_for_any_worker_count(self, tmp_path, cpus, command, files):
        artifacts, names = [], []
        for k in (1, 2, 3):
            cpus(k)
            out = tmp_path / str(k)
            assert run_cli(*command, "--out", str(out)) == 0
            artifacts.append({name: (out / name).read_bytes() for name in files})
            stages = json.loads((out / "manifest.json").read_text())["stages"]
            names.append([s["name"] for s in stages])  # a worker's records come back in order
            assert multiprocessing.active_children() == []
        assert artifacts[0] == artifacts[1] == artifacts[2]
        assert names[0] == names[1] == names[2]

    def test_workers_capped_at_the_repetitions(self, tmp_path, cpus, fake_pool):
        cpus(64)
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == [{"max_workers": 3,
                                    "items": [(0, rep, [0]) for rep in range(3)]}]

    def test_small_network_stays_serial(self, tmp_path, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == []

    def test_no_fork_runs_serially(self, tmp_path, cpus, fake_pool, monkeypatch):
        cpus(64)
        monkeypatch.delattr(os, "fork")
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == []

    def test_worker_input_error_exits_2_as_serial(self, tmp_path, cpus, capsys):
        lines = []
        for k in (1, 2):
            cpus(k)
            assert run_cli(*PIPELINE_BASE, "--initial-infected", "100000",
                           "--out", str(tmp_path / str(k))) == 2
            lines.append(capsys.readouterr().err.splitlines()[-1])
            assert multiprocessing.active_children() == []
        assert lines[0] == lines[1]
        assert lines[0].startswith("error: stage abm: cannot seed 100000 infections")

    def test_worker_build_error_names_its_stage_as_serial(self, tmp_path, cpus, capsys):
        # The k-bar 400 row's network is built inside its own work item; the tag the
        # worker's stage sets comes back with the pickled error.
        lines = []
        for k in (1, 2):
            cpus(k)
            assert run_cli("sweep", "--synthetic", "--counties", "3", "--k-bar", "6",
                           "--steps", "1", "--reps", "1", "--initial-infected", "1", "--seed", "0",
                           "--vary", "k-bar", "--values", "6,400",
                           "--out", str(tmp_path / str(k))) == 3
            lines.append(capsys.readouterr().err.splitlines()[-1])
            assert multiprocessing.active_children() == []
        assert lines == [("numeric failure: stage k_bar_400/build_contact_network: county pair "
                          "(1000, 1000) allocated 20906 edges but holds at most 9180")] * 2

    def test_killed_worker_exits_3(self, tmp_path, cpus, capsys, monkeypatch):
        rep_counts = abm.rep_counts
        seed = int(PIPELINE_BASE[PIPELINE_BASE.index("--seed") + 1])
        rep_1 = scenario.derive_seed(scenario.derive_seed(seed, cli._STREAM_ABM), 1)

        def dies_on_rep_1(net, cfg, rep_key):
            if rep_key == rep_1:
                os._exit(1)
            return rep_counts(net, cfg, rep_key)

        monkeypatch.setattr(abm, "rep_counts", dies_on_rep_1)
        cpus(2)
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(out)) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == ("numeric failure: stage abm: a repetition worker died "
                        "(killed, or out of memory)")
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()

    def test_stage_rss_covers_reaped_workers(self, tmp_path, monkeypatch):
        getrusage = resource.getrusage

        def large_children(who):
            usage = getrusage(who)
            if who != resource.RUSAGE_CHILDREN:
                return usage
            return type("Usage", (), {"ru_maxrss": 1 << 30})  # KiB: 1 TiB

        monkeypatch.setattr(resource, "getrusage", large_children)
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert {s["max_rss_mb"] for s in stages} == {(1 << 30) / 1024}


    def test_workers_fork_from_the_main_thread_and_die_with_it(self):
        # PR_SET_PDEATHSIG fires when the thread that forked a worker ends: ProcessPoolExecutor
        # forks every worker in the thread that first submits, here the main thread.
        def worker(_):
            sig = ctypes.c_int()
            ctypes.CDLL(None).prctl(2, ctypes.byref(sig))  # PR_GET_PDEATHSIG
            return threading.current_thread().name, sig.value, os.getppid()

        assert cli._fork_map(worker, [0, 1], 2) == [("MainThread", signal.SIGKILL, os.getpid())] * 2


def _children(pid: int) -> set[int]:
    """The processes whose parent is `pid`."""
    kids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                kids.add(int(stat.parent.name))
        except (OSError, IndexError, ValueError):  # it ended
            pass
    return kids


def _running(pid: int) -> bool:
    """Whether `pid` lives and is no zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: repetitions run serially")
@pytest.mark.parametrize("how", ["SIGINT to the group", "SIGTERM to the parent",
                                 "SIGKILL to the parent"])
def test_stopped_run_stops_its_workers(tmp_path, how):
    # Four repetitions of 100,000 days on 234,450 edges, in two forked workers: an epidemic
    # that barely recovers would keep them busy for a minute.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "smirsim.cli", "pipeline", "--synthetic", "--counties", "3",
         "--sample", "0.4", "--gamma", "0.0001", "--steps", "100000", "--reps", "4",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    workers: set[int] = set()
    try:
        for line in proc.stderr:
            if line.strip() == "stage abm":
                break
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _children(proc.pid)
            time.sleep(0.05)
        assert len(workers) == 2
        time.sleep(0.5)  # the workers are in their first repetitions
        if how == "SIGINT to the group":
            os.killpg(proc.pid, signal.SIGINT)
        else:
            os.kill(proc.pid, signal.SIGTERM if how == "SIGTERM to the parent" else signal.SIGKILL)
        err = proc.communicate(timeout=30)[1]
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
        if how == "SIGINT to the group":
            assert proc.returncode in (130, -signal.SIGINT)
            assert "Traceback" not in err and err.splitlines()[-1] == "interrupted: stage abm"
            assert not (out / "manifest.json").exists()
    finally:
        for pid in workers | {proc.pid}:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.wait()


MANIFEST_KEYS = {
    "engine_version", "subcommand", "parameters", "input_hashes", "master_seed",
    "duration_seconds", "outputs", "stages",
}


class TestRunRecord:
    """manifest.json records each stage that stderr reports as done."""

    @staticmethod
    def stages_done(argv, out, capsys):
        """The manifest's stages, checked to be the stderr ``done`` lines, and those names."""
        assert run_cli(*argv, "--out", str(out)) == 0
        done = re.findall(r"^stage (\S+) done in \d+\.\d{3}s$", capsys.readouterr().err, re.M)
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [s["name"] for s in stages] == done
        rss = [s["max_rss_mb"] for s in stages]
        assert rss == sorted(rss) and rss[0] > 0  # serial: a high-water mark never falls
        return stages, done

    @pytest.mark.parametrize("extra", [[], ["--regen-network"]])
    def test_manifest_stages_match_stderr(self, tmp_path, capsys, extra):
        # Serial: the network is too small for the repetitions to fork.
        stages, done = self.stages_done([*PIPELINE_BASE, *extra], tmp_path / "p", capsys)
        # A regenerated network is built inside the abm stage, once per repetition.
        builds = ([f"build_contact_network[rep={rep}]" for rep in (0, 1)] if extra
                  else ["build_contact_network"])
        assert done == ["generate_scenario", "save_scenario", "spread_misinformation",
                        "sample_population", "expected_edges", *builds, "abm", "write_outputs"]
        assert all(s.keys() == {"name", "wall_s", "max_rss_mb", "pid"} for s in stages)
        assert all(s["wall_s"] >= 0 and s["pid"] == os.getpid() for s in stages)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: repetitions run serially")
    def test_forked_builds_name_their_worker(self, tmp_path, cpus):
        # Each repetition builds its network in a forked worker, whose own high-water mark
        # its record carries; within one process the mark never falls.
        cpus(2)
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--regen-network", "--out", str(out)) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        [abm_pid] = [s["pid"] for s in stages if s["name"] == "abm"]
        builds = [s for s in stages if s["name"].startswith("build_contact_network[rep=")]
        assert len(builds) == 2 and all(s["pid"] != abm_pid for s in builds)
        for pid in {s["pid"] for s in stages}:
            rss = [s["max_rss_mb"] for s in stages if s["pid"] == pid]
            assert rss == sorted(rss)

    @pytest.mark.parametrize("extra", [[], ["--regen-network"]])
    def test_phi_sweep_manifest_stages_match_stderr(self, tmp_path, capsys, extra):
        # In the order they ran, under their rows' names; the rows share phi_1's sample and
        # networks, and a regenerated network is built inside phi_1/abm.
        argv = ["sweep", *PIPELINE_BASE[1:], *extra, "--vary", "phi", "--values", "1,3"]
        _, done = self.stages_done(argv, tmp_path / "s", capsys)
        builds = ([f"build_contact_network[rep={rep}]" for rep in (0, 1)] if extra
                  else ["build_contact_network"])
        assert done == ["generate_scenario", "save_scenario", "phi_1/spread_misinformation",
                        "phi_3/spread_misinformation", "phi_1/sample_population",
                        "phi_1/expected_edges", *(f"phi_1/{b}" for b in builds), "phi_1/abm",
                        "phi_1/write_outputs", "phi_3/write_outputs", "write_outputs"]

    def test_parallel_sweep_lists_every_row_stage(self, tmp_path, cpus):
        # Each k-bar row samples and builds its own network: in this process when its
        # repetitions are two items, else inside abm, in the one forked item that reads it.
        cpus(2)
        rows = ("k_bar_6", "k_bar_10")
        for reps in (1, 2):
            out = tmp_path / str(reps)
            assert run_cli(
                "sweep", *PIPELINE_BASE[1:], "--reps", str(reps), "--vary", "k-bar",
                "--values", "6,10", "--out", str(out),
            ) == 0
            assert multiprocessing.active_children() == []
            stages = json.loads((out / "manifest.json").read_text())["stages"]
            shared = ["build_contact_network"] if reps > 1 else []
            in_item = [] if shared else [f"{row}/build_contact_network" for row in rows]
            assert [s["name"] for s in stages] == [
                "generate_scenario", "save_scenario",
                *(f"{row}/spread_misinformation" for row in rows),
                *(f"{row}/{n}" for row in rows
                  for n in ("sample_population", "expected_edges", *shared)),
                *in_item, "k_bar_6/abm", *(f"{row}/write_outputs" for row in rows),
                "write_outputs"]
            assert not list((out / "rows").rglob("manifest.json"))

    @pytest.mark.parametrize("k", [1, 2])  # CPUs; at 2 the rows' items save in workers
    def test_sweep_manifest_lists_row_outputs(self, tmp_path, cpus, k):
        cpus(k)
        out = tmp_path / "s"
        assert run_cli(
            "sweep", *PIPELINE_BASE[1:], "--reps", "1", "--vary", "phi", "--values", "1,3",
            "--out", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "jobs" not in manifest["parameters"]
        outputs = manifest["outputs"]
        written = sorted(str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
        assert outputs == written
        assert str(out / "rows" / "phi_3" / "contactnet.bin") in outputs

    @pytest.mark.parametrize("mode", [
        [], ["--sweep", "lambda=1:3:1"], ["--sweep", "alpha=0.5:1:0.25", "--grid", "beta-o=0.1:0.3:0.1"],
    ], ids=["single", "sweep", "grid"])
    def test_meanfield_names_every_output_inside_a_stage(self, tmp_path, outputs_outside_stages,
                                                         mode):
        out = tmp_path / "m"
        assert run_cli("meanfield", "--horizon", "5", *mode, "--svg", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["integrate", "write_outputs"]
        assert manifest["outputs"] and outputs_outside_stages == []

    @pytest.mark.parametrize("command, last_written", [
        (["pipeline"], {"summary.json", "epidemic.svg"}),
        (["sweep", "--vary", "phi", "--values", "1,2"], {"sweep_summary.csv", "sweep_cumulative.svg"}),
    ], ids=["pipeline", "sweep"])
    def test_pipeline_names_every_output_inside_a_stage(self, tmp_path, outputs_outside_stages,
                                                        command, last_written):
        out = tmp_path / "p"
        assert run_cli(*command, "--synthetic", "--counties", "3", *SMALL_PIPELINE, "--svg",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert last_written <= {p.name for p in out.iterdir()}
        assert manifest["outputs"] and outputs_outside_stages == []
        top_stages = [s["name"] for s in manifest["stages"] if "/" not in s["name"]]
        assert top_stages.count("write_outputs") == 1

    def test_out_of_memory_in_a_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(scenario, "generate_scenario", exhausted)
        assert run_cli("gen-scenario", "--seed", "1", "--out", str(tmp_path / "g")) == 3
        err = capsys.readouterr().err
        assert err.endswith("numeric failure: stage generate_scenario: "
                            "out of memory (Unable to allocate 7.45 GiB)\n")

    def test_other_value_error_in_a_stage_is_not_out_of_memory(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("Maximum allowed size is a bug here")

        monkeypatch.setattr(scenario, "generate_scenario", broken)
        with pytest.raises(ValueError, match="a bug here"):
            run_cli("gen-scenario", "--seed", "1", "--out", str(tmp_path / "g"))

    def test_out_of_memory_outside_a_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        # The summary printed after the stages is computed outside any stage.
        monkeypatch.setattr(meanfield, "summarize", exhausted)
        assert run_cli("meanfield", "--horizon", "2", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: out of memory\n")

    def test_too_big_array_outside_a_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        def too_big(*args):
            raise ValueError("array is too big")  # NumPy's text for a shape no memory holds

        monkeypatch.setattr(meanfield, "summarize", too_big)
        assert run_cli("meanfield", "--horizon", "2", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith(
            "numeric failure: out of memory (array is too big)\n")

    def test_other_value_error_outside_a_stage_is_not_out_of_memory(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("Maximum allowed size is a bug here")

        monkeypatch.setattr(meanfield, "summarize", broken)
        with pytest.raises(ValueError, match="a bug here"):
            run_cli("meanfield", "--horizon", "2", "--out", str(tmp_path / "m"))

    def test_meanfield_out_of_memory_names_the_integrate_stage(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(meanfield, "integrate", exhausted)
        assert run_cli("meanfield", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: stage integrate: out of memory\n")

    def test_meanfield_sweep_out_of_memory_names_the_integrate_stage(self, tmp_path, capsys,
                                                                     monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(meanfield, "sweep", exhausted)
        assert run_cli("meanfield", "--sweep", "lambda=1:2", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: stage integrate: out of memory\n")

    def test_failed_stage_writes_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "p"
        # A valid sample too small for any county to draw a node fails in its stage.
        assert run_cli(*PIPELINE_BASE, "--sample", "1e-9", "--out", str(out)) == 2
        assert "stage sample_population" in capsys.readouterr().err
        assert (out / "counties.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "p"
        base = PIPELINE_BASE[:-1]  # strip seed value
        assert run_cli(*base, "1", "--out", str(out)) == 0
        # It rewrites the scenario CSVs for seed 2, then fails at abm.
        assert run_cli(*base, "2", "--initial-infected", "100000", "--out", str(out)) == 2
        assert "stage abm" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("source, message", [
        (["--synthetic", "--phi", "0"], "phi must be"),
        (["--scenario-dir", "{d}/missing"], "stage load_scenario: "),
    ], ids=["bad_flag", "missing_scenario_file"])
    def test_run_that_names_no_output_keeps_the_manifest(self, tmp_path, capsys, source,
                                                          message):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        manifest = (out / "manifest.json").read_bytes()
        source = [a.format(d=tmp_path) for a in source]
        assert run_cli("pipeline", *source, *PIPELINE_BASE[2:], "--out", str(out)) == 2
        assert message in capsys.readouterr().err.splitlines()[-1]
        assert (out / "manifest.json").read_bytes() == manifest

    def test_rerun_from_its_own_manifest_into_its_out(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        result = (out / "result.csv").read_bytes()
        assert run_cli("pipeline", "--from-manifest", str(out / "manifest.json"),
                       "--out", str(out)) == 0
        assert (out / "result.csv").read_bytes() == result
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 7

    def test_bad_flag_creates_no_out_dir(self, tmp_path):
        out = tmp_path / "x"
        assert run_cli("meanfield", "--sweep", "lambda=banana", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["meanfield", "--horizon", "10"],
        ["meanfield", "--horizon", "10", "--sweep", "lambda=1:2:1"],
        ["gen-scenario", "--counties", "2", "--seed", "1"],
        [*PIPELINE_BASE, "--reps", "1"],
        ["sweep", *PIPELINE_BASE[1:], "--reps", "1", "--vary", "phi", "--values", "1"],
    ])
    def test_manifest_keys(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.keys() == MANIFEST_KEYS
        assert manifest["subcommand"] == argv[0]
        assert manifest["stages"], "every command records its stages"


class TestOtherCommands:
    def test_gen_scenario_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gen-scenario", "--counties", "3", "--seed", "1",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("inspect", str(out / "counties.csv")) == 0
        assert "3 counties" in capsys.readouterr().out

    def test_inspect_contact_network(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("inspect", str(out / "contactnet.bin")) == 0
        text = capsys.readouterr().out
        assert "contact network" in text and "mean degree" in text

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert run_cli("inspect", str(tmp_path / "ghost.bin")) == 2

    def test_inspect_older_contactnet_writes_nothing(self, tmp_path, capsys, monkeypatch):
        _write_bad_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("inspect", str(tmp_path / "smircnet2.bin")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "b'SMIRCNET4'" in err.splitlines()[-1]
        assert sorted(tmp_path.rglob("*")) == before

    @staticmethod
    def assert_probe_reads(path):
        """perfbench's probe, run as the harness runs it, counts what `load_contact_network`
        reads from `path`: a layout change cannot break the benchmark's check unnoticed."""
        root = Path(__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, str(root / "perfbench" / "probe.py"), "net", str(path)],
            env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
            timeout=300, check=True,
        )
        net = contactnet.load_contact_network(path)
        county = net.county_index[np.repeat(np.arange(len(net.ptr) - 1), np.diff(net.ptr))]
        blocks = set(zip(county.tolist(), net.county_index[net.hi].tolist()))
        assert json.loads(probe.stdout) == {
            "nodes": len(net.ptr) - 1, "edges": len(net.hi),
            "blocks": len({(min(pair), max(pair)) for pair in blocks}),
        }

    def test_perfbench_probe_reads_a_pipeline_network(self, tmp_path):
        # The benchmark harness runs this reader on every pipeline iteration.
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        self.assert_probe_reads(out / "contactnet.bin")

    def test_perfbench_probe_reads_high_words(self, tmp_path):
        # Two counties of 20,000 nodes, 4,100 rows (two blocks of words) with ends, gaps of
        # 2^15 and more, and a degree of 2^15 + 1.
        n = 40_000
        edges = [(0, w) for w in range(1, 2**15 + 2)] + [(v, v + 35_000) for v in range(1, 4_100)]
        net = ContactNetwork(
            county_ids=np.array([1000, 1001]),
            county_index=np.repeat(np.array([0, 1], dtype=np.int32), n // 2),
            misinformed=np.arange(n) % 5 == 0, **contact_rows(edges, n), k_bar=2.0, seed=0,
        )
        save_contact_network(net, tmp_path / "wide.bin")
        self.assert_probe_reads(tmp_path / "wide.bin")

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMIRSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-scenario", "--counties", "2", "--seed", "1") == 0
        assert (tmp_path / "envout" / "counties.csv").exists()


def _small_contactnet_bytes(path) -> bytes:
    """A saved 3-node, 2-edge contact network, as written to `path`."""
    net = ContactNetwork(
        county_ids=np.array([1000]),
        county_index=np.zeros(3, dtype=np.int32),
        misinformed=np.array([True, False, False]),
        **contact_rows([(0, 1), (1, 2)], 3),
        k_bar=2.0,
        seed=0,
    )
    save_contact_network(net, path)
    return path.read_bytes()


def _write_bad_inputs(d):
    """Malformed files for the error-contract table below."""
    (d / "malformed.json").write_text("{not json")
    (d / "no_parameters.json").write_text(json.dumps({"subcommand": "pipeline"}))
    (d / "unknown_key.json").write_text(
        json.dumps({"subcommand": "pipeline", "parameters": {"phi": 1, "colour": "red"}})
    )
    for name, params in {
        "phi_text": {"phi": "x"},
        "counties_text": {"counties": "4"},
        "reps_fraction": {"reps": 2.5},
        "seed_bool": {"seed": True},
        "seed_negative": {"seed": -1},
        "regen_number": {"regen_network": 1},
        "k_bar_nan": {"counties": 3, "k_bar": float("nan")},  # dumped as NaN
        "k_bar_1e308": {"counties": 3, "k_bar": 1e308},
        "gamma_2": {"counties": 3, "gamma": 2.0},
        "reps_0": {"counties": 3, "reps": 0},
        "steps_0": {"counties": 3, "steps": 0},
        "initial_infected_0": {"counties": 3, "initial_infected": 0},
        "p_m_below_p_o": {"counties": 3, "p_m": 0.001},
        "scenario_dir_nul": {"scenario_dir": "scenario\0"},
        "mode_unknown": {"counties": 3, "mode": "loudest_friend"},
        "reps_10_20": {"counties": 3, "reps": 10**20},
    }.items():
        (d / f"{name}.json").write_text(
            json.dumps({"subcommand": "pipeline", "parameters": params})
        )
    # JSON reads 1e400 as inf
    (d / "k_bar_1e400.json").write_text(
        '{"subcommand": "pipeline", "parameters": {"counties": 3, "k_bar": 1e400}}')
    (d / "meanfield_manifest.json").write_text(
        json.dumps({"subcommand": "meanfield", "parameters": {"horizon": 10}})
    )
    big = "99999999999999999999"  # beyond int64
    for dir_name, bad_name, bad_text in (
        ("empty_mobility", "mobility.csv", b""),
        ("empty_infonet_edges", "infonet_edges.csv", b""),
        ("no_counties", "counties.csv", b"fips,voters,republican_share,twitter_users\n"),
        ("weight_overflow", "infonet_edges.csv", f"src,dst,weight\n0,0,{big}\n".encode()),
        ("fips_overflow", "infonet_nodes.csv",
         f"id,county_fips,alignment,misinformed_seed\n0,{big},,1\n".encode()),
        ("voters_overflow", "counties.csv",
         f"fips,voters,republican_share,twitter_users\n1000,{big},0.5,5\n".encode()),
        ("nodes_latin1", "infonet_nodes.csv",
         b"id,county_fips,alignment,misinformed_seed\n0,1000,,1\n\xe9,1000,,0\n"),
        ("users_negative", "counties.csv",
         b"fips,voters,republican_share,twitter_users\n1000,50,0.5,-5\n"),
        ("mobility_inf", "mobility.csv", b"x_fips,y_fips,value\n1000,1000,inf\n"),
        ("mobility_negative", "mobility.csv", b"x_fips,y_fips,value\n1000,1000,-1.0\n"),
        ("node_outside", "infonet_nodes.csv",
         b"id,county_fips,alignment,misinformed_seed\n0,1001,,1\n"),
    ):
        scen = d / dir_name
        scen.mkdir()
        for name, text in (
            ("counties.csv", "fips,voters,republican_share,twitter_users\n1000,50,0.5,5\n"),
            ("mobility.csv", "x_fips,y_fips,value\n1000,1000,1.0\n"),
            ("infonet_nodes.csv", "id,county_fips,alignment,misinformed_seed\n0,1000,,1\n"),
            ("infonet_edges.csv", "src,dst,weight\n"),
        ):
            (scen / name).write_text(text)
        (scen / bad_name).write_bytes(bad_text)
    (d / "binary.dat").write_bytes(b"\xff\xfe\x00\x81 not text")
    (d / "config_latin1.txt").write_bytes(b"county_count = 5 # caf\xe9\n")
    (d / "config_seed.txt").write_text("county_count = 4\nseed = 5\n")
    for name, line in {
        "pop_median_nan": "pop_median = nan",
        "pop_sigma_inf": "pop_sigma = inf",
        "share_alpha_inf": "share_alpha = inf",
        "gravity_exponent_inf": "gravity_exponent = inf",
        "pop_median_negative": "pop_median = -1",
        "share_alpha_zero": "share_alpha = 0",
        "user_rate_2": "twitter_user_rate = 2",
        "users_min_0": "twitter_users_min = 0",
        "retweet_weight_p_0": "retweet_weight_p = 0",
        "homophily_1.5": "homophily = 1.5",
        "edges_per_node_0": "edges_per_node = 0",
        "no_equals": "county_count 3",
    }.items():
        (d / f"config_{name}.txt").write_text(line + "\n")
    data = _small_contactnet_bytes(d / "good.bin")
    # The same network in the two formats before: with each edge's lo end (SMIRCNET2), and
    # with a county index per node, a uint32 degree per node and a uint32 per hi end.
    old_header = struct.pack("<QQdQI", 3, 2, 2.0, 0, 1) + (1000).to_bytes(8, "little")
    (d / "smircnet2.bin").write_bytes(
        b"SMIRCNET2\n" + old_header + bytes(12) + b"\x80"
        + np.array([[0, 1], [1, 2]], dtype="<u4").tobytes())
    (d / "smircnet3.bin").write_bytes(
        b"SMIRCNET3\n" + old_header + bytes(12) + b"\x80" + np.array([1, 1, 0, 1, 2], "<u4").tobytes())
    (d / "truncated.bin").write_bytes(data[:-3])
    (d / "trailing.bin").write_bytes(data + b"\0")
    (d / "header_only.bin").write_bytes(data[:20])
    (d / "zero_nodes.bin").write_bytes(
        contactnet.MAGIC + contactnet._HEADER.pack(0, 0, 2.0, 0, 0, 0, 0))
    head = len(contactnet.MAGIC) + contactnet._HEADER.size
    index_at = head + 8  # the county index of node 0's run
    for name, word in (("county_index_max", 0xFFFFFFFF), ("county_index_big", 10**6)):
        bad = bytearray(data)
        bad[index_at:index_at + 4] = word.to_bytes(4, "little")
        (d / f"{name}.bin").write_bytes(bytes(bad))
    # One word of the network changed: its one run of 3 nodes, the degrees 1, 1, 0 of its
    # rows, or the gaps 1 and 1 of their ends; with high words added to the header and file.
    *fields, n_high = contactnet._HEADER.unpack(data[len(contactnet.MAGIC):head])
    run_at, degree_at = head + 12, head + 17
    for name, at, word, high in (
        ("runs_short", run_at, 2, 0), ("degrees_over", degree_at, 2, 0),
        ("degrees_under", degree_at + 2, 0, 0), ("high_word_missing", degree_at + 6, 0x8001, 0),
        ("high_word_extra", degree_at + 6, 1, 1), ("gap_zero", degree_at + 8, 0, 0),
        ("end_past_nodes", degree_at + 8, 5, 0),
    ):
        size = 4 if at == run_at else 2
        (d / f"{name}.bin").write_bytes(
            contactnet.MAGIC + contactnet._HEADER.pack(*fields, n_high + high) + data[head:at]
            + word.to_bytes(size, "little") + data[at + size:] + bytes(2 * high))


# case -> (argv, with {d} for the input directory; text the error must contain
# [, exit code when it is 3, a numeric failure, not 2])
BAD_INPUTS = {
    "gen-scenario --counties 0": (["gen-scenario", "--counties", "0"], "county_count"),
    "scenario config not UTF-8": (
        ["gen-scenario", "--scenario-config", "{d}/config_latin1.txt"], "config_latin1.txt:1"),
    "scenario config with a seed": (
        ["gen-scenario", "--scenario-config", "{d}/config_seed.txt"], "config_seed.txt:2: seed"),
    "pipeline --counties 0": (["pipeline", "--synthetic", "--counties", "0"], "county_count"),
    "manifest not JSON": (["pipeline", "--from-manifest", "{d}/malformed.json"], "malformed.json"),
    "manifest without parameters": (
        ["pipeline", "--from-manifest", "{d}/no_parameters.json"], "no_parameters.json"),
    "manifest with unknown key": (
        ["pipeline", "--from-manifest", "{d}/unknown_key.json"], "colour"),
    "manifest not text": (["pipeline", "--from-manifest", "{d}/binary.dat"], "binary.dat"),
    "sweep manifest not JSON": (
        ["sweep", "--from-manifest", "{d}/malformed.json", "--vary", "phi", "--values", "1"],
        "malformed.json"),
    "sweep --values 1,x": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1,x"], "--values"),
    "sweep --values empty": (["sweep", "--synthetic", "--vary", "phi", "--values", ""], "--values"),
    "sweep --values 2,y for k-bar": (
        ["sweep", "--synthetic", "--vary", "k-bar", "--values", "2,y"], "--values"),
    "meanfield --horizon -1 --sweep": (
        ["meanfield", "--horizon", "-1", "--sweep", "lambda=1:2"], "horizon"),
    "meanfield --horizon 0 --sweep": (
        ["meanfield", "--horizon", "0", "--sweep", "lambda=1:2"], "horizon"),
    # 10^300 steps a day: rejected before the first one
    "meanfield --dt 1e-300": (["meanfield", "--horizon", "2", "--dt", "1e-300"], "dt=1e-300"),
    "meanfield --grid without --sweep": (
        ["meanfield", "--grid", "beta-o=0.1:0.4"], "--grid requires --sweep"),
    "meanfield --dt 0": (["meanfield", "--dt", "0"], "dt must be > 0"),
    "meanfield --sweep tau from 0": (["meanfield", "--sweep", "tau=0:2"], "tau must be > 0"),
    "meanfield --horizon -1 --grid": (
        ["meanfield", "--horizon", "-1", "--sweep", "alpha=0.5:1", "--grid", "beta-o=0.1:0.2"],
        "horizon"),
    "inspect truncated contactnet": (["inspect", "{d}/truncated.bin"], "truncated.bin"),
    "inspect contactnet with trailing bytes": (["inspect", "{d}/trailing.bin"], "trailing.bin"),
    "inspect contactnet header only": (["inspect", "{d}/header_only.bin"], "header_only.bin"),
    "inspect contactnet county index 0xFFFFFFFF": (
        ["inspect", "{d}/county_index_max.bin"], "county_index_max.bin"),
    "inspect contactnet county index past the county table": (
        ["inspect", "{d}/county_index_big.bin"], "county_index_big.bin"),
    "inspect contactnet with zero nodes": (["inspect", "{d}/zero_nodes.bin"], "zero_nodes.bin"),
    "inspect non-UTF-8 file": (["inspect", "{d}/binary.dat"], "unrecognized artifact format"),
    "inspect contactnet of an older format": (
        ["inspect", "{d}/smircnet2.bin"], "smircnet2.bin: format line b'SMIRCNET2', but this "
                                          "version reads contact networks of format b'SMIRCNET4'"),
    "inspect contactnet of the format before": (
        ["inspect", "{d}/smircnet3.bin"], "smircnet3.bin: format line b'SMIRCNET3', but this "
                                          "version reads contact networks of format b'SMIRCNET4'"),
    "inspect contactnet whose county runs miss a node": (
        ["inspect", "{d}/runs_short.bin"], "runs_short.bin: county runs do not sum to its 3 nodes"),
    "inspect contactnet whose degrees sum past its edges": (
        ["inspect", "{d}/degrees_over.bin"], "degrees_over.bin: degrees sum past its 2 edges"),
    "inspect contactnet whose degrees sum short of its edges": (
        ["inspect", "{d}/degrees_under.bin"], "degrees_under.bin: degree sum 1 of 2"),
    "inspect contactnet with a flagged word and no high word": (
        ["inspect", "{d}/high_word_missing.bin"],
        "high_word_missing.bin: more words are flagged than there are high words"),
    "inspect contactnet with a high word no word flags": (
        ["inspect", "{d}/high_word_extra.bin"], "high_word_extra.bin: degree sum 2 of 2, 1 high"),
    "inspect contactnet with a gap of 0": (
        ["inspect", "{d}/gap_zero.bin"], "gap_zero.bin: edges must be canonical"),
    "inspect contactnet with an end past its nodes": (
        ["inspect", "{d}/end_past_nodes.bin"], "end_past_nodes.bin: edge endpoint out of range"),
    "manifest phi text": (["pipeline", "--from-manifest", "{d}/phi_text.json"], "phi"),
    "manifest counties text": (
        ["pipeline", "--from-manifest", "{d}/counties_text.json"], "counties"),
    "manifest reps fraction": (
        ["pipeline", "--from-manifest", "{d}/reps_fraction.json"], "reps"),
    "manifest seed bool": (["pipeline", "--from-manifest", "{d}/seed_bool.json"], "seed"),
    "manifest seed -1": (
        ["pipeline", "--from-manifest", "{d}/seed_negative.json"], "parameter seed is -1"),
    "gen-scenario --seed -3": (["gen-scenario", "--seed", "-3"], "--seed"),
    "pipeline --seed -1": (["pipeline", "--synthetic", "--seed", "-1"], "--seed"),
    "manifest scenario_dir with NUL": (
        ["pipeline", "--from-manifest", "{d}/scenario_dir_nul.json"], "scenario_dir"),
    "manifest regen_network number": (
        ["pipeline", "--from-manifest", "{d}/regen_number.json"], "regen_network"),
    "manifest of a meanfield run": (
        ["pipeline", "--from-manifest", "{d}/meanfield_manifest.json"],
        "is not a pipeline manifest"),
    "scenario config pop_median -1": (
        ["gen-scenario", "--scenario-config", "{d}/config_pop_median_negative.txt"],
        "population distribution"),
    "scenario config share_alpha 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_share_alpha_zero.txt"],
        "share distribution"),
    "scenario config twitter_user_rate 2": (
        ["gen-scenario", "--scenario-config", "{d}/config_user_rate_2.txt"], "twitter_user_rate"),
    "scenario config twitter_users_min 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_users_min_0.txt"], "twitter_users_min"),
    "scenario config retweet_weight_p 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_retweet_weight_p_0.txt"],
        "retweet_weight_p"),
    "scenario config homophily 1.5": (
        ["gen-scenario", "--scenario-config", "{d}/config_homophily_1.5.txt"],
        "homophily must be in [0, 1], got 1.5"),
    "scenario config edges_per_node 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_edges_per_node_0.txt"],
        "edges_per_node must be >= 1"),
    "scenario config line without =": (
        ["gen-scenario", "--scenario-config", "{d}/config_no_equals.txt"],
        "config_no_equals.txt:1: expected key = value"),
    # non-finite: rejected before NumPy warns on a cast or a division
    "scenario config non-finite pop_median": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_pop_median_nan.txt"],
        "pop_median must be finite, got nan"),
    "scenario config non-finite pop_sigma": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_pop_sigma_inf.txt"],
        "pop_sigma must be finite, got inf"),
    "scenario config non-finite share_alpha": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_share_alpha_inf.txt"],
        "share_alpha must be finite, got inf"),
    "scenario config non-finite gravity_exponent": (
        ["gen-scenario", "--counties", "5",
         "--scenario-config", "{d}/config_gravity_exponent_inf.txt"],
        "gravity_exponent must be finite, got inf"),
    # non-finite rates: rejected before a step that would warn and overflow
    "meanfield --beta-o=inf --gamma=inf": (
        ["meanfield", "--beta-o=inf", "--gamma=inf"], "beta_o must be finite"),
    "meanfield --gamma=inf": (["meanfield", "--gamma=inf"], "gamma must be finite"),
    "meanfield --lambda=inf": (["meanfield", "--lambda=inf"], "lambda must be finite"),
    "meanfield --beta-o=nan": (["meanfield", "--beta-o=nan"], "beta_o must be finite"),
    "meanfield --sweep nan start": (["meanfield", "--sweep", "lambda=nan:1:0.1"], "--sweep"),
    "meanfield --sweep nan step": (["meanfield", "--sweep", "lambda=1:2:nan"], "--sweep"),
    "meanfield --sweep inf stop": (["meanfield", "--sweep", "lambda=1:inf:1"], "--sweep"),
    # rejected before any value is built: 10^12 floats would exhaust memory
    "meanfield --sweep 10^12 values": (["meanfield", "--sweep", "lambda=1:1e12:1"], "--sweep"),
    "meanfield --grid 10^9 values": (
        ["meanfield", "--sweep", "alpha=0.5:1", "--grid", "beta-o=0:1e9:1"], "--grid"),
    "meanfield --sweep values print alike": (
        ["meanfield", "--sweep", "lambda=1:1.000002:0.000001"], "1.000001"),
    "sweep --values 1,1": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1,1"], "--values"),
    "empty mobility file": (
        ["pipeline", "--scenario-dir", "{d}/empty_mobility"], "mobility.csv"),
    "empty infonet edges file": (
        ["pipeline", "--scenario-dir", "{d}/empty_infonet_edges"], "infonet_edges.csv"),
    "counties file without rows": (
        ["pipeline", "--scenario-dir", "{d}/no_counties"], "counties.csv"),
    "edge weight beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/weight_overflow"], "infonet_edges.csv:2"),
    "node county_fips beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/fips_overflow"], "infonet_nodes.csv:2"),
    "county voters beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/voters_overflow"], "counties.csv:2"),
    "infonet nodes not UTF-8": (
        ["pipeline", "--scenario-dir", "{d}/nodes_latin1"], "infonet_nodes.csv:3"),
    "county twitter users negative": (
        ["pipeline", "--scenario-dir", "{d}/users_negative"],
        "twitter user counts must be nonnegative"),
    "mobility value inf": (
        ["pipeline", "--scenario-dir", "{d}/mobility_inf"],
        "mobility.csv:2: non-finite mobility inf"),
    "mobility value negative": (
        ["pipeline", "--scenario-dir", "{d}/mobility_negative"],
        "mobility.csv:2: negative mobility"),
    "node county outside the scenario": (
        ["pipeline", "--scenario-dir", "{d}/node_outside"],
        "references counties outside the scenario"),
    "pipeline --k-bar nan": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "nan"],
        "k_bar must be finite and > 0, got nan"),
    "pipeline --k-bar inf": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "inf"],
        "k_bar must be finite and > 0, got inf"),
    "sweep --values nan for k-bar": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "k-bar", "--values", "nan"],
        "k_bar must be finite and > 0, got nan"),
    "manifest k_bar NaN": (
        ["pipeline", "--from-manifest", "{d}/k_bar_nan.json"],
        "k_bar must be finite and > 0, got nan"),
    # pipeline parameters: rejected before the first stage, from flags, a manifest or any
    # sweep value
    "pipeline parameter --phi 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--phi", "0"], "phi must be >= 1, got 0"),
    "pipeline parameter --sample 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--sample", "0"],
        "sample_fraction must be in (0, 1], got 0.0"),
    "pipeline parameter --sample 2": (
        ["pipeline", "--synthetic", "--counties", "3", "--sample", "2"],
        "sample_fraction must be in (0, 1], got 2.0"),
    "pipeline parameter --k-bar 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "0"],
        "k_bar must be finite and > 0, got 0.0"),
    "pipeline parameter --k-bar -3": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "-3"],
        "k_bar must be finite and > 0, got -3.0"),
    "pipeline parameter manifest k_bar 1e400": (
        ["pipeline", "--from-manifest", "{d}/k_bar_1e400.json"],
        "k_bar must be finite and > 0, got inf"),
    "pipeline parameter manifest mode": (
        ["pipeline", "--from-manifest", "{d}/mode_unknown.json"],
        "unknown exposure mode 'loudest_friend'"),
    "pipeline parameter manifest reps 10^20": (
        ["pipeline", "--from-manifest", "{d}/reps_10_20.json"], "out of memory", 3),
    "pipeline parameter sweep --vary sample --values 0.5,2": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "sample", "--values", "0.5,2"],
        "sample_fraction must be in (0, 1], got 2.0"),
    "pipeline parameter sweep --vary phi --values 1,0": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "phi", "--values", "1,0"],
        "phi must be >= 1, got 0"),
    "pipeline parameter sweep --vary k-bar --values 25,-1": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "k-bar", "--values", "25,-1"],
        "k_bar must be finite and > 0, got -1.0"),
    # ABM parameters: rejected before the first stage, from flags or from a manifest
    "ABM pipeline --gamma 2": (
        ["pipeline", "--synthetic", "--counties", "3", "--gamma", "2"],
        "gamma must be in [0, 1], got 2.0"),
    "ABM pipeline --reps 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--reps", "0"],
        "repetitions must be >= 1, got 0"),
    "ABM pipeline --steps 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--steps", "0"], "steps must be >= 1, got 0"),
    "ABM pipeline --initial-infected 0": (
        ["pipeline", "--synthetic", "--counties", "3", "--initial-infected", "0"],
        "initial_infected must be >= 1, got 0"),
    "ABM pipeline --p-m below --p-o": (
        ["pipeline", "--synthetic", "--counties", "3", "--p-m", "0.001"],
        "p_m (0.001) must be >= p_o (0.01)"),
    "ABM sweep --gamma 2": (
        ["sweep", "--synthetic", "--counties", "3", "--gamma", "2", "--vary", "phi",
         "--values", "1,2"],
        "gamma must be in [0, 1], got 2.0"),
    "ABM manifest gamma 2": (
        ["pipeline", "--from-manifest", "{d}/gamma_2.json"], "gamma must be in [0, 1], got 2.0"),
    "ABM manifest reps 0": (
        ["pipeline", "--from-manifest", "{d}/reps_0.json"], "repetitions must be >= 1, got 0"),
    "ABM manifest steps 0": (
        ["pipeline", "--from-manifest", "{d}/steps_0.json"], "steps must be >= 1, got 0"),
    "ABM manifest initial_infected 0": (
        ["pipeline", "--from-manifest", "{d}/initial_infected_0.json"],
        "initial_infected must be >= 1, got 0"),
    "ABM manifest p_m below p_o": (
        ["sweep", "--from-manifest", "{d}/p_m_below_p_o.json", "--vary", "phi", "--values", "1"],
        "p_m (0.001) must be >= p_o (0.01)"),
    # more edges than node pairs: rejected where the edge budget is computed, before any build
    "pipeline --k-bar 1e300": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "1e300"],
        "stage expected_edges: k_bar 1e+300 asks for more edges than 469 nodes have pairs", 3),
    # finite, but k_bar * N / 2 is not: rejected where the edge budget is computed
    "pipeline --k-bar 1e308": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "1e308"],
        "stage expected_edges: k_bar 1e+308 asks for more edges than 469 nodes have pairs", 3),
    "sweep --values 1e308 for k-bar": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "k-bar", "--values", "1e308"],
        "stage k_bar_1e+308/expected_edges: k_bar 1e+308 asks for more edges than", 3),
    "manifest k_bar 1e308": (
        ["pipeline", "--from-manifest", "{d}/k_bar_1e308.json"],
        "stage expected_edges: k_bar 1e+308 asks for more edges than", 3),
    # two ranges of 1001 values each: rejected before any cell is integrated
    "meanfield --grid 10^6 cells": (
        ["meanfield", "--sweep", "alpha=0:1:0.001", "--grid", "beta-o=0:1:0.001"], "cells"),
    # counts whose arrays NumPy refuses to shape: out of memory, as a MemoryError is; a
    # pipeline's counts are shaped before its first stage
    "meanfield --horizon 10^20": (
        ["meanfield", "--horizon", "100000000000000000000"], "stage integrate: out of memory", 3),
    "meanfield --horizon 2^62": (
        ["meanfield", "--horizon", "4611686018427387904"], "stage integrate: out of memory", 3),
    "pipeline --steps 10^20": (
        ["pipeline", "--synthetic", "--counties", "3", "--steps", "100000000000000000000"],
        "numeric failure: out of memory", 3),
    "pipeline --reps 10^20": (
        ["pipeline", "--synthetic", "--counties", "3", "--reps", "100000000000000000000"],
        "numeric failure: out of memory", 3),
    "sweep --reps 10^20": (
        ["sweep", "--synthetic", "--counties", "3", "--reps", "100000000000000000000",
         "--vary", "phi", "--values", "1,2"],
        "numeric failure: out of memory", 3),
    "pipeline --counties 10^20": (
        ["pipeline", "--synthetic", "--counties", "100000000000000000000"],
        "stage generate_scenario: out of memory", 3),
    "gen-scenario --counties 10^20": (
        ["gen-scenario", "--counties", "100000000000000000000"],
        "stage generate_scenario: out of memory", 3),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    argv, expected, *code = BAD_INPUTS[case]
    code = code[0] if code else 2
    _write_bad_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in argv]
    if argv[0] != "inspect":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: " if code == 2 else "numeric failure: ") and expected in last


def test_sweep_jobs_is_an_unknown_flag(tmp_path, capsys):
    # A sweep's rows fan out as its pipelines' work items; there is no --jobs.
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--synthetic", "--vary", "phi", "--values", "1", "--jobs", "2",
              "--out", str(tmp_path / "out")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 2" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def assert_runs_no_stage(tmp_path, capsys, case):
    argv, expected, *code = BAD_INPUTS[case]
    _write_bad_inputs(tmp_path)
    out = tmp_path / "out"
    code = code[0] if code else 2
    assert main([a.format(d=tmp_path) for a in argv] + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert expected in err
    assert not any(line.startswith("stage ") for line in err.splitlines())
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS if c.startswith("ABM ")])
def test_bad_abm_parameter_runs_no_stage(tmp_path, capsys, case):
    assert_runs_no_stage(tmp_path, capsys, case)


@pytest.mark.parametrize("case", [
    *(c for c in BAD_INPUTS if c.startswith("pipeline parameter ")),
    "pipeline --k-bar nan", "pipeline --k-bar inf", "sweep --values nan for k-bar",
    "manifest k_bar NaN", "pipeline --steps 10^20", "pipeline --reps 10^20", "sweep --reps 10^20",
])
def test_bad_pipeline_parameter_runs_no_stage(tmp_path, capsys, case):
    assert_runs_no_stage(tmp_path, capsys, case)


@pytest.mark.parametrize("command, flag, owner, name", [
    *(("pipeline", f, abm.AbmConfig, f) for f in ("p_o", "p_m", "gamma", "initial_infected",
                                                  "steps")),
    ("pipeline", "reps", abm.AbmConfig, "repetitions"),
    *(("meanfield", f, meanfield.MeanFieldParams, f) for f in ("lam", "mu", "alpha", "epsilon")),
])
def test_flag_defaults_are_the_dataclass_defaults(command, flag, owner, name):
    [default] = [f.default for f in dataclasses.fields(owner) if f.name == name]
    assert getattr(cli.build_parser().parse_args([command]), flag) == default


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS if "non-finite" in c])
def test_non_finite_scenario_config_warns_nothing(tmp_path, capsys, case):
    argv, expected = BAD_INPUTS[case]
    _write_bad_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert expected in capsys.readouterr().err


# Header fields of contactnet.bin, in _HEADER order: node count, edge count,
# k_bar, seed, county count, county run count, high word count.
_HEADER_FIELDS = (
    st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.floats(),
    st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


@st.composite
def truncated_or_flipped(draw, data: bytes) -> bytes:
    """`data` cut short, or with one to four of its bytes changed."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for at, mask in draw(st.lists(
            st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
            min_size=1, max_size=4)):
        out[at] ^= mask
    return bytes(out)


@st.composite
def corrupted_contactnet(draw, data: bytes) -> bytes:
    """`data` truncated, byte-flipped, with header fields edited, or with
    small node, edge, county, county run and high word counts, each as often
    the file's own, and a body cut or zero-padded to the size they declare (so
    the file passes the size check, and its words are read)."""
    start = len(contactnet.MAGIC)
    end = start + contactnet._HEADER.size
    fields = list(contactnet._HEADER.unpack(data[start:end]))
    body = data[end:]
    counts = (0, 1, 4, 5, 6)  # the fields a resize draws: n, m, counties, county runs, high words

    def body_size(n, m, n_counties, n_runs, n_high):
        """SMIRCNET4: county ids, county runs (index, length), label bits, a degree word
        per node, a gap word per edge, and the high words."""
        return 8 * n_counties + 8 * n_runs + (n + 7) // 8 + 2 * n + 2 * m + 2 * n_high

    assert body_size(*(fields[i] for i in counts)) == len(body), "the layout changed"
    kind = draw(st.sampled_from(["bytes", "header", "resize"]))
    if kind == "bytes":
        return draw(truncated_or_flipped(data))
    if kind == "header":
        for i in draw(st.lists(st.integers(0, len(fields) - 1), min_size=1, max_size=3)):
            fields[i] = draw(_HEADER_FIELDS[i])
    else:
        for i in counts:
            fields[i] = draw(st.just(fields[i]) | st.integers(0, 4))
        size = body_size(*(fields[i] for i in counts))
        body = body[:size].ljust(size, b"\0")
    return data[:start] + contactnet._HEADER.pack(*fields) + body


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_inspect_corrupt_contactnet_never_tracebacks(tmp_path, data):
    path = tmp_path / "net.bin"
    path.write_bytes(data.draw(corrupted_contactnet(_small_contactnet_bytes(path))))
    assert_exits_cleanly(["inspect", str(path)])


@pytest.fixture(scope="module")
def text_artifacts(tmp_path_factory):
    """result.csv, counties.csv, mobility.csv and manifest.json of a small
    synthetic pipeline, as bytes by file name."""
    out = tmp_path_factory.mktemp("text_artifacts")
    assert run_cli("pipeline", "--synthetic", "--counties", "3", "--reps", "1", "--steps", "2",
                   "--initial-infected", "1", "--out", str(out)) == 0
    return {name: (out / name).read_bytes()
            for name in ("result.csv", "counties.csv", "mobility.csv", "manifest.json")}


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_inspect_corrupt_text_artifact_never_tracebacks(tmp_path, text_artifacts, data):
    # counties.csv is inspected as a scenario, with its sibling mobility.csv.
    (tmp_path / "mobility.csv").write_bytes(text_artifacts["mobility.csv"])
    name = data.draw(st.sampled_from(["result.csv", "counties.csv", "manifest.json"]))
    path = tmp_path / name
    path.write_bytes(data.draw(truncated_or_flipped(text_artifacts[name])))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["inspect", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def assert_exits_cleanly(argv):
    """`main(argv)` ends in exit 0, 2 or 3; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# A small pipeline that runs through the ABM on the three-county scenario.
SMALL_PIPELINE = ["--reps", "1", "--steps", "2", "--initial-infected", "1"]


@pytest.fixture(scope="module")
def three_counties(tmp_path_factory):
    """The scenario files of `gen-scenario --counties 3` and the manifest of a
    small synthetic pipeline on it, as bytes by file name."""
    out = tmp_path_factory.mktemp("three_counties")
    assert run_cli("gen-scenario", "--counties", "3", "--out", str(out / "scenario")) == 0
    assert run_cli("pipeline", "--synthetic", "--counties", "3", *SMALL_PIPELINE,
                   "--out", str(out / "run")) == 0
    files = {name: (out / "scenario" / name).read_bytes() for name in SCENARIO_FILES}
    return {**files, "manifest.json": (out / "run" / "manifest.json").read_bytes()}


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_on_corrupt_scenario_never_tracebacks(tmp_path, three_counties, data):
    scen = tmp_path / "scenario"
    scen.mkdir(exist_ok=True)
    corrupt = data.draw(st.sampled_from(SCENARIO_FILES))
    for name in SCENARIO_FILES:
        text = three_counties[name]
        (scen / name).write_bytes(data.draw(truncated_or_flipped(text)) if name == corrupt else text)
    assert_exits_cleanly(["pipeline", "--scenario-dir", str(scen), *SMALL_PIPELINE,
                          "--out", str(tmp_path / "out")])


# JSON values a manifest parameter may be replaced with.
JSON_VALUES = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4)
               | st.lists(st.integers(0, 3), max_size=2))


@st.composite
def corrupted_manifest(draw, data: bytes) -> bytes:
    """The manifest `data` truncated or byte-flipped, or with one to three of
    its parameters given other JSON values."""
    if draw(st.booleans()):
        return draw(truncated_or_flipped(data))
    manifest = json.loads(data)
    params = manifest["parameters"]
    for key in draw(st.lists(st.sampled_from(sorted(params)), min_size=1, max_size=3)):
        params[key] = draw(JSON_VALUES)
    return json.dumps(manifest).encode()


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_from_corrupt_manifest_never_tracebacks(tmp_path, three_counties, data):
    path = tmp_path / "manifest.json"
    path.write_bytes(data.draw(corrupted_manifest(three_counties["manifest.json"])))
    assert_exits_cleanly(["pipeline", "--from-manifest", str(path), "--out", str(tmp_path / "out")])


# Values a meanfield flag or range bound may take: half of the draws valid
# for most flags, half out of range, tiny, huge or non-finite.
FUZZ_VALID = ("0.25", "0.5", "0.75", "1", "2")
FUZZ_ODD = ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf")
fuzz_number = st.sampled_from(FUZZ_VALID) | st.sampled_from(FUZZ_ODD)
MEANFIELD_FLAGS = ("--beta-o", "--gamma", "--lambda", "--mu", "--alpha", "--epsilon", "--dt")


@st.composite
def range_spec(draw, names) -> str:
    """A --sweep/--grid value: a name (mostly one of `names`) and either an
    ordered START:STOP:STEP or one to four arbitrary parts."""
    name = draw(st.sampled_from(names) | st.sampled_from(["lambda", "tau", "gamma", ""]))
    if draw(st.booleans()):
        start, stop = sorted(draw(st.lists(st.sampled_from(FUZZ_VALID), min_size=2, max_size=2)),
                             key=float)
        parts = [start, stop, draw(st.sampled_from(FUZZ_VALID))]
    else:
        parts = draw(st.lists(fuzz_number | st.just("x"), min_size=1, max_size=4))
    return f"{name}={':'.join(parts)}"


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_meanfield_flag_values_never_traceback(tmp_path, data):
    argv = ["meanfield", "--horizon", str(data.draw(st.integers(-1, 5))),
            "--method", data.draw(st.sampled_from(["euler", "rk4"]))]
    for flag in data.draw(st.lists(st.sampled_from(MEANFIELD_FLAGS), max_size=3, unique=True)):
        argv.append(f"{flag}={data.draw(fuzz_number)}")  # "--x -inf" would read as two flags
    mode = data.draw(st.sampled_from(["single", "sweep", "grid"]))
    if mode == "sweep":
        argv.append(f"--sweep={data.draw(range_spec(['lambda', 'alpha', 'beta-o', 'tau']))}")
    if mode == "grid":
        argv.append(f"--sweep={data.draw(range_spec(['alpha']))}")
        argv.append(f"--grid={data.draw(range_spec(['beta-o']))}")
    if data.draw(st.booleans()):
        argv.append("--svg")
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


# Values a pipeline flag may take: valid, out of range or non-finite, all
# small enough that a run on three counties ends within a second.
PIPELINE_FLAG_VALUES = {
    "--sample": ("0.05", "1", "0", "-0.5", "2", "1e-300", "nan", "inf"),
    "--k-bar": ("3", "10", "0", "-1", "1e6", "1e300", "nan", "inf", "-inf"),
    "--p-o": ("0", "0.01", "1", "-0.1", "1.5", "nan", "inf"),
    "--p-m": ("0", "0.5", "1", "-0.1", "1.5", "nan", "-inf"),
    "--gamma": ("0", "0.2", "1", "-0.1", "1.5", "nan", "inf"),
    "--steps": ("-1", "0", "1", "3"),
    "--reps": ("-1", "0", "1", "2"),
    "--phi": ("-1", "0", "1", "2", "1000000"),
    "--initial-infected": ("-1", "0", "1", "5", "1000000"),
}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_flag_values_never_traceback(tmp_path, three_counties, data):
    scen = tmp_path / "scenario"
    if not scen.exists():
        scen.mkdir()
        for name in SCENARIO_FILES:
            (scen / name).write_bytes(three_counties[name])
    argv = ["pipeline", "--scenario-dir", str(scen), *SMALL_PIPELINE]
    for flag in data.draw(st.lists(st.sampled_from(sorted(PIPELINE_FLAG_VALUES)), min_size=1,
                                   max_size=4, unique=True)):
        argv.append(f"{flag}={data.draw(st.sampled_from(PIPELINE_FLAG_VALUES[flag]))}")
    if data.draw(st.booleans()):
        argv.append("--regen-network")
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


# --k-bar and --sample values at the ends of the float range and of each check (k_bar finite
# and > 0, sample in (0, 1]), with a usual value of each.
EXTREME_VALUES = ("1e308", "-1e308", "1.7976931348623157e308", "5e-324", "-0.0", "0", "1",
                  "1.0000000000000002", str(2**63), "inf", "0.05", "10")


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_extreme_k_bar_and_sample_never_traceback(tmp_path, data):
    value = st.sampled_from(EXTREME_VALUES)
    command = data.draw(st.sampled_from(["pipeline", "sweep"]))
    argv = [command, "--synthetic", "--counties", "3", "--steps", "1", "--reps", "1",
            "--initial-infected", "1"]
    for flag in data.draw(st.lists(st.sampled_from(["--k-bar", "--sample"]), unique=True)):
        argv.append(f"{flag}={data.draw(value)}")  # "--x -0.0" would read as two flags
    if command == "sweep":
        values = data.draw(st.lists(value, min_size=1, max_size=2, unique=True))
        argv += ["--vary", data.draw(st.sampled_from(["k-bar", "sample"])),
                 f"--values={','.join(values)}"]
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


# Every other numeric flag and every scenario config key, at the ends of the float and int
# ranges, the smallest subnormal, -0.0 and the edges of each check, with usual values. Counts
# that size a run (steps, repetitions, counties, accounts) take no value between 2 and 2^63 - 1,
# which could shape arrays that fit in memory but take long to fill.
EXTREME_FLOATS = ("1e308", "-1e308", "5e-324", "-5e-324", "-0.0", "0", "1", "0.9999999999999999",
                  "1.0000000000000002", str(2**63), str(2**64), "0.05", "2")
EXTREME_SIZES = ("-1", "0", "1", "2", str(2**63 - 1), str(2**63), str(2**64))
EXTREME_INTS = (*EXTREME_SIZES, str(2**31), str(2**32))
PIPELINE_NUMBERS = {
    **{flag: EXTREME_FLOATS for flag in ("--sample", "--k-bar", "--p-o", "--p-m", "--gamma")},
    **{flag: EXTREME_INTS for flag in ("--phi", "--initial-infected", "--seed")},
    **{flag: EXTREME_SIZES for flag in ("--steps", "--reps", "--counties")},
}
MEANFIELD_NUMBERS = {
    **{flag: EXTREME_FLOATS
       for flag in ("--beta-o", "--gamma", "--lambda", "--mu", "--alpha", "--epsilon", "--dt")},
    "--horizon": EXTREME_SIZES,
}
SCENARIO_KEYS = {f.name: EXTREME_SIZES if f.type == "int" else EXTREME_FLOATS
                 for f in dataclasses.fields(scenario.ScenarioConfig) if f.name != "seed"}


def _numbers(data, table, at_most) -> list[str]:
    """One to `at_most` of `table`'s flags, each with one of its values."""
    flags = data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=at_most,
                               unique=True))
    return [f"{flag}={data.draw(st.sampled_from(table[flag]))}" for flag in flags]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_extreme_pipeline_and_sweep_numbers_never_traceback(tmp_path, data):
    command = data.draw(st.sampled_from(["pipeline", "sweep"]))
    argv = [command, "--synthetic", "--counties", "3", "--steps", "1", "--reps", "1",
            "--initial-infected", "1", *_numbers(data, PIPELINE_NUMBERS, 3)]
    if command == "sweep":
        vary = data.draw(st.sampled_from(["phi", "k-bar", "sample"]))
        values = st.sampled_from(EXTREME_INTS if vary == "phi" else EXTREME_FLOATS)
        argv += ["--vary", vary,
                 f"--values={','.join(data.draw(st.lists(values, min_size=1, max_size=2)))}"]
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_extreme_meanfield_numbers_never_traceback(tmp_path, data):
    argv = ["meanfield", "--horizon", "3", *_numbers(data, MEANFIELD_NUMBERS, 3)]
    if data.draw(st.booleans()):
        argv.append("--sweep=lambda=1:2:0.5")
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_extreme_scenario_config_never_traceback(tmp_path, data):
    lines = ["county_count = 3"] + [
        f"{key} = {data.draw(st.sampled_from(SCENARIO_KEYS[key]))}" for key in data.draw(
            st.lists(st.sampled_from(sorted(SCENARIO_KEYS)), min_size=1, max_size=3, unique=True))]
    config = tmp_path / "config.txt"
    config.write_text("\n".join(lines) + "\n")  # a key given twice keeps its last value
    assert_exits_cleanly(["pipeline", "--synthetic", "--scenario-config", str(config),
                          "--steps", "1", "--reps", "1", "--initial-infected", "1",
                          "--out", str(tmp_path / "out")])
