"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

ALL_SUBCOMMANDS = [
    "fig5", "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "all", "trace",
    "analyze", "bench", "tune", "faults", "monitor",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig7_channel_choices(self):
        assert build_parser().parse_args(["fig7", "--channels", "91"]).channels == 91
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--channels", "50"])

    @pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
    def test_every_subcommand_has_help(self, command, capsys):
        """`repro <cmd> --help` exits 0 and prints a usage line."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert f"repro {command}" in capsys.readouterr().out

    def test_every_subcommand_dispatches_to_its_own_function(self):
        import repro.cli as cli

        commands = build_parser()._subparsers._group_actions[0].choices
        assert sorted(f"_cmd_{name}" for name in commands) == sorted(
            name for name in vars(cli) if name.startswith("_cmd_"))

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert (args.gpus, args.gpus_per_node) == (16, 8)
        assert (args.tp, args.fsdp, args.ddp) == (4, 2, 2)
        assert args.no_prefetch is False


class TestAnalyticCommands:
    """The analytic commands run in well under a second."""

    def test_fig5(self, capsys):
        assert main(["fig5", "--max-gpus", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5" in out and "hybrid_stop" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "OOM" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "Fig 6" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7", "--channels", "91"]) == 0
        assert "91 channels" in capsys.readouterr().out


class TestTrainingCommands:
    def test_fig8_small(self, capsys):
        assert main(["fig8", "--steps", "4"]) == 0
        assert "Fig 8" in capsys.readouterr().out


class TestAllCommand:
    def test_writes_every_analytic_table(self, tmp_path, capsys):
        assert main(["all", "--out", str(tmp_path / "results")]) == 0
        written = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert written == ["fig5.txt", "fig6.txt", "fig7_48ch.txt", "fig7_91ch.txt", "table1.txt"]
        assert "Table I" in (tmp_path / "results" / "table1.txt").read_text()


class TestTraceCommand:
    def test_small_trace_run(self, tmp_path, capsys):
        """A minimal 4-GCD traced step: report on stdout, artifacts on disk."""
        out = tmp_path / "trace"
        assert main([
            "trace", "--gpus", "4", "--gpus-per-node", "4",
            "--tp", "2", "--fsdp", "2", "--ddp", "1",
            "--micro-batch", "1", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "Per-rank time breakdown" in stdout
        assert "exposed-comm ratio" in stdout
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        assert "walltime" in (out / "report.txt").read_text()

    def test_no_prefetch_flag(self, tmp_path, capsys):
        assert main([
            "trace", "--gpus", "4", "--gpus-per-node", "4",
            "--tp", "2", "--fsdp", "2", "--ddp", "1",
            "--micro-batch", "1", "--no-prefetch", "--out", str(tmp_path / "t"),
        ]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_multi_step_trace(self, tmp_path, capsys):
        assert main([
            "trace", "--gpus", "4", "--gpus-per-node", "4",
            "--tp", "2", "--fsdp", "2", "--ddp", "1",
            "--micro-batch", "1", "--steps", "3", "--out", str(tmp_path / "t"),
        ]) == 0
        events = json.loads((tmp_path / "t" / "trace_events.json").read_text())
        scopes = {span["scope"].split("/", 1)[0] for span in events["spans"]}
        assert {"step.0", "step.1", "step.2"} <= scopes

    def test_invalid_topology_exits_nonzero(self, capsys):
        assert main(["trace", "--gpus", "16", "--tp", "3"]) == 2
        err = capsys.readouterr().err
        assert "invalid topology" in err
        assert "3" in err and "16" in err

    def test_invalid_node_shape_exits_nonzero(self, capsys):
        assert main(["trace", "--gpus", "4", "--gpus-per-node", "8",
                     "--tp", "2", "--fsdp", "2", "--ddp", "1"]) == 2
        assert "invalid topology" in capsys.readouterr().err

    def test_invalid_steps_exits_nonzero(self, capsys):
        assert main(["trace", "--gpus", "4", "--gpus-per-node", "4",
                     "--tp", "2", "--fsdp", "2", "--ddp", "1",
                     "--steps", "0"]) == 2
        assert "--steps" in capsys.readouterr().err

    def test_invalid_gpus_per_node_names_the_flag(self, capsys):
        assert main(["trace", "--gpus-per-node", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid --gpus-per-node 0: must be at least 1\n"


class TestAnalyzeCommand:
    TOPOLOGY = ["--gpus", "4", "--gpus-per-node", "4",
                "--tp", "2", "--fsdp", "2", "--ddp", "1", "--micro-batch", "1"]

    def test_fresh_run_names_bound_resource(self, capsys):
        assert main(["analyze", *self.TOPOLOGY]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "bound resource:" in out
        assert "health:" in out

    def test_straggler_injection_surfaces_finding(self, capsys):
        assert main(["analyze", *self.TOPOLOGY, "--skew", "2=50000"]) == 0
        out = capsys.readouterr().out
        assert "straggler" in out
        assert "rank 2" in out

    def test_offline_trace_file(self, tmp_path, capsys):
        assert main(["trace", *self.TOPOLOGY, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--trace", str(tmp_path / "trace_events.json")]) == 0
        assert "bound resource:" in capsys.readouterr().out

    def test_invalid_topology_exits_nonzero(self, capsys):
        assert main(["analyze", "--gpus", "16", "--fsdp", "5"]) == 2
        assert "invalid topology" in capsys.readouterr().err

    def test_unusable_trace_file_exits_2_with_the_reason(self, tmp_path, capsys):
        """No traceback for a torn, wrong or missing ``--trace`` file."""
        torn = tmp_path / "torn.json"
        torn.write_text('{"spans": [{"kind": "compute", "na')
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"spans": [
            {"kind": "bogus", "name": "x", "rank": 0, "t0": 0.0, "dur": 1.0},
        ]}))
        for path, reason in ((torn, "not valid JSON"),
                             (bogus, "spans[0]: unknown span kind 'bogus'"),
                             (tmp_path / "absent.json", "No such file")):
            assert main(["analyze", "--trace", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(path) in captured.err and reason in captured.err

    def test_bad_skew_rejected(self, capsys):
        assert main(["analyze", *self.TOPOLOGY, "--skew", "nonsense"]) == 2
        assert "invalid --skew 'nonsense'" in capsys.readouterr().err


class TestSkewFlag:
    """``--skew`` is validated by the spec it goes into, for every
    command that takes it: a hostile value exits 2 with one stderr line
    naming the flag and nothing on stdout."""

    TOPOLOGY = TestAnalyzeCommand.TOPOLOGY
    COMMANDS = {
        "trace": [],
        "analyze": [],
        "faults": ["--random", "7", "--count", "2", "--checkpoint-every", "0"],
        "monitor": [],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("skew", ["abc", "3=0", "3=-1", "99=2.0", "3=nan", "3=inf"])
    def test_hostile_skew_exits_2_naming_the_flag(self, command, skew, capsys):
        argv = [command, *self.TOPOLOGY, *self.COMMANDS[command], "--skew", skew]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--skew" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_valid_skew_still_runs(self, command, tmp_path, capsys):
        outputs = {"trace": ["--out", str(tmp_path)],
                   "faults": ["--checkpoint-dir", str(tmp_path)]}
        argv = [command, *self.TOPOLOGY, *self.COMMANDS[command],
                *outputs.get(command, []), "--skew", "3=2.0"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestTuneCommand:
    def test_help_shows_worked_examples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["tune", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "examples:" in out
        assert "repro tune --model orbit-1b" in out

    def test_search_prints_winner_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "tune_report.json"
        code = main([
            "tune", "--micro-batches", "2", "--top-k", "1",
            "--out", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Winner:" in out
        assert "Why configurations were pruned" in out
        doc = json.loads(report.read_text())
        assert doc["winner"]["simulated"]["step_time_s"] > 0

    def test_cache_file_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "tune_cache.json"
        argv = ["tune", "--micro-batches", "2", "--top-k", "1",
                "--cache", str(cache)]
        assert main(argv) == 0
        assert "cache: 0 hits / 1 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache: 1 hits / 0 misses" in capsys.readouterr().out

    @pytest.mark.parametrize("text, complaint", [
        ('{"schema": 2, "entries": {"k": {"step_ti', "not valid JSON"),
        ("[]", "expected a JSON object, found list"),
        ('{"schema": 2, "entries": {"k": {"time_per_obs_s": 1.0}}}',
         "entry 'k' has no 'step_time_s'"),
    ], ids=["torn", "list", "missing-field"])
    def test_unusable_cache_file_exits_2_with_stderr(self, tmp_path, capsys,
                                                     text, complaint):
        cache = tmp_path / "tune_cache.json"
        cache.write_text(text)
        code = main(["tune", "--micro-batches", "2", "--top-k", "1",
                     "--cache", str(cache)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cache) in captured.err and complaint in captured.err
        assert "Traceback" not in captured.err
        assert cache.read_text() == text  # left for the user to inspect

    def test_infeasible_request_exits_2_with_stderr(self, capsys):
        # 113B cannot fit on a single node under any factorization.
        code = main(["tune", "--model", "orbit-113b", "--gpus", "8"])
        assert code == 2
        captured = capsys.readouterr()
        assert "exceed device memory" in captured.err
        assert captured.out == ""

    def test_invalid_request_exits_2_with_stderr(self, capsys):
        assert main(["tune", "--gpus", "12"]) == 2
        assert "invalid request" in capsys.readouterr().err
        assert main(["tune", "--micro-batches", "two"]) == 2
        assert "invalid request" in capsys.readouterr().err
        assert main(["tune", "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err


class TestBenchCommand:
    def test_quick_run_writes_and_self_checks(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_obs.json"
        assert main(["bench", "--quick", "--out", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["bench", "--quick", "--check",
                     "--baseline", str(baseline)]) == 0
        assert "bench regression gate OK" in capsys.readouterr().out

    def test_drift_fails_the_gate(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_obs.json"
        assert main(["bench", "--quick", "--out", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        name = next(iter(doc["cases"]))
        doc["cases"][name]["step_time_s"] *= 1.5
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "--quick", "--check",
                     "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "DRIFT" in err and "step_time_s" in err

    def test_timeseries_flag_writes_per_case_artifacts(self, tmp_path, capsys):
        ts_dir = tmp_path / "ts"
        assert main(["bench", "--quick", "--timeseries", str(ts_dir)]) == 0
        written = sorted(p.name for p in ts_dir.iterdir())
        assert written and all(n.endswith("_timeseries.jsonl") for n in written)
        from repro.obs import load_timeseries

        doc = load_timeseries(ts_dir / written[0])
        assert "step.time_s" in doc["series"]


#: name -> (file content or None for "no such file", what the message says).
UNUSABLE_BASELINES = {
    "missing": (None, "No such file"),
    "torn": ('{"schema": 1, "cases": {"orbit-115m-', "not valid JSON"),
    "not-an-object": ("[1, 2, 3]", "expected a JSON object, found list"),
    "other-schema": ('{"schema": 99, "cases": {}}', "schema 99"),
    # The right schema, a body the gate cannot read (bench and serve
    # read different metrics; each of these fails both).
    "cases-not-an-object": ('{"schema": 1, "cases": [1]}',
                            "'list' object has no attribute 'items'"),
    "non-numeric-metric": (
        json.dumps({"schema": 1, "cases": {"c": dict.fromkeys(
            ("step_time_s", "peak_memory_bytes", "exposed_comm_fraction",
             "latency_p50_s", "latency_p99_s", "throughput_rps",
             "makespan_s", "cache_hit_ratio", "utilization"), "x")}}),
        "TypeError: unsupported operand type"),
    "missing-metric": ('{"schema": 1, "cases": {"c": {"offered": 1}}}',
                       "KeyError: '"),
}


class TestUnusableBaseline:
    """``--check`` reads ``--baseline`` before the matrix runs; a file it
    cannot compare against is one stderr line and exit 2."""

    @pytest.mark.parametrize("command", ["bench", "serve"])
    @pytest.mark.parametrize("problem", sorted(UNUSABLE_BASELINES))
    def test_exits_2_naming_the_path_and_the_problem(
            self, command, problem, tmp_path, capsys, monkeypatch):
        content, complaint = UNUSABLE_BASELINES[problem]
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        ran = []
        monkeypatch.setattr("repro.bench.run_matrix",
                            lambda **kwargs: ran.append(kwargs))
        monkeypatch.setattr("repro.serve.bench.run_serve_matrix",
                            lambda **kwargs: ran.append(kwargs))
        assert main([command, "--quick", "--check",
                     "--baseline", str(baseline)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {command}: baseline {baseline}")
        assert complaint in captured.err and captured.err.count("\n") == 1
        assert ran == []  # the matrix never started

    @pytest.mark.parametrize("command", ["bench", "serve"])
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5"])
    def test_a_tolerance_no_drift_can_exceed_exits_2(
            self, command, tolerance, capsys, monkeypatch):
        """A NaN or infinite --tolerance would pass any baseline, and a
        negative one fail every metric."""
        ran = []
        monkeypatch.setattr("repro.bench.run_matrix",
                            lambda **kwargs: ran.append(kwargs))
        monkeypatch.setattr("repro.serve.bench.run_serve_matrix",
                            lambda **kwargs: ran.append(kwargs))
        assert main([command, "--quick", "--check",
                     "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"repro {command}: --tolerance {float(tolerance)}")
        assert ran == []


BAD_FLAGS = [
    ("fig5", "--max-gpus", "0"),
    ("fig6", "--gpus", "7"),
    ("fig6", "--gpus", "0"),
    ("fig8", "--steps", "0"),
    ("fig9", "--finetune-steps", "0"),
    ("crossover", "--pp", "x"),
    ("crossover", "--pp", "0"),
    ("crossover", "--micro-batch", "0"),
    ("crossover", "--gpus", "7"),
    ("crossover", "--gpus", "4"),
    ("crossover", "--micro-batch", "1000"),
    ("fig8", "--seed", "-1"),
    ("fig9", "--seed", "-1"),
    ("fig10", "--seed", "-1"),
]


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS)
def test_a_bad_figure_flag_exits_2_naming_it(command, flag, value, capsys):
    assert main([command, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"repro {command}: ")
    assert f"{flag} {value}" in captured.err or f"{flag} {value!r}" in captured.err


BAD_RUN_FLAGS = [
    # Checked before the matrix or search runs (bench/tune) ...
    (["bench", "--quick", "--mtbf", "nan"], "--mtbf nan must be finite and > 0"),
    (["bench", "--quick", "--mtbf", "0"], "--mtbf 0.0 must be finite and > 0"),
    (["bench", "--quick", "--mtbf", "1", "--checkpoint-cost", "-1"],
     "--checkpoint-cost -1.0 must be finite and >= 0"),
    (["bench", "--quick", "--mtbf", "1", "--restart-latency", "inf"],
     "--restart-latency inf must be finite and >= 0"),
    (["tune", "--mtbf", "-5"], "--mtbf -5.0 must be finite and > 0"),
    (["tune", "--mtbf", "1", "--checkpoint-cost", "nan"],
     "--checkpoint-cost nan must be finite and >= 0"),
    # ... before the served session is built (serve) ...
    (["serve", "--smoke", "--window-ms", "nan"],
     "invalid serve batch_window_s nan: must be finite"),
    (["serve", "--smoke", "--rate", "nan"], "invalid load: rate_rps nan must be finite"),
    (["serve", "--smoke", "--max-batch", "0"], "invalid serve max_batch 0: must be >= 1"),
    (["serve", "--smoke", "--window-ms", "-1"],
     "invalid serve batch_window_s -0.001: must be >= 0"),
    # ... and by the Supervisor's constructor, before step 0 (replan).
    (["replan", "--warmup", "nan", "--steps", "2"],
     "replan_warmup_s nan must be finite and non-negative"),
    (["replan", "--hysteresis", "nan", "--steps", "2"],
     "replan_hysteresis nan must be finite and non-negative"),
    (["replan", "--checkpoint-cost", "-1", "--steps", "2"],
     "checkpoint_cost_s -1.0 must be finite and non-negative"),
    # A negative load seed is rejected by LoadSpec before serve builds anything.
    (["serve", "--smoke", "--load-seed", "-1"],
     "invalid load: --load-seed -1 must be non-negative"),
    # A negative injection count names --count, not the plan's other inputs.
    (["faults", "--random", "7", "--count", "-2"],
     "invalid plan: --count -2 must be non-negative"),
    (["monitor", "--random", "7", "--count", "-2"],
     "invalid plan: --count -2 must be non-negative"),
    # A world of less than one node fails the whole-node rule RunSpec
    # applies, not the validation step after the search.
    (["tune", "--gpus", "4"],
     "invalid request: invalid topology: --gpus 4 is not a whole number "
     "of 8-GCD nodes"),
    # RunSpec's field names are spelled as the flags that set them.
    (["replan", "--steps", "0"], "invalid --steps 0: must be at least 1"),
    # A repeated list value would score its candidates twice.
    (["tune", "--micro-batches", "2,2"],
     "invalid request: --micro-batches 2,2 repeats a value"),
    (["crossover", "--pp", "1,2,2"], "--pp 1,2,2 repeats a value"),
]


@pytest.mark.parametrize("argv,message", BAD_RUN_FLAGS)
def test_a_bad_run_flag_exits_2_before_any_work(argv, message, capsys, monkeypatch):
    """Not after the work is done, and not with a traceback or a hang."""
    ran = []
    for target in ("repro.bench.run_matrix", "repro.tune.run_search",
                   "repro.runtime.Session"):
        monkeypatch.setattr(target, lambda *a, **k: ran.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == f"repro {argv[0]}: {message}\n"
    assert ran == []


@pytest.mark.parametrize("argv", [
    ["trace"], ["analyze"], ["monitor"], ["faults", "--random", "1"],
    ["serve", "--smoke"],
])
def test_a_negative_seed_exits_2_before_any_work(argv, capsys, monkeypatch):
    """The spec rejects it; NumPy would only once a generator is built."""
    ran = []
    monkeypatch.setattr("repro.runtime.Session", lambda *a, **k: ran.append(a))
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid --seed -1: must be non-negative\n"
    assert ran == []


class TestMonitorCommand:
    PLAN = str(__import__("pathlib").Path("examples/fault_plan.json"))

    def test_clean_run_exits_zero_with_summary(self, capsys):
        assert main(["monitor", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "run/start" in out and "run/end" in out  # live tail
        assert "step.time_s" in out                     # summary table
        assert "alerts: 0 warning, 0 critical" in out

    def test_fault_plan_with_critical_alert_exits_one(self, capsys):
        # The tiny trace model's steps are milliseconds, so the example
        # plan's retry/restart costs push goodput.fraction into a
        # sustained critical alert.
        assert main(["monitor", "--plan", self.PLAN, "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "critical" in out

    def test_out_writes_loadable_byte_identical_artifacts(self, tmp_path, capsys):
        from repro.obs import load_journal, load_timeseries

        first = tmp_path / "a"
        second = tmp_path / "b"
        for out_dir in (first, second):
            main(["monitor", "--plan", self.PLAN, "--quiet",
                  "--out", str(out_dir)])
            capsys.readouterr()
        events = load_journal(first / "journal.jsonl")
        assert events and events[0].kind == "run"
        load_timeseries(first / "timeseries.jsonl")
        assert (first / "journal.jsonl").read_bytes() == \
            (second / "journal.jsonl").read_bytes()
        assert (first / "timeseries.jsonl").read_bytes() == \
            (second / "timeseries.jsonl").read_bytes()

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["monitor", "--steps", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alerts"] == {"warning": 0, "critical": 0}
        assert {"journal", "journal_summary", "timeseries", "rules"} <= set(doc)

    def test_invalid_topology_exits_two(self, capsys):
        assert main(["monitor", "--tp", "3"]) == 2
        assert "--gpus" in capsys.readouterr().err

    def test_invalid_plan_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["monitor", "--plan", str(missing)]) == 2
        assert "invalid plan" in capsys.readouterr().err

    def test_plan_and_random_are_mutually_exclusive(self, capsys):
        assert main(["monitor", "--plan", self.PLAN, "--random", "7"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestReplanCompare:
    """The demo straggler plus one fault: both runs commit the same
    steps, and replan=on finishes them sooner.  Its goodput fraction
    can still be the lower one (a fixed fault cost weighs more against
    its faster plan's useful seconds), so the verdict is walltime."""

    @pytest.mark.parametrize("fault", [
        {"kind": "gpu_crash", "step": 3, "rank": 5},
        {"kind": "collective_timeout", "step": 4, "rank": 3},
        {"kind": "node_loss", "step": 4, "rank": 9},
    ], ids=lambda fault: fault["kind"])
    def test_a_fault_on_top_of_the_demo_is_still_a_win(self, fault, tmp_path,
                                                       capsys):
        demo = json.load(open("examples/replan_straggler.json"))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(dict(demo, faults=[*demo["faults"], fault])))
        assert main(["replan", "--quiet", "--compare", "--plan", str(plan)]) == 0
        out = capsys.readouterr()
        on, off = out.out.splitlines()[:2]
        assert on.startswith("replan=on : 16 step(s)")
        assert off.startswith("replan=off: 16 step(s)")
        assert "no faster" not in out.err


def test_replan_without_flags_runs_the_scenario(tmp_path, capsys):
    """``repro replan`` is ``repro.replan.scenario``'s demo, the run the
    ``supervised-replan`` bench and ``benchmarks/test_replan_demo.py``
    time: the same journal, byte for byte."""
    from repro.faults import Supervisor
    from repro.obs import RunMonitor
    from repro.replan.scenario import (
        DEMO_STEPS,
        DEMO_SUPERVISOR_KWARGS,
        demo_plan,
        demo_spec,
    )

    assert main(["replan", "--quiet", "--out", str(tmp_path / "cli")]) == 0
    monitor = RunMonitor()
    Supervisor(demo_spec(), demo_plan(), checkpoint_dir=tmp_path / "ckpt",
               session_kwargs={"monitor": monitor},
               **DEMO_SUPERVISOR_KWARGS).run(DEMO_STEPS)
    journal = (tmp_path / "cli" / "journal.jsonl").read_text()
    assert journal == monitor.journal.to_jsonl()
