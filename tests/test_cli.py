"""CLI smoke and contract tests."""

import math

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.tree == "random" and args.n == 10 and args.k == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["explore", "--tree", "path", "--n", "3", "--variant", "naive",
         "--max-depth", "4", "--steps", "7"],
        ["fuzz", "--tree", "path", "--n", "4", "--walks", "2", "--depth",
         "20", "--steps", "3"],
    ], ids=["explore", "fuzz"])
    def test_steps_rejected_where_unread(self, capsys, argv):
        """``--steps`` belongs to the commands that measure steps (demo,
        converge, wait, sweep); a campaign that would ignore it rejects
        it."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --steps" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--experiment", "converge", "--tree", "path", "--sizes",
         "4", "--seeds", "1"],
        ["fuzz", "--tree", "path", "--n", "4", "--walks", "2", "--depth",
         "20"],
        ["explore", "--tree", "path", "--n", "3", "--variant", "naive",
         "--max-depth", "4"],
    ], ids=["sweep", "fuzz", "explore"])
    def test_workers_below_one_rejected_while_parsing(self, capsys, argv,
                                                      workers):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --workers: expected an integer >= 1, got "
                f"'{workers}'") in err

    @pytest.mark.parametrize("argv, flag, value, low", [
        (["sweep", "--experiment", "converge", "--tree", "path", "--sizes",
          "4", "--steps", "1000"], "--seeds", "0", 1),
        (["fuzz", "--tree", "path", "--n", "4", "--depth", "20"],
         "--walks", "0", 1),
        (["fuzz", "--tree", "path", "--n", "4", "--walks", "2"],
         "--depth", "0", 1),
        (["explore", "--tree", "path", "--n", "3", "--variant", "naive"],
         "--max-depth", "-1", 0),
        (["explore", "--tree", "path", "--n", "3", "--variant", "naive",
          "--max-depth", "4"], "--max-configs", "0", 1),
        (["demo", "--tree", "path", "--n", "4"], "--steps", "-5", 1),
        (["converge", "--tree", "path", "--n", "4"], "--steps", "0", 1),
        (["wait", "--tree", "path", "--n", "4"], "--steps", "0", 1),
        (["sweep", "--experiment", "converge", "--tree", "path", "--sizes",
          "4", "--seeds", "1"], "--steps", "0", 1),
        (["bench"], "--steps", "0", 1),
        (["bench"], "--repeat", "0", 1),
    ], ids=["sweep-seeds", "fuzz-walks", "fuzz-depth", "explore-max-depth",
            "explore-max-configs", "demo-steps", "converge-steps",
            "wait-steps", "sweep-steps", "bench-steps", "bench-repeat"])
    def test_out_of_range_counts_rejected_while_parsing(self, capsys, argv,
                                                        flag, value, low):
        """A count or bound below its minimum is a parse error naming the
        flag, not a value silently raised to one the run then echoes."""
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {flag}: expected an integer >= {low}, got "
                f"'{value}'") in err


class TestCommands:
    def test_demo(self, capsys):
        rc = main(["demo", "--tree", "paper", "--l", "3", "--steps", "8000",
                   "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stabilized at step" in out
        assert "(3, 1, 1)" in out

    @pytest.mark.parametrize("extra", [
        [], ["--por"], ["--check", "liveness"], ["--workers", "2"],
    ], ids=["bfs", "por", "liveness", "workers2"])
    def test_explore_cap_the_root_meets(self, capsys, extra):
        """``--max-configs 1`` keeps the root alone: nothing is expanded."""
        rc = main(["explore", "--tree", "path", "--n", "3", "--variant",
                   "naive", "--max-configs", "1", *extra])
        out = capsys.readouterr().out
        assert rc == 0
        assert "configurations   : 1\n" in out
        assert "transitions      : 0\n" in out

    def test_converge(self, capsys):
        rc = main(["converge", "--tree", "path", "--n", "6", "--steps", "60000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged        : True" in out

    @pytest.mark.parametrize("argv", [
        ["converge", "--tree", "random", "--n", "12", "--steps", "1000"],
        ["sweep", "--experiment", "converge", "--tree", "random", "--sizes",
         "12", "--seeds", "1", "--steps", "1000"],
    ], ids=["converge", "sweep"])
    def test_converge_runs_the_steps_asked_for(self, capsys, argv):
        """``--steps`` is the run's length below the default too: this
        n=12 run stabilizes at step 2,875 given 50,000 steps, so in 1,000
        it reports no stabilization step past 1,000."""
        main(argv)
        out = capsys.readouterr().out
        if argv[0] == "converge":
            stab = out.split("stabilized at    :")[1].split()[0]
            assert stab == "None" or int(stab) <= 1000
        else:
            stab = float(out.splitlines()[2].split()[2])  # the stab_step cell
            assert math.isnan(stab) or stab <= 1000

    def test_wait(self, capsys):
        rc = main(["wait", "--tree", "star", "--n", "5", "--k", "1", "--l", "1",
                   "--steps", "15000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within bound     : True" in out

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_wait_warmup_failure_is_an_error(self, capsys, monkeypatch,
                                             backend):
        """A warmup that never stabilizes exits 2 (not 1, "bound
        violated") with one ``error:`` line naming n and the budget."""
        import repro.analysis.harness as harness

        monkeypatch.setattr(harness, "stabilize", lambda engine, params: False)
        rc = main(["wait", "--tree", "path", "--n", "7", "--steps", "100",
                   "--backend", backend])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n=7" in err and "500,000-step warmup budget" in err

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_demo_warmup_failure_is_an_error(self, capsys, backend):
        """``demo`` reports a warmup past its budget as ``wait`` does:
        exit 2 (exit 1 means a violation) and one ``error:`` line naming
        n and the budget."""
        rc = main(["demo", "--n", "300", "--steps", "1000",
                   "--backend", backend])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n=300" in err and "500,000-step warmup budget" in err

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_sweep_whose_every_warmup_fails_is_an_error(self, capsys,
                                                        backend):
        """A wait sweep in which no run's warmup stabilizes ends as
        ``wait --n 300`` does: exit 2 and one ``error:`` line naming the
        cells, not a traceback."""
        rc = main(["sweep", "--experiment", "wait", "--tree", "random",
                   "--sizes", "300", "--seeds", "1", "--steps", "1000",
                   "--backend", backend])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no run's warmup stabilized" in err and "random-n300" in err

    @pytest.mark.parametrize("command", ["wait", "demo"])
    @pytest.mark.parametrize("scenario", ["fig2-deadlock", "central"])
    def test_scenario_without_controller_is_an_error(self, capsys, tmp_path,
                                                     command, scenario):
        """The warmup waits for the root controller's circulations; a
        variant without a controller (naive fig2-deadlock; central, which
        has no root) is one ``error:`` line naming the fix, exit 2."""
        if scenario == "central":
            manifest = str(tmp_path / "central.json")
            assert main(["explore", "--variant", "central", "--tree", "path",
                         "--n", "4", "--dump-spec", manifest]) == 0
            argv = [command, "--spec", manifest]
        else:
            argv = [command, "--scenario", scenario]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "use the selfstab or ring variant" in err

    def test_figures(self, capsys):
        rc = main(["figures"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a starved=True" in out
        assert "matches: True" in out

    def test_balanced_tree_choice(self, capsys):
        rc = main(["demo", "--tree", "balanced", "--n", "8", "--l", "2",
                   "--steps", "5000"])
        assert rc == 0

    def test_fuzz_clean(self, capsys):
        rc = main(["fuzz", "--tree", "paper", "--variant", "priority",
                   "--l", "3", "--walks", "6", "--depth", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violation        : none found" in out
        assert "walks x depth    : 6 x 120" in out

    def test_fuzz_variants_accepted(self, capsys):
        for variant in ("naive", "pusher", "selfstab"):
            rc = main(["fuzz", "--tree", "path", "--n", "5", "--variant",
                       variant, "--walks", "3", "--depth", "80"])
            assert rc == 0

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.variant == "priority"
        assert args.walks == 64 and args.depth == 400
        assert args.workers is None and args.progress is False

    def test_fuzz_workers_identical_output(self, capsys):
        argv = ["fuzz", "--tree", "paper", "--variant", "priority",
                "--l", "3", "--walks", "6", "--depth", "120"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_converge(self, capsys):
        rc = main(["sweep", "--tree", "path", "--sizes", "5,6",
                   "--seeds", "2", "--steps", "50000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "path-n5" in out and "path-n6" in out
        assert "converged" in out and "stab_step" in out

    def test_sweep_wait_with_ci_and_workers(self, capsys):
        rc = main(["sweep", "--experiment", "wait", "--tree", "star",
                   "--sizes", "5", "--seeds", "2", "--k", "1", "--l", "1",
                   "--steps", "8000", "--ci", "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_wait" in out and "95% CI" in out

    def test_sweep_bad_sizes(self, capsys):
        assert main(["sweep", "--sizes", "nope"]) == 2

    def test_sweep_fixed_tree_collapses_duplicate_cells(self, capsys):
        rc = main(["sweep", "--tree", "paper", "--sizes", "6,9", "--l", "3",
                   "--seeds", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("paper-n8") == 1
        assert "duplicates cell paper-n8" in captured.err

    def test_one_worker_sweep_progress_prints_every_shard(self, capsys):
        """--progress without --workers prints one line per shard of the
        in-process campaign and leaves stdout as it is."""
        argv = ["sweep", "--experiment", "converge", "--tree", "path",
                "--sizes", "5,7", "--seeds", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert captured.err.splitlines() == [
            f"[sweep] shard {s}/4 done ({s}/4): runs {s}-{s} of 4 done"
            for s in range(1, 5)
        ]

    def test_in_process_owner_explore_progress_prints_every_level(
        self, capsys
    ):
        """The single in-process owner shard's per-level events reach
        stderr under --progress, and stdout is the run without it."""
        argv = ["explore", "--variant", "naive", "--tree", "path", "--n", "4",
                "--k", "1", "--l", "2", "--max-depth", "3", "--distributed"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "frontier sizes   : [5, 12, 20]" in plain
        assert [
            line for line in captured.err.splitlines()
            if not line.startswith("[explore] throughput")
        ] == [
            f"[explore-owner] shard 1/1 done (1/1): level: depth {d}: "
            f"{new} new, {total} total"
            for d, new, total in ((1, 5, 6), (2, 12, 18), (3, 20, 38))
        ]

    def test_explore_exhaustive(self, capsys):
        rc = main(["explore", "--tree", "path", "--n", "3", "--k", "1",
                   "--l", "1", "--variant", "naive", "--max-depth", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "exhausted        : True" in out
        assert "violation        : none found" in out

    def test_explore_workers_identical_output(self, capsys):
        """Every line but the seen-set memory estimate, which sums the
        shards' sets under --workers."""
        argv = ["explore", "--tree", "star", "--n", "3", "--variant",
                "priority", "--max-depth", "5"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def counts(text):
            return [ln for ln in text.splitlines()
                    if not ln.startswith("peak seen memory")]

        assert counts(parallel) == counts(serial)
        assert len(counts(serial)) == len(serial.splitlines()) - 1
        assert "configurations" in serial

    def test_explore_defaults_are_toy_sized(self):
        args = build_parser().parse_args(["explore"])
        assert args.n == 4 and args.l == 2
        # --max-depth parses to None (a sentinel so --resume can tell
        # "unset" from "explicit"); cmd_explore resolves it to 8.
        assert args.variant == "priority" and args.max_depth is None


class TestList:
    def test_lists_every_registry_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("variants:", "topologies:", "workloads:",
                        "faults:", "observers:", "scenarios:"):
            assert section in out
        for key in ("selfstab", "caterpillar", "stochastic", "scramble",
                    "channel_stats", "fig3-livelock"):
            assert key in out

    def test_variant_capability_markers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "no explore" in out  # selfstab is excluded from explore


class TestRegistryErrors:
    def test_unknown_tree_lists_choices(self, capsys):
        assert main(["demo", "--tree", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown topology 'nope'" in err
        assert "caterpillar" in err and "paper" in err

    def test_unknown_variant_lists_choices(self, capsys):
        assert main(["fuzz", "--variant", "nope", "--walks", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown variant 'nope'" in err
        assert "priority" in err and "selfstab" in err

    def test_unknown_workload_lists_choices(self, capsys):
        assert main(["wait", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nope'" in err
        assert "saturated" in err and "hog" in err

    def test_selfstab_explore_rejected_with_reason(self, capsys):
        assert main(["explore", "--variant", "selfstab"]) == 2
        err = capsys.readouterr().err
        assert "selfstab" in err and "explor" in err

    def test_missing_spec_file(self, capsys):
        assert main(["demo", "--spec", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err


class TestWorkloadFlag:
    def test_demo_stochastic_workload(self, capsys):
        rc = main(["demo", "--tree", "paper", "--l", "3", "--steps", "6000",
                   "--workload", "stochastic:p=0.4,max_need=2"])
        assert rc == 0
        assert "requests satisfied" in capsys.readouterr().out

    def test_wait_scripted_workload(self, capsys):
        rc = main(["wait", "--tree", "star", "--n", "4", "--k", "1", "--l", "2",
                   "--steps", "6000",
                   "--workload", "scripted:script=0/1/2;50/1/3"])
        assert rc == 0
        assert "within bound" in capsys.readouterr().out

    def test_demo_hog_workload_runs(self, capsys):
        rc = main(["demo", "--tree", "star", "--n", "5", "--k", "2", "--l", "4",
                   "--steps", "4000", "--workload", "hog:need=1"])
        assert rc == 0


class TestSpecManifests:
    def test_dump_then_replay_is_identical(self, tmp_path, capsys):
        argv = ["demo", "--tree", "paper", "--l", "3", "--steps", "6000",
                "--seed", "5"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        manifest = tmp_path / "demo.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        dumped = capsys.readouterr()
        assert dumped.out == ""  # --dump-spec writes the file, not a run
        assert main(["demo", "--spec", str(manifest), "--steps", "6000"]) == 0
        replayed = capsys.readouterr().out
        assert replayed == direct

    def test_converge_dump_then_replay_is_identical(self, tmp_path, capsys):
        argv = ["converge", "--tree", "path", "--n", "6", "--seed", "2"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        manifest = tmp_path / "conv.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["converge", "--spec", str(manifest)]) == 0
        assert capsys.readouterr().out == direct

    def test_fuzz_spec_replay_matches_flags(self, tmp_path, capsys):
        argv = ["fuzz", "--tree", "paper", "--variant", "priority", "--l", "3",
                "--walks", "4", "--depth", "100"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        manifest = tmp_path / "fuzz.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--spec", str(manifest), "--walks", "4",
                     "--depth", "100"]) == 0
        assert capsys.readouterr().out == direct

    def test_dump_spec_to_stdout(self, capsys):
        assert main(["wait", "--dump-spec", "-"]) == 0
        out = capsys.readouterr().out
        import json

        spec = json.loads(out)
        assert spec["variant"] == "selfstab"
        assert spec["variant_options"] == {"init": "tokens"}

    def test_sweep_spec_manifest_drives_grid(self, tmp_path, capsys):
        # non-default --seed: the replay must reproduce it from the
        # manifest, not fall back to seed 0
        argv = ["sweep", "--tree", "path", "--sizes", "5,6", "--seeds", "2",
                "--seed", "9", "--steps", "50000"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        manifest = tmp_path / "sweep.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", str(manifest), "--experiment",
                     "converge", "--sizes", "5,6", "--seeds", "2",
                     "--steps", "50000"]) == 0
        assert capsys.readouterr().out == direct

    def test_sweep_spec_requires_explicit_experiment(self, tmp_path, capsys):
        manifest = tmp_path / "sweep.json"
        assert main(["sweep", "--tree", "path", "--sizes", "5",
                     "--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", str(manifest), "--sizes", "5"]) == 2
        assert "--experiment is required with --spec" in capsys.readouterr().err

    def test_caterpillar_tree_spec_string(self, capsys):
        rc = main(["demo", "--tree", "caterpillar:spine=3,legs=2",
                   "--l", "3", "--steps", "5000"])
        assert rc == 0

    def test_sweep_wait_manifest_replay(self, tmp_path, capsys):
        argv = ["sweep", "--experiment", "wait", "--tree", "star",
                "--sizes", "5", "--seeds", "2", "--k", "1", "--l", "1",
                "--steps", "8000"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        manifest = tmp_path / "wait-sweep.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", str(manifest), "--experiment",
                     "wait", "--sizes", "5", "--seeds", "2",
                     "--steps", "8000"]) == 0
        replayed = capsys.readouterr().out
        assert "experiment       : wait" in replayed
        assert replayed == direct

    def test_fuzz_spec_replay_reproduces_nondefault_seed(self, tmp_path, capsys):
        # the walk RNG must key off the manifest's seed, not --seed's
        # default, or counterexamples would not reproduce from manifests
        argv = ["fuzz", "--tree", "paper", "--variant", "priority",
                "--l", "3", "--walks", "4", "--depth", "100", "--seed", "7"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        assert "(seed 7)" in direct
        manifest = tmp_path / "fuzz7.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--spec", str(manifest), "--walks", "4",
                     "--depth", "100"]) == 0
        assert capsys.readouterr().out == direct

    def test_explore_rejects_time_dependent_spec(self, tmp_path, capsys):
        # a fuzz-shaped manifest (cs_duration=2) is unsound to explore
        manifest = tmp_path / "fuzz.json"
        assert main(["fuzz", "--tree", "star", "--n", "3", "--variant",
                     "priority", "--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["explore", "--spec", str(manifest)]) == 2
        assert "time-independent" in capsys.readouterr().err

    def test_scripted_workload_scalar_script_is_clean_error(self, capsys):
        assert main(["demo", "--tree", "star", "--n", "3",
                     "--workload", "scripted:script=5"]) == 2
        assert "triples" in capsys.readouterr().err


class TestNoStats:
    def test_demo_no_stats_output_identical(self, capsys):
        argv = ["demo", "--tree", "paper", "--l", "3", "--steps", "6000",
                "--seed", "5"]
        assert main(argv) == 0
        with_stats = capsys.readouterr().out
        assert main(argv + ["--no-stats"]) == 0
        assert capsys.readouterr().out == with_stats

    @pytest.mark.parametrize("argv, replay", [
        (["converge", "--tree", "path", "--n", "6", "--seed", "2"], []),
        # --steps is a run flag, not part of the manifest
        (["demo", "--tree", "paper", "--l", "3", "--steps", "6000",
          "--seed", "5"], ["--steps", "6000"]),
    ], ids=["converge", "demo"])
    def test_no_stats_drops_manifest_observers(self, tmp_path, capsys, argv,
                                               replay):
        import json

        manifest = tmp_path / "scenario.json"
        assert main(argv + ["--dump-spec", str(manifest)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        # add an observer stack to the manifest, then strip it again
        doc = json.loads(manifest.read_text())
        doc["observers"] = [{"kind": "trace"},
                            {"kind": "safety", "args": {"every": 64}}]
        manifest.write_text(json.dumps(doc))
        replay_argv = [argv[0], "--spec", str(manifest), *replay]
        assert main(replay_argv) == 0
        observed = capsys.readouterr().out
        assert observed == plain  # observers never change results
        assert main(replay_argv + ["--no-stats"]) == 0
        assert capsys.readouterr().out == plain


class TestBench:
    def test_bench_runs_and_writes_artifact(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_kernel.json"
        rc = main(["bench", "--steps", "2000", "--repeat", "1",
                   "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "selfstab-ring-n16" in table and "steps/sec" in table
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "kernel-steps-per-sec"
        scenarios = {r["scenario"] for r in doc["rows"]}
        assert {"selfstab-ring-n16", "selfstab-tree-n16",
                "priority-tree-n16"} <= scenarios
        assert all(r["steps_per_sec"] > 0 for r in doc["rows"])

    def test_bench_rejects_bad_args(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--steps", "0"])
        assert exc.value.code == 2

    def test_bench_skip_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--steps", "2000", "--repeat", "1",
                     "--out", ""]) == 0
        assert not (tmp_path / "BENCH_kernel.json").exists()

    def test_bench_explore_suite_writes_artifact(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_explore.json"
        rc = main(["bench", "--suite", "explore", "--repeat", "1",
                   "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "states/sec" in table and "naive-path-n5-bfs" in table
        doc = json.loads(out.read_text())
        assert doc["benchmark"] == "explore-states-per-sec"
        scenarios = {r["scenario"] for r in doc["rows"]}
        assert {"naive-path-n5-bfs", "priority-path-n6-bfs",
                "priority-path-n5-dfs"} <= scenarios
        assert all(r["states_per_sec"] > 0 for r in doc["rows"])
        assert all(r["peak_seen_bytes"] > 0 for r in doc["rows"])

    def test_bench_all_rejects_single_out(self, capsys):
        assert main(["bench", "--suite", "all", "--out", "x.json"]) == 2
        assert "ambiguous" in capsys.readouterr().err


class TestExploreOutput:
    ARGV = ["explore", "--tree", "path", "--n", "3", "--k", "1", "--l", "1",
            "--variant", "naive", "--max-depth", "12"]

    def test_reports_peak_seen_memory_on_stdout(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "peak seen memory : " in out
        assert "(packed digests)" in out

    def test_reports_throughput_on_stderr_only(self, capsys):
        """Wall-clock throughput must not contaminate stdout — stdout is
        the serial/parallel/replay byte-identity surface."""
        assert main(self.ARGV) == 0
        captured = capsys.readouterr()
        assert "states/sec" in captured.err
        assert "states/sec" not in captured.out

    def test_reference_knobs_are_gone(self, capsys):
        """The explorer has one production path: no seen-set key or
        pool-dispatch flag to choose."""
        with pytest.raises(SystemExit):
            main(["explore", "--help"])
        help_text = capsys.readouterr().out
        assert "--digest" not in help_text
        assert "--min-frontier" not in help_text

    def test_workers_and_digest_stdout_identical(self, capsys):
        """--workers 2 prints serial's report but for the summed-shard
        memory line, and there is no --digest left to vary it."""
        argv = ["explore", "--tree", "star", "--n", "4", "--variant",
                "priority", "--max-depth", "5"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        par = capsys.readouterr().out

        def strip(text):
            return [ln for ln in text.splitlines()
                    if not ln.startswith("peak seen memory")]

        assert strip(par) == strip(serial)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2", "--digest", "tuple"])
        assert exc.value.code == 2
        assert "--digest" in capsys.readouterr().err

    def test_stdout_byte_identical_across_repeated_runs(self, capsys):
        """The whole stdout report is the determinism surface: two runs
        of the same instance must agree byte-for-byte (throughput, the
        only wall-clock quantity, lives on stderr)."""
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == first

    def test_por_stdout_differs_only_in_transition_counts(self, capsys):
        """The CI diff contract: POR may change transition counts and
        the depth histogram, never configurations/exhausted/violation."""
        argv = ["explore", "--tree", "path", "--n", "4", "--variant",
                "pusher", "--max-depth", "8"]
        assert main(argv) == 0
        full = capsys.readouterr().out
        assert main(argv + ["--por"]) == 0
        por = capsys.readouterr().out

        def keep(text):
            return [ln for ln in text.splitlines()
                    if ln.split(":")[0].strip() in
                    ("configurations", "exhausted", "violation")]

        assert keep(full) == keep(por)


class TestExploreDistributed:
    """The owner-computes CLI surface: flag routing, the stdout count
    contract vs the serial explorer, and checkpoint/resume."""

    ARGV = ["explore", "--tree", "path", "--n", "4", "--k", "1", "--l", "2",
            "--variant", "naive", "--max-depth", "8"]

    @staticmethod
    def counts(text):
        keep = ("configurations", "transitions", "frontier sizes",
                "exhausted", "violation", "depth bound")
        return [ln for ln in text.splitlines()
                if ln.split(":")[0].strip() in keep]

    def test_distributed_counts_match_serial(self, capsys):
        assert main(self.ARGV) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGV + ["--distributed"]) == 0
        dist = capsys.readouterr().out
        assert self.counts(dist) == self.counts(serial)
        assert "peak disk memory : " in dist
        assert "peak disk memory : " not in serial

    def test_mem_budget_implies_distributed_and_spills(self, capsys):
        assert main(self.ARGV) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGV + ["--mem-budget", "2k"]) == 0
        dist = capsys.readouterr().out
        assert self.counts(dist) == self.counts(serial)
        disk = [ln for ln in dist.splitlines()
                if ln.startswith("peak disk memory")]
        assert disk and "0 bytes" not in disk[0]

    def test_checkpoint_then_resume_counts_identical(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.ARGV + ["--distributed", "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["explore", "--resume", ckpt]) == 0
        resumed = capsys.readouterr().out
        assert self.counts(resumed) == self.counts(first)

    def test_resume_depth_extension_matches_direct_run(
        self, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.ARGV[:-1] + ["5", "--distributed",
                                      "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["explore", "--resume", ckpt, "--max-depth", "8"]) == 0
        resumed = capsys.readouterr().out
        assert main(self.ARGV) == 0
        direct = capsys.readouterr().out
        assert self.counts(resumed) == self.counts(direct)

    def test_rejects_por_and_liveness(self, capsys):
        assert main(self.ARGV + ["--distributed", "--por"]) == 2
        assert main(self.ARGV + ["--distributed",
                                 "--check", "liveness"]) == 2

    def test_rejects_tuple_digest(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--distributed", "--digest", "tuple"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digest" in capsys.readouterr().err

    def test_rejects_min_frontier(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--distributed", "--min-frontier", "1"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --min-frontier"
                in capsys.readouterr().err)

    def test_worker_failure_is_one_error_line(self, capsys, monkeypatch):
        """A dead or raising worker exits 2 (not 1, "violation found")
        with one ``error:`` line naming the failed shard."""
        import repro.analysis as analysis
        from repro.analysis import CampaignError, WorkerFailure

        def fail(*args, **kwargs):
            raise CampaignError("explore-owner", [
                WorkerFailure(1, "worker exited without replying", ""),
            ])

        monkeypatch.setattr(analysis, "explore", fail)
        rc = main(self.ARGV + ["--workers", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (
            "error: 1 worker shard(s) failed in 'explore-owner': "
            "shard 1: worker exited without replying\n"
        )

    def test_rejects_bad_mem_budget(self, capsys):
        assert main(self.ARGV + ["--mem-budget", "lots"]) == 2
        assert main(self.ARGV + ["--mem-budget", "0"]) == 2

    def test_resume_missing_checkpoint_is_clean_error(
        self, tmp_path, capsys
    ):
        rc = main(["explore", "--resume", str(tmp_path / "absent")])
        assert rc == 2

    def test_rejects_partitioner(self, capsys):
        """Ownership is fixed (top digest bits mod the shard count):
        there is no partitioner to pick."""
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--partitioner", "topbits"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --partitioner"
                in capsys.readouterr().err)

    def test_rejects_zero_checkpoint_every(self, capsys):
        """explore() rejects it, and the CLI prints its one error line."""
        assert main(self.ARGV + ["--checkpoint-every", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint_every=0 (--checkpoint-every)")


class TestExploreLiveness:
    """The ``--check liveness`` CLI surface, against both anchors."""

    def test_starvation_scenario_reports_livelock(self, capsys):
        rc = main(["explore", "--scenario", "fig3-starvation",
                   "--check", "liveness", "--max-depth", "40"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "check            : liveness (weak fairness)" in out
        assert "livelock         : victims [0] under weak fairness" in out
        assert "prefix           : " in out
        assert "cycle            : " in out

    def test_convergent_scenario_exits_clean(self, capsys):
        rc = main(["explore", "--scenario", "fig1-circulation",
                   "--check", "liveness", "--max-depth", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "starvation-freedom verified over ALL schedules" in out
        assert "prefix" not in out

    def test_scenario_kwargs_flow_through(self, capsys):
        rc = main(["explore", "--scenario", "fig3-starvation:variant=naive",
                   "--check", "liveness", "--max-depth", "40"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "variant          : naive" in out

    def test_fairness_flag_overrides_spec(self, capsys):
        rc = main(["explore", "--scenario", "fig3-starvation",
                   "--check", "liveness", "--fairness", "unconditional",
                   "--max-depth", "40"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "liveness (unconditional fairness)" in out

    def test_unknown_fairness_rejected(self, capsys):
        rc = main(["explore", "--scenario", "fig3-starvation",
                   "--check", "liveness", "--fairness", "bogus"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bogus" in err

    def test_liveness_is_serial_only(self, capsys):
        rc = main(["explore", "--scenario", "fig3-starvation",
                   "--check", "liveness", "--workers", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "serial" in err or "workers" in err


class TestArrayBackendContract:
    """Unsupported spec/backend combinations die with a ``SpecError``
    that names the supported surface, not a traceback."""

    def test_fuzz_rejects_array_backend(self, capsys):
        rc = main(["fuzz", "--backend", "array", "--walks", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "--backend object" in err
        # names the supported commands, sweep included
        assert "explore" in err and "sweep" in err

    def test_explore_array_rejects_liveness(self, capsys):
        rc = main(["explore", "--tree", "path", "--n", "4",
                   "--backend", "array", "--check", "liveness"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "--check liveness" in err and "--backend object" in err

    def test_explore_array_rejects_por(self, capsys):
        rc = main(["explore", "--tree", "path", "--n", "4",
                   "--backend", "array", "--por"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--por" in err and "--backend object" in err

    def test_explore_array_rejects_tuple_digest(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--tree", "path", "--n", "4",
                  "--backend", "array", "--digest", "tuple"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digest" in capsys.readouterr().err

    def test_explore_array_safety_smoke_matches_object(self, capsys):
        argv = ["explore", "--tree", "path", "--n", "5", "--max-depth", "6"]
        assert main(argv) == 0
        obj_out = capsys.readouterr().out
        assert main(argv + ["--backend", "array"]) == 0
        arr_out = capsys.readouterr().out
        assert arr_out == obj_out  # stdout is the CI diff contract

    def test_converge_array_grows_rings_to_match_object(self, capsys):
        """A scrambled n=64 run whose queues outgrow the initial ring
        size: the array rings grow, and the run prints exactly what the
        object backend prints."""
        argv = ["converge", "--tree", "random", "--n", "64", "--seed", "2",
                "--steps", "1000000"]
        assert main(argv + ["--backend", "object"]) == 0
        obj_out = capsys.readouterr().out
        assert main(argv + ["--backend", "array"]) == 0
        arr_out = capsys.readouterr().out
        assert arr_out == obj_out

    def test_explore_api_snapshot_and_fork_are_object_only(self):
        """The snapshot and fork codecs survive only as the object-engine
        reference explorer of the test suite: the API offers no codec
        choice on either backend."""
        from repro.analysis import explore
        from repro.spec import ScenarioBuilder

        spec = (
            ScenarioBuilder()
            .variant("priority")
            .topology("path", n=4)
            .params(k=2, l=3)
            .workload("saturated", need=1, cs_duration=0)
            .backend("array")
            .spec()
        )
        built = spec.build()
        for method in ("snapshot", "fork"):
            with pytest.raises(TypeError, match="method"):
                explore(built.engine, built.invariant,
                        max_depth=4, method=method)
