"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _render_plan, build_parser, main
from repro.core import Charles, CharlesConfig
from repro.relational.csv_io import write_csv
from repro.relational.snapshot import SnapshotPair
from repro.workloads import example_snapshots


@pytest.fixture()
def example_csvs(tmp_path):
    source, target = example_snapshots()
    source_path = tmp_path / "2016.csv"
    target_path = tmp_path / "2017.csv"
    write_csv(source, source_path)
    write_csv(target, target_path)
    return source_path, target_path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("summarize", "suggest", "diff", "generate"):
            args = parser.parse_args(
                [command, "a.csv", "b.csv", "--target", "x"]
                if command in ("summarize", "suggest")
                else ([command, "a.csv", "b.csv"] if command == "diff" else [command, "example"])
            )
            assert args.command == command

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cache_server_parser_registered(self):
        args = build_parser().parse_args(
            ["cache-server", "--port", "0", "--capacity", "500"]
        )
        assert args.command == "cache-server"
        assert args.capacity == 500 and args.port == 0

    def test_cache_admin_parser_registered(self):
        args = build_parser().parse_args(["cache", "stats", "--cache-url", "h:1"])
        assert args.command == "cache" and args.action == "stats"
        args = build_parser().parse_args(["cache", "clear", "--cache-dir", "d"])
        assert args.action == "clear"

    def test_summarize_accepts_cache_capacity_and_url(self):
        args = build_parser().parse_args(
            ["summarize", "a.csv", "b.csv", "--target", "x",
             "--cache-capacity", "128", "--cache-backend", "remote",
             "--cache-url", "127.0.0.1:8737"]
        )
        assert args.cache_capacity == 128
        assert args.cache_backend == "remote" and args.cache_url == "127.0.0.1:8737"
        assert args.cache_replication == 1  # single copy unless asked

    def test_summarize_accepts_sharded_url_and_replication(self):
        args = build_parser().parse_args(
            ["summarize", "a.csv", "b.csv", "--target", "x",
             "--cache-backend", "remote",
             "--cache-url", "shard-a:8737,shard-b:8737,shard-c:8737",
             "--cache-replication", "2"]
        )
        assert args.cache_url == "shard-a:8737,shard-b:8737,shard-c:8737"
        assert args.cache_replication == 2

    @pytest.mark.parametrize(
        "removed",
        [
            ["--no-bound-pruning"],
            ["--no-cost-routing"],
            ["--plan-only"],
            ["--cache-backend", "tiered-disk"],
        ],
        ids=["no-bound-pruning", "no-cost-routing", "plan-only", "tiered-disk"],
    )
    def test_removed_switches_are_usage_errors(self, removed):
        # bound pruning always runs, cost routing is gone, `charles plan` is
        # the one dry run, and the store kinds are memory/disk/remote (plus
        # `shared`, accepted as memory)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["summarize", "a.csv", "b.csv", "--target", "x", *removed]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cache", "stats", "--cache-url", "a:1", "--join", "b:2"],
            ["cache", "stats", "--cache-url", "a:1", "--leave", "b:2"],
            ["cache", "topology", "--cache-url", "a:1"],
        ],
        ids=["join", "leave", "topology"],
    )
    def test_removed_cache_switches_are_usage_errors(self, argv):
        # the fleet is the static --cache-url list: no membership commands
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_summarize_prints_ranked_summaries(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--top", "3", "--details",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "#1" in output and "score=" in output
        assert "Partition treemap" in output

    def test_summarize_writes_markdown(self, example_csvs, tmp_path, capsys):
        source, target = example_csvs
        report = tmp_path / "report.md"
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--markdown", str(report),
        ])
        assert code == 0
        assert report.exists()
        assert "# ChARLES change summaries" in report.read_text()

    def test_summarize_with_explicit_attributes(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--condition-attributes", "edu", "exp",
            "--transformation-attributes", "bonus",
        ])
        assert code == 0
        assert "edu" in capsys.readouterr().out

    def test_summarize_reports_search_stats(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "search:" in output and "candidates planned" in output

    def test_summarize_with_parallel_jobs_matches_serial(self, example_csvs, capsys):
        source, target = example_csvs
        assert main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
        ]) == 0
        serial_output = capsys.readouterr().out
        assert main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--jobs", "2",
        ]) == 0
        parallel_output = capsys.readouterr().out
        assert "jobs=2" in parallel_output
        # everything above the search-stats line (the ranked summaries) is identical
        assert (
            serial_output.split("search:")[0] == parallel_output.split("search:")[0]
        )

    def test_summarize_shared_cache_backend_runs_as_memory(
        self, example_csvs, tmp_path, capsys
    ):
        # `shared` names the retired cross-process memo store: the flag is
        # still accepted, and a parallel run ranks exactly as with memory
        source, target = example_csvs
        argv = [
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--jobs", "2",
        ]
        assert main(argv + ["--cache-backend", "memory"]) == 0
        memory_output = capsys.readouterr().out
        stats_path = tmp_path / "stats.json"
        assert main(
            argv + ["--cache-backend", "shared", "--stats-json", str(stats_path)]
        ) == 0
        shared_output = capsys.readouterr().out
        assert shared_output.split("search:")[0] == memory_output.split("search:")[0]
        assert "cache=" not in shared_output
        assert json.loads(stats_path.read_text())["stats"]["cache_backend"] == "memory"

    def test_summarize_disk_cache_warm_second_invocation(self, example_csvs, tmp_path, capsys):
        source, target = example_csvs
        cache_dir = tmp_path / "cache"
        argv = [
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--cache-backend", "disk", "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first_output = capsys.readouterr().out
        assert "cache=disk" in first_output
        assert (cache_dir / "results.sqlite").exists()
        # the second invocation builds a brand-new engine over the same store
        # and is served the first one's result entry
        assert main(argv) == 0
        second_output = capsys.readouterr().out
        assert "served from a stored result" in second_output
        assert first_output.split("search:")[0] == second_output.split("search:")[0]

    def test_summarize_rejects_disk_cache_without_dir(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--cache-backend", "disk",
        ])
        assert code == 2
        assert "cache_dir" in capsys.readouterr().err

    def test_summarize_with_cache_capacity_matches_unbounded(self, example_csvs, capsys):
        source, target = example_csvs
        argv = ["summarize", str(source), str(target), "--key", "name", "--target", "bonus"]
        assert main(argv) == 0
        unbounded = capsys.readouterr().out
        # eviction under a tight bound recomputes work but never changes it
        assert main(argv + ["--cache-capacity", "4"]) == 0
        bounded = capsys.readouterr().out
        assert unbounded.split("search:")[0] == bounded.split("search:")[0]

    def test_summarize_rejects_remote_cache_without_url(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--cache-backend", "remote",
        ])
        assert code == 2
        assert "cache_url" in capsys.readouterr().err

    def test_suggest_lists_candidates(self, example_csvs, capsys, monkeypatch):
        align = SnapshotPair.align.__func__
        aligned = []

        def counting(cls, *args, **kwargs):
            aligned.append(args)
            return align(cls, *args, **kwargs)

        monkeypatch.setattr(SnapshotPair, "align", classmethod(counting))
        source, target = example_csvs
        code = main(["suggest", str(source), str(target), "--key", "name", "--target", "bonus"])
        output = capsys.readouterr().out
        assert code == 0
        assert "condition candidates" in output
        assert len(aligned) == 1  # the assistant reads the loaded pair

    def test_diff_reports_cells_and_distance(self, example_csvs, capsys):
        source, target = example_csvs
        code = main(["diff", str(source), str(target), "--key", "name"])
        output = capsys.readouterr().out
        assert code == 0
        assert "changed cells" in output
        assert "update distance" in output
        assert "drift" in output.lower()

    def test_generate_writes_csv_pair(self, tmp_path, capsys):
        code = main([
            "generate", "employee", "--rows", "50", "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "employee_source.csv").exists()
        assert (tmp_path / "employee_target.csv").exists()

    def test_generate_example_workload(self, tmp_path):
        assert main(["generate", "example", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "example_source.csv").exists()

    def test_error_exit_code_on_bad_target(self, example_csvs, capsys):
        source, target = example_csvs
        code = main(["summarize", str(source), str(target), "--key", "name", "--target", "edu"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTimelineCommand:
    @pytest.fixture()
    def chain_csvs(self, tmp_path):
        from repro.workloads import streaming_employee_timeline

        store, _ = streaming_employee_timeline(60, num_versions=3, seed=11)
        paths = []
        for version in store:
            path = tmp_path / f"{version.name}.csv"
            write_csv(version.table, path)
            paths.append(path)
        return paths

    def test_timeline_parser_registered(self):
        args = build_parser().parse_args(["timeline", "a.csv", "b.csv", "c.csv", "--target", "x"])
        assert args.command == "timeline"
        assert len(args.versions) == 3

    def test_timeline_prints_per_hop_summaries(self, chain_csvs, capsys):
        code = main([
            "timeline", *[str(p) for p in chain_csvs],
            "--key", "name", "--target", "bonus", "-c", "2", "--top", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "v1 -> v2" in output and "v2 -> v3" in output
        assert "total:" in output

    def test_timeline_needs_two_versions(self, chain_csvs, capsys):
        code = main(["timeline", str(chain_csvs[0]), "--target", "bonus"])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_timeline_misaligned_versions_reports_error(self, chain_csvs, tmp_path, capsys):
        from repro.workloads import generate_employees

        other = tmp_path / "other.csv"
        write_csv(generate_employees(10, seed=1), other)
        code = main([
            "timeline", str(chain_csvs[0]), str(other),
            "--key", "name", "--target", "bonus",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_timeline_shared_cache_backend_matches_default(self, chain_csvs, capsys):
        argv = [
            "timeline", *[str(p) for p in chain_csvs],
            "--key", "name", "--target", "bonus", "-c", "2", "--top", "3",
        ]
        assert main(argv) == 0
        default_output = capsys.readouterr().out
        assert main(argv + ["--cache-backend", "shared"]) == 0
        shared_output = capsys.readouterr().out

        def summaries_only(text):
            # drop the stats lines: wall times differ
            return [
                line
                for line in text.splitlines()
                if "jobs=" not in line and "search time" not in line
            ]

        assert summaries_only(default_output) == summaries_only(shared_output)
        assert "cache=" not in shared_output  # `shared` runs as memory

    def test_timeline_window_out_of_range_rejected(self, chain_csvs, capsys):
        code = main([
            "timeline", *[str(p) for p in chain_csvs],
            "--key", "name", "--target", "bonus", "--window", "5",
        ])
        assert code == 2
        assert "--window must be between 1 and 2" in capsys.readouterr().err


class TestCacheCommands:
    @pytest.fixture()
    def server(self):
        from repro.cacheserver import AsyncCacheServer

        with AsyncCacheServer() as running:
            yield running

    def test_summarize_against_cache_server_matches_memory(self, example_csvs, server, capsys):
        source, target = example_csvs
        argv = ["summarize", str(source), str(target), "--key", "name", "--target", "bonus"]
        assert main(argv) == 0
        memory_output = capsys.readouterr().out
        remote_argv = argv + ["--cache-backend", "remote", "--cache-url", server.url]
        assert main(remote_argv) == 0
        first_output = capsys.readouterr().out
        assert "cache=remote" in first_output
        assert memory_output.split("search:")[0] == first_output.split("search:")[0]
        # a second engine invocation is served off the fleet store
        assert main(remote_argv) == 0
        second_output = capsys.readouterr().out
        assert "served from a stored result" in second_output
        assert memory_output.split("search:")[0] == second_output.split("search:")[0]

    def test_cache_stats_and_clear_against_running_server(self, example_csvs, server, capsys):
        source, target = example_csvs
        assert main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--cache-backend", "remote", "--cache-url", server.url,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-url", server.url]) == 0
        stats_output = capsys.readouterr().out
        assert '"results"' in stats_output and '"capacity"' in stats_output
        assert main(["cache", "clear", "--cache-url", server.url]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-url", server.url]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert list(cleared["regions"]) == ["results"]
        assert cleared["regions"]["results"]["entries"] == 0

    def test_summarize_against_a_sharded_fleet_matches_memory(self, example_csvs, capsys):
        from repro.cacheserver import AsyncCacheServer

        source, target = example_csvs
        argv = ["summarize", str(source), str(target), "--key", "name", "--target", "bonus"]
        assert main(argv) == 0
        memory_output = capsys.readouterr().out
        shards = [AsyncCacheServer().start() for _ in range(2)]
        try:
            url = ",".join(shard.url for shard in shards)
            sharded_argv = argv + [
                "--cache-backend", "remote", "--cache-url", url,
                "--cache-replication", "2",
            ]
            assert main(sharded_argv) == 0
            sharded_output = capsys.readouterr().out
            assert memory_output.split("search:")[0] == sharded_output.split("search:")[0]
        finally:
            for shard in shards:
                shard.shutdown()

    def test_cache_stats_and_clear_fan_out_across_shards(self, example_csvs, capsys):
        from repro.cacheserver import AsyncCacheServer

        source, target = example_csvs
        shards = [AsyncCacheServer().start() for _ in range(2)]
        try:
            url = ",".join(shard.url for shard in shards)
            assert main([
                "summarize", str(source), str(target), "--key", "name",
                "--target", "bonus", "--cache-backend", "remote", "--cache-url", url,
            ]) == 0
            capsys.readouterr()
            assert main(["cache", "stats", "--cache-url", url]) == 0
            table = capsys.readouterr().out
            # one row per shard plus the aggregate, not a JSON blob
            for shard in shards:
                assert shard.url in table
            assert "TOTAL" in table and "entries" in table
            assert main(["cache", "clear", "--cache-url", url]) == 0
            clear_output = capsys.readouterr().out
            for shard in shards:
                assert shard.url in clear_output
            from repro.cacheserver import server_stats

            for shard in shards:
                regions = server_stats(shard.url)["regions"]
                assert all(region["entries"] == 0 for region in regions.values())
        finally:
            for shard in shards:
                shard.shutdown()

    def test_cache_stats_with_one_dead_shard_marks_it_down(self, server, capsys):
        # the fan-out must not abort on a dead shard: the live shard's
        # numbers still print, the dead one gets a DOWN row (PR 9)
        url = f"{server.url},127.0.0.1:9"
        assert main(["cache", "stats", "--cache-url", url]) == 0
        output = capsys.readouterr().out
        assert server.url in output
        assert "127.0.0.1:9" in output and "DOWN" in output

    def test_cache_stats_and_clear_against_cache_dir(self, example_csvs, tmp_path, capsys):
        source, target = example_csvs
        cache_dir = tmp_path / "cache"
        assert main([
            "summarize", str(source), str(target), "--key", "name", "--target", "bonus",
            "--cache-backend", "disk", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats_output = capsys.readouterr().out
        assert "results.sqlite: 1 entries" in stats_output
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_requires_exactly_one_store(self, tmp_path, capsys):
        assert main(["cache", "stats"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "cache", "stats", "--cache-url", "h:1", "--cache-dir", str(tmp_path),
        ]) == 2

    def test_cache_stats_on_an_empty_directory_errors(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 2
        assert "no cache files" in capsys.readouterr().err

    def test_cache_admin_on_a_corrupt_store_errors_instead_of_lying(self, tmp_path, capsys):
        (tmp_path / "fits.sqlite").write_bytes(b"not a sqlite database")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 2
        assert "cache" in capsys.readouterr().err
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 2

    def test_cache_stats_against_dead_server_errors(self, capsys):
        assert main(["cache", "stats", "--cache-url", "127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_cache_server_invalid_capacity_exits_cleanly(self, capsys):
        assert main(["cache-server", "--port", "0", "--capacity", "0"]) == 2
        assert "capacity" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_prints_rounds_and_histograms_without_evaluating(self, example_csvs, capsys):
        source, target = example_csvs
        code = main([
            "plan", str(source), str(target), "--key", "name", "--target", "bonus",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "search plan:" in output
        assert "candidate specs" in output
        assert "score-bound histogram" in output
        assert "round 0 (global)" in output

    def test_plan_of_an_unchanged_target_says_so(self, example_csvs, capsys):
        source, _ = example_csvs
        code = main([
            "plan", str(source), str(source), "--key", "name", "--target", "bonus",
        ])
        assert code == 0
        assert capsys.readouterr().out == "no change detected in 'bonus': nothing to plan\n"

    def test_plan_without_bound_pruning_skips_histograms(self):
        # exhaustive search computes no score bounds, so the dry run has no
        # histograms to print
        source, target = example_snapshots()
        pair = SnapshotPair.align(source, target, key="name")
        plan, index = Charles(CharlesConfig(prune_search=False)).plan_pair(pair, "bonus")
        assert index is None
        output = _render_plan(plan, index)
        assert "search plan:" in output
        assert "score-bound histogram" not in output
        assert "exhaustive search or empty plan" in output


class TestServeParser:
    def test_serve_parser_registered(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--max-sessions", "16",
            "--queue-depth", "2", "--tenant-concurrency", "1",
            "--cache-backend", "memory",
        ])
        assert args.command == "serve"
        assert args.max_sessions == 16
        assert args.queue_depth == 2
        assert args.tenant_concurrency == 1
        assert args.port == 0

    def test_serve_defaults_leave_serving_config_to_the_dataclass(self):
        args = build_parser().parse_args(["serve"])
        assert args.max_sessions is None  # ServingConfig defaults apply
        assert args.session_ttl is None
        assert args.ready_file is None


class TestDeadShardStats:
    @pytest.fixture()
    def dead_endpoint(self):
        """A host:port nothing listens on (bound, then released)."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"127.0.0.1:{port}"

    def test_stats_fanout_survives_a_dead_shard(self, dead_endpoint, capsys):
        from repro.cacheserver import AsyncCacheServer

        with AsyncCacheServer() as live:
            code = main([
                "cache", "stats", "--cache-url", f"{live.url},{dead_endpoint}"
            ])
        output = capsys.readouterr().out
        # the fan-out completed: exit 0, live shard's row present, dead
        # shard marked DOWN instead of aborting the whole table
        assert code == 0
        assert live.url in output
        assert dead_endpoint in output
        assert "DOWN" in output
        assert "TOTAL (1 shard DOWN)" in output

    def test_metrics_fanout_notes_the_dead_shard(self, dead_endpoint, capsys):
        from repro.cacheserver import AsyncCacheServer

        with AsyncCacheServer() as live:
            code = main([
                "cache", "stats", "--metrics",
                "--cache-url", f"{live.url},{dead_endpoint}",
            ])
        output = capsys.readouterr().out
        assert code == 0
        assert f"== {live.url} ==" in output
        assert "# DOWN:" in output
        assert "cacheserver_requests_total" in output or "requests" in output

    def test_clear_stays_strict_about_dead_shards(self, dead_endpoint, capsys):
        # clear is deliberately all-or-error: a half-cleared fabric serving
        # stale hit rates is worse than an explicit failure
        code = main(["cache", "clear", "--cache-url", dead_endpoint])
        assert code == 2
