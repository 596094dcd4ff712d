import json

import pytest

from digraphsub import cli, mader
from digraphsub.cli import build_parser, main, parse_pattern
from digraphsub.core import (
    MAX_VERTICES,
    bioriented_clique,
    build_digraph,
    directed_cycle,
    k3_minus_e,
    pattern_cab,
    write_edge_list,
)
from digraphsub.errors import BadParams, DegeneratePattern, InvariantViolation
from digraphsub.oracle import DEFAULT_BUDGET

from .conftest import run_script


@pytest.fixture
def bivec_k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(write_edge_list(bioriented_clique(3)))
    return str(path)


@pytest.fixture
def bivec_k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(write_edge_list(bioriented_clique(4)))
    return str(path)


class TestBudgetDefault:
    @pytest.mark.parametrize("argv", [
        ["find", "--in", "host.edges", "--pattern", "cab:2,1"],
        ["verify", "--pattern", "k3e", "--k", "2"],
    ])
    def test_budget_defaults_to_library_default(self, argv):
        assert build_parser().parse_args(argv).budget == DEFAULT_BUDGET


class TestPatternLanguage:
    def test_known_specs(self):
        assert parse_pattern("cab:2,3") == pattern_cab(2, 3)
        assert parse_pattern("k3e") == k3_minus_e()
        assert parse_pattern("dicycle:5") == directed_cycle(5)
        assert parse_pattern("bivec-clique:4") == bioriented_clique(4)

    def test_unknown(self):
        with pytest.raises(BadParams):
            parse_pattern("nonsense:1")

    def test_degenerate(self):
        with pytest.raises(DegeneratePattern):
            parse_pattern("cab:1,1")


class TestFind:
    def test_k3e_on_bivec_k3(self, bivec_k3_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["find", "--pattern", "k3e", "--in", bivec_k3_file, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"branch", "paths"}

    def test_twoblock_lower_bound_exit_1(self, bivec_k4_file):
        code = main(["find", "--pattern", "twoblock:3,2", "--in", bivec_k4_file])
        assert code == 1

    @pytest.mark.parametrize("spec", ["cab:2", "cab:x", "twoblock:3"])
    def test_malformed_spec_exit_4(self, spec, bivec_k4_file, capsys):
        assert main(["find", "--pattern", spec, "--in", bivec_k4_file]) == 4
        assert "pattern" in capsys.readouterr().err

    def test_malformed_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("this is not a graph\n")
        assert main(["find", "--pattern", "k3e", "--in", str(bad)]) == 3

    def test_dicycle_pattern(self, bivec_k4_file, tmp_path):
        out = tmp_path / "c.json"
        code = main(["find", "--pattern", "dicycle:4", "--in", bivec_k4_file, "--out", str(out)])
        assert code == 0

    def test_run_log_written(self, tmp_path):
        host = tmp_path / "host.edges"
        from digraphsub.synthetic import wired_cycle_host
        import random

        d, _, _ = wired_cycle_host(random.Random(0), 2, 2, 2)
        host.write_text(write_edge_list(d))
        log = tmp_path / "run.jsonl"
        code = main(["find", "--pattern", "cab:2,2", "--in", str(host), "--log", str(log)])
        assert code == 0
        events = [json.loads(line) for line in log.read_text().splitlines() if line]
        assert any(e["event"] == "close" for e in events)

    def test_run_log_written_when_the_budget_runs_out(self, tmp_path, capsys):
        from digraphsub.synthetic import ring_of_cycle_gadgets

        host = tmp_path / "ring.edges"
        host.write_text(write_edge_list(ring_of_cycle_gadgets(200)))
        log = tmp_path / "run.jsonl"
        argv = ["find", "--pattern", "cab:2,1", "--in", str(host), "--budget", "500", "--log", str(log)]
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("budget exhausted:")
        events = [json.loads(line) for line in log.read_text().splitlines() if line]
        assert events

    @pytest.mark.parametrize("spec", ["k3e", "twoblock:2,2"])
    def test_run_log_written_for_k3e_and_twoblock(self, spec, tmp_path):
        host = tmp_path / "k5.edges"
        host.write_text(write_edge_list(bioriented_clique(5)))
        log = tmp_path / "run.jsonl"
        assert main(["find", "--pattern", spec, "--in", str(host), "--log", str(log)]) == 0
        assert [json.loads(line) for line in log.read_text().splitlines() if line]

    def test_k3e_host_with_a_sink_exit_1(self, tmp_path, capsys):
        host = tmp_path / "sink.edges"
        host.write_text(write_edge_list(build_digraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])))
        assert main(["find", "--pattern", "k3e", "--in", str(host)]) == 1
        assert "not found: precondition" in capsys.readouterr().out


class TestK3eBugsStayLoud:
    # only a failed degree precondition is a miss; any other error from
    # find_k3e is a library bug and must reach the caller
    @pytest.fixture
    def broken_k3e(self, monkeypatch):
        def find_k3e(d, v0=None, trace=None):
            raise InvariantViolation("planted")

        monkeypatch.setattr(cli, "find_k3e", find_k3e)

    def test_find_propagates(self, broken_k3e, bivec_k3_file):
        with pytest.raises(InvariantViolation, match="planted"):
            main(["find", "--pattern", "k3e", "--in", bivec_k3_file])

    def test_verify_propagates(self, broken_k3e):
        with pytest.raises(InvariantViolation, match="planted"):
            main(["verify", "--pattern", "k3e", "--k", "2", "--n-max", "3"])


class TestConstructBugsStayLoud:
    # only input and usage errors become exit codes; any other error from
    # a join is a library bug and must reach the caller
    def test_construct_propagates(self, monkeypatch, tmp_path):
        def join_no_k4(block):
            raise InvariantViolation("planted")

        monkeypatch.setattr(cli, "join_no_k4", join_no_k4)
        block = tmp_path / "block.edges"
        block.write_text(write_edge_list(directed_cycle(5), comments=["property: no-even-dicycle"]))
        with pytest.raises(InvariantViolation, match="planted"):
            main(["construct", "--family", "no-k4", "--block", str(block)])


class TestCheck:
    def test_round_trip(self, bivec_k3_file, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["find", "--pattern", "k3e", "--in", bivec_k3_file, "--out", str(cert)]) == 0
        assert main(["check", "--pattern", "k3e", "--in", bivec_k3_file, "--cert", str(cert)]) == 0

    def test_tampered_certificate(self, bivec_k3_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["find", "--pattern", "k3e", "--in", bivec_k3_file, "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["paths"][0]["vertices"] = [0, 1, 2]
        cert.write_text(json.dumps(payload))
        assert main(["check", "--pattern", "k3e", "--in", bivec_k3_file, "--cert", str(cert)]) == 1

    def test_list_shaped_certificate_exit_3(self, bivec_k3_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text('{"branch": [], "paths": []}')
        assert main(["check", "--pattern", "k3e", "--in", bivec_k3_file, "--cert", str(cert)]) == 3
        assert "bad certificate JSON" in capsys.readouterr().err

    def test_vertex_count_over_cap_exit_3(self, bivec_k3_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["find", "--pattern", "k3e", "--in", bivec_k3_file, "--out", str(cert)])
        huge = tmp_path / "huge.edges"
        huge.write_text(f"{MAX_VERTICES + 1} 0\n")
        assert main(["check", "--pattern", "k3e", "--in", str(huge), "--cert", str(cert)]) == 3
        assert "MAX_VERTICES" in capsys.readouterr().err

    def test_wrong_pattern(self, bivec_k3_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["find", "--pattern", "k3e", "--in", bivec_k3_file, "--out", str(cert)])
        code = main(["check", "--pattern", "twoblock:2,2", "--in", bivec_k3_file, "--cert", str(cert)])
        assert code == 1
        assert "arity" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["transitive:-3", "bivec-clique:-1", "bivec-path:-2", "bivec-star:-1"])
def test_negative_pattern_size_is_a_bad_spec(spec, bivec_k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text('{"branch": {}, "paths": []}')
    assert main(["check", "--pattern", spec, "--in", bivec_k3_file, "--cert", str(cert)]) == 3
    assert main(["find", "--pattern", spec, "--in", bivec_k3_file]) == 4
    assert main(["verify", "--pattern", spec, "--k", "2", "--n-max", "3"]) == 4
    assert main(["witness", "--pattern", spec]) == 4
    assert capsys.readouterr().err.count(" >= 0 ") == 4


class TestVerify:
    def test_k3e_counterexample(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--pattern", "k3e", "--k", "1", "--n-max", "3", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["outcome"] == "counterexample"

    def test_k3e_small_all_contain(self, tmp_path):
        csv_out = tmp_path / "report.csv"
        code = main(["verify", "--pattern", "k3e", "--k", "2", "--n-max", "4", "--csv", str(csv_out)])
        assert code == 0
        assert "all-contain" in csv_out.read_text()

    def test_sampled_sweep(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--pattern", "k3e", "--k", "2", "--n-max", "7", "--mode", "sampled",
                     "--samples", "20", "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert (report["mode"], report["checked"], report["seed"]) == ("sampled", 20, 4)

    def test_finder_out_of_budget_exit_2(self):
        # the two-block finder runs out of its one node, and so does the
        # oracle's re-check: an inconclusive sweep, not a traceback
        proc = run_script("""
            import sys
            from digraphsub.cli import main
            sys.exit(main(["verify", "--pattern", "twoblock:3,2", "--k", "4", "--n-max", "5", "--budget", "1"]))
        """)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.strip() == "inconclusive: checked 1 hosts, 1 budget failures"

    def test_sampled_n_max_below_the_smallest_host_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(mader, "sample_digraph", None)
        argv = ["verify", "--pattern", "k3e", "--k", "2", "--mode", "sampled", "--n-max", "2"]
        assert main(argv) == 4
        assert "needs n_max >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("k,n_max", [("2", "1"), ("4", "4"), ("0", "1")])
    def test_exhaustive_n_max_below_the_smallest_host_exit_4(self, k, n_max, monkeypatch, capsys):
        # a sweep that would check no host is a usage error, not an all-contain
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        assert main(["verify", "--pattern", "k3e", "--k", k, "--n-max", n_max]) == 4
        assert f"needs n_max >= {max(int(k) + 1, 2)}" in capsys.readouterr().err

    def test_negative_degree_exit_4(self, monkeypatch, capsys):
        # exit 1 means a counterexample; a bad degree is a usage error
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        assert main(["verify", "--pattern", "k3e", "--k", "-1", "--n-max", "3"]) == 4
        assert "tested degree -1 is negative" in capsys.readouterr().err

    def test_sampled_without_samples_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(mader, "sample_digraph", None)
        argv = ["verify", "--pattern", "k3e", "--k", "2", "--mode", "sampled", "--n-max", "7", "--samples", "0"]
        assert main(argv) == 4
        assert "needs samples >= 1" in capsys.readouterr().err

    def test_exhaustive_past_the_limit_exit_4(self, monkeypatch, capsys):
        # the size check comes before any host is enumerated or searched
        monkeypatch.setattr(mader, "enumerate_digraphs", None)
        assert main(["verify", "--pattern", "k3e", "--k", "2", "--n-max", "6"]) == 4
        assert "capped at 5 vertices" in capsys.readouterr().err


class TestConstructAndStats:
    def test_construct_and_analyse(self, tmp_path, capsys):
        block = tmp_path / "block.edges"
        block.write_text(write_edge_list(directed_cycle(5), comments=["property: no-even-dicycle"]))
        host = tmp_path / "host.edges"
        layout = tmp_path / "layout.json"
        code = main([
            "construct", "--family", "no-k4", "--block", str(block),
            "--out", str(host), "--layout", str(layout),
        ])
        assert code == 0
        assert json.loads(layout.read_text())["apex"] == [10]

        code = main(["stats", "--in", str(host)])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "girth=2" in line and "arc_connectivity=" in line

    @pytest.mark.parametrize("family, block, code", [
        ("no-k4", None, 3),
        ("no-k4", (build_digraph(0, []), "no-even-dicycle"), 3),
        ("no-k4", (directed_cycle(4), "no-even-dicycle"), 3),
        ("no-k4", (directed_cycle(4), "no-s3-subdivision"), 4),
        ("no-s4", (directed_cycle(5), "no-even-dicycle"), 4),
    ])
    def test_construct_input_errors(self, family, block, code, tmp_path, capsys):
        # a missing file, an empty block or a block failing its claim is an
        # input error (3); a block claiming the other family's property is
        # a usage error (4)
        path = tmp_path / "block.edges"
        if block is not None:
            graph, prop = block
            path.write_text(write_edge_list(graph, comments=[f"property: {prop}"]))
        assert main(["construct", "--family", family, "--block", str(path)]) == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_stats_c5(self, tmp_path, capsys):
        f = tmp_path / "c5.edges"
        f.write_text(write_edge_list(directed_cycle(5)))
        assert main(["stats", "--in", str(f)]) == 0
        line = capsys.readouterr().out.strip()
        assert "girth=5" in line and "min_out_degree=1" in line and "arc_connectivity=1" in line

    def test_stats_acyclic_inf(self, tmp_path, capsys):
        from digraphsub.core import transitive_tournament

        f = tmp_path / "tt.edges"
        f.write_text(write_edge_list(transitive_tournament(4)))
        assert main(["stats", "--in", str(f)]) == 0
        assert "girth=inf" in capsys.readouterr().out

    def test_dot_export(self, tmp_path):
        f = tmp_path / "c3.edges"
        f.write_text(write_edge_list(directed_cycle(3)))
        out = tmp_path / "c3.dot"
        assert main(["stats", "--in", str(f), "--format", "dot", "--out", str(out)]) == 0
        assert "0 -> 1;" in out.read_text()


class TestWitness:
    def test_witness_for_twoblock(self, tmp_path, capsys):
        out = tmp_path / "w.edges"
        code = main(["witness", "--pattern", "twoblock:3,2", "--out", str(out)])
        assert code == 0
        assert "witness on 4 vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["bivec-clique:1", "transitive:0"])
    def test_pattern_below_two_vertices_exit_4(self, spec, capsys):
        assert main(["witness", "--pattern", spec]) == 4
        assert "at least two vertices" in capsys.readouterr().err


class TestUsageErrors:
    # exit 2 means a spent search budget, so argparse's own exit 2 for a
    # malformed command line is reported as the usage error it is
    @pytest.mark.parametrize("argv", [
        ["find", "--pattern", "k3e"],
        ["verify", "--pattern", "k3e", "--k", "x"],
        ["frobnicate"],
        ["verify", "--pattern", "k3e", "--k", "2", "--mode", "bogus"],
        [],
        ["witness", "--pattern", "k3e", "--budget", "5"],
    ])
    def test_argparse_errors_exit_4(self, argv, capsys):
        assert main(argv) == 4
        assert "error:" in capsys.readouterr().err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["find", "--help"])
        assert info.value.code == 0
        assert "--budget" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["find", "--pattern", "cab:2,1", "--in", "host.edges", "--budget", "-3"],
        ["find", "--pattern", "twoblock:2,2", "--in", "host.edges", "--budget", "-3"],
        ["find", "--pattern", "dicycle:3", "--in", "host.edges", "--budget", "-3"],
        ["find", "--pattern", "k3e", "--in", "host.edges", "--budget", "-3"],
        ["verify", "--pattern", "twoblock:2,2", "--k", "3", "--n-max", "4", "--budget", "-1"],
    ])
    def test_negative_budget_exit_4_before_any_search(self, argv, monkeypatch, capsys):
        for name in ("_load_graph", "_resolve", "verify_upper"):
            monkeypatch.setattr(cli, name, None)
        assert main(argv) == 4
        assert "is negative" in capsys.readouterr().err

    def test_zero_budget_is_a_budget(self, bivec_k4_file, capsys):
        argv = ["find", "--pattern", "twoblock:2,2", "--in", bivec_k4_file, "--budget", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("budget exhausted:")

    @pytest.mark.parametrize("pattern, code", [
        ("k3e", 0), ("dicycle:3", 0), ("twoblock:2,2", 2), ("cab:2,1", 2),
    ])
    def test_zero_budget_binds_only_the_budgeted_searches(self, bivec_k4_file, pattern, code):
        # k3e and directed cycles are polynomial and take no budget
        assert main(["find", "--pattern", pattern, "--in", bivec_k4_file, "--budget", "0"]) == code


# exits no other test reaches, run in-process; each check reads the
# output directory, the captured stdout and stderr, and the finder that
# every verify_upper call was handed
CLI_ROWS = [
    pytest.param(["stats", "--in", "{dir}/missing.edges"], 3,
                 lambda out_dir, out, err, finders: err.startswith("error: "), id="stats-missing-file"),
    pytest.param(["stats", "--in", "{k3}", "--out", "{dir}/stats.json"], 0,
                 lambda out_dir, out, err, finders: json.loads((out_dir / "stats.json").read_text()) == {
                     "n": 3, "m": 6, "min_out_degree": 2, "girth": 2,
                     "strong_components": 1, "arc_connectivity": 2,
                 }, id="stats-out-writes-json"),
    pytest.param(["verify", "--pattern", "dicycle:2", "--k", "1", "--n-max", "3"], 0,
                 lambda out_dir, out, err, finders: finders == [None] and out.startswith("all-contain"),
                 id="verify-other-pattern-oracle-alone"),
]


@pytest.mark.parametrize("argv,code,check", CLI_ROWS)
def test_cli_row(argv, code, check, bivec_k3_file, tmp_path, monkeypatch, capsys):
    finders = []
    verify_upper = cli.verify_upper

    def recording(*args, finder, **kwargs):
        finders.append(finder)
        return verify_upper(*args, finder=finder, **kwargs)

    monkeypatch.setattr(cli, "verify_upper", recording)
    assert main([arg.format(dir=tmp_path, k3=bivec_k3_file) for arg in argv]) == code
    captured = capsys.readouterr()
    assert check(tmp_path, captured.out, captured.err, finders)
