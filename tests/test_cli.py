import io
import json

import pytest

import ksssp.cli as cli_mod
from ksssp import (EnumerationCapExceeded, Path, bounded_ssksp,
                   enumerate_all_simple_paths, gen_erdos_renyi,
                   gen_exh_adversarial, load_graph, shortest_path_tree, ss_yen)
from ksssp.cli import (ConfigError, EXIT_CONFIG, EXIT_IO, EXIT_MISMATCH, EXIT_OK,
                       _render_tsv, bench_cell, main, profile_digest, run_solve,
                       run_verify, speedup_summary)

TRIANGLE = "p ksp 3 3 1 1\n0 1 2.0\n1 2 3.0\n0 2 10.0\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.ksp"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def small_er_file(tmp_path, capsys):
    path = tmp_path / "er.ksp"
    assert main(["gen", "er", "--n", "14", "--m", "30", "--seed", "5",
                 "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    return str(path)


class TestSolve:
    def test_triangle_k1_lines(self, triangle_file, capsys):
        assert main(["solve", "--graph", triangle_file, "--root", "0",
                     "--k", "1", "--algo", "bounded"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["1\t1\t2.0\t0-1", "2\t1\t5.0\t0-1-2"]

    def test_json_shape(self, triangle_file, capsys):
        assert main(["solve", "--graph", triangle_file, "--root", "0",
                     "--k", "2", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [obj["vertex"] for obj in payload] == [1, 2]
        two = payload[1]["paths"]
        assert two[0] == {"rank": 1, "weight": 5.0, "vertices": [0, 1, 2]}
        assert two[1] == {"rank": 2, "weight": 10.0, "vertices": [0, 2]}

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["solve", "--graph", str(tmp_path / "nope"), "--root", "0",
                     "--k", "1"]) == EXIT_IO

    def test_parse_error_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ksp"
        bad.write_text("p ksp 2 1 1 1\n0 0 1.0\n")
        assert main(["solve", "--graph", str(bad), "--root", "0",
                     "--k", "1"]) == EXIT_IO

    def test_non_finite_weight_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.ksp"
        bad.write_text("p ksp 2 1 1 1\n0 1 nan\n")
        assert main(["solve", "--graph", str(bad), "--root", "0",
                     "--k", "1"]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    def test_bad_root_is_config_error(self, triangle_file, capsys):
        for command in ("solve", "verify"):
            assert main([command, "--graph", triangle_file, "--root", "9",
                         "--k", "1"]) == EXIT_CONFIG

    def test_bad_k_is_config_error(self, triangle_file, capsys):
        for command in ("solve", "verify"):
            assert main([command, "--graph", triangle_file, "--root", "0",
                         "--k", "0"]) == EXIT_CONFIG

    def test_unknown_algo_rejected_by_parser(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", triangle_file, "--root", "0",
                  "--k", "1", "--algo", "dijkstra"])
        assert exc.value.code == 2

    def test_exh_guard_and_force(self, triangle_file):
        graph = load_graph(io.StringIO(TRIANGLE))
        with pytest.raises(ConfigError, match="enumeration guard"):
            run_solve(graph, 0, 1, "exh", cap=2)
        lines = run_solve(graph, 0, 1, "exh", force=True, cap=2)
        assert lines
        assert run_solve(graph, 0, 1, "exh", cap=10 ** 6) == lines


def solve_with_reference(monkeypatch, graph, root, k, algo):
    """``run_solve``'s TSV lines and a naive rendering of the same solution."""
    captured = []
    solver = cli_mod.SOLVERS[algo]

    def spy(*args, **kwargs):
        captured.append(solver(*args, **kwargs))
        return captured[-1]

    monkeypatch.setitem(cli_mod.SOLVERS, algo, spy)
    lines = run_solve(graph, root, k, algo)
    (solution,) = captured
    reference = [f"{v}\t{rank}\t{p.weight!r}\t" + "-".join(map(str, p.vertices()))
                 for v in sorted(solution.collections)
                 for rank, p in enumerate(solution.collections[v].entries, 1)]
    return lines, reference, solution


class TestRendering:
    # Prefix-shared rendering must print exactly what a plain join of every
    # path's vertex ids prints.
    @pytest.mark.parametrize("algo", ["bounded", "pruned", "exh", "ss-yen"])
    @pytest.mark.parametrize("end", ["root", "terminal"])
    def test_ladder_matches_naive_rendering(self, monkeypatch, algo, end):
        inst = gen_exh_adversarial(6)
        root = inst.root if end == "root" else inst.terminal
        lines, reference, solution = solve_with_reference(
            monkeypatch, inst.graph, root, 3, algo)
        longest = max(p.length for col in solution.collections.values()
                      for p in col.entries)
        assert longest == 2 * 6 + 2          # some path spans the ladder
        assert lines == reference

    def test_exceptional_insertions_match_naive_rendering(self, monkeypatch):
        graph = gen_erdos_renyi(16, 40, True, True, seed=0)
        lines, reference, solution = solve_with_reference(
            monkeypatch, graph, 0, 3, "bounded")
        assert solution.stats.exceptional_insertions > 0
        assert lines == reference

    def test_equal_copies_reuse_parent_text(self, monkeypatch):
        # Reuse goes by path value: in collections of rebuilt copies no
        # path's prefix node is itself an output path, yet only the paths
        # whose prefix equals no output path join all their ids.
        graph = gen_erdos_renyi(16, 40, True, True, seed=0)
        _, reference, solution = solve_with_reference(
            monkeypatch, graph, 0, 3, "bounded")
        for col in solution.collections.values():
            col.entries[:] = [Path.from_vertices(graph, p.vertices())
                              for p in col.entries]
        outputs = {p for col in solution.collections.values()
                   for p in col.entries}
        joined = []
        vertices = Path.vertices

        def spy(path):
            joined.append(path)
            return vertices(path)

        monkeypatch.setattr(Path, "vertices", spy)
        assert _render_tsv(solution, graph.vertex_count) == reference
        want = [p for p in outputs if p.prev not in outputs]
        assert sorted(joined) == sorted(want)
        assert len(want) < len(outputs)


class TestGen:
    def test_er_deterministic_bytes(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["gen", "er", "--n", "100", "--m", "300",
                         "--seed", "7"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("p ksp 100 300 0 0\n")
        assert len(outs[0].strip().splitlines()) == 301

    def test_pruned_adv_header_undirected_weighted(self, capsys):
        assert main(["gen", "pruned-adv", "--d", "3"]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split()[4:] == ["0", "1"]

    def test_exh_adv_generated_file_has_doubling_counts(self, capsys):
        assert main(["gen", "exh-adv", "--d", "4"]) == EXIT_OK
        text = capsys.readouterr().out
        graph = load_graph(io.StringIO(text))
        per_vertex = enumerate_all_simple_paths(graph, 0)
        junction = graph.vertex_count - 2   # last junction precedes terminal
        assert len(per_vertex[junction]) == 16

    def test_missing_params_config_error(self, capsys):
        assert main(["gen", "er", "--n", "5"]) == EXIT_CONFIG
        assert main(["gen", "ba", "--n", "5"]) == EXIT_CONFIG
        assert main(["gen", "exh-adv"]) == EXIT_CONFIG

    def test_infeasible_params_config_error(self, capsys):
        assert main(["gen", "er", "--n", "3", "--m", "99"]) == EXIT_CONFIG


class TestVerify:
    def test_all_algorithms_equal(self, small_er_file, capsys):
        assert main(["verify", "--graph", small_er_file, "--root", "2",
                     "--k", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "EQUAL" in out
        assert "reference: oracle" in out

    def test_k1_reduces_to_distances(self, small_er_file, capsys):
        assert main(["verify", "--graph", small_er_file, "--root", "0",
                     "--k", "1"]) == EXIT_OK
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        spt = shortest_path_tree(graph, 0)
        sol = bounded_ssksp(graph, 0, 1)
        for v, col in sol.collections.items():
            if col.entries:
                assert col.entries[0].weight == spt.dist[v]

    def test_skip_oracle(self, small_er_file, capsys):
        assert main(["verify", "--graph", small_er_file, "--root", "1",
                     "--k", "2", "--skip-oracle"]) == EXIT_OK
        assert "reference: exh" in capsys.readouterr().out

    def test_corrupted_solver_detected(self, small_er_file, monkeypatch):
        graph = load_graph(io.StringIO(open(small_er_file).read()))

        def corrupted(g, root, k, progress=None):
            solution = bounded_ssksp(g, root, k)
            for v, col in sorted(solution.collections.items()):
                if len(col.entries) > 1:
                    col.entries.pop()    # drop one path: wrong profile
                    break
            return solution

        monkeypatch.setitem(cli_mod.SOLVERS, "broken", corrupted)
        lines, code = run_verify(graph, 0, 3, ["bounded", "broken"],
                                 use_oracle=False)
        assert code == EXIT_MISMATCH
        assert any(line.startswith("MISMATCH vertex") for line in lines)

    def test_unknown_algo(self, small_er_file, capsys):
        assert main(["verify", "--graph", small_er_file, "--root", "0",
                     "--k", "1", "--algos", "bounded,magic"]) == EXIT_CONFIG

    def test_enumeration_cap_checked_before_any_solver(self, monkeypatch):
        # 2**20 root-to-terminal paths: both the oracle's cap and exh's guard
        # refuse the ladder before a solver is called.
        inst = gen_exh_adversarial(20)
        calls = []

        def recording(name):
            def solve(graph, root, k, progress=None):
                calls.append(name)
                return bounded_ssksp(graph, root, k)
            return solve

        for name in ("exh", "bounded"):
            monkeypatch.setitem(cli_mod.SOLVERS, name, recording(name))
        with pytest.raises(EnumerationCapExceeded):
            run_verify(inst.graph, inst.root, 2, ["exh", "bounded"], cap=1000)
        with pytest.raises(ConfigError, match="enumeration guard"):
            run_verify(inst.graph, inst.root, 2, ["exh", "bounded"],
                       use_oracle=False, cap=1000)
        assert calls == []


class TestBench:
    def test_tsv_records_and_speedup_rows(self, small_er_file, capsys):
        assert main(["bench", small_er_file, "--k", "1,2", "--roots", "2",
                     "--seed", "3", "--reps", "2"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split("\t")
        assert header == ["graph", "algo", "k", "root", "seconds", "normal_ins",
                          "exceptional_ins", "dequeues", "pksp_calls", "digest"]
        rows = [line.split("\t") for line in out[1:] if not line.startswith("#")]
        assert len(rows) == 8     # 2 algos x 2 roots x 2 k
        speedups = [line for line in out if line.startswith("# speedup")]
        assert len(speedups) == 2

    def test_bench_digest_matches_solve(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        records = bench_cell(graph, "er", 2, roots=[4], reps=2, timeout=60.0)
        by_algo = {r.algorithm: r for r in records}
        direct = profile_digest(bounded_ssksp(graph, 4, 2))
        assert by_algo["bounded"].digest == direct
        assert by_algo["ss-yen"].digest == direct

    def test_timeout_censors(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        records = bench_cell(graph, "er", 2, roots=[1], reps=1, timeout=0.0)
        assert all(r.censored and r.digest == "censored" for r in records)
        summary = speedup_summary(records)
        assert summary == [("er", 2, None)]

    def test_json_format(self, small_er_file, capsys):
        assert main(["bench", small_er_file, "--k", "1", "--roots", "1",
                     "--seed", "0", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"records", "speedups"}
        assert payload["records"][0]["graph"] == small_er_file
        assert payload["speedups"][0]["speedup"] is not None

    def test_graphs_sharing_a_basename_stay_apart(self, tmp_path, capsys):
        paths = []
        for sub, flags in (("a", []), ("b", ["--weighted"])):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "g.ksp"))
            assert main(["gen", "er", "--n", "12", "--m", "24", "--seed", "1",
                         *flags, "--out", paths[-1]]) == EXIT_OK
        capsys.readouterr()
        assert main(["bench", *paths, "--k", "2", "--roots", "2"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        rows = [line.split("\t") for line in out[1:] if not line.startswith("#")]
        assert sorted({row[0] for row in rows}) == paths
        speedups = [line.split("\t")[1] for line in out
                    if line.startswith("# speedup")]
        assert speedups == paths

    @pytest.mark.parametrize("flags", [["--reps", "0"], ["--reps", "-3"],
                                       ["--timeout", "-1"], ["--timeout", "0"],
                                       ["--timeout", "nan"]])
    def test_bad_reps_or_timeout(self, small_er_file, capsys, flags):
        assert main(["bench", small_er_file, "--k", "1", "--roots", "1",
                     *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--reps must be >= 1 and --timeout > 0" in captured.err

    def test_bench_cell_refuses_reps_below_one(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
            bench_cell(graph, "er", 2, roots=[1], reps=0)

    def test_bad_k_list(self, small_er_file, capsys):
        assert main(["bench", small_er_file, "--k", "2,zero"]) == EXIT_CONFIG

    def test_no_graph_files(self, capsys):
        assert main(["bench", "--k", "2"]) == EXIT_CONFIG
        assert "no graph files given" in capsys.readouterr().err

    def test_too_many_roots(self, small_er_file, capsys):
        assert main(["bench", small_er_file, "--roots", "99"]) == EXIT_CONFIG


class TestRunConfig:
    def test_validation(self, monkeypatch):
        graph = load_graph(io.StringIO(TRIANGLE))
        with pytest.raises(ConfigError, match="unknown algorithm"):
            run_solve(graph, 0, 1, "magic")
        with pytest.raises(ConfigError, match="format"):
            run_solve(graph, 0, 1, "exh", fmt="xml")
        # A bad k is refused before exh's enumeration guard counts paths.
        monkeypatch.setattr(cli_mod, "count_simple_paths", None)
        with pytest.raises(ValueError, match="k must be"):
            run_solve(graph, 0, 0, "exh")

    def test_sampled_roots_deterministic_without_replacement(
            self, small_er_file, capsys):
        sampled = []
        for _ in range(2):
            assert main(["bench", small_er_file, "--k", "1", "--roots", "5",
                         "--seed", "11", "--format", "json"]) == EXIT_OK
            records = json.loads(capsys.readouterr().out)["records"]
            sampled.append([r["root"] for r in records
                            if r["algo"] == "bounded"])
        assert sampled[0] == sampled[1]
        assert len(set(sampled[0])) == 5

    def test_explicit_roots_validated(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        assert (run_solve(graph, 3, 1, "bounded")
                != run_solve(graph, 0, 1, "bounded"))
        with pytest.raises(ValueError, match="out of range"):
            run_solve(graph, 99, 1, "bounded")


class TestDigest:
    def test_equal_profiles_equal_digest(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        a = bounded_ssksp(graph, 0, 3)
        b = ss_yen(graph, 0, 3)
        assert profile_digest(a) == profile_digest(b)

    def test_different_profiles_different_digest(self, small_er_file):
        graph = load_graph(io.StringIO(open(small_er_file).read()))
        a = bounded_ssksp(graph, 0, 1)
        b = bounded_ssksp(graph, 0, 2)
        assert profile_digest(a) != profile_digest(b)
