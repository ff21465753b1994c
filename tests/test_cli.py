"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "tables12" in out and "fig14-left" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiments_run_table3(self, capsys):
        assert main(["experiments", "table3", "--no-cache"]) == 0
        assert "51000" in capsys.readouterr().out.replace(",", "")

    def test_experiments_workers_flag(self, capsys):
        assert main(["experiments", "table3", "--workers", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 worker(s)" in out

    def test_experiments_bad_workers_clean_error(self, capsys):
        assert main(["experiments", "table3", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err

    def test_experiments_seed_flag(self, capsys):
        assert main(["experiments", "table3", "--seed", "5", "--no-cache"]) == 0
        assert "51000" in capsys.readouterr().out.replace(",", "")

    def test_experiments_cache_roundtrip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["experiments", "table3", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "(0 cached)" in first
        assert main(["experiments", "table3", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "(3 cached)" in second

    def test_solve_mqo_greedy(self, capsys):
        assert main(["solve-mqo", "--solver", "greedy", "--seed", "3"]) == 0
        assert "plans" in capsys.readouterr().out

    def test_solve_mqo_annealing(self, capsys):
        code = main(
            ["solve-mqo", "--solver", "annealing", "--queries", "2", "--ppq", "2"]
        )
        assert code == 0

    def test_solve_join_dp(self, capsys):
        assert main(["solve-join", "--shape", "star", "--relations", "5"]) == 0
        assert "C_out" in capsys.readouterr().out

    def test_solve_join_direct_qubo(self, capsys):
        code = main(
            [
                "solve-join",
                "--solver",
                "direct-qubo",
                "--relations",
                "4",
                "--reads",
                "40",
            ]
        )
        assert code == 0
        assert "direct encoding: 16 qubits" in capsys.readouterr().out

    def test_optimize_prints_cache_line(self, capsys):
        argv = ["optimize", "--problem", "mqo", "--queries", "4", "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # one direct solve: no result-cache lookup, one compile miss
        assert "cache: result hits 0/0 (0.0%), compile hits 0" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "repro.qubo" in capsys.readouterr().out


class TestSqlCommand:
    _SQL = (
        "SELECT * FROM customer AS c "
        "JOIN orders AS o ON c.c_custkey = o.o_custkey "
        "WHERE c.c_acctbal >= 100"
    )

    def test_parse(self, capsys):
        assert main(["sql", "parse", self._SQL]) == 0
        out = capsys.readouterr().out
        assert "customer AS c" in out
        assert "predicates: 2" in out

    def test_explain(self, capsys):
        assert main(["sql", "explain", self._SQL]) == 0
        out = capsys.readouterr().out
        assert "Scan customer AS c" in out
        assert "join graph: 2 relations" in out

    def test_optimize(self, capsys):
        assert main(["sql", "optimize", self._SQL, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "order:" in out and "C_out=" in out

    def test_generate_deterministic(self, capsys):
        assert main(["sql", "generate", "--count", "2", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sql", "generate", "--count", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert first.count("SELECT") == 2

    def test_generated_queries_optimize(self, capsys):
        assert main(["sql", "generate", "--count", "1", "--seed", "8"]) == 0
        sql = capsys.readouterr().out.strip().rstrip(";")
        assert main(["sql", "optimize", sql, "--seed", "1"]) == 0

    def test_syntax_error_exits_2(self, capsys):
        assert main(["sql", "parse", "SELECT * FROM a CROSS JOIN b"]) == 2
        assert "CROSS JOIN" in capsys.readouterr().err

    def test_missing_query_exits_2(self, capsys):
        assert main(["sql", "explain"]) == 2
        assert "needs a query" in capsys.readouterr().err
