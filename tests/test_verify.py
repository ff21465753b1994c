"""Tests for the differential-verification subsystem (repro.verify)."""

import json
from dataclasses import replace

import pytest

from repro.annealers.device import bqm_fingerprint
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.qubo.bqm import BinaryQuadraticModel
from repro.verify import (
    Case,
    Violation,
    build_case,
    build_corpus,
    check_compiled_energy_consistency,
    check_embedding_validity,
    check_fix_variable_conservation,
    check_ising_round_trip,
    check_join_decode_consistency,
    check_matrix_energy,
    check_mqo_decode_consistency,
    check_qubo_round_trip,
    check_shard_reconciliation,
    check_transpile_equivalence,
    compute_oracle,
    random_assignments,
    random_circuit,
    run_verification,
    sweep_solver_names,
)
from repro.verify import runner
from repro.verify.runner import PLANTED_BUGS, POINT_TYPES, Plant, prove_planted_bug


def _mqo_case(queries=2, ppq=2, seed=5):
    return Case(
        case_id=f"mqo-{queries}x{ppq}",
        kind="mqo",
        params={"queries": queries, "ppq": ppq, "seed": seed},
    )


def _join_case(shape="chain", relations=3, seed=5):
    return Case(
        case_id=f"join-{shape}-{relations}",
        kind="join_order",
        params={"shape": shape, "relations": relations, "seed": seed},
    )


class TestCorpus:
    def test_quick_is_prefix_shapes_of_full(self):
        quick = {c.case_id for c in build_corpus("quick", seed=0)}
        full = {c.case_id for c in build_corpus("full", seed=0)}
        assert quick < full

    def test_same_seed_same_instances(self):
        a = build_corpus("quick", seed=3)
        b = build_corpus("quick", seed=3)
        assert a == b

    def test_different_seed_different_instances(self):
        a = build_corpus("quick", seed=3)
        b = build_corpus("quick", seed=4)
        assert [c.params["seed"] for c in a] != [c.params["seed"] for c in b]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            build_corpus("nightly")

    def test_build_case_materializes_adapter(self):
        built = build_case(_mqo_case())
        assert built.bqm.num_variables == 4
        assert built.adapter.kind == "mqo"


class TestOracle:
    def test_mqo_oracle_energy_matches_cost(self):
        case = _mqo_case(3, 3)
        built = build_case(case)
        record = compute_oracle(case, cache=False)
        assert record["violations"] == []
        expected = record["cost"] - built.builder.weight_l() * 3
        assert record["energy"] == pytest.approx(expected, abs=1e-6)

    def test_join_oracle_ground_energy_is_min_surrogate(self):
        record = compute_oracle(_join_case("star", 4), cache=False)
        assert record["violations"] == []
        assert record["energy"] == pytest.approx(record["surrogate"], abs=1e-6)
        assert len(record["plan"]["order"]) == 4

    def test_join_oracle_cost_matches_exhaustive(self):
        from repro.joinorder.classical import solve_exhaustive

        case = _join_case("chain", 4)
        built = build_case(case)
        record = compute_oracle(case, cache=False)
        assert record["cost"] == pytest.approx(
            solve_exhaustive(built.problem).cost
        )

    def test_cache_roundtrip(self, tmp_path):
        case = _mqo_case()
        first = compute_oracle(case, cache=True, cache_dir=str(tmp_path))
        second = compute_oracle(case, cache=True, cache_dir=str(tmp_path))
        assert first["cached"] is False
        assert second["cached"] is True
        first.pop("cached"), second.pop("cached")
        assert first == second

    def test_fingerprint_tracks_coefficients(self):
        # the oracle cache keys on this hash, so a 1e-9 nudge must change it
        bqm = BinaryQuadraticModel.from_qubo({("a", "a"): 1.0, ("a", "b"): -2.0})
        fp = bqm_fingerprint(bqm)
        tweaked = bqm.copy()
        tweaked.add_quadratic("a", "b", 1e-9)
        assert bqm_fingerprint(tweaked) != fp
        assert bqm_fingerprint(bqm.copy()) == fp


class TestInvariants:
    @pytest.mark.parametrize("case", build_corpus("quick", seed=0), ids=lambda c: c.case_id)
    def test_catalog_passes_on_quick_corpus(self, case):
        built = build_case(case)
        samples = random_assignments(built.bqm, 12, seed=1)
        subject = case.case_id
        assert check_ising_round_trip(built.bqm, samples, subject) == []
        assert check_qubo_round_trip(built.bqm, samples, subject) == []
        assert check_matrix_energy(built.bqm, samples, subject) == []
        assert check_compiled_energy_consistency(built.bqm, samples, subject) == []
        assert check_fix_variable_conservation(built.bqm, samples[:4], subject) == []

    def test_compiled_consistency_catches_dropped_interaction(self):
        built = build_case(_mqo_case(3, 3))
        samples = random_assignments(built.bqm, 8, seed=1)
        bad = check_compiled_energy_consistency(
            built.bqm, samples, drop_interaction=True
        )
        assert bad and bad[0].invariant == "compiled-energy-consistency"

    def test_compiled_consistency_catches_linear_bug_without_edges(self):
        bqm = BinaryQuadraticModel({"a": 1.0, "b": -2.0})
        samples = random_assignments(bqm, 6, seed=2)
        bad = check_compiled_energy_consistency(bqm, samples, drop_interaction=True)
        assert bad and bad[0].invariant == "compiled-energy-consistency"

    def test_ising_round_trip_catches_coupling_bug(self):
        built = build_case(_mqo_case(3, 3))
        samples = random_assignments(built.bqm, 8, seed=1)
        bad = check_ising_round_trip(built.bqm, samples, j_scale=1.01)
        assert bad and bad[0].invariant == "ising-round-trip"
        assert "ising-round-trip" in bad[0].describe()

    def test_shard_reconciliation_clean_on_reconciled_merge(self):
        built = build_case(_join_case("star", 4))
        assert check_shard_reconciliation(built.bqm, seed=0) == []

    def test_shard_reconciliation_catches_skipped_boundary_pass(self):
        built = build_case(_join_case("star", 4))
        bad = check_shard_reconciliation(built.bqm, seed=0, reconcile=False)
        assert bad and all(v.invariant == "shard-reconciliation" for v in bad)

    def test_mqo_decode_consistency_and_shift_detection(self):
        built = build_case(_mqo_case(3, 3))
        # a guaranteed-valid selection: the first plan of every query
        sample = {v: 0 for v in built.bqm.variables}
        from repro.mqo.qubo import variable_name

        for _, plans in sorted(built.problem.plans_by_query().items()):
            sample[variable_name(plans[0].plan_id)] = 1
        ok = check_mqo_decode_consistency(
            built.problem, built.builder, built.bqm, [sample]
        )
        assert ok == []
        bad = check_mqo_decode_consistency(
            built.problem, built.builder, built.bqm, [sample], cost_shift=1.0
        )
        assert bad and bad[0].invariant == "decode-cost-consistency"

    def test_join_decode_consistency_and_shift_detection(self):
        built = build_case(_join_case("chain", 4))
        orders = [tuple(built.problem.relation_names)]
        assert check_join_decode_consistency(built.builder, built.bqm, orders) == []
        bad = check_join_decode_consistency(
            built.builder, built.bqm, orders, cost_shift=0.5
        )
        assert bad and bad[0].invariant == "decode-cost-consistency"

    def test_transpile_equivalence_full_map(self):
        circuit = random_circuit(4, depth=3, seed=2)
        assert check_transpile_equivalence(circuit) == []

    def test_transpile_equivalence_line_topology(self):
        from repro.gate.topologies import line_coupling_map

        circuit = random_circuit(4, depth=3, seed=3)
        violations = check_transpile_equivalence(
            circuit, coupling_map=line_coupling_map(5), seed=3
        )
        assert violations == []

    def test_embedding_validity_accepts_real_embedding(self):
        from repro.annealing.chimera import chimera_graph
        from repro.annealing.embedding import find_embedding

        built = build_case(_mqo_case(3, 3))
        source = built.bqm.interaction_graph()
        target = chimera_graph(4)
        embedding = find_embedding(source, target, seed=0, stop_at_first=True)
        assert check_embedding_validity(source, target, embedding) == []

    def test_embedding_validity_names_broken_chain(self):
        import networkx as nx

        source = nx.path_graph(3)
        target = nx.path_graph(6)

        class FakeEmbedding:
            chains = {0: (0,), 1: (), 2: (2,)}

        violations = check_embedding_validity(source, target, FakeEmbedding())
        kinds = {v.invariant for v in violations}
        assert kinds == {"embedding-validity"}
        assert any("empty chain" in v.message for v in violations)

    def test_embedding_none_is_violation(self):
        import networkx as nx

        got = check_embedding_validity(
            nx.path_graph(2), nx.path_graph(4), None
        )
        assert got and "no embedding" in got[0].message

    def test_violation_round_trips_to_dict(self):
        violation = Violation("x", "y", "z", {"k": 1})
        assert violation.to_dict() == {
            "invariant": "x",
            "subject": "y",
            "message": "z",
            "details": {"k": 1},
        }


class TestRunner:
    def test_quick_subset_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        report = run_verification(
            suite="quick",
            solvers=["exact", "greedy"],
            seed=0,
            types=["solver", "invariants", "sql", "routing", "shard"],
        )
        assert report.ok
        assert [s.solver for s in report.summaries] == ["exact", "greedy"]
        exact = report.summaries[0]
        assert exact.cases == exact.valid == exact.optimal == 5
        assert exact.invalid_rate == 0.0

    def test_sql_points_run_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        report = run_verification(suite="quick", seed=0, types=["sql"])
        assert report.ok
        assert len(report.rows) == 3
        assert all(r["type"] == "sql" and r["checks"] > 0 for r in report.rows)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown solver"):
            run_verification(suite="quick", solvers=["does-not-exist"])

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown injection"):
            run_verification(suite="quick", inject="cosmic-rays")

    def test_unknown_point_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown point type"):
            run_verification(suite="quick", types=["solver", "telepathy"])

    def test_sweep_names_hide_aliases(self):
        names = sweep_solver_names()
        assert "exhaustive" not in names
        assert "exact" in names and "hybrid" in names


class TestPlantedBugs:
    @pytest.mark.parametrize("name", list(PLANTED_BUGS))
    def test_caught_on_every_target(self, name, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        bug = PLANTED_BUGS[name]
        assert bug.targets and set(bug.targets) <= set(POINT_TYPES)
        sweep = dict(suite="quick", solvers=["exact", "greedy"], seed=0)
        clean = run_verification(types=bug.targets, **sweep)
        assert clean.ok, clean.first_violation()
        assert {row["type"] for row in clean.rows} == set(bug.targets)
        proof = prove_planted_bug(name, **sweep)
        assert proof.caught, proof.format_line()
        assert all(proof.hits[target] > 0 for target in bug.targets)


class TestCli:
    def _run_json(self, capsys, tmp_path, workers):
        code = main(
            [
                "verify",
                "--suite", "quick",
                "--solver", "exact,greedy",
                "--seed", "0",
                "--workers", str(workers),
                "--json",
                "--cache-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        return code, out

    def test_json_deterministic_across_workers(self, capsys, tmp_path):
        code1, out1 = self._run_json(capsys, tmp_path, workers=1)
        code2, out2 = self._run_json(capsys, tmp_path, workers=2)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert payload["suite"] == "quick"

    def test_inject_exits_nonzero_naming_invariant(self, capsys, tmp_path):
        code = main(
            [
                "verify",
                "--suite", "quick",
                "--solver", "exact",
                "--seed", "0",
                "--inject", "offset",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "invariant 'oracle-energy-lower-bound'" in captured.err
        assert "exact" in captured.err

    def test_text_report_mentions_solvers(self, capsys, tmp_path):
        code = main(
            [
                "verify",
                "--suite", "quick",
                "--solver", "greedy",
                "--seed", "0",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "greedy" in captured.out
        assert "violations=0" in captured.out

    def test_inject_all_names_the_bug_that_escapes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(
            runner.PLANTED_BUGS, "sql", replace(PLANTED_BUGS["sql"], plant=Plant())
        )
        code = main(
            [
                "verify",
                "--suite", "quick",
                "--solver", "greedy",
                "--seed", "0",
                "--workers", "1",
                "--inject", "all",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: planted bug(s) escaped: sql" in captured.err
        lines = captured.out.splitlines()
        assert "7/8 caught" in lines[0]
        assert len(lines) == 1 + len(PLANTED_BUGS)
        for name, line in zip(PLANTED_BUGS, lines[1:]):
            status = "ESCAPED" if name == "sql" else "caught"
            assert line.split()[:2] == [name, status]
