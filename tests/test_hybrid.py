"""Tests for the hybrid subsystem (repro.hybrid): tabu search,
decomposition primitives, the unified solver registry, the qbsolv-style
DecomposingSolver (including the 50-query acceptance instance), and the
hybrid_scaling experiment through the harness."""

import itertools

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.hybrid import (
    DecomposingSolver,
    SolveResult,
    Solver,
    TabuSampler,
    clamp_subproblem,
    flip_energy_gains,
    greedy_descent,
    make_solver,
    pack_components,
    register_solver,
    select_by_energy_impact,
    select_by_graph_partition,
    solver_catalog,
    solver_names,
    strong_components,
)
import repro.hybrid.solver as hybrid_solver
from repro.hybrid.decomposer import component_weights
from repro.hybrid.registry import _FACTORIES
from repro.mqo.generator import random_mqo_problem
from repro.mqo.qubo import MqoQuboBuilder
from repro.mqo.solvers import solve_genetic
from repro.qubo import BinaryQuadraticModel, Vartype, brute_force_minimum
from repro.qubo.compiled import compile_bqm


def _small_bqm():
    """6-variable frustrated model with a unique brute-force optimum."""
    return BinaryQuadraticModel(
        {f"v{i}": 0.3 * (i - 2) for i in range(6)},
        {
            ("v0", "v1"): -1.0,
            ("v1", "v2"): 1.2,
            ("v2", "v3"): -0.8,
            ("v3", "v4"): 0.6,
            ("v4", "v5"): -1.4,
            ("v0", "v5"): 0.9,
        },
        offset=0.25,
    )


def _mqo_bqm(queries=8, ppq=3, seed=17):
    problem = random_mqo_problem(queries, ppq, seed=seed)
    builder = MqoQuboBuilder(problem)
    return problem, builder, builder.build()


# ----------------------------------------------------------------------
# TabuSampler
# ----------------------------------------------------------------------
class TestTabuSampler:
    def test_finds_brute_force_optimum(self):
        bqm = _small_bqm()
        ss = TabuSampler(seed=1).sample(bqm, num_reads=5)
        assert ss.first.energy == pytest.approx(brute_force_minimum(bqm).energy)
        assert ss.vartype is bqm.vartype
        # duplicate reads are merged; the multiplicities still sum up
        assert sum(r.num_occurrences for r in ss) == 5

    def test_deterministic_for_fixed_seed(self):
        bqm = _small_bqm()
        a = TabuSampler(seed=7).sample(bqm, num_reads=3)
        b = TabuSampler(seed=7).sample(bqm, num_reads=3)
        assert [r.sample for r in a] == [r.sample for r in b]
        assert list(a.energies()) == list(b.energies())

    def test_call_seed_overrides_default(self):
        bqm = _small_bqm()
        sampler = TabuSampler(seed=7)
        a = sampler.sample(bqm, num_reads=3, seed=11)
        b = TabuSampler().sample(bqm, num_reads=3, seed=11)
        assert [r.sample for r in a] == [r.sample for r in b]

    def test_spin_models_stay_spin(self):
        bqm = BinaryQuadraticModel(
            {"a": 1.0, "b": -0.5}, {("a", "b"): -2.0}, vartype=Vartype.SPIN
        )
        ss = TabuSampler(seed=0).sample(bqm, num_reads=4)
        assert ss.vartype is Vartype.SPIN
        assert set(ss.first.sample.values()) <= {-1, 1}
        assert ss.first.energy == pytest.approx(brute_force_minimum(bqm).energy)

    def test_warm_start_accepted(self):
        bqm = _small_bqm()
        exact = brute_force_minimum(bqm)
        ss = TabuSampler(seed=2).sample(
            bqm, num_reads=2, initial_states=[dict(exact.sample)]
        )
        assert ss.first.energy <= exact.energy + 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(SolverError):
            TabuSampler(tenure=0)
        with pytest.raises(SolverError):
            TabuSampler().sample(_small_bqm(), num_reads=0)
        with pytest.raises(SolverError):
            TabuSampler().sample(
                _small_bqm(), num_reads=1, initial_states=[{"alien": 1}]
            )

    def test_empty_model(self):
        bqm = BinaryQuadraticModel({}, {}, offset=1.5)
        ss = TabuSampler().sample(bqm, num_reads=1)
        assert ss.first.energy == pytest.approx(1.5)


def _batched_search(starts, spin, tenure, max_iter, stall_limit):
    """Batched numpy tabu search, the bit-identity reference for
    ``TabuSampler._search``: all reads advance together as
    ``(num_reads, n)`` array operations."""
    num_reads, n = starts.shape
    neighbors = spin.neighbor_index
    couplings = spin.neighbor_bias

    spins = starts.copy()
    fields = np.broadcast_to(spin.linear, (num_reads, n)).copy()
    for r in range(num_reads):
        row = spins[r]
        frow = fields[r]
        for i in range(n):
            if len(neighbors[i]):
                frow[i] += row[neighbors[i]] @ couplings[i]

    energies = spin.energies_compat(spins)
    best_spins, best_energies = spins.copy(), energies.copy()
    tabu_until = np.full((num_reads, n), -1, dtype=np.int64)
    stall = np.zeros(num_reads, dtype=np.int64)
    active = np.ones(num_reads, dtype=bool)

    for iteration in range(max_iter):
        deltas = -2.0 * spins * fields
        allowed = tabu_until < iteration
        allowed |= (energies[:, None] + deltas) < best_energies[:, None] - 1e-12
        stuck = ~allowed.any(axis=1)
        if stuck.any():
            allowed[stuck] = True
        masked = np.where(allowed, deltas, np.inf)
        moves = np.argmin(masked, axis=1)

        for r in np.flatnonzero(active):
            i = moves[r]
            spins[r, i] *= -1.0
            energies[r] += deltas[r, i]
            if len(neighbors[i]):
                fields[r, neighbors[i]] += 2.0 * spins[r, i] * couplings[i]
            tabu_until[r, i] = iteration + tenure

            if energies[r] < best_energies[r] - 1e-12:
                best_energies[r] = energies[r]
                best_spins[r] = spins[r]
                stall[r] = 0
            else:
                stall[r] += 1
                if stall[r] >= stall_limit:
                    active[r] = False
        if not active.any():
            break
    return best_spins, best_energies


def _random_model(n, kind, seed, vartype=Vartype.SPIN):
    """``sparse``: ~3 couplers per variable; ``dense``: 90% of pairs;
    ``integer``: small integer biases, so many deltas tie or are ±0.0."""
    rng = np.random.default_rng(seed)
    integer = kind == "integer"
    density = {"sparse": min(1.0, 3.0 / max(n - 1, 1)), "dense": 0.9, "integer": 0.5}[kind]

    def bias():
        return float(rng.integers(-2, 3)) if integer else float(rng.uniform(-1, 1))

    bqm = BinaryQuadraticModel({f"v{i}": bias() for i in range(n)}, vartype=vartype)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(f"v{i}", f"v{j}", bias())
    return bqm


def _assert_bit_identical(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestTabuKernelBitIdentity:
    """The per-read scalar kernel reproduces the batched one exactly:
    best spins and best energies, compared as int64 bit patterns so a
    signed zero or a last-ulp difference fails."""

    @pytest.mark.parametrize("kind", ["sparse", "dense", "integer"])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 49, 64, 130])
    def test_matches_batched_reference(self, n, kind):
        spin = compile_bqm(_random_model(n, kind, seed=1000 * n + len(kind))).spin
        rng = np.random.default_rng(n)
        cases = [
            (min(20, n // 4 + 1), max(500, 50 * n), max(100, 4 * n)),  # defaults
            (n, 30 * n, 3 * n),  # tenure = n: the all-tabu fallback
            (n + 3, 20 * n, 2 * n),  # tenure > n
            (int(rng.integers(1, 4)), 200, 12),  # short runs, early retirement
        ]
        for tenure, max_iter, stall_limit in cases:
            reads = int(rng.integers(1, 11))
            starts = rng.choice((-1.0, 1.0), size=(reads, n))
            got = TabuSampler._search(starts.copy(), spin, tenure, max_iter, stall_limit)
            want = _batched_search(starts.copy(), spin, tenure, max_iter, stall_limit)
            _assert_bit_identical(got, want)

    @pytest.mark.parametrize("tenure", [None, 2, 12])
    def test_warm_started_samples_match(self, monkeypatch, tenure):
        bqm = _random_model(12, "integer", seed=5, vartype=Vartype.BINARY)
        warm = [
            {v: (i + k) % 2 for i, v in enumerate(bqm.variables)} for k in range(3)
        ]
        sampler = TabuSampler(tenure=tenure, seed=3)
        got = sampler.sample(bqm, num_reads=6, initial_states=warm)
        monkeypatch.setattr(TabuSampler, "_search", staticmethod(_batched_search))
        want = sampler.sample(bqm, num_reads=6, initial_states=warm)
        assert [r.sample for r in got] == [r.sample for r in want]
        assert [r.num_occurrences for r in got] == [r.num_occurrences for r in want]
        assert np.array_equal(
            got.energies().view(np.int64), want.energies().view(np.int64)
        )


# ----------------------------------------------------------------------
# Decomposition primitives
# ----------------------------------------------------------------------
class TestDecomposer:
    def test_flip_energy_gains_match_energy_differences(self):
        bqm = _small_bqm()
        sample = {v: (i % 2) for i, v in enumerate(sorted(bqm.variables))}
        gains = flip_energy_gains(bqm, sample)
        base = bqm.energy(sample)
        for v in bqm.variables:
            flipped = dict(sample)
            flipped[v] = 1 - flipped[v]
            assert gains[v] == pytest.approx(bqm.energy(flipped) - base)

    def test_energy_impact_blocks_cover_all_variables(self):
        bqm = _small_bqm()
        sample = {v: 0 for v in bqm.variables}
        blocks = select_by_energy_impact(bqm, sample, sub_size=4)
        assert [len(b) for b in blocks] == [4, 2]
        flat = [v for block in blocks for v in block]
        assert sorted(flat, key=str) == sorted(bqm.variables, key=str)

    def test_strong_components_recover_mqo_cliques(self):
        """Penalty couplings of the MQO encoding dominate, so the
        strong-coupling components are exactly the per-query cliques."""
        problem, _, bqm = _mqo_bqm(queries=6, ppq=3)
        components = strong_components(bqm)
        assert len(components) == problem.num_queries
        by_query = problem.plans_by_query()
        expected = {
            frozenset(f"x{p.plan_id}" for p in plans)
            for plans in by_query.values()
        }
        assert {frozenset(c) for c in components} == expected

    def test_pack_components_respects_sub_size(self):
        _, _, bqm = _mqo_bqm(queries=10, ppq=3)
        components = strong_components(bqm)
        weights = component_weights(bqm, components)
        blocks = pack_components(
            components, weights, range(len(components)), sub_size=7
        )
        assert all(len(b) <= 7 for b in blocks)
        flat = sorted(v for b in blocks for v in b)
        assert flat == sorted(bqm.variables)

    def test_pack_components_chops_oversized_components(self):
        _, _, bqm = _mqo_bqm(queries=2, ppq=4)
        components = strong_components(bqm)
        weights = component_weights(bqm, components)
        blocks = pack_components(
            components, weights, range(len(components)), sub_size=3
        )
        assert all(len(b) <= 3 for b in blocks)
        assert sorted(v for b in blocks for v in b) == sorted(bqm.variables)

    def test_graph_partition_deterministic_without_order(self):
        _, _, bqm = _mqo_bqm()
        assert select_by_graph_partition(bqm, 6) == select_by_graph_partition(
            bqm, 6
        )

    def test_clamp_subproblem_energy_identity(self):
        """Sub-model energies equal full-model energies of the patched
        incumbent — the property the decomposition loop relies on."""
        bqm = _small_bqm()
        incumbent = {v: 1 for v in bqm.variables}
        free = ["v1", "v4"]
        sub = clamp_subproblem(bqm, free, incumbent)
        assert sorted(sub.variables) == free
        for assignment in ({"v1": 0, "v4": 0}, {"v1": 1, "v4": 0},
                           {"v1": 0, "v4": 1}, {"v1": 1, "v4": 1}):
            patched = dict(incumbent)
            patched.update(assignment)
            assert sub.energy(assignment) == pytest.approx(bqm.energy(patched))

    def test_clamp_rejects_unknown_variables(self):
        bqm = _small_bqm()
        with pytest.raises(SolverError):
            clamp_subproblem(bqm, ["nope"], {v: 0 for v in bqm.variables})

    def test_greedy_descent_reaches_single_flip_minimum(self):
        bqm = _small_bqm()
        sample = greedy_descent(bqm, {v: 0 for v in bqm.variables})
        gains = flip_energy_gains(bqm, sample)
        assert all(g >= -1e-9 for g in gains.values())


# ----------------------------------------------------------------------
# Solver registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names(self):
        names = solver_names()
        for expected in ("greedy", "genetic", "exact", "exhaustive", "sa",
                         "tabu", "exact-eigen", "vqe", "qaoa", "hybrid"):
            assert expected in names

    def test_all_entries_satisfy_protocol(self):
        for name in solver_names():
            solver = make_solver(name)
            assert isinstance(solver, Solver)
            assert isinstance(solver.capabilities, frozenset)

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown solver"):
            make_solver("does-not-exist")

    def test_registration_collision_and_replace(self):
        class Dummy:
            name = "dummy-test"
            capabilities = frozenset({"test"})
            max_variables = None

            def solve(self, bqm, seed=None):
                return SolveResult(sample={}, energy=0.0, solver=self.name)

        register_solver("dummy-test", Dummy)
        try:
            with pytest.raises(SolverError, match="already registered"):
                register_solver("dummy-test", Dummy)
            register_solver("dummy-test", Dummy, replace=True)
            assert isinstance(make_solver("dummy-test"), Dummy)
        finally:
            _FACTORIES.pop("dummy-test", None)

    def test_size_limited_solver_rejects_big_models(self):
        _, _, bqm = _mqo_bqm(queries=10, ppq=3)  # 30 vars
        with pytest.raises(SolverError, match="at most"):
            make_solver("exact-eigen").solve(bqm)

    def test_catalog_lists_every_solver(self):
        catalog = solver_catalog()
        assert {row["name"] for row in catalog} == set(solver_names())
        hybrid_row = next(r for r in catalog if r["name"] == "hybrid")
        assert hybrid_row["max_variables"] is None
        assert "decomposition" in hybrid_row["capabilities"]

    def test_registry_solvers_agree_on_small_model(self):
        bqm = _small_bqm()
        reference = brute_force_minimum(bqm).energy
        for name in ("greedy", "genetic", "exact", "sa", "tabu", "hybrid"):
            result = make_solver(name).solve(bqm, seed=5)
            assert result.energy == pytest.approx(reference), name
            assert result.energy == pytest.approx(bqm.energy(result.sample))


# ----------------------------------------------------------------------
# DecomposingSolver
# ----------------------------------------------------------------------
class TestDecomposingSolver:
    def test_small_model_solved_exactly_without_decomposition(self):
        bqm = _small_bqm()
        result = DecomposingSolver(sub_size=8).solve(bqm, seed=0)
        assert result.info["decomposed"] is False
        assert result.energy == pytest.approx(brute_force_minimum(bqm).energy)

    def test_empty_model(self):
        bqm = BinaryQuadraticModel({}, {}, offset=2.0)
        result = DecomposingSolver().solve(bqm)
        assert result.sample == {} and result.energy == pytest.approx(2.0)

    def test_decomposed_solve_reaches_exact_optimum(self):
        """On a mid-size instance still in brute-force reach for the
        subproblems, decomposition must recover the global optimum."""
        _, builder, bqm = _mqo_bqm(queries=8, ppq=3)  # 24 variables
        from repro.mqo.solvers import solve_exhaustive

        result = DecomposingSolver(sub_size=9, restarts=2).solve(bqm, seed=3)
        assert result.info["decomposed"] is True
        solution = builder.decode(result.sample, method="hybrid")
        assert solution.valid
        reference = solve_exhaustive(builder.problem)
        assert solution.cost == pytest.approx(reference.cost)

    def test_sa_subsolver_drops_in(self):
        from repro.annealing.simulated_annealing import (
            SimulatedAnnealingSampler,
        )

        _, builder, bqm = _mqo_bqm(queries=8, ppq=3)
        solver = DecomposingSolver(
            sub_size=9, exact_limit=2, restarts=2,
            subsolver=SimulatedAnnealingSampler(num_sweeps=150),
        )
        result = solver.solve(bqm, seed=3)
        assert builder.decode(result.sample, method="hybrid").valid

    @staticmethod
    def _solve_uncached(monkeypatch, solver, bqm, seed):
        """``solver.solve`` with a fresh cache key per lookup: all miss."""
        keys = itertools.count()
        with monkeypatch.context() as patch:
            patch.setattr(hybrid_solver, "_subproblem_key", lambda sub: next(keys))
            return solver.solve(bqm, seed=seed)

    def test_block_cache_reuse_identical_results(self, monkeypatch):
        """Reusing compiled subproblem blocks across refinement rounds
        must not change the solution, only skip recompilation."""
        _, builder, bqm = _mqo_bqm(queries=9, ppq=3)  # 27 variables
        on = DecomposingSolver(sub_size=10, restarts=2).solve(bqm, seed=11)
        off = self._solve_uncached(
            monkeypatch, DecomposingSolver(sub_size=10, restarts=2), bqm, 11
        )
        assert on.sample == off.sample
        assert on.energy == pytest.approx(off.energy, abs=1e-12)
        assert on.info["block_cache_hits"] > 0
        assert off.info["block_cache_hits"] == 0

    def test_block_cache_reuse_with_subsolver(self, monkeypatch):
        from repro.annealing.simulated_annealing import (
            SimulatedAnnealingSampler,
        )

        _, builder, bqm = _mqo_bqm(queries=9, ppq=3)
        kwargs = dict(
            sub_size=10, exact_limit=2, restarts=2,
            subsolver=SimulatedAnnealingSampler(num_sweeps=100),
        )
        on = DecomposingSolver(**kwargs).solve(bqm, seed=7)
        off = self._solve_uncached(monkeypatch, DecomposingSolver(**kwargs), bqm, 7)
        assert on.sample == off.sample
        assert on.energy == pytest.approx(off.energy, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            DecomposingSolver(sub_size=1)
        with pytest.raises(SolverError):
            DecomposingSolver(exact_limit=27)
        with pytest.raises(SolverError):
            DecomposingSolver(restarts=0)
        with pytest.raises(SolverError):
            DecomposingSolver(perturb_fraction=0.0)

    def test_acceptance_50_queries_beats_genetic_deterministically(self):
        """The PR acceptance instance: 50 queries x 3 plans (150 QUBO
        variables, beyond exact enumeration and the statevector), valid
        solution, cost <= the genetic baseline on the same seed, and
        identical output for identical seeds."""
        problem = random_mqo_problem(50, 3, seed=123)
        builder = MqoQuboBuilder(problem)
        bqm = builder.build()
        assert bqm.num_variables >= 150

        genetic = solve_genetic(problem, seed=123)
        first = DecomposingSolver(sub_size=16, restarts=2).solve(bqm, seed=123)
        second = DecomposingSolver(sub_size=16, restarts=2).solve(bqm, seed=123)
        assert first.sample == second.sample
        assert first.energy == pytest.approx(second.energy)

        solution = builder.decode(first.sample, method="hybrid")
        assert solution.valid
        assert solution.cost <= genetic.cost + 1e-9
        assert first.info["decomposed"] is True
        assert first.info["subproblems"] > 0


# ----------------------------------------------------------------------
# hybrid_scaling experiment through the harness
# ----------------------------------------------------------------------
class TestHybridScalingExperiment:
    def test_run_grid_with_cache_hits_on_rerun(self, tmp_path):
        from repro.experiments.hybrid_scaling import run_hybrid_scaling

        kwargs = dict(
            sizes=((4, 2), (6, 2)), sub_size=6, workers=1,
            cache=True, cache_dir=str(tmp_path / "cache"),
        )
        first = run_hybrid_scaling(**kwargs)
        second = run_hybrid_scaling(**kwargs)
        assert first.rows == second.rows
        assert "(0 cached)" in first.notes
        assert "(2 cached)" in second.notes
        for row in first.rows:
            assert row["hybrid valid?"] is True
            assert row["vs genetic"] <= 1e-9

    def test_registered_in_cli(self):
        from repro.cli import _experiment_registry

        assert "hybrid-scaling" in _experiment_registry()


# ----------------------------------------------------------------------
# CLI solve subcommand
# ----------------------------------------------------------------------
class TestSolveCommand:
    def test_solver_listing(self, capsys):
        from repro.cli import main

        assert main(["solve", "--solver", "list"]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out and "genetic" in out

    def test_hybrid_solve_runs(self, capsys):
        from repro.cli import main

        code = main([
            "solve", "--problem", "mqo", "--solver", "hybrid",
            "--queries", "8", "--ppq", "2", "--seed", "3",
            "--sub-size", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "valid=True" in out

    def test_unknown_solver_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["solve", "--solver", "bogus"]) == 2
        assert "unknown solver" in capsys.readouterr().err


class TestSolverOptionValidation:
    def test_unknown_option_raises_with_valid_list(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            make_solver("sa", num_readz=5)
        message = str(excinfo.value)
        assert "num_readz" in message
        assert "num_reads" in message  # lists the valid options

    def test_unknown_option_names_all_offenders(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            make_solver("tabu", bogus=1, also_bogus=2)
        message = str(excinfo.value)
        assert "bogus" in message and "also_bogus" in message

    def test_valid_options_catalog(self):
        from repro.hybrid import valid_options

        assert "num_reads" in valid_options("sa")
        assert "tenure" in valid_options("tabu")
        assert "sub_size" in valid_options("hybrid")

    def test_var_keyword_factory_opts_out(self):
        from repro.hybrid import valid_options

        def permissive_factory(**kwargs):
            return make_solver("greedy")

        register_solver("permissive", permissive_factory, replace=True)
        try:
            assert valid_options("permissive") is None
            make_solver("permissive", anything_goes=True)  # no raise
        finally:
            _FACTORIES.pop("permissive", None)

    def test_known_options_still_accepted(self):
        solver = make_solver("sa", num_reads=3, num_sweeps=50, seed=1)
        bqm = MqoQuboBuilder(random_mqo_problem(3, 2, seed=0)).build()
        result = solver.solve(bqm)
        assert result.energy == pytest.approx(result.energy)


class TestTimeBudgetedSolve:
    def _bqm(self):
        return MqoQuboBuilder(random_mqo_problem(6, 3, seed=4)).build()

    def test_supports_time_budget_probe(self):
        from repro.hybrid import supports_time_budget

        assert supports_time_budget(make_solver("sa"))
        assert supports_time_budget(make_solver("greedy"))
        assert supports_time_budget(make_solver("hybrid"))

    def test_probe_cache_does_not_pin_solvers(self):
        import gc
        import weakref

        from repro.hybrid import supports_time_budget
        from repro.hybrid.registry import accepts_keyword, supports_compiled

        solver = make_solver("tabu")
        assert supports_time_budget(solver) and supports_compiled(solver)
        assert supports_time_budget(solver)  # cached answer agrees
        assert accepts_keyword(type(solver).solve, "self")  # unbound keeps self
        assert not accepts_keyword(solver.solve, "self")  # bound drops it
        ref = weakref.ref(solver)
        del solver
        gc.collect()
        assert ref() is None

    def test_budgeted_solve_deterministic(self):
        bqm = self._bqm()
        first = make_solver("sa", num_reads=4).solve(bqm, seed=7, time_budget=10.0)
        second = make_solver("sa", num_reads=4).solve(bqm, seed=7, time_budget=10.0)
        assert first.sample == second.sample
        assert first.energy == second.energy

    def test_tiny_budget_still_returns_a_sample(self):
        bqm = self._bqm()
        result = make_solver("greedy", restarts=50).solve(
            bqm, seed=1, time_budget=1e-9
        )
        assert set(result.sample) == set(bqm.variables)

    def test_hybrid_accepts_budget(self):
        bqm = self._bqm()
        result = make_solver("hybrid", sub_size=8, max_rounds=2).solve(
            bqm, seed=3, time_budget=30.0
        )
        assert set(result.sample) == set(bqm.variables)
