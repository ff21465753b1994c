"""Tests for the brute-force QUBO solver."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.qubo import BinaryQuadraticModel, Vartype, brute_force_minimum
from repro.qubo.exact import ExactQuboSolver, _assignment_energies


class TestBruteForce:
    def test_simple_minimum(self):
        bqm = BinaryQuadraticModel({"a": 1.0, "b": 1.0}, {("a", "b"): -3.0})
        result = brute_force_minimum(bqm)
        assert result.sample == {"a": 1, "b": 1}
        assert result.energy == pytest.approx(-1.0)

    def test_empty_model(self):
        result = brute_force_minimum(BinaryQuadraticModel(offset=2.0))
        assert result.energy == 2.0
        assert result.sample == {}

    def test_ties_collected(self):
        bqm = BinaryQuadraticModel({"a": 0.0})
        result = brute_force_minimum(bqm)
        assert len(result.all_optima) == 2

    def test_spin_model_domain(self):
        bqm = BinaryQuadraticModel({"s": 1.0}, vartype=Vartype.SPIN)
        result = brute_force_minimum(bqm)
        assert result.sample == {"s": -1}
        assert result.energy == pytest.approx(-1.0)

    def test_size_limit(self):
        bqm = BinaryQuadraticModel({i: 1.0 for i in range(30)})
        with pytest.raises(SolverError):
            brute_force_minimum(bqm)

    def test_matches_random_enumeration(self, rng):
        names = [f"v{i}" for i in range(8)]
        bqm = BinaryQuadraticModel()
        for n in names:
            bqm.add_linear(n, rng.uniform(-1, 1))
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.4:
                    bqm.add_quadratic(names[i], names[j], rng.uniform(-1, 1))
        result = brute_force_minimum(bqm)
        # explicit enumeration reference
        best = min(
            bqm.energy({n: (k >> i) & 1 for i, n in enumerate(names)})
            for k in range(1 << 8)
        )
        assert result.energy == pytest.approx(best)
        assert bqm.energy(result.sample) == pytest.approx(best)

    def test_chunked_path_consistent(self, rng):
        """A >18-variable model exercises the chunked enumeration."""
        names = [f"v{i}" for i in range(19)]
        bqm = BinaryQuadraticModel({n: rng.uniform(-1, 1) for n in names})
        result = brute_force_minimum(bqm)
        expected = sum(min(0.0, bqm.get_linear(n)) for n in names)
        assert result.energy == pytest.approx(expected)


class TestContractionPath:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_energies_match_freshly_planned_einsum(self, n):
        # the first enumeration chunk brute_force_minimum builds for n
        rows = min(1 << n, 1 << 18)
        indices = np.arange(rows, dtype=np.uint32)
        shifts = np.arange(n, dtype=np.uint32)[None, :]
        bits = ((indices[:, None] >> shifts) & 1).astype(np.float64)
        q = np.triu(np.random.default_rng(n).normal(size=(n, n)))
        want = np.einsum("ij,jk,ik->i", bits, q, bits, optimize=True)
        got = _assignment_energies(bits, q)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSamplerInterface:
    def test_sample_returns_sampleset(self):
        bqm = BinaryQuadraticModel({"a": -1.0})
        sample_set = ExactQuboSolver().sample(bqm)
        assert sample_set.first.sample == {"a": 1}
        assert sample_set.first.energy == pytest.approx(-1.0)
