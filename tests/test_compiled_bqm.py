"""Property and unit tests for the array-compiled BQM representation.

The compiled form (:mod:`repro.qubo.compiled`) is the kernel substrate
of every batched solver, so its contract with the dict model is pinned
hard here:

* ``energies_compat`` matches :meth:`BinaryQuadraticModel.energy`
  **bit-exactly** row by row (hypothesis-driven, including models
  reduced by ``fix_variable``);
* flip gains (:func:`repro.hybrid.decomposer.flip_gains`) summed along
  random flip walks track a full recompute;
* the spin companion of a binary model is energy-equivalent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import VariableError
from repro.hybrid.decomposer import flip_gains
from repro.qubo import BinaryQuadraticModel, CompiledBQM, Vartype, compile_bqm

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
names = st.sampled_from([f"v{i}" for i in range(8)])


@st.composite
def bqms(draw, vartype=Vartype.BINARY):
    bqm = BinaryQuadraticModel(vartype=vartype)
    for _ in range(draw(st.integers(1, 8))):
        bqm.add_linear(draw(names), draw(finite))
    for _ in range(draw(st.integers(0, 12))):
        u, v = draw(names), draw(names)
        if u != v:
            bqm.add_quadratic(u, v, draw(finite))
    bqm.offset = draw(finite)
    return bqm


@st.composite
def assignments_for(draw, bqm):
    lo, hi = bqm.vartype.values
    return {v: draw(st.sampled_from((lo, hi))) for v in bqm.variables}


def random_states(bqm, rows, seed):
    rng = np.random.default_rng(seed)
    lo, hi = bqm.vartype.values
    return rng.choice((float(lo), float(hi)), size=(rows, bqm.num_variables))


# ----------------------------------------------------------------------
# energies vs the dict model
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_energies_match_dict_model_row_by_row(data):
    bqm = data.draw(bqms())
    compiled = compile_bqm(bqm)
    samples = [data.draw(assignments_for(bqm)) for _ in range(3)]
    states = np.stack([compiled.state_vector(s) for s in samples])
    compat = compiled.energies_compat(states)
    for row, sample in enumerate(samples):
        assert compat[row] == bqm.energy(sample)  # bit-identical by construction


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spin_models_compile_and_evaluate(data):
    bqm = data.draw(bqms(vartype=Vartype.SPIN))
    compiled = compile_bqm(bqm)
    assert compiled.spin is compiled
    sample = data.draw(assignments_for(bqm))
    state = compiled.state_vector(sample)
    assert compiled.energies_compat(state)[0] == bqm.energy(sample)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_energies_match_after_fix_variable(data):
    bqm = data.draw(bqms())
    if bqm.num_variables < 2:
        return
    variables = list(bqm.variables)
    v = variables[data.draw(st.integers(0, len(variables) - 1))]
    value = data.draw(st.sampled_from(bqm.vartype.values))
    reduced = bqm.copy()
    reduced.fix_variable(v, value)
    compiled = compile_bqm(reduced)
    sample = data.draw(assignments_for(reduced))
    state = compiled.state_vector(sample)
    assert compiled.energies_compat(state)[0] == reduced.energy(sample)
    # and the reduced energies still agree with the full model
    full = bqm.energy({**sample, v: value})
    assert math.isclose(compiled.energies_compat(state)[0], full, rel_tol=1e-9, abs_tol=1e-6)


# ----------------------------------------------------------------------
# flip-gain bookkeeping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vartype", [Vartype.BINARY, Vartype.SPIN])
@pytest.mark.parametrize("n,density", [(6, 0.8), (20, 0.3), (40, 0.1)])
def test_incremental_flips_track_full_recompute(vartype, n, density):
    rng = np.random.default_rng(n)
    bqm = BinaryQuadraticModel(
        {f"x{i}": float(rng.uniform(-2, 2)) for i in range(n)}, vartype=vartype
    )
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(f"x{i}", f"x{j}", float(rng.uniform(-2, 2)))
    compiled = compile_bqm(bqm)
    lo, hi = vartype.values

    state = random_states(bqm, 1, seed=7)[0]
    running = compiled.energies_compat(state)[0]
    for step in range(200):
        i = int(rng.integers(n))
        running += flip_gains(compiled, state)[i]
        state[i] = lo + hi - state[i]
        assert math.isclose(
            running,
            compiled.energies_compat(state)[0],
            rel_tol=1e-9,
            abs_tol=1e-6,
        ), f"drift at flip {step}"


# ----------------------------------------------------------------------
# structure, conversions, spin companion
# ----------------------------------------------------------------------
def test_compiled_structure_and_metadata():
    bqm = BinaryQuadraticModel(
        {"a": 1.0, "b": -2.0, "c": 0.5}, {("a", "b"): -3.0, ("b", "c"): 1.5}, offset=0.25
    )
    compiled = compile_bqm(bqm)
    assert compiled.num_variables == 3
    assert compiled.num_interactions == 2
    assert compiled.variables == ("a", "b", "c")
    assert compiled.index == {"a": 0, "b": 1, "c": 2}
    np.testing.assert_array_equal(compiled.linear, [1.0, -2.0, 0.5])
    assert compiled.offset == 0.25
    # adjacency mirrors interactions() from both endpoints
    assert list(compiled.neighbor_index[1]) == [0, 2]
    np.testing.assert_array_equal(compiled.neighbor_bias[1], [-3.0, 1.5])


def test_spin_companion_is_energy_equivalent():
    bqm = BinaryQuadraticModel(
        {"a": 1.0, "b": -1.0}, {("a", "b"): 2.0}, offset=0.5
    )
    compiled = compile_bqm(bqm)
    spin = compiled.spin
    assert spin.vartype is Vartype.SPIN
    for xa in (0, 1):
        for xb in (0, 1):
            binary_energy = bqm.energy({"a": xa, "b": xb})
            spin_energy = spin.energies_compat(
                np.array([2.0 * xa - 1.0, 2.0 * xb - 1.0])
            )[0]
            assert math.isclose(binary_energy, spin_energy, abs_tol=1e-9)


def test_state_vector_missing_variable_raises():
    compiled = compile_bqm(BinaryQuadraticModel({"a": 1.0, "b": 1.0}))
    with pytest.raises(VariableError):
        compiled.state_vector({"a": 1})


def test_states_to_samples_round_trip():
    bqm = BinaryQuadraticModel({"a": 1.0, "b": -1.0}, {("a", "b"): 0.5})
    compiled = compile_bqm(bqm)
    samples = [{"a": 0, "b": 1}, {"a": 1, "b": 1}]
    states = np.stack([compiled.state_vector(s) for s in samples])
    assert compiled.states_to_samples(states) == samples
    assert isinstance(compiled, CompiledBQM)
