"""Tests for the binary quadratic model core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ModelError, VariableError
from repro.qubo import BinaryQuadraticModel, Vartype
from repro.qubo.bqm import all_assignments


class TestConstruction:
    def test_empty_model(self):
        bqm = BinaryQuadraticModel()
        assert bqm.num_variables == 0
        assert bqm.num_interactions == 0
        assert bqm.energy({}) == 0.0

    def test_linear_accumulates(self):
        bqm = BinaryQuadraticModel()
        bqm.add_linear("a", 1.0)
        bqm.add_linear("a", 2.5)
        assert bqm.get_linear("a") == pytest.approx(3.5)

    def test_quadratic_symmetric_accumulation(self):
        bqm = BinaryQuadraticModel()
        bqm.add_quadratic("a", "b", 1.0)
        bqm.add_quadratic("b", "a", 2.0)
        assert bqm.get_quadratic("a", "b") == pytest.approx(3.0)
        assert bqm.get_quadratic("b", "a") == pytest.approx(3.0)
        assert bqm.num_interactions == 1

    def test_self_loop_binary_becomes_linear(self):
        bqm = BinaryQuadraticModel(vartype=Vartype.BINARY)
        bqm.add_quadratic("a", "a", 2.0)
        assert bqm.get_linear("a") == pytest.approx(2.0)
        assert bqm.num_interactions == 0

    def test_self_loop_spin_becomes_offset(self):
        bqm = BinaryQuadraticModel(vartype=Vartype.SPIN)
        bqm.add_quadratic("a", "a", 2.0)
        assert bqm.offset == pytest.approx(2.0)

    def test_bad_vartype_rejected(self):
        with pytest.raises(ModelError):
            BinaryQuadraticModel(vartype="BINARY")

    def test_unknown_variable_raises(self):
        bqm = BinaryQuadraticModel({"a": 1.0})
        with pytest.raises(VariableError):
            bqm.get_linear("zzz")

    def test_degree(self):
        bqm = BinaryQuadraticModel(
            {"a": 0, "b": 0, "c": 0}, {("a", "b"): 1, ("a", "c"): 1}
        )
        assert bqm.degree("a") == 2
        assert bqm.degree("b") == 1


class TestEnergy:
    def test_energy_binary(self):
        bqm = BinaryQuadraticModel({"a": 1, "b": -2}, {("a", "b"): 3}, offset=0.5)
        assert bqm.energy({"a": 1, "b": 1}) == pytest.approx(1 - 2 + 3 + 0.5)
        assert bqm.energy({"a": 0, "b": 1}) == pytest.approx(-2 + 0.5)

    def test_energy_missing_variable(self):
        bqm = BinaryQuadraticModel({"a": 1})
        with pytest.raises(VariableError):
            bqm.energy({})

    def test_energies_vector(self):
        bqm = BinaryQuadraticModel({"a": 1.0})
        values = bqm.energies([{"a": 0}, {"a": 1}])
        assert list(values) == [0.0, 1.0]


class TestConversions:
    def test_vartype_round_trip_preserves_energy(self, rng):
        bqm = BinaryQuadraticModel()
        names = [f"x{i}" for i in range(5)]
        for n in names:
            bqm.add_linear(n, rng.uniform(-2, 2))
        for i in range(5):
            for j in range(i + 1, 5):
                bqm.add_quadratic(names[i], names[j], rng.uniform(-2, 2))
        bqm.offset = 0.7
        spin = bqm.change_vartype(Vartype.SPIN)
        back = spin.change_vartype(Vartype.BINARY)
        for sample in all_assignments(bqm.variables, Vartype.BINARY):
            spin_sample = {v: 2 * x - 1 for v, x in sample.items()}
            assert spin.energy(spin_sample) == pytest.approx(bqm.energy(sample))
            assert back.energy(sample) == pytest.approx(bqm.energy(sample))

    def test_to_qubo_diagonal_holds_linear(self):
        bqm = BinaryQuadraticModel({"a": 1.5}, {("a", "b"): -1})
        q, offset = bqm.to_qubo()
        assert q[("a", "a")] == pytest.approx(1.5)
        assert offset == 0.0

    def test_from_qubo_diagonal(self):
        bqm = BinaryQuadraticModel.from_qubo({("a", "a"): 2.0, ("a", "b"): 1.0})
        assert bqm.get_linear("a") == pytest.approx(2.0)
        assert bqm.get_quadratic("a", "b") == pytest.approx(1.0)

    def test_ising_round_trip(self):
        bqm = BinaryQuadraticModel({"a": 1, "b": -1}, {("a", "b"): 0.5})
        h, j, offset = bqm.to_ising()
        rebuilt = BinaryQuadraticModel.from_ising(h, j, offset)
        binary = rebuilt.change_vartype(Vartype.BINARY)
        for sample in all_assignments(("a", "b"), Vartype.BINARY):
            assert binary.energy(sample) == pytest.approx(bqm.energy(sample))

    def test_numpy_matrix_energy_agreement(self, rng):
        bqm = BinaryQuadraticModel(
            {"a": 1.0, "b": -0.5, "c": 2.0}, {("a", "c"): -1.5}, offset=3.0
        )
        q, offset, order = bqm.to_numpy_matrix()
        for sample in all_assignments(bqm.variables, Vartype.BINARY):
            x = np.array([sample[v] for v in order], dtype=float)
            assert x @ q @ x + offset == pytest.approx(bqm.energy(sample))

    def test_numpy_matrix_missing_order_raises(self):
        bqm = BinaryQuadraticModel({"a": 1, "b": 1})
        with pytest.raises(VariableError):
            bqm.to_numpy_matrix(variable_order=["a"])


class TestMutation:
    def test_fix_variable(self):
        bqm = BinaryQuadraticModel({"a": 1, "b": 2}, {("a", "b"): 5})
        bqm.fix_variable("a", 1)
        assert "a" not in bqm
        assert bqm.energy({"b": 0}) == pytest.approx(1.0)
        assert bqm.energy({"b": 1}) == pytest.approx(1 + 2 + 5)

    def test_fix_variable_bad_value(self):
        bqm = BinaryQuadraticModel({"a": 1})
        with pytest.raises(ModelError):
            bqm.fix_variable("a", 2)

    def test_scale(self):
        bqm = BinaryQuadraticModel({"a": 1}, {("a", "b"): 2}, offset=3)
        bqm.scale(2.0)
        assert bqm.get_linear("a") == 2.0
        assert bqm.get_quadratic("a", "b") == 4.0
        assert bqm.offset == 6.0

    def test_update_merges_models(self):
        a = BinaryQuadraticModel({"x": 1}, {("x", "y"): 1})
        b = BinaryQuadraticModel({"x": 2, "z": 1})
        a.update(b, scale=2.0)
        assert a.get_linear("x") == pytest.approx(5.0)
        assert a.get_linear("z") == pytest.approx(2.0)

    def test_update_cross_vartype(self):
        binary = BinaryQuadraticModel({"x": 1.0})
        spin = BinaryQuadraticModel({"x": 1.0}, vartype=Vartype.SPIN)
        binary.update(spin)
        # spin x = 2b - 1 -> adds 2b - 1
        assert binary.energy({"x": 1}) == pytest.approx(1 + 2 - 1)

    def test_copy_is_independent(self):
        bqm = BinaryQuadraticModel({"a": 1})
        clone = bqm.copy()
        clone.add_linear("a", 5)
        assert bqm.get_linear("a") == 1

    def test_remove_interaction(self):
        bqm = BinaryQuadraticModel({}, {("a", "b"): 2})
        bqm.remove_interaction("a", "b")
        assert bqm.num_interactions == 0


class TestInteractionGraph:
    def test_graph_matches_terms(self):
        bqm = BinaryQuadraticModel(
            {"a": 0, "b": 0, "c": 0}, {("a", "b"): 1, ("b", "c"): -1}
        )
        g = bqm.interaction_graph()
        assert set(g.nodes) == {"a", "b", "c"}
        assert g.number_of_edges() == 2
        assert g.has_edge("a", "b") and g.has_edge("b", "c")


def _reference_canonical(u, v):
    return tuple(sorted((u, v), key=lambda x: (str(type(x)), str(x))))


def _reference_interactions(bqm):
    """The sort-per-edge walk ``interactions()`` replaced; its order is the contract."""
    emitted = set()
    out = []
    for u, nbrs in bqm._adj.items():
        for v, bias in nbrs.items():
            key = _reference_canonical(u, v)
            if key not in emitted:
                emitted.add(key)
                out.append((key[0], key[1], bias))
    return out


def _reference_quadratic(bqm):
    seen = {}
    for u, nbrs in bqm._adj.items():
        for v, bias in nbrs.items():
            seen[_reference_canonical(u, v)] = bias
    return seen


def _reference_change_vartype(bqm, vartype):
    """The add_linear/add_quadratic conversion ``change_vartype`` replaced."""
    out = BinaryQuadraticModel(vartype=vartype)
    out.offset = bqm.offset
    if vartype is Vartype.SPIN:
        for v, a in bqm.linear.items():
            out.add_linear(v, a / 2.0)
            out.offset += a / 2.0
        for u, v, b in _reference_interactions(bqm):
            out.add_quadratic(u, v, b / 4.0)
            out.add_linear(u, b / 4.0)
            out.add_linear(v, b / 4.0)
            out.offset += b / 4.0
    else:
        for v, h in bqm.linear.items():
            out.add_linear(v, 2.0 * h)
            out.offset -= h
        for u, v, j in _reference_interactions(bqm):
            out.add_quadratic(u, v, 4.0 * j)
            out.add_linear(u, -2.0 * j)
            out.add_linear(v, -2.0 * j)
            out.offset += j
    for v in bqm.variables:
        out.add_linear(v, 0.0)
    return out


def _bits(bqm):
    """Every bias with its insertion order; ``repr`` tells -0.0 from 0.0."""
    return repr((list(bqm._linear.items()), list(bqm._adj.items()), bqm.offset))


_variables = st.one_of(
    st.integers(-3, 12),
    st.text(alphabet="ab1-", min_size=1, max_size=2),
    st.tuples(st.sampled_from("pq"), st.integers(0, 2)),
)
_edits = st.sampled_from(["fix", "remove", "scale", "copy", "spin", "binary"])


class TestInteractionOrder:
    """``interactions``, ``quadratic`` and ``change_vartype`` reproduce their
    sort-per-edge and add_linear/add_quadratic references bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_sort_per_edge_reference(self, data):
        variables = data.draw(st.lists(_variables, unique=True, max_size=10))
        vartype = data.draw(st.sampled_from(list(Vartype)))
        bqm = BinaryQuadraticModel(vartype=vartype)
        bias = st.floats(-4, 4, allow_nan=False)
        for v in variables:
            bqm.add_linear(v, data.draw(bias))
        if variables:
            pairs = st.tuples(st.sampled_from(variables), st.sampled_from(variables), bias)
            for u, v, b in data.draw(st.lists(pairs, max_size=30)):
                bqm.add_quadratic(u, v, b)
        models = [bqm]
        for edit in data.draw(st.lists(_edits, max_size=4)):
            bqm = bqm.copy() if edit == "copy" else bqm
            if edit == "fix" and bqm.variables:
                v = data.draw(st.sampled_from(bqm.variables))
                bqm.fix_variable(v, data.draw(st.sampled_from(bqm.vartype.values)))
            elif edit == "remove" and bqm.num_interactions:
                u, v, _ = data.draw(st.sampled_from(list(bqm.interactions())))
                bqm.remove_interaction(v, u)
            elif edit == "scale":
                bqm.scale(data.draw(st.floats(-3, 3, allow_nan=False)))
            elif edit in ("spin", "binary"):
                bqm = bqm.change_vartype(Vartype.SPIN if edit == "spin" else Vartype.BINARY)
            models.append(bqm)
        for model in models:
            assert list(model.interactions()) == _reference_interactions(model)
            quadratic = model.quadratic
            assert list(quadratic.items()) == list(_reference_quadratic(model).items())
            other = Vartype.BINARY if model.vartype is Vartype.SPIN else Vartype.SPIN
            converted = model.change_vartype(other)
            assert _bits(converted) == _bits(_reference_change_vartype(model, other))
