"""Tests for the QPO pass: Eqs. 5, 6, 9 and Sec. V-D block preparation."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.rpo import QPOPass
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet

from tests.helpers import assert_functionally_equivalent


def run_qpo(circuit, blocks=False):
    return QPOPass(optimize_blocks=blocks).run(circuit, PropertySet())


def entangle(circuit, qubit, helper):
    circuit.h(qubit)
    circuit.t(qubit)
    circuit.cx(qubit, helper)


class TestEq5SwapOneKnown:
    def test_pure_state_swap_becomes_swapz(self):
        circuit = QuantumCircuit(3)
        circuit.u3(0.7, 0.3, 0.0, 0)  # known pure state
        entangle(circuit, 1, 2)
        circuit.swap(0, 1)
        out = run_qpo(circuit)
        assert out.count_ops().get("swap", 0) == 0
        assert out.count_ops().get("swapz", 0) == 1
        assert_functionally_equivalent(circuit, out)

    def test_zero_state_needs_no_brackets(self):
        circuit = QuantumCircuit(3)
        entangle(circuit, 1, 2)
        circuit.swap(0, 1)  # qubit 0 still |0>
        out = run_qpo(circuit)
        assert out.count_ops().get("swapz", 0) == 1
        # no bracket gates required for |0>
        names = [inst.operation.name for inst in out.data]
        assert "unitary" not in names

    def test_cnot_saving(self):
        circuit = QuantumCircuit(3)
        circuit.u3(1.1, -0.4, 0.0, 0)
        entangle(circuit, 1, 2)
        circuit.swap(0, 1)
        out = run_qpo(circuit)
        cost = lambda c: sum(  # noqa: E731
            {"cx": 1, "swap": 3, "swapz": 2}.get(n, 0) * v
            for n, v in c.count_ops().items()
        )
        assert cost(out) == cost(circuit) - 1  # Eq. 5 saves one CNOT


class TestEq6SwapBothKnown:
    def test_becomes_two_1q_gates(self):
        circuit = QuantumCircuit(2)
        circuit.u3(0.7, 0.3, 0.0, 0)
        circuit.u3(1.9, -0.8, 0.0, 1)
        circuit.swap(0, 1)
        out = run_qpo(circuit)
        assert out.num_nonlocal_gates() == 0
        assert_functionally_equivalent(circuit, out)

    def test_identical_states_swap_removed(self):
        circuit = QuantumCircuit(2)
        circuit.u3(0.7, 0.3, 0.0, 0)
        circuit.u3(0.7, 0.3, 0.0, 1)
        circuit.swap(0, 1)
        out = run_qpo(circuit)
        assert out.num_nonlocal_gates() == 0
        assert_functionally_equivalent(circuit, out)


class TestStabilizedGates:
    def test_1q_gate_fixing_state_removed(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)          # |+>
        circuit.rx(0.9, 0)    # X rotation fixes |+> up to phase
        out = run_qpo(circuit)
        assert out.count_ops() == {"h": 1}
        assert_functionally_equivalent(circuit, out)

    def test_unknown_state_gate_kept(self):
        circuit = QuantumCircuit(3)
        entangle(circuit, 0, 2)
        circuit.rx(0.9, 0)
        out = run_qpo(circuit)
        assert out.count_ops().get("rx", 0) == 1


class TestBasisRecognition:
    def test_cx_with_pure_zero_control_removed(self):
        circuit = QuantumCircuit(3)
        circuit.u3(0.4, 0.0, 0.0, 0)
        circuit.u3(-0.4, 0.0, 0.0, 0)  # returns to |0> after fusion effect
        entangle(circuit, 1, 2)
        circuit.cx(0, 1)
        out = run_qpo(circuit)
        assert out.count_ops().get("cx", 0) == 1  # entangler only
        assert_functionally_equivalent(circuit, out)

    def test_cx_minus_target_gives_z(self):
        circuit = QuantumCircuit(3)
        entangle(circuit, 0, 2)
        circuit.x(1)
        circuit.h(1)  # |->
        circuit.cx(0, 1)
        out = run_qpo(circuit)
        assert out.count_ops().get("cx", 0) == 1  # entangler only
        assert out.count_ops().get("z", 0) == 1
        assert_functionally_equivalent(circuit, out)


class TestEq9Fredkin:
    def test_two_known_targets_become_controlled_u(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.u3(0.7, 0.3, 0.0, 1)
        circuit.u3(1.1, -0.4, 0.0, 2)
        circuit.cswap(0, 1, 2)
        out = run_qpo(circuit)
        assert out.count_ops().get("cswap", 0) == 0
        names = set(out.count_ops())
        assert "cu" in names and "cu_dg" in names
        assert_functionally_equivalent(circuit, out)

    def test_control_zero_removed(self):
        circuit = QuantumCircuit(5)
        entangle(circuit, 1, 3)
        entangle(circuit, 2, 4)
        circuit.cswap(0, 1, 2)
        out = run_qpo(circuit)
        assert out.count_ops().get("cswap", 0) == 0
        assert_functionally_equivalent(circuit, out)

    def test_unknown_everything_kept(self):
        circuit = QuantumCircuit(6)
        entangle(circuit, 0, 3)
        entangle(circuit, 1, 4)
        entangle(circuit, 2, 5)
        circuit.cswap(0, 1, 2)
        out = run_qpo(circuit)
        assert out.count_ops().get("cswap", 0) == 1


class TestBlockPreparation:
    def test_known_inputs_block_collapses_to_one_cx(self):
        circuit = QuantumCircuit(2)
        circuit.u3(0.4, 0.2, 0.1, 0)
        circuit.cx(0, 1)
        circuit.u3(1.0, 0.5, -0.3, 1)
        circuit.cx(1, 0)
        circuit.u3(0.2, 0.0, 0.9, 0)
        circuit.cx(0, 1)
        out = run_qpo(circuit, blocks=True)
        assert out.count_ops().get("cx", 0) <= 1
        assert_functionally_equivalent(circuit, out)

    def test_disabled_by_default(self):
        circuit = QuantumCircuit(2)
        circuit.u3(0.4, 0.2, 0.1, 0)  # known but non-basis: phase-1 silent
        circuit.cx(0, 1)
        circuit.u3(1.0, 0.5, -0.3, 1)
        circuit.cx(1, 0)
        circuit.u3(0.3, 0.1, 0.2, 0)
        circuit.cx(0, 1)
        out = run_qpo(circuit, blocks=False)
        assert out.count_ops().get("cx", 0) == 3

    def test_unknown_inputs_block_untouched(self):
        circuit = QuantumCircuit(4)
        entangle(circuit, 0, 2)
        entangle(circuit, 1, 3)
        circuit.cx(0, 1)
        circuit.u3(1.0, 0.5, -0.3, 1)
        circuit.cx(0, 1)
        out = run_qpo(circuit, blocks=True)
        assert out.count_ops().get("cx", 0) == 4  # 2 entanglers + block

    def test_product_output_keeps_states_tracked(self):
        # block output is a product state: a following swap still optimizes
        circuit = QuantumCircuit(2)
        circuit.u3(0.4, 0.2, 0.0, 0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)  # identity block: output = input (product)
        circuit.swap(0, 1)
        out = run_qpo(circuit, blocks=True)
        assert out.num_nonlocal_gates() == 0
        assert_functionally_equivalent(circuit, out)


class TestAnnotations:
    def test_annotation_enables_pure_rules(self):
        circuit = QuantumCircuit(3)
        entangle(circuit, 0, 2)
        circuit.annotate(0, 0.7, 0.3)  # promise a pure state
        entangle(circuit, 1, 2)
        circuit.swap(0, 1)
        out = run_qpo(circuit)
        assert out.count_ops().get("swapz", 0) == 1


def qpo_rewrites(circuit):
    """The pass's output and the rewrites it counted."""
    properties = PropertySet()
    out = QPOPass(optimize_blocks=False).run(circuit, properties)
    return out, rewrite_counter(properties)["QPO"]


class TestRewriteCounts:
    """Every replacement counts once, not only one-qubit removals."""

    @pytest.mark.parametrize(
        "prep, remaining",
        [
            ([], []),  # control |0>: removed
            ([("x", 0)], ["x", "x"]),  # control |1>: X on the target
            ([("h", 1)], ["h"]),  # target |+>: removed
            ([("x", 1), ("h", 1)], ["x", "h", "z"]),  # target |->: Z on the control
        ],
    )
    def test_cx_rules_count(self, prep, remaining):
        circuit = QuantumCircuit(2)
        if any(qubit == 1 for _, qubit in prep):
            circuit.h(0)
            circuit.t(0)  # keep the control out of the Z basis
            remaining = ["h", "t"] + remaining
        for name, qubit in prep:
            getattr(circuit, name)(qubit)
        circuit.cx(0, 1)
        out, rewrites = qpo_rewrites(circuit)
        assert [inst.operation.name for inst in out.data] == remaining
        assert rewrites == 1
        assert_functionally_equivalent(circuit, out)

    def test_cz_rule_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(1)
        circuit.t(1)
        circuit.cz(0, 1)  # qubit 0 is |0>: removed
        out, rewrites = qpo_rewrites(circuit)
        assert out.num_nonlocal_gates() == 0
        assert rewrites == 1

    def test_swap_rule_counts(self):
        circuit = QuantumCircuit(3)
        entangle(circuit, 1, 2)
        circuit.swap(0, 1)  # qubit 0 is |0>: SWAPZ
        out, rewrites = qpo_rewrites(circuit)
        assert out.count_ops().get("swapz", 0) == 1
        assert rewrites == 1
