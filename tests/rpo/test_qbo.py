"""Tests for the QBO pass: exhaustive Table I, Eq. 8, SWAP rules, V-chain."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.gates import CXGate
from repro.rpo import QBOPass, BasisState
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet

from tests.helpers import assert_functionally_equivalent

ALL_BASIS = [
    BasisState.ZERO,
    BasisState.ONE,
    BasisState.PLUS,
    BasisState.MINUS,
    BasisState.LEFT,
    BasisState.RIGHT,
]

PREP_GATES = {
    BasisState.ZERO: [],
    BasisState.ONE: ["x"],
    BasisState.PLUS: ["h"],
    BasisState.MINUS: ["x", "h"],
    BasisState.LEFT: ["h", "s"],
    BasisState.RIGHT: ["h", "sdg"],
}


def prepare(circuit, qubit, state):
    for name in PREP_GATES[state]:
        getattr(circuit, name)(qubit)


def prepare_top(circuit, qubit, helper):
    """Put ``qubit`` into a non-basis (entangled) state using ``helper``."""
    circuit.h(qubit)
    circuit.t(qubit)
    circuit.cx(qubit, helper)


def run_qbo(circuit, **kwargs):
    return QBOPass(**kwargs).run(circuit, PropertySet())


def two_qubit_gate_count(circuit):
    return circuit.num_nonlocal_gates()


class TestTableI:
    """Exhaustive CNOT rules over all control/target basis-state combos."""

    @pytest.mark.parametrize("ctrl_state", ALL_BASIS)
    @pytest.mark.parametrize("tgt_state", ALL_BASIS)
    def test_cx_all_basis_combinations(self, ctrl_state, tgt_state):
        circuit = QuantumCircuit(2)
        prepare(circuit, 0, ctrl_state)
        prepare(circuit, 1, tgt_state)
        circuit.cx(0, 1)
        out = run_qbo(circuit)
        assert_functionally_equivalent(circuit, out)
        removable = (
            ctrl_state in (BasisState.ZERO, BasisState.ONE)
            or tgt_state in (BasisState.PLUS, BasisState.MINUS)
        )
        if removable:
            assert two_qubit_gate_count(out) == 0, (
                f"cx with ctrl={ctrl_state}, tgt={tgt_state} should be optimized"
            )
        else:
            assert two_qubit_gate_count(out) == 1

    @pytest.mark.parametrize("ctrl_state", ALL_BASIS)
    def test_cx_known_control_unknown_target(self, ctrl_state):
        circuit = QuantumCircuit(3)
        prepare(circuit, 0, ctrl_state)
        prepare_top(circuit, 1, 2)
        circuit.cx(0, 1)
        out = run_qbo(circuit)
        assert_functionally_equivalent(circuit, out)
        if ctrl_state in (BasisState.ZERO, BasisState.ONE):
            assert two_qubit_gate_count(out) == 1  # only the helper cx remains

    @pytest.mark.parametrize("tgt_state", ALL_BASIS)
    def test_cx_unknown_control_known_target(self, tgt_state):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        prepare(circuit, 1, tgt_state)
        circuit.cx(0, 1)
        out = run_qbo(circuit)
        assert_functionally_equivalent(circuit, out)
        if tgt_state in (BasisState.PLUS, BasisState.MINUS):
            assert two_qubit_gate_count(out) == 1


class TestCZRules:
    @pytest.mark.parametrize("state", [BasisState.ZERO, BasisState.ONE])
    @pytest.mark.parametrize("side", [0, 1])
    def test_cz_z_basis_removed(self, state, side):
        circuit = QuantumCircuit(3)
        prepare(circuit, side, state)
        prepare_top(circuit, 1 - side, 2)
        circuit.cz(0, 1)
        out = run_qbo(circuit)
        assert_functionally_equivalent(circuit, out)
        assert out.count_ops().get("cz", 0) == 0

    def test_cz_unknown_kept(self):
        circuit = QuantumCircuit(4)
        prepare_top(circuit, 0, 2)
        prepare_top(circuit, 1, 3)
        circuit.cz(0, 1)
        out = run_qbo(circuit)
        assert out.count_ops().get("cz", 0) == 1


class TestEq7SingleQubit:
    def test_x_on_plus_removed(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.x(0)
        out = run_qbo(circuit)
        assert out.count_ops() == {"h": 1}
        assert_functionally_equivalent(circuit, out)

    def test_z_on_one_removed_with_phase(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.z(0)
        out = run_qbo(circuit)
        assert out.count_ops() == {"x": 1}
        assert abs(out.global_phase - np.pi) < 1e-9
        assert_functionally_equivalent(circuit, out)

    def test_t_on_zero_removed(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        out = run_qbo(circuit)
        assert out.size() == 0

    def test_x_on_zero_kept(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        out = run_qbo(circuit)
        assert out.count_ops() == {"x": 1}


class TestToffoliEq8:
    def test_control_zero_removes(self):
        circuit = QuantumCircuit(4)
        prepare_top(circuit, 1, 3)
        circuit.h(2)
        circuit.t(2)
        circuit.ccx(0, 1, 2)  # control 0 is |0>
        out = run_qbo(circuit)
        assert two_qubit_gate_count(out) == 1  # helper only
        assert_functionally_equivalent(circuit, out)

    def test_control_one_drops_to_cx(self):
        circuit = QuantumCircuit(4)
        circuit.x(0)
        prepare_top(circuit, 1, 3)
        circuit.h(2)
        circuit.t(2)
        circuit.ccx(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("ccx", 0) == 0
        assert out.count_ops().get("cx", 0) == 2  # helper + reduced
        assert_functionally_equivalent(circuit, out)

    def test_target_plus_removes(self):
        circuit = QuantumCircuit(5)
        prepare_top(circuit, 0, 3)
        prepare_top(circuit, 1, 4)
        circuit.h(2)
        circuit.ccx(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("ccx", 0) == 0
        assert_functionally_equivalent(circuit, out)

    def test_target_minus_becomes_cz(self):
        circuit = QuantumCircuit(5)
        prepare_top(circuit, 0, 3)
        prepare_top(circuit, 1, 4)
        circuit.x(2)
        circuit.h(2)
        circuit.ccx(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("ccx", 0) == 0
        assert out.count_ops().get("cz", 0) + out.count_ops().get("mcu1", 0) == 1
        assert_functionally_equivalent(circuit, out)


class TestOpenControls:
    def test_open_control_zero_fires(self):
        circuit = QuantumCircuit(2)
        circuit.append(CXGate(ctrl_state=0), (0, 1))  # fires on |0>
        out = run_qbo(circuit)
        # control is |0>: gate always fires -> plain X on target
        assert out.count_ops() == {"x": 1}
        assert_functionally_equivalent(circuit, out)

    def test_open_control_one_removed(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.append(CXGate(ctrl_state=0), (0, 1))
        out = run_qbo(circuit)
        assert out.count_ops() == {"x": 1}
        assert_functionally_equivalent(circuit, out)


class TestSwapRules:
    @pytest.mark.parametrize("state_a", ALL_BASIS)
    @pytest.mark.parametrize("state_b", ALL_BASIS)
    def test_swap_both_known(self, state_a, state_b):
        circuit = QuantumCircuit(2)
        prepare(circuit, 0, state_a)
        prepare(circuit, 1, state_b)
        circuit.swap(0, 1)
        out = run_qbo(circuit)
        assert two_qubit_gate_count(out) == 0  # Table VI: 1q gates only
        assert_functionally_equivalent(circuit, out)

    @pytest.mark.parametrize("known", ALL_BASIS)
    def test_swap_one_known(self, known):
        circuit = QuantumCircuit(3)
        prepare(circuit, 0, known)
        prepare_top(circuit, 1, 2)
        circuit.swap(0, 1)
        out = run_qbo(circuit)
        assert out.count_ops().get("swap", 0) == 0
        assert out.count_ops().get("swapz", 0) == 1
        assert_functionally_equivalent(circuit, out)

    def test_swap_unknown_kept(self):
        circuit = QuantumCircuit(4)
        prepare_top(circuit, 0, 2)
        prepare_top(circuit, 1, 3)
        circuit.swap(0, 1)
        out = run_qbo(circuit)
        assert out.count_ops().get("swap", 0) == 1

    def test_swapz_valid_promise_kept(self):
        circuit = QuantumCircuit(2)
        circuit.h(1)
        circuit.t(1)
        circuit.swapz(0, 1)  # qubit 0 is |0>
        out = run_qbo(circuit)
        assert out.count_ops().get("swapz", 0) == 1
        assert_functionally_equivalent(circuit, out)

    def test_swapz_invalid_promise_demoted(self):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        prepare_top(circuit, 1, 2)
        circuit.swapz(0, 1)
        out = run_qbo(circuit)
        # demoted to its two defining CNOTs (unitary semantics preserved)
        assert out.count_ops().get("swapz", 0) == 0
        assert_functionally_equivalent(circuit, out)


class TestFredkin:
    def test_control_zero_removed(self):
        circuit = QuantumCircuit(5)
        prepare_top(circuit, 1, 3)
        prepare_top(circuit, 2, 4)
        circuit.cswap(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("cswap", 0) == 0
        assert two_qubit_gate_count(out) == 2  # helpers only
        assert_functionally_equivalent(circuit, out)

    def test_control_one_becomes_swap(self):
        circuit = QuantumCircuit(5)
        circuit.x(0)
        prepare_top(circuit, 1, 3)
        prepare_top(circuit, 2, 4)
        circuit.cswap(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("cswap", 0) == 0
        assert out.count_ops().get("swap", 0) == 1
        assert_functionally_equivalent(circuit, out)

    def test_known_target_uses_decomposition(self):
        circuit = QuantumCircuit(4)
        prepare_top(circuit, 0, 3)
        circuit.h(1)
        # qubit 2 left in |0>
        circuit.cswap(0, 1, 2)
        out = run_qbo(circuit)
        assert out.count_ops().get("cswap", 0) == 0
        assert_functionally_equivalent(circuit, out)


class TestAnnotationsAndReset:
    def test_reset_reenters_automaton(self):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        circuit.reset(0)
        circuit.cx(0, 1)  # control provably |0> again
        out = run_qbo(circuit)
        assert out.count_ops().get("cx", 1) - 1 == 0 or out.count_ops().get("cx", 0) == 1
        # exactly the helper cx remains
        assert two_qubit_gate_count(out) == 1

    def test_annotation_reenters_automaton(self):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        circuit.annotate_zero(0)
        circuit.cx(0, 1)
        out = run_qbo(circuit)
        assert two_qubit_gate_count(out) == 1  # helper only

    def test_measure_keeps_z_basis(self):
        circuit = QuantumCircuit(2, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.cx(0, 1)  # control still provably |1>
        out = run_qbo(circuit)
        assert out.count_ops().get("cx", 0) == 0
        assert out.count_ops().get("x", 0) == 2


class TestGeneralEigenphase:
    def test_cp_with_one_target_collapses_only_in_general_mode(self):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        circuit.x(1)
        circuit.cp(0.7, 0, 1)
        faithful = run_qbo(circuit)
        general = run_qbo(circuit, general_eigenphase=True)
        assert faithful.count_ops().get("cp", 0) == 1
        assert general.count_ops().get("cp", 0) == 0
        assert_functionally_equivalent(circuit, general)

    def test_cp_pi_collapses_in_both_modes(self):
        circuit = QuantumCircuit(3)
        prepare_top(circuit, 0, 2)
        circuit.x(1)
        circuit.cp(np.pi, 0, 1)
        faithful = run_qbo(circuit)
        assert faithful.count_ops().get("cp", 0) == 0
        assert_functionally_equivalent(circuit, faithful)


class TestVChain:
    def test_clean_ancilla_control_zero_removes(self):
        circuit = QuantumCircuit(7)
        for qubit in (1, 2, 3):
            circuit.h(qubit)
        # control 0 in |0>, ancillas 4,5 clean
        circuit.mcx_vchain([0, 1, 2, 3], 6, [4, 5])
        out = run_qbo(circuit)
        assert out.count_ops().get("mcx_vchain", 0) == 0
        assert_functionally_equivalent(circuit, out)

    def test_control_one_reduces(self):
        circuit = QuantumCircuit(7)
        circuit.x(0)
        for qubit in (1, 2, 3):
            circuit.h(qubit)
        circuit.mcx_vchain([0, 1, 2, 3], 6, [4, 5])
        out = run_qbo(circuit)
        ops = out.count_ops()
        assert ops.get("mcx_vchain", 0) == 1
        remaining = next(
            inst for inst in out.data if inst.operation.name == "mcx_vchain"
        )
        assert remaining.operation.num_ctrl_qubits == 3
        assert_functionally_equivalent(circuit, out)

    def test_dirty_ancilla_blocks_rules(self):
        circuit = QuantumCircuit(8)
        prepare_top(circuit, 4, 7)  # dirty ancilla
        for qubit in (1, 2, 3):
            circuit.h(qubit)
        circuit.mcx_vchain([0, 1, 2, 3], 6, [4, 5])
        out = run_qbo(circuit)
        assert out.count_ops().get("mcx_vchain", 0) == 1


def qbo_rewrites(circuit, **kwargs):
    """The pass's output and the rewrites it counted."""
    properties = PropertySet()
    out = QBOPass(**kwargs).run(circuit, properties)
    return out, rewrite_counter(properties)["QBO"]


class TestRewriteCounts:
    """Every replacement counts once, not only removals."""

    def test_removal_counts(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)  # control |0>: never fires
        out, rewrites = qbo_rewrites(circuit)
        assert len(out.data) == 0
        assert rewrites == 1

    def test_all_controls_dropped_counts(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.cx(0, 1)  # control |1>: the bare X remains
        out, rewrites = qbo_rewrites(circuit)
        assert [inst.operation.name for inst in out.data] == ["x", "x"]
        assert rewrites == 1
        assert_functionally_equivalent(circuit, out)

    def test_rebuilt_reduced_gate_counts(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.h(1)
        circuit.t(1)
        circuit.ccx(0, 1, 2)  # control 0 always fires: rebuilt as cx(1, 2)
        out, rewrites = qbo_rewrites(circuit)
        assert out.count_ops().get("ccx", 0) == 0
        assert out.count_ops().get("cx", 0) == 1
        assert rewrites == 1
        assert_functionally_equivalent(circuit, out)

    def test_controlled_phase_residue_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(0)
        circuit.x(1)
        circuit.h(1)
        circuit.cx(0, 1)  # target |->: a phase on the control remains
        out, rewrites = qbo_rewrites(circuit)
        assert out.num_nonlocal_gates() == 0
        assert rewrites == 1
        assert_functionally_equivalent(circuit, out)

    def test_untouched_gate_does_not_count(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)  # control |+>, target |0>: nothing provable
        out, rewrites = qbo_rewrites(circuit)
        assert out.count_ops().get("cx", 0) == 1
        assert rewrites == 0
