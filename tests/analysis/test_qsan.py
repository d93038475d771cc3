"""Tests for the QSAN translation-validation sanitizer."""

import pickle

import numpy as np
import pytest

from repro.analysis.qsan import ContractViolation, QsanConfig, QsanValidator
from repro.circuit import QuantumCircuit
from repro.circuit.quantumcircuit import CircuitInstruction
from repro.gates import CXGate, Measure, XGate
from repro.transpiler import PassManager, TranspilerError
from repro.transpiler.passmanager import AnalysisPass, TransformationPass
from repro.transpiler.passes import Size


class LyingPreserves(TransformationPass):
    """Deliberately lies: drops a gate while claiming to preserve size."""

    requires = ()
    preserves = ("size",)
    invalidates = ()

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        for instruction in circuit.data[:-1]:
            out.append(instruction.operation, instruction.qubits, instruction.clbits)
        return out


class SneakyWrite(TransformationPass):
    """Writes a property it never declared; leaves the circuit alone."""

    requires = ()
    preserves = "all"
    invalidates = ()

    def transform(self, circuit, props):
        props["sneaky"] = 1
        return circuit


class SneakyClobber(TransformationPass):
    """Overwrites someone else's analysis without declaring it."""

    requires = ()
    preserves = "all"
    invalidates = ()

    def transform(self, circuit, props):
        props["size"] = 9999
        return circuit


class MutatingAnalysis(AnalysisPass):
    """An analysis pass that illegally rewrites the circuit."""

    provides = ("bogus",)

    def analyze(self, circuit, props):
        props["bogus"] = True

    def run(self, circuit, props):
        self.analyze(circuit, props)
        out = circuit.copy()
        out.x(0)
        return out


class BrokenOptimizer(TransformationPass):
    """Replaces every X with a Z -- semantically wrong."""

    requires = ()
    preserves = ()
    invalidates = ()

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "x":
                out.z(instruction.qubits[0])
            else:
                out.append(
                    instruction.operation, instruction.qubits, instruction.clbits
                )
        return out


class MisWiredEmit(TransformationPass):
    """Copies the circuit through the trusted ``_append``, then adds one
    instruction on the wires it was built with."""

    requires = ()
    preserves = ()
    invalidates = ()

    def __init__(self, instruction):
        self.instruction = instruction

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        for instruction in circuit.data:
            out._append(instruction)
        out._append(self.instruction)
        return out


class HonestNoop(TransformationPass):
    requires = ()
    preserves = "all"
    invalidates = ()

    def transform(self, circuit, props):
        return circuit


def _bell():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


class TestContractAudit:
    def test_lying_preserves_is_caught(self):
        """Acceptance: a seeded deliberately-lying pass is caught."""
        circuit = _bell()
        pm = PassManager([Size(), LyingPreserves()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(circuit, validate="contracts")
        violation = excinfo.value
        assert violation.kind == "false-preserves"
        assert violation.pass_name == "LyingPreserves"
        assert violation.property_name == "size"
        assert violation.diff is not None

    def test_lying_preserves_caught_in_full_mode_too(self):
        pm = PassManager([Size(), LyingPreserves()])
        with pytest.raises(ContractViolation):
            pm.run_with_result(_bell(), validate="full")

    def test_undeclared_write_is_caught(self):
        pm = PassManager([SneakyWrite()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="contracts")
        assert excinfo.value.kind == "undeclared-write"
        assert excinfo.value.property_name == "sneaky"

    def test_undeclared_clobber_is_caught(self):
        pm = PassManager([Size(), SneakyClobber()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="contracts")
        assert excinfo.value.kind == "undeclared-clobber"
        assert excinfo.value.property_name == "size"

    def test_mutating_analysis_is_caught(self):
        pm = PassManager([MutatingAnalysis()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="contracts")
        assert excinfo.value.kind == "analysis-mutation"

    def test_honest_pipeline_is_clean(self):
        pm = PassManager([Size(), HonestNoop(), Size()])
        result = pm.run_with_result(_bell(), validate="full")
        assert result.violations == []
        assert all(m.violations == 0 for m in result.metrics)


class TestEquivalence:
    def test_broken_optimizer_is_caught(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        circuit.cx(0, 1)
        pm = PassManager([BrokenOptimizer()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(circuit, validate="full")
        assert excinfo.value.kind == "equivalence"
        assert excinfo.value.pass_name == "BrokenOptimizer"
        assert excinfo.value.diff is not None

    def test_contracts_mode_skips_equivalence(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        pm = PassManager([BrokenOptimizer()])
        result = pm.run_with_result(circuit, validate="contracts")
        assert result.violations == []

    def test_broken_optimizer_caught_with_measurements(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        pm = PassManager([BrokenOptimizer()])
        with pytest.raises(ContractViolation):
            pm.run_with_result(circuit, validate="full")


class TestWireCheck:
    """The backstop for passes that emit through the unchecked ``_append``."""

    @pytest.mark.parametrize(
        "instruction, problem",
        [
            (CircuitInstruction(XGate(), (2,)), "leave the range"),
            (CircuitInstruction(XGate(), (-1,)), "leave the range"),
            (CircuitInstruction(CXGate(), (1, 1)), "repeat a wire"),
            (CircuitInstruction(CXGate(), (0,)), "the operation takes 2"),
            (CircuitInstruction(XGate(), (np.int64(0),)), "not a tuple of int"),
            (CircuitInstruction(XGate(), [0]), "not a tuple of int"),
            (CircuitInstruction(Measure(), (0,), (0,)), "leave the range"),
        ],
    )
    def test_miswired_emit_is_caught(self, instruction, problem):
        pm = PassManager([MisWiredEmit(instruction)])
        with pytest.raises(ContractViolation, match=problem) as excinfo:
            pm.run_with_result(_bell(), validate="contracts")
        assert excinfo.value.kind == "wires"
        assert excinfo.value.pass_name == "MisWiredEmit"

    def test_wires_raise_even_in_report_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN_REPORT", "1")
        pm = PassManager([MisWiredEmit(CircuitInstruction(XGate(), (5,)))])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="full")
        assert excinfo.value.kind == "wires"

    def test_well_wired_emit_is_clean(self):
        pm = PassManager([MisWiredEmit(CircuitInstruction(XGate(), (1,)))])
        result = pm.run_with_result(_bell(), validate="contracts")
        assert result.violations == []


class TestReporting:
    def test_report_mode_collects_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN_REPORT", "1")
        pm = PassManager([Size(), LyingPreserves(), SneakyWrite()])
        result = pm.run_with_result(_bell(), validate="contracts")
        kinds = sorted(v.kind for v in result.violations)
        assert kinds == ["false-preserves", "undeclared-write"]
        per_pass = {m.name: m.violations for m in result.metrics}
        assert per_pass["LyingPreserves"] == 1
        assert per_pass["SneakyWrite"] == 1
        assert per_pass["Size"] == 0

    def test_violation_pickle_round_trip(self):
        original = ContractViolation(
            "pass P broke its contract",
            kind="false-preserves",
            pass_name="P",
            property_name="size",
            diff="- x @ 0",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, ContractViolation)
        assert clone.args == original.args
        assert clone.kind == "false-preserves"
        assert clone.pass_name == "P"
        assert clone.property_name == "size"
        assert clone.diff == "- x @ 0"


class TestConfigResolution:
    def test_env_aliases(self, monkeypatch):
        for raw, mode in [("1", "full"), ("full", "full"), ("contracts", "contracts"),
                          ("0", "off"), ("off", "off"), ("", "off")]:
            monkeypatch.setenv("REPRO_QSAN", raw)
            assert QsanConfig.resolve().mode == mode

    def test_explicit_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "full")
        assert QsanConfig.resolve("off").mode == "off"

    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_QSAN", raising=False)
        config = QsanConfig.resolve()
        assert config.mode == "off"
        assert not config.enabled

    def test_bad_mode_raises(self):
        with pytest.raises(TranspilerError, match="unrecognized QSAN mode"):
            QsanConfig.resolve("sometimes")

    def test_caps_read_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "full")
        monkeypatch.setenv("REPRO_QSAN_UNITARY_CAP", "4")
        monkeypatch.setenv("REPRO_QSAN_STATE_CAP", "6")
        config = QsanConfig.resolve()
        assert config.unitary_cap == 4
        assert config.state_cap == 6

    def test_env_enables_sanitizer_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "contracts")
        pm = PassManager([SneakyWrite()])
        with pytest.raises(ContractViolation):
            pm.run_with_result(_bell())

    def test_validator_memo_prunes_to_live_circuit(self):
        validator = QsanValidator(QsanConfig(mode="full"))
        pm_passes = [HonestNoop(), BrokenOptimizer()]
        circuit = _bell()
        # drive check_pass directly: after two passes only the last
        # output's semantic reference may remain cached
        out = circuit.copy()
        validator.check_pass(
            pm_passes[0], circuit, out, {},
            snapshot={}, written=set(), valid_before=set(), changed=False,
        )
        assert len(validator._memo) <= 1
