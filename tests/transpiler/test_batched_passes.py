"""The batched transpiler passes against their serial oracles.

``ConsolidateBlocks`` is held to **bit-identical** output against the
per-block serial fold in :mod:`tests.oracles` (the batched fold reduction
reproduces the serial matmuls exactly, and the Weyl synthesis is
deterministic given identical block matrices).  ``Optimize1qGates`` is
held to identical structure with angles within ``1e-12`` against the
gate-by-gate oracle (vectorized ``arctan2`` may round the last ulp
differently from libm's -- see the pass docstring).

The closed-form screen of ``ConsolidateBlocks`` is held to the same
standard against the unscreened pass, which synthesizes every candidate:
bit-identical output and the same number of accepted rewrites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import grover_circuit, quantum_volume_circuit
from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.linalg.batch import num_cnots_required_batch
from repro.transpiler import PassManager
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.passes import ConsolidateBlocks, Optimize1qGates
from repro.transpiler.passes import consolidate as consolidate_module
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.preset import layout_stage
from repro.transpiler.target import Target

from tests.helpers import assert_unitarily_equal
from tests.oracles import (
    SerialConsolidateBlocks,
    SerialOptimize1qGates,
    UnscreenedConsolidateBlocks,
    scalar_num_cnots_required,
)


def random_circuit(
    seed: int, num_qubits: int = 4, depth: int = 40, measures: bool = True
) -> QuantumCircuit:
    """A random mix of 1q/2q gates with barriers and (optional) fences."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.30:
            circuit.u3(
                float(rng.uniform(0, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                int(rng.integers(num_qubits)),
            )
        elif roll < 0.45:
            gate = rng.choice(["h", "s", "t", "x", "z", "sx"])
            getattr(circuit, gate)(int(rng.integers(num_qubits)))
        elif roll < 0.55:
            circuit.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(num_qubits)))
        elif roll < 0.90:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            gate = rng.choice(["cx", "cz", "swap", "iswap"])
            getattr(circuit, gate)(a, b)
        elif roll < 0.95:
            circuit.barrier()
        elif measures:
            qubit = int(rng.integers(num_qubits))
            circuit.measure(qubit, qubit)
    return circuit


def run_both(batched_pass, serial_pass, circuit):
    batched = batched_pass.run(circuit, PropertySet())
    serial = serial_pass.run(circuit, PropertySet())
    return batched, serial


def consolidate_both(circuit, **kwargs):
    return run_both(ConsolidateBlocks(**kwargs), SerialConsolidateBlocks(**kwargs), circuit)


def optimize_1q_both(circuit):
    return run_both(Optimize1qGates(), SerialOptimize1qGates(), circuit)


def assert_bit_identical(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert a.global_phase == b.global_phase
    assert len(a.data) == len(b.data)
    for left, right in zip(a.data, b.data):
        assert left.operation.name == right.operation.name
        assert left.qubits == right.qubits
        assert left.clbits == right.clbits
        assert list(left.operation.params) == list(right.operation.params)


def assert_structure_and_angles(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert abs(a.global_phase - b.global_phase) < 1e-12
    assert len(a.data) == len(b.data)
    for left, right in zip(a.data, b.data):
        assert left.operation.name == right.operation.name
        assert left.qubits == right.qubits
        assert left.clbits == right.clbits
        assert np.allclose(
            list(left.operation.params), list(right.operation.params), atol=1e-12
        )


class TestConsolidateParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identical_on_random_circuits(self, seed):
        circuit = random_circuit(seed)
        batched, serial = consolidate_both(circuit)
        assert_bit_identical(batched, serial)

    @pytest.mark.parametrize("seed", range(5))
    def test_forced_resynthesis_parity(self, seed):
        circuit = random_circuit(seed + 100, num_qubits=3, depth=30)
        batched, serial = consolidate_both(circuit, force=True)
        assert_bit_identical(batched, serial)

    def test_batched_preserves_semantics(self):
        circuit = random_circuit(7, measures=False)
        out = ConsolidateBlocks().run(circuit, PropertySet())
        assert_unitarily_equal(circuit, out)

    def test_empty_and_trivial_circuits(self):
        for circuit in (QuantumCircuit(2), QuantumCircuit(1)):
            batched, serial = consolidate_both(circuit)
            assert_bit_identical(batched, serial)
        single = QuantumCircuit(2)
        single.cx(0, 1)
        batched, serial = consolidate_both(single)
        assert_bit_identical(batched, serial)

    def test_bulk_matrix_lookup_hits_cache(self):
        circuit = QuantumCircuit(2)
        for _ in range(6):
            circuit.cx(0, 1)
            circuit.h(0)
        cache = AnalysisCache()
        props = PropertySet({AnalysisCache.PROPERTY_KEY: cache})
        ConsolidateBlocks().run(circuit, props)
        # 12 gate operands resolve to 2 distinct matrices: h from the
        # standard table, cx (a ControlledGate) constructed exactly once
        assert cache.matrix_requests >= 12
        assert cache.matrix_constructions == 1


def screened_and_unscreened(circuit):
    """Both passes' outputs and rewrite counts."""
    runs = []
    for pass_ in (ConsolidateBlocks(), UnscreenedConsolidateBlocks()):
        properties = PropertySet()
        out = pass_.run(circuit, properties)
        runs.append((out, rewrite_counter(properties)[pass_.name]))
    return runs


def assert_screen_exact(circuit):
    (screened, screened_rewrites), (unscreened, unscreened_rewrites) = (
        screened_and_unscreened(circuit)
    )
    assert_bit_identical(screened, unscreened)
    assert screened_rewrites == unscreened_rewrites


_1Q_GATES = ["h", "s", "t", "x", "sx"]
_2Q_GATES = ["cx", "cz", "swap", "iswap", "cp", "crz"]


@st.composite
def gate_circuits(draw, num_qubits=3):
    """Random 1q/2q circuits, rich in repeated pairs so blocks form."""
    circuit = QuantumCircuit(num_qubits)
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["1q", "u3", "2q", "2q"]))
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(_1Q_GATES)))(draw(qubit))
        elif kind == "u3":
            circuit.u3(draw(angles), draw(angles), draw(angles), draw(qubit))
        else:
            a = draw(qubit)
            b = draw(qubit.filter(lambda q: q != a))
            name = draw(st.sampled_from(_2Q_GATES))
            if name in ("cp", "crz"):
                getattr(circuit, name)(draw(angles), a, b)
            else:
                getattr(circuit, name)(a, b)
    return circuit


def routed(circuit):
    """``circuit`` unrolled, laid out and routed on melbourne, SWAPs kept."""
    target = Target.from_backend(FakeMelbourne())
    stage = layout_stage(target, dense=True, swap_trials=4, seed=0, unroll_after=False)
    return PassManager(stage).run(circuit)


def synthesis_calls(monkeypatch) -> list:
    """Record every block the pass hands to two-qubit synthesis."""
    calls = []
    synthesize = consolidate_module.synthesize_two_qubit_unitary

    def spy(unitary, *args, **kwargs):
        calls.append(unitary)
        return synthesize(unitary, *args, **kwargs)

    monkeypatch.setattr(consolidate_module, "synthesize_two_qubit_unitary", spy)
    return calls


class TestConsolidateScreen:
    @settings(max_examples=60, deadline=None)
    @given(circuit=gate_circuits())
    def test_bit_identical_to_unscreened(self, circuit):
        assert_screen_exact(circuit)

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_on_random_circuits(self, seed):
        assert_screen_exact(random_circuit(seed + 500))

    @pytest.mark.parametrize(
        "make", [lambda: grover_circuit(8), lambda: quantum_volume_circuit(8, seed=3)],
        ids=["grover8", "qv8"],
    )
    def test_bit_identical_on_routed_circuits(self, make):
        circuit = routed(make())
        assert circuit.count_ops().get("swap", 0) > 0
        assert_screen_exact(circuit)

    def test_stacked_budgets_match_scalar_oracle(self):
        pass_ = ConsolidateBlocks()
        blocks = [
            payload
            for circuit in (routed(grover_circuit(8)), routed(quantum_volume_circuit(8, seed=3)))
            for kind, payload in pass_.collect(circuit)
            if kind == "block"
        ]
        unitaries = pass_._block_matrices(blocks, AnalysisCache())
        budgets = num_cnots_required_batch(unitaries, atol=1e-7)
        expected = [scalar_num_cnots_required(u, atol=1e-7) for u in unitaries]
        assert budgets.tolist() == expected
        assert set(expected) == {1, 2, 3}

    def test_swap_block_is_left_alone(self, monkeypatch):
        calls = synthesis_calls(monkeypatch)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)  # budget 3 == cost 3 with no 1q gates to save
        properties = PropertySet()
        out = ConsolidateBlocks().run(circuit, properties)
        assert calls == []
        assert_bit_identical(out, circuit)
        assert rewrite_counter(properties)["ConsolidateBlocks"] == 0

    def test_cancelling_pair_is_removed(self, monkeypatch):
        calls = synthesis_calls(monkeypatch)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)  # budget 0 < cost 2
        properties = PropertySet()
        out = ConsolidateBlocks().run(circuit, properties)
        assert len(calls) == 1
        assert len(out.data) == 0
        assert rewrite_counter(properties)["ConsolidateBlocks"] == 1

    def test_controlled_phase_block_is_still_synthesized(self, monkeypatch):
        calls = synthesis_calls(monkeypatch)
        circuit = QuantumCircuit(2)
        circuit.p(0.4, 0)  # the textbook cp(0.8) over two CNOTs
        circuit.cx(0, 1)
        circuit.p(-0.4, 1)
        circuit.cx(0, 1)
        circuit.p(0.4, 1)
        # budget 2 == cost 2, but the block has 1q gates a rewrite could save
        assert num_cnots_required_batch(circuit.to_matrix()[None], atol=1e-7)[0] == 2
        ConsolidateBlocks().run(circuit, PropertySet())
        assert len(calls) == 1
        assert_screen_exact(circuit)

    def test_force_synthesizes_every_block(self, monkeypatch):
        calls = synthesis_calls(monkeypatch)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        ConsolidateBlocks(force=True).run(circuit, PropertySet())
        assert len(calls) == 1


class TestOptimize1qParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_structure_and_angles_on_random_circuits(self, seed):
        circuit = random_circuit(seed + 300)
        batched, serial = optimize_1q_both(circuit)
        assert_structure_and_angles(batched, serial)

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_preserves_semantics(self, seed):
        circuit = random_circuit(seed + 400, measures=False)
        out = Optimize1qGates().run(circuit, PropertySet())
        assert_unitarily_equal(circuit, out)

    def test_pure_1q_runs_collapse(self):
        circuit = QuantumCircuit(1)
        for _ in range(10):
            circuit.h(0)
            circuit.t(0)
        batched, serial = optimize_1q_both(circuit)
        assert len(batched.data) == 1
        assert_structure_and_angles(batched, serial)

    def test_empty_circuit(self):
        batched, serial = optimize_1q_both(QuantumCircuit(3))
        assert_bit_identical(batched, serial)

    def test_identity_run_disappears(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.x(0)
        out = Optimize1qGates().run(circuit, PropertySet())
        assert len(out.data) == 0
