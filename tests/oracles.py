"""Reference oracles: the plain implementations the fast paths are held to.

Every layer of the library has one implementation -- stacked-array state
trackers, batched pass folds, fused simulator lowering.  The plain
one-thing-at-a-time versions they replaced live here, outside the
package, as the executable definitions the parity tests (and the
``bench_kernels.py`` / ``bench_sim.py`` shoot-outs) compare against:

* :class:`ScalarBasisTracker` / :class:`ScalarPureTracker` -- the Fig. 5
  and Fig. 6 automata, one scalar transition per gate;
  :func:`scalar_trackers` runs QBO/QPO over them;
* :func:`serial_block_matrix` / :class:`SerialConsolidateBlocks` -- one
  ``embed_gate`` + matmul per gate, one block at a time;
* :class:`UnscreenedConsolidateBlocks` -- synthesizes every candidate
  block and lets the acceptance test alone decide;
  :func:`scalar_num_cnots_required` -- one block's CNOT budget from its
  own trace invariants;
* :func:`serial_run_product` / :class:`SerialOptimize1qGates` -- one
  matmul per gate and one scalar Euler extraction per run;
* :func:`unfused_program`, :func:`unfused_statevector`,
  :func:`unfused_unitary` -- one simulator step per gate.

Tolerances the production paths meet against these: basis tracker,
block consolidation and the screened consolidation bit-identical, CNOT
budgets equal, pure-tracker tuples and 1q angles
within ``1e-12``, fused states and unitaries within ``1e-12``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.circuit.matrix_utils import embed_gate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.linalg.backend import get_backend
from repro.linalg.euler import u3_matrix, u3_params_from_unitary
from repro.linalg.weyl import _MAGIC_DAG, MAGIC_BASIS
from repro.rpo import qbo, qpo
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.states import transition
from repro.simulators.fusion import FusedProgram
from repro.simulators.statevector import StatevectorSimulator
from repro.simulators.unitary import _apply_gate_columns
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.passes import ConsolidateBlocks, Optimize1qGates
from repro.transpiler.passmanager import PropertySet

# -- state trackers -----------------------------------------------------------


class ScalarBasisTracker(BasisStateTracker):
    """The basis automaton with one :func:`transition` call per gate."""

    def apply_1q_gate(self, qubit: int, matrix: np.ndarray) -> None:
        self.set_state(qubit, transition(self.state(qubit), matrix))

    def apply_1q_gates(self, qubits, matrices) -> None:
        for qubit, matrix in zip(qubits, matrices):
            self.apply_1q_gate(int(qubit), matrix)


class ScalarPureTracker(PureStateTracker):
    """The pure-state automaton merging one ``u3`` matrix at a time."""

    def apply_1q_gate(self, qubit: int, matrix: np.ndarray) -> None:
        if not self.known[qubit]:
            return
        theta0, phi0 = self.tuples[qubit]
        prepared = matrix @ u3_matrix(float(theta0), float(phi0), 0.0)
        theta, phi, _lam, _gamma = u3_params_from_unitary(prepared)
        self.tuples[qubit] = (theta, phi)

    def apply_1q_gates(self, qubits, matrices) -> None:
        for qubit, matrix in zip(qubits, matrices):
            self.apply_1q_gate(int(qubit), matrix)


@contextmanager
def scalar_trackers():
    """Run QBO and QPO over the scalar trackers inside the block."""
    saved = (qbo.BasisStateTracker, qpo.PureStateTracker)
    qbo.BasisStateTracker, qpo.PureStateTracker = ScalarBasisTracker, ScalarPureTracker
    try:
        yield
    finally:
        qbo.BasisStateTracker, qpo.PureStateTracker = saved


# -- transpiler passes --------------------------------------------------------


def serial_block_matrix(block, cache: AnalysisCache) -> np.ndarray:
    """A consolidation block's 4x4 unitary, one embed + matmul per gate."""
    matrix = np.eye(4, dtype=complex)
    for instruction in block.instructions:
        local = block.local_wires(instruction)
        matrix = embed_gate(cache.matrix(instruction.operation), local, 2) @ matrix
    return matrix


class SerialConsolidateBlocks(ConsolidateBlocks):
    """``ConsolidateBlocks`` folding each block on its own."""

    def _block_matrices(self, blocks, cache):
        return np.array([serial_block_matrix(block, cache) for block in blocks])


class UnscreenedConsolidateBlocks(ConsolidateBlocks):
    """``ConsolidateBlocks`` synthesizing every candidate block.

    No closed-form screen: each candidate goes through
    ``synthesize_two_qubit_unitary`` and the acceptance test
    ``(new_2q, size) < (cx_cost, len(block))`` alone decides.
    """

    def _improvable(self, blocks, unitaries):
        return [True] * len(blocks)


def scalar_num_cnots_required(unitary: np.ndarray, atol: float = 1e-8) -> int:
    """One unitary's CNOT budget from the Shende--Bullock--Markov traces.

    ``tr(M2) = +/-4`` -> 0, ``tr(M2) = 0`` and ``tr(M2^2) = -4`` -> 1,
    ``tr(M2)`` real -> 2, otherwise 3, with ``M2`` the magic-basis Gram
    matrix of ``U / det(U) ** (1/4)``.
    """
    unitary = np.asarray(unitary, dtype=complex)
    det = np.linalg.det(unitary)
    special = unitary * np.exp(-1j * np.angle(det) / 4)
    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.T @ magic
    trace, trace_sq = complex(np.trace(m2)), complex(np.trace(m2 @ m2))
    if abs(trace.imag) < atol and abs(abs(trace.real) - 4.0) < atol:
        return 0
    if abs(trace) < atol and abs(trace_sq + 4.0) < atol:
        return 1
    if abs(trace.imag) < atol:
        return 2
    return 3


def serial_run_product(matrices) -> np.ndarray:
    """The product of a one-qubit run, one matmul per gate."""
    product = matrices[0]
    for matrix in matrices[1:]:
        product = matrix @ product
    return product


class SerialOptimize1qGates(Optimize1qGates):
    """``Optimize1qGates`` accumulating each run gate by gate."""

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        cache = AnalysisCache.ensure(property_set)
        rewrites = rewrite_counter(property_set)
        output = circuit.copy_empty_like()
        pending: dict[int, list[np.ndarray]] = {}

        def flush(qubit: int) -> None:
            run = pending.pop(qubit, None)
            if run is None:
                return
            if len(run) > 1:
                rewrites[self.name] += 1
            params = u3_params_from_unitary(serial_run_product(run))
            self._emit_params(*params, qubit, output)

        for instruction in circuit.data:
            operation = instruction.operation
            if operation.is_gate() and operation.num_qubits == 1 and not operation.is_directive:
                pending.setdefault(instruction.qubits[0], []).append(cache.matrix(operation))
                continue
            for qubit in instruction.qubits:
                flush(qubit)
            output.append(operation, instruction.qubits, instruction.clbits)
        for qubit in sorted(pending):
            flush(qubit)
        return output


# -- simulators ---------------------------------------------------------------


def unfused_program(circuit: QuantumCircuit, cache: AnalysisCache | None = None) -> FusedProgram:
    """``circuit`` lowered to one simulator step per gate."""
    cache = cache if cache is not None else AnalysisCache()
    program = FusedProgram(circuit.num_qubits, circuit.num_clbits, circuit.global_phase)
    for instruction in circuit.data:
        operation = instruction.operation
        qubits = instruction.qubits
        if operation.is_directive:
            continue
        if operation.name == "measure":
            program.steps.append(("measure", qubits[0], instruction.clbits[0]))
        elif operation.name == "reset":
            program.steps.append(("reset", qubits[0], None))
        elif not operation.is_gate():
            program.steps.append(("other", operation, qubits))
        else:
            program.num_gates += 1
            program.num_unitaries += 1
            program.steps.append(("unitary", cache.matrix(operation), qubits))
    return program


def unfused_statevector(
    circuit: QuantumCircuit,
    initial_state: np.ndarray | None = None,
    seed=None,
    cache: AnalysisCache | None = None,
) -> np.ndarray:
    """Final statevector, evolving one gate at a time."""
    program = unfused_program(circuit, cache)
    state, _ = StatevectorSimulator(seed=seed)._evolve(program, initial_state, allow_measure=False)
    return get_backend().asnumpy(state)


def unfused_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The circuit's unitary, applying one gate at a time to all columns."""
    backend = get_backend()
    program = unfused_program(circuit)
    dim = 2**circuit.num_qubits
    matrix = backend.xp.eye(dim, dtype=complex)
    for kind, gate, qargs in program.staged(backend):
        if kind != "unitary":
            raise ValueError(f"cannot express {kind!r} as a unitary")
        matrix = _apply_gate_columns(matrix, gate, qargs, circuit.num_qubits)
    return backend.asnumpy(matrix * np.exp(1j * program.global_phase))
