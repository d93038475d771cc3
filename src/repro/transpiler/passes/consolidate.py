"""Two-qubit block collection and re-synthesis.

``ConsolidateBlocks`` is the unitary-preserving peephole optimization of
Qiskit's level 3 (paper Sec. II-B): it collects maximal runs of gates acting
on the same qubit pair (``Collect2qBlocks``), computes each block's 4x4
unitary, and replaces the block with a minimal-CNOT re-synthesis when that
reduces the two-qubit gate count.

This is the pass the paper contrasts RPO against: it must preserve the
block's *unitary*, so it can never exploit known input states the way
QBO/QPO do.

The pass runs in two phases: a linear scan collects every block of the
circuit (recording the flush order), then **all** block unitaries are
computed in one batched reduction (:func:`repro.linalg.batch.
two_qubit_chain_unitaries` -- per-gate matrices stacked, 1q gates embedded
via the batched kron, chains identity-padded and chain-multiplied with
log-depth pairwise matmuls) before any synthesis happens.  The fold
measures 3.0x over a per-block ``embed_gate`` + matmul accumulation
(``benchmarks/bench_kernels.py --quick``, ``consolidation``); that serial
fold survives only as the parity oracle the tests hold this pass to,
bit for bit.

Before synthesis, every candidate's CNOT budget comes from one stacked
closed-form kernel (:func:`repro.linalg.batch.num_cnots_required_batch`),
and a block whose rewrite could never be accepted keeps its gates without
being synthesized.  The screen is exact.  Synthesis starts at the budget
and only escalates, and a replacement has at least as many gates as CNOTs.
So a block with ``budget > cx_cost``, or with ``budget == cx_cost`` and no
more gates than ``cx_cost``, would always fail the acceptance test
``(new_2q, size) < (cx_cost, len(block))``.  On the Table II suite the
screen skips 55% of the synthesis calls (6783 to 3046 per pass).
``tests/oracles.py`` keeps the unscreened pass as the parity oracle.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import CircuitInstruction, QuantumCircuit
from repro.linalg.batch import num_cnots_required_batch, two_qubit_chain_unitaries
from repro.linalg.two_qubit_synthesis import synthesize_two_qubit_unitary
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["ConsolidateBlocks"]

_BLOCK_MIN_2Q = 2  # only consolidate blocks with at least this many 2q gates

#: tolerance of the CNOT-budget test; the one synthesis starts from
_BUDGET_ATOL = 1e-7


#: CX-equivalent cost of two-qubit gates when they are later unrolled to
#: the CNOT basis (swap = 3, swapz = 2, generic unitary synthesis <= 3).
_CX_COST = {"cx": 1, "cz": 1, "cy": 1, "ch": 2, "cp": 2, "crx": 2, "cry": 2,
            "crz": 2, "cu3": 2, "swap": 3, "swapz": 2, "iswap": 2}


class _Block:
    """A growing run of gates confined to one qubit pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair  # ordered (low, high)
        self.instructions: list[CircuitInstruction] = []
        self.num_2q = 0
        self.cx_cost = 0

    def add(self, instruction: CircuitInstruction) -> None:
        self.instructions.append(instruction)
        if len(instruction.qubits) == 2:
            self.num_2q += 1
            self.cx_cost += _CX_COST.get(instruction.operation.name, 3)

    def local_wires(self, instruction: CircuitInstruction) -> tuple[int, ...]:
        """Block-local wires of one instruction (wire 0 = ``pair[0]``)."""
        wire_of = {self.pair[0]: 0, self.pair[1]: 1}
        return tuple(wire_of[q] for q in instruction.qubits)


class ConsolidateBlocks(TransformationPass):
    """Collect and re-synthesise two-qubit blocks (Collect2qBlocks +
    ConsolidateBlocks rolled into one linear scan)."""

    requires = ()
    preserves = ("is_swap_mapped",)
    invalidates = ()

    def __init__(self, force: bool = False):
        # ``force`` re-synthesises even when the CNOT count does not drop
        # (useful in tests); the preset pipelines keep the default.
        self.force = force

    def collect(self, circuit: QuantumCircuit) -> list[tuple[str, object]]:
        """Scan ``circuit`` into an ordered event list.

        Events are ``("raw", instruction)`` for pass-through instructions
        and ``("block", block)`` for completed blocks, in exactly the order
        the serial pass would have emitted them.
        """
        events: list[tuple[str, object]] = []
        pending_1q: dict[int, list[CircuitInstruction]] = {}
        block_of: dict[int, _Block] = {}

        def flush_pending(qubit: int) -> None:
            for instruction in pending_1q.pop(qubit, []):
                events.append(("raw", instruction))

        def flush_block(block: _Block) -> None:
            for qubit in block.pair:
                block_of.pop(qubit, None)
            events.append(("block", block))

        def flush_qubit(qubit: int) -> None:
            block = block_of.get(qubit)
            if block is not None:
                flush_block(block)
            flush_pending(qubit)

        for instruction in circuit.data:
            operation = instruction.operation
            qubits = instruction.qubits
            is_simple_gate = (
                operation.is_gate()
                and not operation.is_directive
                and not instruction.clbits
            )
            if is_simple_gate and len(qubits) == 1:
                qubit = qubits[0]
                block = block_of.get(qubit)
                if block is not None:
                    block.add(instruction)
                else:
                    pending_1q.setdefault(qubit, []).append(instruction)
                continue
            if is_simple_gate and len(qubits) == 2:
                a, b = qubits
                pair = (min(a, b), max(a, b))
                block = block_of.get(a)
                if block is not None and block is block_of.get(b) and block.pair == pair:
                    block.add(instruction)
                    continue
                flush_qubit(a)
                flush_qubit(b)
                block = _Block(pair)
                for qubit in pair:
                    for held in pending_1q.pop(qubit, []):
                        block.add(held)
                    block_of[qubit] = block
                block.add(instruction)
                continue
            # anything else fences the touched qubits
            for qubit in qubits:
                flush_qubit(qubit)
            events.append(("raw", instruction))

        remaining = []
        for block in block_of.values():
            if block not in remaining:
                remaining.append(block)
        for block in remaining:
            flush_block(block)
        for qubit in sorted(pending_1q):
            flush_pending(qubit)
        return events

    def _block_matrices(self, blocks: list[_Block], cache: AnalysisCache) -> np.ndarray:
        """``(N, 4, 4)`` unitaries of ``blocks``, in order.

        One bulk cache lookup gathers every gate matrix, then every block
        reduces in a single stacked-operand call.
        """
        all_instructions = [
            instruction for block in blocks for instruction in block.instructions
        ]
        matrices = cache.matrices(
            instruction.operation for instruction in all_instructions
        )
        chains = []
        cursor = 0
        for block in blocks:
            chain = []
            for instruction in block.instructions:
                chain.append((matrices[cursor], block.local_wires(instruction)))
                cursor += 1
            chains.append(chain)
        return two_qubit_chain_unitaries(chains)

    def _improvable(self, blocks: list[_Block], unitaries: np.ndarray) -> list[bool]:
        """Which blocks a re-synthesis could improve (all of them if forced).

        A block is unimprovable when its closed-form CNOT budget exceeds its
        cost, or equals it and the block has no more gates than CNOTs: no
        accepted replacement can exist then (see the module docstring).
        """
        if self.force:
            return [True] * len(blocks)
        budgets = num_cnots_required_batch(unitaries, atol=_BUDGET_ATOL)
        return [
            budget < block.cx_cost
            or (budget == block.cx_cost and len(block.instructions) > block.cx_cost)
            for block, budget in zip(blocks, budgets.tolist())
        ]

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        cache = AnalysisCache.ensure(property_set)
        rewrites = rewrite_counter(property_set)
        events = self.collect(circuit)
        candidates = [
            payload
            for kind, payload in events
            if kind == "block" and (payload.num_2q >= _BLOCK_MIN_2Q or self.force)
        ]
        unitary_of: dict[int, np.ndarray] = {}
        if candidates:
            unitaries = self._block_matrices(candidates, cache)
            for block, unitary, improvable in zip(
                candidates, unitaries, self._improvable(candidates, unitaries)
            ):
                if improvable:
                    unitary_of[id(block)] = unitary

        output = circuit.copy_empty_like()
        for kind, payload in events:
            if kind == "raw":
                output._append(payload)
            else:
                self._emit_block(payload, output, unitary_of.get(id(payload)), rewrites)
        return output

    def _emit_block(
        self,
        block: _Block,
        output: QuantumCircuit,
        unitary: np.ndarray | None,
        rewrites,
    ) -> None:
        if unitary is None:  # not a candidate, or screened out
            self._emit_original(block, output)
            return
        try:
            replacement = synthesize_two_qubit_unitary(unitary)
        except Exception:
            self._emit_original(block, output)
            return
        new_2q = replacement.num_nonlocal_gates()
        better = new_2q < block.cx_cost or (
            new_2q == block.cx_cost
            and replacement.size() < len(block.instructions)
        )
        if not (better or self.force):
            self._emit_original(block, output)
            return
        rewrites[self.name] += 1
        output.global_phase += replacement.global_phase
        pair = block.pair
        for inner in replacement.data:
            output._append(
                CircuitInstruction(
                    inner.operation, tuple(pair[q] for q in inner.qubits)
                )
            )

    @staticmethod
    def _emit_original(block: _Block, output: QuantumCircuit) -> None:
        for instruction in block.instructions:
            output._append(instruction)
