"""SWAP-insertion routing (``StochasticSwap``).

Makes every two-qubit gate act on coupled physical qubits by inserting SWAP
gates, mirroring Qiskit 0.18's stochastic router: several seeded trials are
run and the one inserting the fewest SWAPs wins (the paper reports medians
over 25 transpilations precisely because of this randomness, Sec. VII-B).

Each trial is a greedy scan with lookahead: for a blocked gate, candidate
SWAPs around either endpoint are scored by the resulting distance of the
blocked gate plus a decayed sum over upcoming two-qubit gates; ties (and
near-ties, within the trial's temperature) are broken randomly.

The inserted SWAPs are exactly what the paper's second QBO pass targets
(Fig. 8 line 5): swaps whose qubits are still in known states reduce to
SWAPZ (2 CNOTs) or less.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import CircuitInstruction, QuantumCircuit
from repro.gates import SwapGate
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["StochasticSwap"]

_LOOKAHEAD = 12
_LOOKAHEAD_DECAY = 0.7


class StochasticSwap(TransformationPass):
    """Insert SWAPs so all two-qubit gates respect the coupling map."""

    requires = ()
    provides = ("routing_swaps", "final_permutation")
    preserves = ()
    invalidates = ()
    # output equals input up to the wire relabeling in final_permutation
    equivalence = "permutation"

    def __init__(self, coupling: CouplingMap, trials: int = 5, seed: int | None = None):
        self.coupling = coupling
        self.trials = max(1, trials)
        self.seed = 0 if seed is None else seed

    @property
    def name(self) -> str:
        return f"StochasticSwap(trials={self.trials})"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        if circuit.num_qubits != self.coupling.num_qubits:
            raise TranspilerError(
                "routing expects a device-wide circuit; run ApplyLayout first"
            )
        if self._already_mapped(circuit):
            property_set["final_permutation"] = list(range(circuit.num_qubits))
            return circuit

        best: QuantumCircuit | None = None
        best_swaps = None
        best_perm = None
        for trial in range(self.trials):
            rng = np.random.default_rng((self.seed, trial))
            routed, swaps, perm = self._route_once(circuit, rng)
            if best_swaps is None or swaps < best_swaps:
                best, best_swaps, best_perm = routed, swaps, perm
        property_set["routing_swaps"] = best_swaps
        property_set["final_permutation"] = best_perm
        return best

    # ------------------------------------------------------------------

    def _already_mapped(self, circuit: QuantumCircuit) -> bool:
        for instruction in circuit.data:
            if (
                len(instruction.qubits) == 2
                and not instruction.operation.is_directive
                and not self.coupling.are_coupled(*instruction.qubits)
            ):
                return False
            if len(instruction.qubits) > 2 and not instruction.operation.is_directive:
                raise TranspilerError(
                    f"cannot route {len(instruction.qubits)}-qubit gate "
                    f"{instruction.operation.name!r}; unroll first"
                )
        return True

    def _route_once(self, circuit: QuantumCircuit, rng: np.random.Generator):
        num_qubits = circuit.num_qubits
        # perm[wire] = current physical qubit holding that logical wire
        perm = list(range(num_qubits))
        output = circuit.copy_empty_like()
        swaps_inserted = 0
        distance = self.coupling.distance_matrix

        # precompute positions of 2q gates for the lookahead window
        two_qubit_gates = [
            (index, instruction.qubits)
            for index, instruction in enumerate(circuit.data)
            if len(instruction.qubits) == 2 and not instruction.operation.is_directive
        ]
        lookahead_starts = {index: order for order, (index, _) in enumerate(two_qubit_gates)}

        for index, instruction in enumerate(circuit.data):
            qubits = instruction.qubits
            if len(qubits) != 2 or instruction.operation.is_directive:
                mapped = tuple(perm[q] for q in qubits)
                output._append(
                    CircuitInstruction(instruction.operation, mapped, instruction.clbits)
                )
                continue
            a, b = qubits
            guard = 0
            while not self.coupling.are_coupled(perm[a], perm[b]):
                guard += 1
                if guard > 4 * num_qubits:
                    raise TranspilerError("routing failed to make progress")
                if guard > 2 * num_qubits:
                    # lookahead is cycling: force a step along the shortest path
                    path = self.coupling.shortest_path(perm[a], perm[b])
                    swap_edge = tuple(sorted((path[0], path[1])))
                else:
                    swap_edge = self._choose_swap(
                        perm, a, b, two_qubit_gates, lookahead_starts.get(index, 0), rng
                    )
                output._append(CircuitInstruction(SwapGate(), swap_edge))
                swaps_inserted += 1
                self._apply_swap(perm, swap_edge)
            output._append(
                CircuitInstruction(
                    instruction.operation, (perm[a], perm[b]), instruction.clbits
                )
            )
        return output, swaps_inserted, perm

    def _choose_swap(self, perm, a, b, two_qubit_gates, window_start, rng):
        """Pick the physical edge to swap: lowest lookahead score wins."""
        distance = self.coupling.distance_matrix
        phys_a, phys_b = perm[a], perm[b]
        candidates = set()
        for endpoint in (phys_a, phys_b):
            for neighbor in self.coupling.neighbors(endpoint):
                candidates.add(tuple(sorted((endpoint, neighbor))))

        window = two_qubit_gates[window_start : window_start + _LOOKAHEAD]
        best_edges = []
        best_score = None
        for edge in sorted(candidates):
            trial_perm = list(perm)
            self._apply_swap(trial_perm, edge)
            score = 2.0 * distance[trial_perm[a], trial_perm[b]]
            weight = 1.0
            for _, (qa, qb) in window:
                score += weight * distance[trial_perm[qa], trial_perm[qb]]
                weight *= _LOOKAHEAD_DECAY
            if best_score is None or score < best_score - 1e-9:
                best_score = score
                best_edges = [edge]
            elif score < best_score + 1e-9:
                best_edges.append(edge)
        choice = best_edges[int(rng.integers(len(best_edges)))]
        return choice

    @staticmethod
    def _apply_swap(perm, edge):
        x, y = edge
        wire_x = perm.index(x)
        wire_y = perm.index(y)
        perm[wire_x], perm[wire_y] = perm[wire_y], perm[wire_x]
