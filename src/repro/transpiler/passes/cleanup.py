"""Cleanup passes: pre-measurement diagonal removal, directive stripping."""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["RemoveDiagonalGatesBeforeMeasure", "RemoveAnnotations", "RemoveBarriers"]

_DIAGONAL_1Q = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}


class RemoveDiagonalGatesBeforeMeasure(TransformationPass):
    """Drop diagonal one-qubit gates that immediately precede a measurement.

    Diagonal gates commute with computational-basis measurement, so they
    cannot affect outcome statistics.
    """

    requires = ()
    preserves = ("is_swap_mapped",)
    invalidates = ()
    # phases may change; measurement-outcome distributions may not
    equivalence = "measurement"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        survivors: list = list(circuit.data)
        # for each wire, walk backwards from each measure
        last_index_on_wire: dict[int, list[int]] = {}
        for index, instruction in enumerate(survivors):
            for qubit in instruction.qubits:
                last_index_on_wire.setdefault(qubit, []).append(index)

        for index, instruction in enumerate(survivors):
            if instruction is None or instruction.operation.name != "measure":
                continue
            qubit = instruction.qubits[0]
            chain = last_index_on_wire[qubit]
            position = chain.index(index)
            walk = position - 1
            while walk >= 0:
                earlier = survivors[chain[walk]]
                if earlier is None:
                    walk -= 1
                    continue
                if (
                    earlier.operation.name in _DIAGONAL_1Q
                    and len(earlier.qubits) == 1
                ):
                    survivors[chain[walk]] = None
                    walk -= 1
                    continue
                break
        output = circuit.copy_empty_like()
        for instruction in survivors:
            if instruction is not None:
                output._append(instruction)
        return output


class RemoveAnnotations(TransformationPass):
    """Strip ``ANNOT`` directives (after the state analyses consumed them)."""

    requires = ()
    # directives are invisible to size/depth and touch no couplings
    preserves = ("size", "depth", "is_swap_mapped")
    invalidates = ()
    # stripping a programmer promise is semantically free but erases the
    # very annotations the tracker tier would compare against
    equivalence = "none"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        output = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "annot":
                continue
            output._append(instruction)
        return output


class RemoveBarriers(TransformationPass):
    """Strip barrier directives."""

    requires = ()
    preserves = ("size", "depth", "is_swap_mapped")
    invalidates = ()

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        output = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "barrier":
                continue
            output._append(instruction)
        return output
