"""Independent NumPy reference simulator for the output check.

Gate semantics are written out here from their textbook definitions
rather than taken from the program under test, so a defect shared by the
compiler and the program's own gate matrices still shows.  Only
``unitary`` gates, whose matrix is the input itself, are read from the
circuit.  Conventions follow the program's public ones: little-endian
wires (``qargs[0]`` is bit 0 of a gate matrix) and bitstrings with
classical bit 0 rightmost.

Only measurements at the end of a wire are supported; anything else is
reported as unsupported, which fails the check rather than passing it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Largest total-variation distance accepted between the measured-bit
#: distributions of an input and its compiled output.  Exact synthesis
#: agrees to ~1e-10; a miscompile moves probability mass by far more.
TOLERANCE = 1e-6


class Unsupported(ValueError):
    """The circuit uses something this reference does not model."""


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def _phase(lam):
    return np.diag([1.0, cmath.exp(1j * lam)])


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_SQ = 1 / math.sqrt(2)

#: name -> matrix builder over the gate's parameters
_ONE_QUBIT = {
    "id": lambda: np.eye(2),
    "x": lambda: _X,
    "y": lambda: np.array([[0, -1j], [1j, 0]]),
    "z": lambda: _Z,
    "h": lambda: np.array([[_SQ, _SQ], [_SQ, -_SQ]]),
    "s": lambda: _phase(math.pi / 2),
    "sdg": lambda: _phase(-math.pi / 2),
    "t": lambda: _phase(math.pi / 4),
    "tdg": lambda: _phase(-math.pi / 4),
    "rx": lambda t: _u3(t, -math.pi / 2, math.pi / 2),
    "ry": lambda t: _u3(t, 0.0, 0.0),
    "rz": lambda t: _phase(t),  # equal to rz up to global phase
    "u1": _phase,
    "p": _phase,
    "u2": lambda phi, lam: _u3(math.pi / 2, phi, lam),
    "u3": _u3,
}

#: controlled gates: name -> (number of controls or None for "all but
#: the last wire", target matrix builder)
_CONTROLLED = {
    "cx": (1, lambda: _X),
    "ccx": (2, lambda: _X),
    "mcx": (None, lambda: _X),
    "cz": (1, lambda: _Z),
    "ccz": (2, lambda: _Z),
    "mcz": (None, lambda: _Z),
    "cp": (1, _phase),
    "cu1": (1, _phase),
    "mcu1": (None, _phase),
}

_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _apply(state, matrix, axes):
    """Apply a little-endian ``2^k x 2^k`` matrix to tensor ``axes``."""
    k = len(axes)
    # C-order reshape puts the most significant bit (the last qarg) first
    tensor = np.asarray(matrix, dtype=complex).reshape([2] * (2 * k))
    ordered = list(reversed(axes))
    out = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), ordered))
    return np.moveaxis(out, list(range(k)), ordered)


def _apply_controlled(state, controls, targets, matrix):
    """Apply ``matrix`` to ``targets`` on the slice where all controls are 1."""
    index = [slice(None)] * state.ndim
    for control in controls:
        index[control] = 1
    view = state[tuple(index)]
    remaining = [axis for axis in range(state.ndim) if axis not in controls]
    view[...] = _apply(view, matrix, [remaining.index(t) for t in targets])


def final_state(circuit):
    """``(state tensor over the touched wires, {wire: clbit})``.

    Axis ``i`` of the tensor is the ``i``-th touched qubit in ascending
    order; the measure map uses those axis numbers.
    """
    touched = sorted({q for inst in circuit.data for q in inst.qubits})
    axis_of = {q: i for i, q in enumerate(touched)}
    n = len(touched)
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    measured: dict[int, int] = {}
    for instruction in circuit.data:
        operation = instruction.operation
        name = operation.name
        axes = [axis_of[q] for q in instruction.qubits]
        if name == "barrier":
            continue
        if any(axis in measured for axis in axes):
            raise Unsupported(f"{name!r} after a measurement on the same wire")
        if name == "measure":
            measured[axes[0]] = instruction.clbits[0]
            continue
        params = [float(p) for p in operation.params]
        if name in _ONE_QUBIT:
            state = _apply(state, _ONE_QUBIT[name](*params), axes)
        elif name in _CONTROLLED:
            count, builder = _CONTROLLED[name]
            count = len(axes) - 1 if count is None else count
            ctrl_state = getattr(operation, "ctrl_state", (1 << count) - 1)
            if ctrl_state != (1 << count) - 1:
                raise Unsupported(f"{name!r} with control state {ctrl_state}")
            _apply_controlled(state, axes[:count], axes[count:], builder(*params))
        elif name == "swap":
            state = _apply(state, _SWAP, axes)
        elif name == "unitary":
            state = _apply(state, operation.to_matrix(), axes)
        else:
            raise Unsupported(f"gate {name!r}")
    return state, measured


def distribution(circuit) -> np.ndarray:
    """Exact probability of each classical bitstring (index = value)."""
    state, measured = final_state(circuit)
    probabilities = np.abs(state) ** 2
    out = np.zeros(2**circuit.num_clbits)
    if not measured:
        out[0] = 1.0
        return out
    axes = sorted(measured)
    unmeasured = tuple(a for a in range(probabilities.ndim) if a not in measured)
    marginal = probabilities.sum(axis=unmeasured) if unmeasured else probabilities
    for bits in np.ndindex(*marginal.shape):
        value = 0
        for axis, bit in zip(axes, bits):
            value |= bit << measured[axis]
        out[value] += marginal[bits]
    return out


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def heavy_outcomes(p: np.ndarray, num_clbits: int) -> set[str]:
    """Bitstrings whose ideal probability exceeds the median one by more
    than ``TOLERANCE``.

    For a circuit with one certain answer (QPE with an exact phase) this
    is that answer alone, so "success" below is the paper's Fig. 11
    measure; for random circuits it is the heavy-output set.
    """
    threshold = float(np.median(p)) + TOLERANCE
    return {format(i, f"0{num_clbits}b") for i in np.flatnonzero(p > threshold)}


def success(counts, heavy: set[str]) -> float:
    shots = sum(counts.values())
    return sum(n for key, n in counts.items() if key in heavy) / shots
