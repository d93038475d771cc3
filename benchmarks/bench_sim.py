#!/usr/bin/env python3
"""Backend-resident simulation + stacked analysis-core benchmark.

Measures the two lanes of the backend-resident work against the paths
they replaced, on the quick QV/Grover workload set (the scalar paths are
the oracles in ``tests/oracles.py``):

* **statevector** -- wide-circuit simulation throughput: the fused
  backend-resident evolve loop (matrices staged once per program, state
  on the active array backend, one ``asnumpy()`` at the boundary) vs the
  naive per-gate host loop (one ``operation.to_matrix()`` + host matmul
  per instruction).  This is the speedup ``check_regression.py --sim``
  gates (default floor 2x).
* **trackers** -- stacked-array basis/pure trackers driving a brickwork
  trace through the bulk ``apply_1q_gates`` kernels vs the per-gate
  scalar automata, with parity flags (basis: bit-identical; pure: within
  ``1e-12``).
* **passes** -- QBO/QPO run over the scalar oracle trackers and over the
  stacked ones must emit byte-for-byte identical circuits.

Usage::

    python benchmarks/bench_sim.py --quick --metrics-json REPORT.json

On a CuPy machine, ``REPRO_ARRAY_BACKEND=cupy`` reruns the statevector
lane device-resident (see README "Numeric kernels & array backends").
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from repro.algorithms import grover_circuit, quantum_volume_circuit
from repro.linalg.backend import backend_name
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.qbo import QBOPass
from repro.rpo.qpo import QPOPass
from repro.simulators import StatevectorSimulator
from repro.simulators.statevector import apply_gate_to_state
from repro.transpiler import write_metrics_json
from repro.transpiler.passmanager import PropertySet

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.oracles import (
    ScalarBasisTracker,
    ScalarPureTracker,
    scalar_trackers,
)


def workloads(quick: bool):
    sizes = [8, 10, 12] if quick else [8, 10, 12, 14]
    for n in sizes:
        yield f"qv-{n}", quantum_volume_circuit(n, seed=5)
        yield f"grover-{n}", grover_circuit(n, design="noancilla")


def strip_measurements(circuit):
    stripped = circuit.copy_empty_like()
    for instruction in circuit.data:
        if instruction.operation.name in ("measure", "reset"):
            continue
        stripped.append(instruction.operation, instruction.qubits, instruction.clbits)
    return stripped


def best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def describe(circuit):
    """Hashable full description of a circuit (for output-identity checks)."""
    return (
        circuit.global_phase,
        tuple(
            (
                instruction.operation.name,
                tuple(
                    float(p)
                    for p in instruction.operation.params
                    if isinstance(p, (int, float))
                ),
                instruction.qubits,
                instruction.clbits,
            )
            for instruction in circuit.data
        ),
    )


# -- statevector throughput --------------------------------------------------


def naive_statevector(circuit) -> np.ndarray:
    """The seed path: one ``to_matrix()`` + host apply per instruction."""
    num_qubits = circuit.num_qubits
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    state *= np.exp(1j * circuit.global_phase)
    for instruction in circuit.data:
        operation = instruction.operation
        if operation.is_directive:
            continue
        state = apply_gate_to_state(
            state, operation.to_matrix(), instruction.qubits, num_qubits
        )
    return state


def bench_statevector(circuits, repeats: int) -> dict:
    resident = StatevectorSimulator()

    def naive():
        for circuit in circuits:
            naive_statevector(circuit)

    def fused():
        for circuit in circuits:
            resident.statevector(circuit)

    fused()  # warm the fused-program/matrix caches: steady-state serving
    naive_time = best_of(repeats, naive)
    resident_time = best_of(repeats, fused)
    max_error = max(
        float(np.max(np.abs(naive_statevector(c) - resident.statevector(c))))
        for c in circuits
    )
    return {
        "circuits": len(circuits),
        "gates": sum(len(circuit.data) for circuit in circuits),
        "naive_s": naive_time,
        "resident_s": resident_time,
        "speedup": naive_time / resident_time if resident_time > 0 else float("inf"),
        "max_error": max_error,
    }


# -- tracker throughput ------------------------------------------------------

#: 1q Cliffords keep the basis automaton inside its six states, so the
#: basis lane measures sustained transitions instead of a TOP fixpoint.
_CLIFFORD_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def brickwork_trace(num_qubits: int, rounds: int, matrices, seed: int):
    """``rounds`` layers of one gate per qubit, drawn from ``matrices``."""
    rng = np.random.default_rng(seed)
    pool = np.stack(matrices)
    qubits = np.arange(num_qubits)
    return [pool[rng.integers(0, len(pool), size=num_qubits)] for _ in range(rounds)], qubits


def bench_tracker(scalar_cls, stacked_cls, num_qubits, layers, qubits, repeats, compare):
    def run(tracker_cls):
        tracker = tracker_cls(num_qubits)
        for stack in layers:
            tracker.apply_1q_gates(qubits, stack)
        return tracker

    scalar_time = best_of(repeats, lambda: run(scalar_cls))
    vectorized_time = best_of(repeats, lambda: run(stacked_cls))
    parity, max_error = compare(run(scalar_cls), run(stacked_cls))
    return {
        "gates": len(layers) * len(qubits),
        "scalar_s": scalar_time,
        "vectorized_s": vectorized_time,
        "speedup": scalar_time / vectorized_time if vectorized_time > 0 else float("inf"),
        "parity": parity,
        "max_error": max_error,
    }


def bench_trackers(quick: bool, repeats: int) -> dict:
    num_qubits = 24 if quick else 64
    rounds = 150 if quick else 400
    clifford_layers, qubits = brickwork_trace(
        num_qubits, rounds, list(_CLIFFORD_1Q.values()), seed=3
    )

    def compare_basis(scalar, vectorized):
        identical = bool(
            np.array_equal(scalar.axes, vectorized.axes)
            and np.array_equal(scalar.signs, vectorized.signs)
        )
        return identical, 0.0

    basis = bench_tracker(
        ScalarBasisTracker, BasisStateTracker, num_qubits,
        clifford_layers, qubits, repeats, compare_basis,
    )

    rng = np.random.default_rng(7)
    from repro.linalg.euler import u3_matrix

    u3_pool = [
        u3_matrix(*angles) for angles in rng.uniform(0.0, 2 * math.pi, size=(16, 3))
    ]
    u3_layers, qubits = brickwork_trace(num_qubits, rounds, u3_pool, seed=9)

    def compare_pure(scalar, vectorized):
        error = float(np.max(np.abs(scalar.tuples - vectorized.tuples)))
        same_known = bool(np.array_equal(scalar.known, vectorized.known))
        return same_known and error <= 1e-12, error

    pure = bench_tracker(
        ScalarPureTracker, PureStateTracker, num_qubits,
        u3_layers, qubits, repeats, compare_pure,
    )
    return {"basis": basis, "pure": pure}


# -- pass parity -------------------------------------------------------------


def check_pass_parity(circuits) -> dict:
    """QBO/QPO outputs must not depend on the tracker implementation."""

    def run_all():
        outputs = []
        for circuit in circuits:
            qbo = QBOPass().transform(circuit, PropertySet())
            qpo = QPOPass().transform(circuit, PropertySet())
            outputs.append((describe(qbo), describe(qpo)))
        return outputs

    with scalar_trackers():
        scalar = run_all()
    vectorized = run_all()
    qbo_identical = all(s[0] == v[0] for s, v in zip(scalar, vectorized))
    qpo_identical = all(s[1] == v[1] for s, v in zip(scalar, vectorized))
    return {
        "qbo_identical": bool(qbo_identical),
        "qpo_identical": bool(qpo_identical),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (CI)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--metrics-json", metavar="PATH", help="write a report")
    args = parser.parse_args(argv)

    named = list(workloads(args.quick))
    circuits = [circuit for _, circuit in named]
    sim_circuits = [strip_measurements(circuit) for circuit in circuits]

    statevector = bench_statevector(sim_circuits, args.repeats)
    trackers = bench_trackers(args.quick, args.repeats)
    passes = check_pass_parity(circuits)

    report = {
        "workloads": [name for name, _ in named],
        "backend": backend_name(),
        "sim": {
            "statevector": statevector,
            "trackers": trackers,
            "passes": passes,
        },
    }

    print(f"array backend: {report['backend']}")
    print(f"{'stage':<16} {'work':>10} {'baseline':>10} {'new':>10} {'speedup':>8}  parity")
    rows = [
        ("statevector", statevector, "naive_s", "resident_s",
         f"err<={statevector['max_error']:.1e}"),
        ("tracker:basis", trackers["basis"], "scalar_s", "vectorized_s",
         str(trackers["basis"]["parity"])),
        ("tracker:pure", trackers["pure"], "scalar_s", "vectorized_s",
         f"{trackers['pure']['parity']} (err<={trackers['pure']['max_error']:.1e})"),
    ]
    for stage, entry, base_key, new_key, parity in rows:
        work = entry.get("gates", entry.get("circuits"))
        print(
            f"{stage:<16} {work:>10} {entry[base_key]:>9.4f}s "
            f"{entry[new_key]:>9.4f}s {entry['speedup']:>7.2f}x  {parity}"
        )
    print(
        f"pass outputs tracker-independent: qbo={passes['qbo_identical']} "
        f"qpo={passes['qpo_identical']}"
    )

    if args.metrics_json:
        write_metrics_json(args.metrics_json, report)
        print(f"wrote {args.metrics_json}")


if __name__ == "__main__":
    main()
