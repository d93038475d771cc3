"""The stacked analysis core against its scalar oracles.

The stacked trackers are the only trackers the library ships; the plain
per-gate automata they replaced live in :mod:`tests.oracles`.  These tests
drive both over the same random traces and require agreement: basis-tracker
states bit-identical (the column-pick kernels add the same zero terms the
scalar matmul does), pure-tracker tuples within ``1e-12``, and QBO/QPO
emitting the same circuit no matter which tracker runs underneath.

The Hoare optimizer's support transformers are set loops only.  Its
outputs on the large-support cases an ``int64`` kernel path used to serve
are pinned as golden digests, recorded from that path before it was
removed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates.matrices import standard_gate_matrix
from repro.linalg.euler import u3_matrix
from repro.linalg.random import as_rng
from repro.rpo import QBOPass, QPOPass
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.hoare import HoareOptimizer
from repro.rpo.pure_tracker import PureStateTracker
from repro.transpiler.passmanager import PropertySet
from tests.helpers import random_circuit
from tests.oracles import ScalarBasisTracker, ScalarPureTracker, scalar_trackers

seeds = st.integers(min_value=0, max_value=10_000)

_GATE_NAMES = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]


def random_trace(num_qubits: int, rounds: int, seed: int):
    """Per-round (qubits, matrices) bulk-apply layers plus scattered
    reset/measure events, exercising known and TOP lanes together."""
    rng = as_rng(seed)
    layers = []
    for _ in range(rounds):
        count = int(rng.integers(1, num_qubits + 1))
        qubits = rng.choice(num_qubits, size=count, replace=False)
        matrices = []
        for _ in range(count):
            if rng.random() < 0.5:
                matrices.append(standard_gate_matrix(
                    _GATE_NAMES[int(rng.integers(len(_GATE_NAMES)))]
                ))
            else:
                theta, phi, lam = rng.uniform(0, 2 * np.pi, 3)
                matrices.append(u3_matrix(theta, phi, lam))
        event = None
        if rng.random() < 0.2:
            kind = "reset" if rng.random() < 0.5 else "measure"
            event = (kind, int(rng.integers(num_qubits)))
        layers.append((qubits, np.stack(matrices), event))
    return layers


def drive(tracker, layers):
    for qubits, matrices, event in layers:
        tracker.apply_1q_gates(qubits, matrices)
        if event is not None:
            kind, qubit = event
            if kind == "reset":
                tracker.apply_reset(qubit)
            else:
                tracker.apply_measure(qubit)
    return tracker


class TestBasisTrackerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, num_qubits=st.integers(1, 8))
    def test_bulk_matches_scalar_bitwise(self, seed, num_qubits):
        layers = random_trace(num_qubits, 20, seed)
        scalar = drive(ScalarBasisTracker(num_qubits), layers)
        stacked = drive(BasisStateTracker(num_qubits), layers)
        assert np.array_equal(scalar.axes, stacked.axes)
        assert np.array_equal(scalar.signs, stacked.signs)
        assert scalar.states == stacked.states


class TestPureTrackerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, num_qubits=st.integers(1, 8))
    def test_bulk_matches_scalar_within_tolerance(self, seed, num_qubits):
        layers = random_trace(num_qubits, 20, seed)
        scalar = drive(ScalarPureTracker(num_qubits), layers)
        stacked = drive(PureStateTracker(num_qubits), layers)
        assert np.array_equal(scalar.known, stacked.known)
        known = scalar.known
        if known.any():
            assert np.abs(scalar.tuples[known] - stacked.tuples[known]).max() <= 1e-12


def circuit_fingerprint(circuit):
    """Byte-for-byte comparable rendering of a circuit."""
    return (
        circuit.global_phase,
        [
            (
                instruction.operation.name,
                tuple(float(p) for p in instruction.operation.params),
                tuple(instruction.qubits),
                tuple(instruction.clbits),
            )
            for instruction in circuit.data
        ],
    )


def _hoare_case(name):
    from repro.algorithms import grover_circuit

    if name.startswith("grover6_"):
        return grover_circuit(6, design=name.split("_")[1])
    return random_circuit(8, 60, seed=int(name.rsplit("seed", 1)[1]))


#: ``HoareOptimizer(max_support=1 << 14)`` outputs as (size, sha256 of
#: ``repr(circuit_fingerprint(...))``).  Recorded from the int64 kernel
#: path, which served every support of 32+ patterns in the vchain and
#: random cases, and from the set loops, which agreed on every case.
_HOARE_GOLDEN = {
    "grover6_noancilla": (38, "329fce039ea5721b05343e88b687b598e639916c296d72c299ca1a7e01b03ffb"),
    "grover6_vchain": (42, "09744dc326c3a0ccd5582fa7dd38f4531b133dac362d179de9948eb1e5e26eab"),
    "random8_seed1": (45, "211d93af98506f7b169f63733b0460009c861355ac7fad7c4ae30ba80f9cf214"),
    "random8_seed2": (43, "bb521b4ffe046a51edd757d98f95a04db509cd7ba5e3b6df80b167602c9d9de1"),
    "random8_seed3": (45, "76c6d5852491af59202e47d6fd166624dfb4e49eb037c01eb878a500164ead3d"),
    "random8_seed4": (44, "27d9cbb96faddbf027d8bbc1d0a15bacce048b1d6677916fc21d3117bddc1461"),
    "random8_seed5": (44, "afd51a90c91aef2880599f29710de929a5c7247a26ae249438e5c53cf795bb72"),
}


class TestHoareGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(_HOARE_GOLDEN))
    def test_large_support_output_pinned(self, name):
        size, digest = _HOARE_GOLDEN[name]
        out = HoareOptimizer(max_support=1 << 14).transform(_hoare_case(name), PropertySet())
        assert len(out.data) == size
        assert hashlib.sha256(repr(circuit_fingerprint(out)).encode()).hexdigest() == digest


class TestPassTrackerIndependence:
    """The tracker implementation is an internal detail: the circuits the
    RPO passes emit must not depend on it."""

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_qbo_output_identical(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        with scalar_trackers():
            scalar = QBOPass().run(circuit, PropertySet())
        stacked = QBOPass().run(circuit, PropertySet())
        assert circuit_fingerprint(scalar) == circuit_fingerprint(stacked)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_qpo_output_identical(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        with scalar_trackers():
            scalar = QPOPass().run(circuit, PropertySet())
        stacked = QPOPass().run(circuit, PropertySet())
        assert circuit_fingerprint(scalar) == circuit_fingerprint(stacked)

    def test_oracle_trackers_are_swapped_in_and_restored(self):
        from repro.rpo import qbo, qpo

        with scalar_trackers():
            assert qbo.BasisStateTracker is ScalarBasisTracker
            assert qpo.PureStateTracker is ScalarPureTracker
        assert qbo.BasisStateTracker is BasisStateTracker
        assert qpo.PureStateTracker is PureStateTracker
