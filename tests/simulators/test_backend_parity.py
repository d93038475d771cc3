"""Cross-backend parity for the backend-resident simulators.

Every simulator keeps its state resident on the active array backend and
only crosses to the host at the result boundary.  On the instrumented
"fake device" backend (:mod:`repro.linalg.instrument`) the arithmetic is
still NumPy underneath, so every result -- statevectors, unitaries,
density-matrix distributions, and even fixed-seed sampled counts (the
host RNG sees bit-identical probabilities) -- must match the plain NumPy
backend exactly.  A divergence means some code path silently depends on
which backend the arrays live on.  The fused results are also held to the
one-step-per-gate oracle in :mod:`tests.oracles` within ``1e-12``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.backend import set_backend
from repro.linalg.instrument import InstrumentedBackend
from repro.simulators import (
    DensityMatrixSimulator,
    NoiseModel,
    NoisySimulator,
    StatevectorSimulator,
    circuit_unitary,
)
from tests.helpers import random_circuit
from tests.oracles import unfused_statevector, unfused_unitary

seeds = st.integers(min_value=0, max_value=10_000)


@pytest.fixture(autouse=True)
def _numpy_backend():
    """Pin the NumPy backend around every test (tests switch it)."""
    set_backend("numpy")
    yield
    set_backend("numpy")


def on_fake_backend(func):
    """Run ``func`` with the instrumented backend installed."""
    backend = InstrumentedBackend()
    set_backend(backend)
    try:
        return func()
    finally:
        set_backend("numpy")


class TestStatevectorParity:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_statevector_bit_identical(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        host = StatevectorSimulator().statevector(circuit)
        device = on_fake_backend(lambda: StatevectorSimulator().statevector(circuit))
        assert type(device) is np.ndarray
        assert np.array_equal(host, device)
        oracle = on_fake_backend(lambda: unfused_statevector(circuit))
        assert np.abs(device - oracle).max() <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_terminal_sampling_counts_identical(self, seed):
        circuit = random_circuit(3, 15, seed=seed, measure=True)
        host = StatevectorSimulator(seed=7).run(circuit, shots=256)
        device = on_fake_backend(
            lambda: StatevectorSimulator(seed=7).run(circuit, shots=256)
        )
        assert host == device

    def test_mid_circuit_trajectories_identical(self):
        circuit = random_circuit(3, 10, seed=3, measure=True)
        circuit.h(0)
        circuit.measure(0, 0)
        host = StatevectorSimulator(seed=11).run(circuit, shots=64)
        device = on_fake_backend(
            lambda: StatevectorSimulator(seed=11).run(circuit, shots=64)
        )
        assert host == device


class TestUnitaryParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_circuit_unitary_bit_identical(self, seed):
        circuit = random_circuit(3, 15, seed=seed)
        host = circuit_unitary(circuit)
        device = on_fake_backend(lambda: circuit_unitary(circuit))
        assert type(device) is np.ndarray
        assert np.array_equal(host, device)
        oracle = on_fake_backend(lambda: unfused_unitary(circuit))
        assert np.abs(device - oracle).max() <= 1e-12


class TestDensityMatrixParity:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_noiseless_distribution_identical(self, seed):
        circuit = random_circuit(3, 12, seed=seed, measure=True)
        host = DensityMatrixSimulator().probabilities(circuit)
        device = on_fake_backend(
            lambda: DensityMatrixSimulator().probabilities(circuit)
        )
        assert host == device

    def test_depolarizing_distribution_identical(self):
        noise = NoiseModel(
            default_one_qubit_error=0.01, default_two_qubit_error=0.05
        )
        circuit = random_circuit(3, 12, seed=5, measure=True)
        host = DensityMatrixSimulator(noise).probabilities(circuit)
        device = on_fake_backend(
            lambda: DensityMatrixSimulator(noise).probabilities(circuit)
        )
        assert host == device


class TestNoisySimulatorParity:
    def test_fixed_seed_counts_identical(self):
        noise = NoiseModel(
            default_one_qubit_error=0.02,
            default_two_qubit_error=0.05,
            default_readout_error=(0.98, 0.97),
        )
        circuit = random_circuit(3, 12, seed=9, measure=True)
        host = NoisySimulator(noise, seed=13).run(circuit, shots=128)
        device = on_fake_backend(
            lambda: NoisySimulator(noise, seed=13).run(circuit, shots=128)
        )
        assert host == device
