"""Device-residency audits via the instrumented fake backend.

The backend-resident contract (module docs of :mod:`repro.linalg.backend`
and :mod:`repro.simulators.statevector`): gate matrices upload **once per
fused program**, the evolving state never leaves the backend, and results
cross to the host through exactly one ``asnumpy()`` hop at the boundary.
On plain NumPy a violation is invisible (every array is a host array), so
these tests install :class:`~repro.linalg.instrument.InstrumentedBackend`
and assert its transfer counters.

Fusion builds its fused matrices host-side at compile time, through the
stacked chain kernels, which pay their own upload/download hops.
:func:`compile_hops` measures those on their own, so each test can pin the
evolve loop's transfers exactly on top of them.  Staging is checked on the
one-step-per-gate oracle program from :mod:`tests.oracles`, whose matrices
are plain host arrays.
"""

from __future__ import annotations

import pytest

from repro.linalg.backend import set_backend
from repro.linalg.instrument import DeviceNDArray, InstrumentedBackend, TransferLog
from repro.simulators import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    circuit_unitary,
)
from repro.simulators.fusion import compile_program
from tests.helpers import random_circuit
from tests.oracles import unfused_program


@pytest.fixture()
def fake():
    """Install a fresh instrumented backend; restore NumPy afterwards."""
    backend = InstrumentedBackend()
    set_backend(backend)
    yield backend
    set_backend("numpy")


def unitary_steps(program) -> int:
    return sum(1 for kind, *_ in program.steps if kind == "unitary")


def compile_hops(fake, circuit):
    """``(uploads, downloads, program)`` of compiling ``circuit`` alone."""
    fake.log.reset()
    program = compile_program(circuit)
    return fake.log.uploads, fake.log.downloads, program


class TestStatevectorResidency:
    def test_run_is_one_download(self, fake):
        """One upload per fused step, one boundary hop, no leaks."""
        circuit = random_circuit(4, 20, seed=1)
        uploads, downloads, program = compile_hops(fake, circuit)
        fake.log.reset()
        state = StatevectorSimulator().statevector(circuit)
        assert type(state).__module__ == "numpy"
        assert fake.log.downloads == downloads + 1
        assert fake.log.foreign_downloads == 0
        assert fake.log.uploads == uploads + unitary_steps(program)

    def test_compile_hops_stay_bounded(self, fake):
        """The chain kernels' own host hops: at most one per arity."""
        _, downloads, _ = compile_hops(fake, random_circuit(4, 20, seed=1))
        assert 0 <= downloads <= 2
        assert fake.log.foreign_downloads == 0

    def test_trajectories_share_one_staged_program(self, fake):
        """Mid-circuit shots re-use the staged device matrices: uploads
        stay at one-per-step no matter the shot count, and collapsing
        trajectories sync only scalar branch probabilities (zero array
        downloads beyond compiling)."""
        circuit = random_circuit(3, 10, seed=3, measure=True)
        circuit.h(0)
        circuit.measure(0, 0)
        uploads, downloads, program = compile_hops(fake, circuit)
        for shots in (1, 16):
            fake.log.reset()
            StatevectorSimulator(seed=11).run(circuit, shots=shots)
            assert fake.log.uploads == uploads + unitary_steps(program)
            assert fake.log.downloads == downloads
            assert fake.log.foreign_downloads == 0

    def test_terminal_sampling_downloads_one_distribution(self, fake):
        """The terminal-measurement fast path downloads the outcome
        distribution once; the state itself never crosses."""
        circuit = random_circuit(3, 10, seed=4, measure=True)
        _, downloads, _ = compile_hops(fake, circuit)
        fake.log.reset()
        StatevectorSimulator(seed=3).run(circuit, shots=64)
        assert fake.log.downloads == downloads + 1
        assert fake.log.foreign_downloads == 0


class TestStagedProgramCache:
    def test_staged_uploads_once_and_caches_by_backend(self, fake):
        program = unfused_program(random_circuit(4, 20, seed=1))
        count = unitary_steps(program)
        fake.log.reset()
        first = program.staged(fake)
        second = program.staged(fake)
        assert first is second
        assert fake.log.uploads == count
        for kind, matrix, _ in first:
            if kind == "unitary":
                assert isinstance(matrix, DeviceNDArray)

    def test_backend_switch_invalidates_staged(self, fake):
        program = unfused_program(random_circuit(3, 10, seed=2))
        program.staged(fake)
        other = InstrumentedBackend()
        set_backend(other)
        other.log.reset()
        program.staged(other)
        assert other.log.uploads == unitary_steps(program)


class TestOtherSimulatorsResidency:
    def test_unitary_is_one_download(self, fake):
        circuit = random_circuit(3, 10, seed=2)
        _, downloads, _ = compile_hops(fake, circuit)
        fake.log.reset()
        circuit_unitary(circuit)
        assert fake.log.downloads == downloads + 1
        assert fake.log.foreign_downloads == 0

    def test_density_matrix_is_one_download(self, fake):
        circuit = random_circuit(3, 10, seed=2, measure=True)
        fake.log.reset()
        DensityMatrixSimulator().probabilities(circuit)
        assert fake.log.downloads == 1
        assert fake.log.foreign_downloads == 0


class TestTransferLog:
    def test_counters_reset(self):
        log = TransferLog()
        log.uploads = 3
        log.downloads = 2
        log.foreign_downloads = 1
        log.reset()
        assert log.as_dict() == {
            "uploads": 0,
            "downloads": 0,
            "foreign_downloads": 0,
        }

    def test_foreign_download_detected(self, fake):
        import numpy as np

        host = np.ones(4)
        fake.asnumpy(host)
        assert fake.log.foreign_downloads == 1
        device = fake.asarray(host)
        fake.asnumpy(device)
        assert fake.log.downloads == 1
