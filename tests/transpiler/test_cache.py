"""Tests for the shared AnalysisCache and the standard-gate matrix table.

Includes the headline acceptance check of the scheduler/cache rework: on
the paper's Table II workloads, a pipeline run with a shared cache
constructs far fewer matrices than the seed path did (which built one per
``to_matrix()`` request), and a second run over the same cache constructs
fewer still -- with bit-identical output circuits.
"""

import numpy as np
import pytest

from repro.algorithms import (
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)
from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.gates import CXGate, HGate, U1Gate, U3Gate, XGate
from repro.gates.matrices import STANDARD_GATE_MATRICES, standard_gate_matrix
from repro.rpo import rpo_pass_manager
from repro.transpiler import AnalysisCache
from repro.transpiler.passmanager import PropertySet


class TestStandardGateTable:
    def test_fixed_gates_share_one_matrix(self):
        assert XGate().to_matrix() is XGate().to_matrix()
        assert HGate().to_matrix() is standard_gate_matrix("h")
        assert CXGate().to_matrix() is standard_gate_matrix("cx")

    def test_table_matrices_are_immutable(self):
        with pytest.raises(ValueError):
            XGate().to_matrix()[0, 0] = 5.0

    def test_table_matches_gate_semantics(self):
        for name, matrix in STANDARD_GATE_MATRICES.items():
            dim = matrix.shape[0]
            assert np.allclose(matrix @ matrix.conj().T, np.eye(dim)), name

    def test_open_control_not_table_backed(self):
        open_cx = CXGate(ctrl_state=0)
        matrix = open_cx.to_matrix()
        assert matrix is not standard_gate_matrix("cx")
        # X applied when control (qubit 0) is |0>: |00> <-> |10>
        expected = np.eye(4, dtype=complex)[[2, 1, 0, 3]]
        assert np.allclose(matrix, expected)


class TestMatrixCache:
    def test_hit_returns_same_object(self):
        cache = AnalysisCache()
        first = cache.matrix(U3Gate(0.1, 0.2, 0.3))
        second = cache.matrix(U3Gate(0.1, 0.2, 0.3))
        assert first is second
        assert cache.stats["matrix_misses"] == 1
        assert cache.stats["matrix_hits"] == 1

    def test_distinct_params_distinct_entries(self):
        cache = AnalysisCache()
        a = cache.matrix(U1Gate(0.5))
        b = cache.matrix(U1Gate(0.6))
        assert not np.allclose(a, b)
        assert cache.stats["matrix_misses"] == 2

    def test_table_gates_are_not_constructions(self):
        cache = AnalysisCache()
        cache.matrix(XGate())
        cache.matrix(XGate())
        assert cache.stats["matrix_table"] == 2
        assert cache.matrix_constructions == 0

    def test_unitary_gate_uncached(self):
        from repro.gates import UnitaryGate

        cache = AnalysisCache()
        gate = UnitaryGate(np.eye(2))
        cache.matrix(gate)
        cache.matrix(gate)
        assert cache.stats["matrix_uncached"] == 2

    def test_cached_matrix_matches_to_matrix(self):
        cache = AnalysisCache()
        for gate in (U3Gate(1.0, 2.0, 3.0), U1Gate(0.25), CXGate()):
            assert np.allclose(cache.matrix(gate), gate.to_matrix())


class TestCircuitViews:
    def _swap_pair_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        circuit.h(2)
        return circuit

    def test_adjacency_cached_by_structure(self):
        from repro.rpo.adjacency import same_pair_adjacent_indices

        cache = AnalysisCache()
        circuit = self._swap_pair_circuit()
        first = cache.same_pair_adjacency(circuit)
        assert first == same_pair_adjacent_indices(circuit)
        # an equal-structure copy hits without recomputation
        cache.same_pair_adjacency(circuit.copy())
        assert cache.stats["adjacency_hits"] == 1
        assert cache.stats["adjacency_misses"] == 1

    def test_adjacency_distinguishes_structures(self):
        cache = AnalysisCache()
        cache.same_pair_adjacency(self._swap_pair_circuit())
        other = self._swap_pair_circuit()
        other.x(2)
        cache.same_pair_adjacency(other)
        assert cache.stats["adjacency_misses"] == 2

    def test_wire_indices(self):
        cache = AnalysisCache()
        circuit = self._swap_pair_circuit()
        wires = cache.wire_indices(circuit)
        assert wires == {0: [0, 1], 1: [0, 1], 2: [2]}
        cache.wire_indices(circuit.copy())
        assert cache.stats["wire_indices_hits"] == 1

    def test_circuit_views_are_bounded(self):
        from repro.transpiler.cache import _MAX_CIRCUIT_VIEWS

        cache = AnalysisCache()
        for width in range(_MAX_CIRCUIT_VIEWS + 10):
            cache.wire_indices(QuantumCircuit(width % 100 + 1, width))
        assert len(cache._wire_indices) <= _MAX_CIRCUIT_VIEWS

    def test_dag_cached_by_identity(self):
        cache = AnalysisCache()
        circuit = self._swap_pair_circuit()
        dag = cache.dag(circuit)
        assert cache.dag(circuit) is dag
        # a copy shares instruction objects -> same structural identity
        assert cache.dag(circuit.copy()) is dag
        assert cache.stats["dag_misses"] == 1


class TestConcurrentSharing:
    """One cache shared by concurrent runs (a thread pool, or the request
    threads of a serial-mode server) must survive eviction under load."""

    def test_eviction_is_thread_safe(self, monkeypatch):
        import sys
        import threading

        from repro.transpiler import cache as cache_module

        # a tiny cap puts every insert on the eviction path
        monkeypatch.setattr(cache_module, "_MAX_MATRICES", 8)
        cache = AnalysisCache()
        errors: list[BaseException] = []
        start = threading.Barrier(4)

        def hammer(worker: int) -> None:
            start.wait()
            try:
                for index in range(2000):
                    cache.matrix(U3Gate(0.001 * index, float(worker), 0.0))
                    if index % 50 == 0:
                        cache.export_snapshot(delta_only=True)
            except Exception as exc:  # KeyError / RuntimeError before the lock
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(cache._matrices) <= 8

    def test_pickled_cache_gets_a_fresh_lock(self):
        import pickle

        cache = AnalysisCache()
        cache.matrix(U3Gate(0.1, 0.2, 0.3))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._lock is not cache._lock
        clone.matrix(U3Gate(0.4, 0.5, 0.6))
        assert len(clone._matrices) == 2


class TestWarmStartSnapshots:
    def _warm_cache(self):
        cache = AnalysisCache()
        cache.matrix(U3Gate(0.1, 0.2, 0.3))
        cache.matrix(U1Gate(0.5))
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        cache.same_pair_adjacency(circuit)
        cache.wire_indices(circuit)
        cache.dag(circuit)
        return cache

    def test_export_import_round_trip(self):
        import pickle

        source = self._warm_cache()
        snapshot = pickle.loads(pickle.dumps(source.export_snapshot()))
        target = AnalysisCache()
        adopted = target.import_snapshot(snapshot)
        assert adopted == len(source._matrices) + 2  # + adjacency + wires
        assert set(target._matrices) == set(source._matrices)
        assert set(target._adjacency) == set(source._adjacency)
        assert set(target._wire_indices) == set(source._wire_indices)
        # identity-keyed DAG views never travel
        assert not target._dags

    def test_imported_matrices_hit_and_stay_immutable(self):
        source = self._warm_cache()
        target = AnalysisCache()
        target.import_snapshot(source.export_snapshot())
        matrix = target.matrix(U3Gate(0.1, 0.2, 0.3))
        assert target.stats["matrix_hits"] == 1
        assert target.stats["matrix_misses"] == 0
        assert not matrix.flags.writeable
        assert np.allclose(matrix, U3Gate(0.1, 0.2, 0.3).to_matrix())

    def test_delta_export_is_incremental(self):
        cache = AnalysisCache()
        cache.import_snapshot(self._warm_cache().export_snapshot())
        first_delta = cache.export_snapshot(delta_only=True)
        assert not first_delta["matrices"]  # imported entries are not echoed

        cache.matrix(U3Gate(0.7, 0.8, 0.9))
        second_delta = cache.export_snapshot(delta_only=True)
        assert len(second_delta["matrices"]) == 1
        assert second_delta["stats"].get("matrix_misses") == 1

        third_delta = cache.export_snapshot(delta_only=True)
        assert not third_delta["matrices"]  # already exported
        assert not third_delta["stats"].get("matrix_misses")

    def test_import_merges_stats(self):
        target = AnalysisCache()
        cache = AnalysisCache()
        cache.matrix(U1Gate(0.5))
        delta = cache.export_snapshot(delta_only=True)
        target.import_snapshot(delta)
        assert target.stats["matrix_misses"] == 1

    def test_existing_entries_win_on_import(self):
        target = AnalysisCache()
        local = target.matrix(U1Gate(0.5))
        source = AnalysisCache()
        source.matrix(U1Gate(0.5))
        target.import_snapshot(source.export_snapshot())
        assert target.matrix(U1Gate(0.5)) is local

    def test_format_version_mismatch_warns_and_skips(self):
        cache = AnalysisCache()
        with pytest.warns(RuntimeWarning, match="format version"):
            assert cache.import_snapshot({"version": 99}) == 0
        assert not cache._matrices
        assert cache.stats["snapshot_rejected"] == 1
        assert "99" in cache.snapshot_skipped

    def test_library_version_mismatch_warns_with_both_fingerprints(self):
        """Regression test: a snapshot written by a different library
        version must be ignored without raising -- but the rejection must
        be observable (warning naming both fingerprints + skipped flag),
        so operators can tell why warm-start did not kick in."""
        from repro.transpiler.cache import library_fingerprint

        source = self._warm_cache()
        snapshot = source.export_snapshot()
        snapshot["library"] = "repro-0.0.0-from-the-future/snapshot-1"
        cache = AnalysisCache()
        assert cache.snapshot_skipped is None
        with pytest.warns(RuntimeWarning) as caught:
            assert cache.import_snapshot(snapshot) == 0
        message = str(caught[0].message)
        assert "repro-0.0.0-from-the-future/snapshot-1" in message
        assert library_fingerprint() in message
        assert not cache._matrices
        assert cache.stats["snapshot_rejected"] == 1
        assert "repro-0.0.0-from-the-future" in cache.snapshot_skipped

    def test_matching_library_stamp_is_accepted(self):
        from repro.transpiler.cache import library_fingerprint

        snapshot = self._warm_cache().export_snapshot()
        snapshot["library"] = library_fingerprint()
        cache = AnalysisCache()
        assert cache.import_snapshot(snapshot) > 0

    def test_garbage_snapshot_is_nonfatal_noop(self):
        cache = AnalysisCache()
        with pytest.warns(RuntimeWarning):
            assert cache.import_snapshot("not a snapshot") == 0
        with pytest.warns(RuntimeWarning):
            assert cache.import_snapshot({}) == 0


class TestDiskSnapshots:
    def _warm_cache(self):
        cache = AnalysisCache()
        cache.matrix(U3Gate(0.1, 0.2, 0.3))
        cache.matrix(U1Gate(0.5))
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        cache.same_pair_adjacency(circuit)
        return cache

    def test_save_load_round_trip(self, tmp_path):
        source = self._warm_cache()
        path = tmp_path / "cache.snap"
        source.save(path)
        loaded = AnalysisCache.load(path)
        assert set(loaded._matrices) == set(source._matrices)
        assert set(loaded._adjacency) == set(source._adjacency)
        # warm-started entries hit immediately
        loaded.matrix(U3Gate(0.1, 0.2, 0.3))
        assert loaded.stats["matrix_hits"] == 1

    def test_load_missing_file_is_silent(self, tmp_path):
        """First boot: no snapshot file yet is expected, not warn-worthy."""
        import warnings as warnings_module

        cache = AnalysisCache()
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert cache.load_snapshot(tmp_path / "nope.snap") == 0
        assert not cache._matrices
        assert cache.snapshot_skipped is None

    def test_load_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "corrupt.snap"
        path.write_bytes(b"this is not a pickle")
        cache = AnalysisCache()
        with pytest.warns(RuntimeWarning, match="could not read"):
            assert cache.load_snapshot(path) == 0
        assert cache.snapshot_skipped is not None

    def test_load_other_library_version_warns(self, tmp_path):
        """Regression test for the persisted flavour of the version
        tolerance: a disk snapshot from another library version must leave
        the cache cold without raising, and say so."""
        import pickle

        source = self._warm_cache()
        path = tmp_path / "cache.snap"
        source.save(path)
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        snapshot["library"] = "repro-9.9.9/snapshot-1"
        with open(path, "wb") as handle:
            pickle.dump(snapshot, handle)
        with pytest.warns(RuntimeWarning, match="repro-9.9.9"):
            loaded = AnalysisCache.load(path)
        assert not loaded._matrices
        assert loaded.stats["snapshot_rejected"] == 1

    def test_save_stamps_library_fingerprint(self, tmp_path):
        import pickle

        from repro.transpiler.cache import library_fingerprint

        path = tmp_path / "cache.snap"
        self._warm_cache().save(path)
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        assert snapshot["library"] == library_fingerprint()
        assert snapshot["version"] == AnalysisCache.SNAPSHOT_VERSION


def _table2_workloads():
    return [
        ("qpe", quantum_phase_estimation(3)),
        ("vqe", ry_ansatz(4, depth=2, seed=11)),
        ("qv", quantum_volume_circuit(4, seed=5)),
        ("grover", grover_circuit(3, marked=5, iterations=1)),
    ]


def _run_rpo(circuit, backend, cache=None, seed=0):
    pm = rpo_pass_manager(
        backend.coupling_map, backend_properties=backend.properties, seed=seed
    )
    return pm.run_with_result(
        circuit.copy(), PropertySet(), analysis_cache=cache
    )


def _assert_identical(a: QuantumCircuit, b: QuantumCircuit):
    assert abs(a.global_phase - b.global_phase) < 1e-9
    assert len(a.data) == len(b.data)
    for inst_a, inst_b in zip(a.data, b.data):
        assert inst_a.operation.name == inst_b.operation.name
        assert inst_a.qubits == inst_b.qubits
        assert inst_a.clbits == inst_b.clbits
        assert np.allclose(inst_a.operation.params, inst_b.operation.params)


class TestSharedCacheAcceptance:
    """The acceptance criterion of the scheduler/cache rework."""

    @pytest.mark.parametrize(
        "name,circuit",
        _table2_workloads(),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_second_run_constructs_fewer_matrices(self, name, circuit):
        backend = FakeMelbourne()
        shared = AnalysisCache()

        first = _run_rpo(circuit, backend, cache=shared)
        first_constructions = shared.matrix_constructions
        first_requests = shared.matrix_requests
        # the seed path built one matrix per request; the cache must beat it
        assert 0 < first_constructions < first_requests

        second = _run_rpo(circuit, backend, cache=shared)
        second_constructions = shared.matrix_constructions - first_constructions
        assert second_constructions < first_constructions

        # caching must not change the compiled circuits
        fresh = _run_rpo(circuit, backend, cache=AnalysisCache())
        _assert_identical(first.circuit, fresh.circuit)
        _assert_identical(second.circuit, fresh.circuit)
