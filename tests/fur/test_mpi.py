"""Tests for the distributed simulators (Algorithm 4 and the index-swap variant)."""

import numpy as np
import pytest

from repro.fur import precompute_cost_diagonal
from repro.fur.mpi import (
    QAOAFURXSimulatorCUSVMPI,
    QAOAFURXSimulatorGPUMPI,
    run_distributed_qaoa,
)
from repro.problems import labs, maxcut
from repro.testing import reference_expectation
from repro.testing import reference_state as _reference_state

DISTRIBUTED_CLASSES = [QAOAFURXSimulatorGPUMPI, QAOAFURXSimulatorCUSVMPI]


def reference_state(n, terms, gammas, betas, sv0=None):
    """``(costs, state)`` of the independent per-vector reference."""
    costs = precompute_cost_diagonal(terms, n)
    return costs, _reference_state(costs, gammas, betas, sv0=sv0)


class TestDistributedCorrectness:
    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_matches_single_node_labs(self, cls, n_ranks):
        n, p = 8, 2
        terms = labs.get_terms(n)
        rng = np.random.default_rng(n_ranks)
        gammas, betas = rng.uniform(0, 1, p), rng.uniform(0, 1, p)
        costs, ref = reference_state(n, terms, gammas, betas)
        sim = cls(n, terms=terms, n_ranks=n_ranks)
        res = sim.simulate_qaoa(gammas, betas)
        np.testing.assert_allclose(sim.get_statevector(res), ref, atol=1e-12)
        assert sim.get_expectation(res) == pytest.approx(
            reference_expectation(costs, gammas, betas), abs=1e-10)

    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    def test_matches_single_node_maxcut(self, cls, small_maxcut, qaoa_angles):
        graph, terms = small_maxcut
        gammas, betas = qaoa_angles
        _, ref = reference_state(6, terms, gammas, betas)
        sim = cls(6, terms=terms, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)

    @pytest.mark.parametrize("algorithm", ["direct", "pairwise", "ring", "bruck"])
    def test_gpumpi_alltoall_algorithms_agree(self, algorithm, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        _, ref = reference_state(n, terms, gammas, betas)
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4, alltoall_algorithm=algorithm)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)

    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    def test_parallel_local_threads_agree(self, cls, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        _, ref = reference_state(n, terms, gammas, betas)
        sim = cls(n, terms=terms, n_ranks=4, parallel_local=True)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)

    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    def test_custom_initial_state(self, cls, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        rng = np.random.default_rng(3)
        sv0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv0 /= np.linalg.norm(sv0)
        _, ref = reference_state(n, terms, gammas, betas, sv0=sv0)
        sim = cls(n, terms=terms, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas, sv0=sv0)), ref, atol=1e-12)


class TestDistributedOutputs:
    def test_slices_and_gather(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        res = sim.simulate_qaoa(gammas, betas)
        slices = sim.get_statevector(res, mpi_gather=False)
        assert len(slices) == 4
        assert all(s.shape == (64,) for s in slices)
        np.testing.assert_allclose(np.concatenate(slices), sim.get_statevector(res))
        probs = sim.get_probabilities(res)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_overlap_matches_single_node(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        costs, ref = reference_state(n, terms, gammas, betas)
        ref_ov = float(np.sum(np.abs(ref[costs == costs.min()]) ** 2))
        sim = QAOAFURXSimulatorCUSVMPI(n, terms=terms, n_ranks=8)
        assert sim.get_overlap(sim.simulate_qaoa(gammas, betas)) == pytest.approx(ref_ov, abs=1e-10)

    def test_cost_slices_are_local_precomputations(self):
        """Each rank's cost slice equals the corresponding slice of the full diagonal."""
        n = 8
        terms = labs.get_terms(n)
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        full = sim.get_cost_diagonal()
        np.testing.assert_allclose(full, labs.energies_all_sequences(n))
        s = sim.local_states
        for r, sl in enumerate(sim._cost_slices):
            np.testing.assert_allclose(sl, full[r * s:(r + 1) * s])

    def test_costs_constructor_path(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        from repro.fur import precompute_cost_diagonal

        costs = precompute_cost_diagonal(terms, n)
        gammas, betas = qaoa_angles
        _, ref = reference_state(n, terms, gammas, betas)
        sim = QAOAFURXSimulatorGPUMPI(n, costs=costs, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)


class TestCommunicationPatterns:
    def test_gpumpi_traffic_two_alltoalls_per_layer(self, qaoa_angles):
        n, p = 8, 2
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        sim.simulate_qaoa(gammas, betas)
        assert len(sim.traffic_log) == 2 * p
        # each alltoall moves (K-1)/K of the state vector (counting both directions once)
        slice_bytes = (1 << n) // 4 * 16
        expected = 4 * 3 * (slice_bytes // 4)
        assert all(t.total_bytes == expected for t in sim.traffic_log)

    def test_cusvmpi_traffic_is_pairwise(self, qaoa_angles):
        n, p = 8, 2
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorCUSVMPI(n, terms=terms, n_ranks=4)
        sim.simulate_qaoa(gammas, betas)
        assert len(sim.traffic_log) == p
        for trace in sim.traffic_log:
            # every message is half a slice, between ranks differing in one bit
            for msg in trace.messages:
                assert msg.nbytes == (1 << n) // 4 // 2 * 16
                assert bin(msg.source ^ msg.dest).count("1") == 1

    def test_single_rank_no_communication(self, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=1)
        sim.simulate_qaoa(gammas, betas)
        assert sim.traffic_log == []


class TestTrafficPins:
    """Exact exchange traffic of one single-schedule ``simulate_qaoa`` call.

    Pins, per backend, strategy and rank count, the number of traces, the
    messages in each trace and the bytes each trace moves, so a change of
    the evaluation path underneath ``simulate_qaoa`` cannot silently change
    the modeled communication.
    """

    N, P = 8, 3

    def _run(self, sim):
        rng = np.random.default_rng(11)
        sim.simulate_qaoa(rng.uniform(0.1, 1.0, self.P),
                          rng.uniform(0.1, 1.0, self.P))
        return ([t.num_messages for t in sim.traffic_log],
                [t.total_bytes for t in sim.traffic_log])

    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("algorithm", ["direct", "ring", "bruck", "pairwise"])
    def test_gpumpi_alltoall(self, algorithm, n_ranks):
        sim = QAOAFURXSimulatorGPUMPI(self.N, terms=labs.get_terms(self.N),
                                      n_ranks=n_ranks,
                                      alltoall_algorithm=algorithm)
        messages, nbytes = self._run(sim)
        chunk_bytes = (1 << self.N) // n_ranks // n_ranks * 16
        if algorithm == "bruck":
            rounds = n_ranks.bit_length() - 1
            per_msgs = n_ranks * rounds
            per_bytes = per_msgs * (n_ranks // 2) * chunk_bytes
        else:
            per_msgs = n_ranks * (n_ranks - 1)
            per_bytes = per_msgs * chunk_bytes
        assert len(sim.traffic_log) == 2 * self.P
        assert messages == [per_msgs] * (2 * self.P)
        assert nbytes == [per_bytes] * (2 * self.P)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_cusvmpi_index_swaps(self, n_ranks):
        sim = QAOAFURXSimulatorCUSVMPI(self.N, terms=labs.get_terms(self.N),
                                       n_ranks=n_ranks)
        messages, nbytes = self._run(sim)
        k = n_ranks.bit_length() - 1
        half_bytes = (1 << self.N) // n_ranks // 2 * 16
        per_msgs = 2 * n_ranks * k
        assert len(sim.traffic_log) == self.P
        assert messages == [per_msgs] * self.P
        assert nbytes == [per_msgs * half_bytes] * self.P


class TestValidation:
    def test_rank_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(8, terms=[(1.0, (0,))], n_ranks=3)

    def test_too_many_ranks_for_qubits(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(4, terms=[(1.0, (0,))], n_ranks=8)

    def test_unknown_alltoall_algorithm(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(8, terms=[(1.0, (0,))], n_ranks=4, alltoall_algorithm="magic")


class TestSPMDPath:
    def test_spmd_matches_reference(self):
        n, p = 8, 2
        terms = labs.get_terms(n)
        rng = np.random.default_rng(0)
        gammas, betas = rng.uniform(0, 1, p), rng.uniform(0, 1, p)
        costs, ref = reference_state(n, terms, gammas, betas)
        out = run_distributed_qaoa(n, terms, gammas, betas, n_ranks=4)
        np.testing.assert_allclose(out["statevector"], ref, atol=1e-12)
        assert out["expectation"] == pytest.approx(
            reference_expectation(costs, gammas, betas), abs=1e-10)
        assert all(r["n_alltoall"] == 2 * p for r in out["ranks"])

    def test_spmd_rejects_bad_rank_count(self):
        terms = labs.get_terms(6)
        with pytest.raises(ValueError):
            run_distributed_qaoa(6, terms, [0.1], [0.1], n_ranks=3)
        with pytest.raises(ValueError):
            run_distributed_qaoa(4, terms[:3], [0.1], [0.1], n_ranks=8)
