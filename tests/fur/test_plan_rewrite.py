"""Plan-rewrite optimizer passes (repro.fur.rewrite) and their parity pins.

Covers

* the randomized cross-backend parity harness: random terms, angles, mixers,
  precisions and batch shapes (seeded via the session ``seeded_rng`` fixture,
  reproducible from the seed printed in the pytest header), asserting
  optimized == unoptimized == the independent per-vector reference of
  :mod:`repro.testing` within the established envelopes (1e-5 single /
  1e-12 double) for every importable backend,
* unit semantics of the six passes (FusePhaseIntoMixer, CoalesceExchanges,
  FoldInitialPhase, FuseMixerIntoExpectation, EliminateNoOps,
  ReorderCommuting), including capability gating and fused-op demotion,
* the ``optimize`` knob: constructor default, per-call override, facade
  validation and plan-cache key membership,
* the coalesced gpumpi exchange: bitwise consistency with the per-row path
  at 2 and 4 ranks, and the batch-size-independent message count,
* engine statistics for rewrites (fused ops counted distinctly,
  ops-before/after per pass).
"""

import numpy as np
import pytest

import repro
from repro.fur import available_backends, get_backend
from repro.fur.engine import (
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    InitialPhaseOp,
    MergedMixerOp,
    MergedPhaseOp,
    MixerOp,
    PhaseOp,
)
from repro.fur.rewrite import (
    DEFAULT_PASSES,
    CoalesceExchanges,
    EliminateNoOps,
    FoldInitialPhase,
    FuseMixerIntoExpectation,
    FusePhaseIntoMixer,
    ReorderCommuting,
    resolve_optimize,
    run_passes,
)
from repro.problems import labs
from repro.testing import random_terms, reference_expectation

#: Every backend importable in this environment participates in the harness.
BACKENDS = available_backends(importable_only=True)
PRECISIONS = ("double", "single")

#: Established parity envelopes (relative, applied against the reference).
ENVELOPE = {"double": 1e-12, "single": 1e-5}

#: Random configurations drawn per backend x precision cell.
N_TRIALS = 3


def _random_config(rng, spec):
    """One random problem/schedule configuration for a backend spec."""
    if spec.capabilities != "full":
        # expectation-only backends (tensornet) contract all 2^n output
        # amplitudes per schedule row — keep the randomized cell small.
        n = int(rng.integers(4, 6))
        p = int(rng.integers(1, 3))
        batch = int(rng.integers(1, 3))
    else:
        n = int(rng.integers(5, 9))
        p = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 6))
    mixer = str(rng.choice(spec.mixers))
    terms = random_terms(rng, n, n_terms=int(rng.integers(3, 9)))
    gammas = rng.uniform(-2.0, 2.0, (p,))[None, :] * rng.uniform(0.5, 1.0, (batch, 1))
    betas = rng.uniform(-2.0, 2.0, (batch, p))
    gammas = np.ascontiguousarray(gammas)
    # Randomly zero whole angle columns so EliminateNoOps fires (a column is
    # a no-op only when zero across the entire batch).
    if rng.random() < 0.5:
        gammas[:, int(rng.integers(p))] = 0.0
    if rng.random() < 0.5:
        betas[:, int(rng.integers(p))] = 0.0
    kwargs = {}
    if spec.distributed:
        kwargs["n_ranks"] = int(rng.choice([2, 4]))
    return n, mixer, terms, gammas, betas, kwargs


class TestRandomizedParityHarness:
    """optimized == unoptimized == reference, across everything, from one seed."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_optimized_matches_unoptimized_and_reference(self, backend,
                                                         precision, seeded_rng):
        spec = get_backend(backend)
        if not spec.supports_precision(precision):
            pytest.skip(f"{backend} does not implement {precision}")
        for trial in range(N_TRIALS):
            n, mixer, terms, gb, bb, kwargs = _random_config(seeded_rng, spec)
            sim = repro.simulator(n, terms=terms, backend=backend,
                                  mixer=mixer, precision=precision, **kwargs)
            optimized = sim.get_expectation_batch(gb, bb)
            unoptimized = sim.get_expectation_batch(gb, bb, optimize="none")
            costs = sim.get_cost_diagonal()
            reference = np.array([reference_expectation(costs, g, b, mixer=mixer)
                                  for g, b in zip(gb, bb)])
            tol = ENVELOPE[precision] * max(1.0, float(np.max(np.abs(reference))))
            context = (f"backend={backend} precision={precision} "
                       f"trial={trial} n={n} mixer={mixer} "
                       f"shape={gb.shape} kwargs={kwargs} "
                       "(reproduce via the seed in the pytest header)")
            np.testing.assert_allclose(optimized, unoptimized, atol=tol,
                                       err_msg=f"optimized vs unoptimized: {context}")
            np.testing.assert_allclose(optimized, reference, atol=tol,
                                       err_msg=f"optimized vs reference: {context}")
            np.testing.assert_allclose(unoptimized, reference, atol=tol,
                                       err_msg=f"unoptimized vs reference: {context}")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_batch_states_match_unoptimized(self, backend, seeded_rng):
        """The evolved states (not just expectations) survive the rewrites."""
        spec = get_backend(backend)
        if not spec.supports_capability("statevector"):
            pytest.skip(f"{backend} is {spec.capabilities}: no statevectors")
        kwargs = {"n_ranks": 2} if spec.distributed else {}
        terms = labs.get_terms(6)
        gb = seeded_rng.uniform(-1.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(-1.0, 1.0, (3, 2))
        sim = repro.simulator(6, terms=terms, backend=backend, **kwargs)
        optimized = sim.simulate_qaoa_batch(gb, bb)
        unoptimized = sim.simulate_qaoa_batch(gb, bb, optimize="none")
        for opt_res, unopt_res in zip(optimized, unoptimized):
            np.testing.assert_allclose(
                np.asarray(sim.get_statevector(opt_res)),
                np.asarray(sim.get_statevector(unopt_res)), atol=1e-12)


class TestPassSemantics:
    def test_fuse_pass_merges_x_layers(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        plan = sim.engine.plan(3)
        assert plan.optimize == "default"
        # every layer fuses phase+mixer; the tail additionally absorbs the
        # expectation reduction (FuseMixerIntoExpectation)
        assert plan.ops == (FusedPhaseMixerOp(0), FusedPhaseMixerOp(1),
                            FusedMixerExpectationOp(2, with_phase=True))
        fuse = [r for r in plan.rewrites if r.pass_name == "fuse-phase-mixer"]
        assert fuse and fuse[0].rewrites == 3
        assert fuse[0].ops_before == 7 and fuse[0].ops_after == 4
        fme = [r for r in plan.rewrites if r.pass_name == "fuse-mixer-expectation"]
        assert fme and fme[0].rewrites == 1
        assert fme[0].ops_before == 4 and fme[0].ops_after == 3

    def test_xy_mixers_keep_split_ops(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              mixer="xyring")
        plan = sim.engine.plan(2)
        # no fused XY kernels, but the head phase folds into block staging
        assert plan.ops == (InitialPhaseOp(0), MixerOp(0, 1),
                            PhaseOp(1), MixerOp(1, 1), ExpectationOp())
        fold = [r for r in plan.rewrites if r.pass_name == "fold-initial-phase"]
        assert fold and fold[0].rewrites == 1
        assert all(r.rewrites == 0 for r in plan.rewrites
                   if r.pass_name != "fold-initial-phase")

    def test_coalesce_marks_gpumpi_ops_only(self):
        terms = labs.get_terms(6)
        gpumpi = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2)
        plan = gpumpi.engine.plan(2)
        assert plan.ops[:2] == (FusedPhaseMixerOp(0, coalesce=True),
                                FusedPhaseMixerOp(1, coalesce=True))
        cusvmpi = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        assert cusvmpi.engine.plan(2).ops[0] == FusedPhaseMixerOp(0)

    def test_fuse_gated_on_provider_capability(self):
        class NoFusion:
            supports_fused_phase_mixer = False
            supports_coalesced_exchange = False

        ops = (PhaseOp(0), MixerOp(0), ExpectationOp())
        out, reports = run_passes(ops, NoFusion(), stage="compile")
        assert out == ops
        assert all(r.rewrites == 0 for r in reports)

    def test_eliminate_drops_zero_angle_columns(self):
        ops = (PhaseOp(0), MixerOp(0), PhaseOp(1), MixerOp(1), ExpectationOp())
        gammas = np.array([[0.0, 0.3], [0.0, 0.5]])
        betas = np.array([[0.4, 0.0], [0.1, 0.0]])
        out, reports = run_passes(ops, object(), gammas=gammas, betas=betas,
                                  stage="execute")
        # elimination drops the zero columns; the surviving PhaseOp(1) then
        # trails into the expectation and the reorder pass drops it too
        assert out == (MixerOp(0), ExpectationOp())
        assert reports[0].pass_name == "eliminate-noops"
        assert reports[0].rewrites == 2
        assert reports[1].pass_name == "reorder-commuting"
        assert reports[1].rewrites == 1

    def test_eliminate_requires_column_zero_across_whole_batch(self):
        ops = (PhaseOp(0), MixerOp(0))
        gammas = np.array([[0.0], [0.7]])  # only one row is zero
        betas = np.array([[0.2], [0.3]])
        out, _ = run_passes(ops, object(), gammas=gammas, betas=betas,
                            stage="execute")
        assert out == ops

    def test_eliminate_demotes_fused_ops(self):
        ops = (FusedPhaseMixerOp(0, coalesce=True), FusedPhaseMixerOp(1),
               FusedPhaseMixerOp(2), ExpectationOp())
        gammas = np.array([[0.0, 0.4, 0.0]])
        betas = np.array([[0.3, 0.0, 0.0]])
        out, reports = run_passes(ops, object(), gammas=gammas, betas=betas,
                                  stage="execute")
        # layer 0: zero gamma -> mixer half survives (coalesce preserved);
        # layer 1: zero beta -> phase half survives but trails into the
        # expectation and is dropped by reorder; layer 2: fully dropped.
        assert out == (MixerOp(0, coalesce=True), ExpectationOp())
        assert reports[0].rewrites == 3

    def test_all_zero_schedule_reduces_to_initial_state(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        values = sim.get_expectation_batch(np.zeros((2, 3)), np.zeros((2, 3)))
        diag = sim.get_cost_diagonal()
        expected = float(diag.mean())  # uniform superposition expectation
        np.testing.assert_allclose(values, [expected, expected], atol=1e-12)
        # compile plan is (F0, F1, FME2): the two fused layers drop outright
        # and the tail op demotes to a bare expectation (3 ops -> 1 op)
        assert sim.engine.stats.ops_eliminated == 2

    def test_default_pipeline_order(self):
        kinds = [type(p) for p in DEFAULT_PASSES]
        assert kinds == [FusePhaseIntoMixer, CoalesceExchanges,
                         FoldInitialPhase, FuseMixerIntoExpectation,
                         EliminateNoOps, ReorderCommuting]
        assert not FusePhaseIntoMixer.needs_angles
        assert not CoalesceExchanges.needs_angles
        assert not FoldInitialPhase.needs_angles
        assert not FuseMixerIntoExpectation.needs_angles
        assert EliminateNoOps.needs_angles
        assert ReorderCommuting.needs_angles

    def test_run_passes_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown rewrite stage"):
            run_passes((), object(), stage="later")


class _Flags:
    """Minimal stand-in provider exposing only the given capability flags."""

    def __init__(self, **flags):
        self.__dict__.update(flags)


class TestNewPassSemantics:
    """Unit semantics of FoldInitialPhase, FuseMixerIntoExpectation and
    ReorderCommuting against stub providers."""

    def test_fold_initial_phase_only_rewrites_the_head_op(self):
        fold = FoldInitialPhase()
        staged = _Flags(supports_staged_phase=True)
        ops = (PhaseOp(0), MixerOp(0), PhaseOp(1), ExpectationOp())
        out, n = fold.run(ops, staged)
        assert out == (InitialPhaseOp(0), MixerOp(0), PhaseOp(1), ExpectationOp())
        assert n == 1
        # a non-phase head op is not a known state: no fold
        tail_first = (MixerOp(0), PhaseOp(1), ExpectationOp())
        assert fold.run(tail_first, staged) == (tail_first, 0)
        # gated on the provider capability
        assert fold.run(ops, _Flags()) == (ops, 0)

    def test_fuse_mixer_into_expectation_rewrites_the_tail(self):
        fme = FuseMixerIntoExpectation()
        cap = _Flags(supports_fused_mixer_expectation=True)
        ops = (PhaseOp(0), MixerOp(1, 2), ExpectationOp())
        out, n = fme.run(ops, cap)
        assert out == (PhaseOp(0), FusedMixerExpectationOp(1, n_trotters=2))
        assert n == 1
        # a fused phase+mixer tail keeps its phase half (with_phase=True)
        out2, n2 = fme.run((FusedPhaseMixerOp(1), ExpectationOp()), cap)
        assert out2 == (FusedMixerExpectationOp(1, with_phase=True),)
        assert n2 == 1
        # coalesced (distributed) tails are left alone
        coalesced = (MixerOp(1, coalesce=True), ExpectationOp())
        assert fme.run(coalesced, cap) == (coalesced, 0)
        # gated on the provider capability
        assert fme.run(ops, _Flags()) == (ops, 0)

    def test_reorder_merges_adjacent_commuting_sweeps(self):
        reorder = ReorderCommuting()
        ops = (PhaseOp(0), PhaseOp(1), MixerOp(0), MixerOp(1), MixerOp(2),
               ExpectationOp())
        out, n = reorder.run(ops, _Flags(mixer_self_commutes=True))
        assert out == (MergedPhaseOp((0, 1)), MergedMixerOp((0, 1, 2)),
                       ExpectationOp())
        assert n == 3
        # a non-self-commuting mixer blocks the mixer merge only
        out2, n2 = reorder.run(ops, _Flags())
        assert out2 == (MergedPhaseOp((0, 1)), MixerOp(0), MixerOp(1),
                        MixerOp(2), ExpectationOp())
        assert n2 == 1
        # mismatched Trotterization blocks the merge too
        ops3 = (MixerOp(0, 2), MixerOp(1, 3), ExpectationOp())
        assert reorder.run(ops3, _Flags(mixer_self_commutes=True)) == (ops3, 0)

    def test_reorder_drops_trailing_diagonals(self):
        reorder = ReorderCommuting()
        ops = (MixerOp(0), PhaseOp(1), MergedPhaseOp((2, 3)), ExpectationOp())
        out, n = reorder.run(ops, _Flags())
        assert out == (MixerOp(0), ExpectationOp())
        assert n == 2


class TestOptimizeKnob:
    def test_optimize_is_part_of_the_plan_key(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        default = sim.engine.plan(2)
        none = sim.engine.plan(2, optimize="none")
        assert default is not none
        assert default.key != none.key
        assert default.key[:-1] == none.key[:-1]  # only optimize differs
        assert none.ops == (PhaseOp(0), MixerOp(0, 1),
                            PhaseOp(1), MixerOp(1, 1), ExpectationOp())

    def test_constructor_knob_sets_the_default(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        assert sim.optimize == "none"
        assert sim.engine.plan(2).optimize == "none"
        # the per-call override still enables the pipeline
        assert sim.engine.plan(2, optimize="default").ops[0] == FusedPhaseMixerOp(0)

    @pytest.mark.parametrize("backend", ["python", "c", "gpu"])
    def test_facade_forwards_optimize(self, backend):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend=backend,
                              optimize="none")
        assert sim.optimize == "none"

    def test_invalid_optimize_rejected(self):
        terms = labs.get_terms(6)
        with pytest.raises(ValueError, match="unknown optimize level"):
            repro.simulator(6, terms=terms, optimize="aggressive")
        with pytest.raises(ValueError, match="unknown optimize level"):
            resolve_optimize("fast")
        sim = repro.simulator(6, terms=terms, backend="python")
        with pytest.raises(ValueError, match="unknown optimize level"):
            sim.get_expectation_batch([[0.1]], [[0.2]], optimize="fast")

    def test_instance_passthrough_checks_optimize(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        assert repro.simulator(6, backend=sim, terms=None) is sim
        with pytest.raises(ValueError, match="optimize"):
            repro.simulator(6, backend=sim, terms=None, optimize="default")

    def test_backend_spec_advertises_rewrites(self):
        assert get_backend("python").supports_rewrite("fuse-phase-mixer")
        assert get_backend("python").supports_rewrite("fold-initial-phase")
        assert get_backend("c").supports_rewrite("fuse-mixer-expectation")
        assert get_backend("gpumpi").supports_rewrite("coalesce-exchanges")
        assert not get_backend("cusvmpi").supports_rewrite("coalesce-exchanges")
        # the baselines only have kernels for the angle-merging rewrites
        assert get_backend("gates").supports_rewrite("reorder-commuting")
        assert not get_backend("gates").supports_rewrite("fuse-phase-mixer")
        assert get_backend("tensornet").supports_rewrite("reorder-commuting")


class TestCoalescedExchange:
    """The gpumpi block-wide Alltoall vs the per-row path."""

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_bitwise_consistent_with_per_row_path(self, n_ranks, seeded_rng):
        terms = labs.get_terms(8)
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        coalesced = repro.simulator(8, terms=terms, backend="gpumpi",
                                    n_ranks=n_ranks)
        per_row = repro.simulator(8, terms=terms, backend="gpumpi",
                                  n_ranks=n_ranks, optimize="none")
        res_c = coalesced.simulate_qaoa_batch(gb, bb)
        res_p = per_row.simulate_qaoa_batch(gb, bb)
        for a, b in zip(res_c, res_p):
            np.testing.assert_array_equal(a.gather(), b.gather())
        np.testing.assert_array_equal(
            coalesced.get_expectation_batch(gb, bb),
            per_row.get_expectation_batch(gb, bb, optimize="none"))

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_message_count_is_batch_size_independent(self, n_ranks, seeded_rng):
        terms = labs.get_terms(8)
        p = 2
        counts = {}
        for batch in (2, 5):
            sim = repro.simulator(8, terms=terms, backend="gpumpi",
                                  n_ranks=n_ranks)
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, p)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, p)))
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        # coalesced: 2 exchanges per layer x K(K-1) messages, regardless of B
        assert counts[2] == counts[5]
        assert counts[2] == p * 2 * n_ranks * (n_ranks - 1)

    def test_per_row_message_count_scales_with_batch(self, seeded_rng):
        terms = labs.get_terms(8)
        counts = {}
        for batch in (2, 5):
            sim = repro.simulator(8, terms=terms, backend="gpumpi", n_ranks=2,
                                  optimize="none")
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, 2)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, 2)))
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        assert counts[5] == counts[2] * 5 // 2

    @pytest.mark.parametrize("algorithm", ["direct", "pairwise", "ring", "bruck"])
    def test_alltoall_algorithms_stay_consistent(self, algorithm, seeded_rng):
        terms = labs.get_terms(6)
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2,
                              alltoall_algorithm=algorithm)
        reference = repro.simulator(6, terms=terms, backend="python")
        np.testing.assert_allclose(sim.get_expectation_batch(gb, bb),
                                   reference.get_expectation_batch(gb, bb),
                                   atol=1e-10)

    def test_non_direct_algorithm_keeps_the_per_row_path(self, seeded_rng):
        # The coalesced exchange is the direct algorithm over block slabs;
        # requesting another algorithm must keep the per-row exchanges (and
        # their algorithm-shaped traffic traces) instead of silently
        # ignoring the knob.
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2,
                              alltoall_algorithm="bruck")
        assert not sim.supports_coalesced_exchange
        plan = sim.engine.plan(2)
        assert plan.ops[0] == FusedPhaseMixerOp(0)  # fusion still applies
        assert not plan.ops[0].coalesce
        gb = seeded_rng.uniform(0.3, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.3, 1.0, (3, 2))
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.coalesced_exchange_ops == 0
        # one trace per schedule row per exchange: the per-row path
        assert len(sim.traffic_log) == 3 * 2 * 2


class TestRewriteStats:
    def test_fused_ops_counted_distinctly(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        gb = seeded_rng.uniform(0.3, 1.0, (4, 3))
        bb = seeded_rng.uniform(0.3, 1.0, (4, 3))
        sim.get_expectation_batch(gb, bb)
        stats = sim.engine.stats.as_dict()
        assert stats["fused_ops_executed"] == 3  # one per layer, one block
        assert stats["mixer_expectation_fused_ops"] == 1  # the plan tail
        assert stats["rewrites"]["fuse-phase-mixer"]["rewrites"] == 3
        assert stats["rewrites"]["fuse-phase-mixer"]["ops_before"] == 7
        assert stats["rewrites"]["fuse-phase-mixer"]["ops_after"] == 4
        assert stats["rewrites"]["fuse-mixer-expectation"]["rewrites"] == 1

    def test_staged_phase_counted(self, seeded_rng):
        # the XY families have no fused kernels, so the head phase op folds
        # into the staging write (InitialPhaseOp) and is counted as such
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              mixer="xyring")
        gb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        bb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        sim.get_expectation_batch(gb, bb)
        stats = sim.engine.stats.as_dict()
        assert stats["staged_phase_ops"] == 1  # one block staged with phase
        assert stats["rewrites"]["fold-initial-phase"]["rewrites"] == 1

    def test_merged_mixers_counted_and_exact(self, seeded_rng):
        # all-zero gammas demote every fused layer to its mixer half; the
        # X mixer self-commutes so the adjacent sweeps merge into one op
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        gb = np.zeros((2, 3))
        bb = seeded_rng.uniform(0.3, 1.0, (2, 3))
        values = sim.get_expectation_batch(gb, bb)
        stats = sim.engine.stats.as_dict()
        assert stats["merged_ops_executed"] == 1       # MixerOp(0)+MixerOp(1)
        assert stats["mixer_expectation_fused_ops"] == 1  # demoted FME tail
        np.testing.assert_allclose(
            values, sim.get_expectation_batch(gb, bb, optimize="none"),
            atol=1e-12)

    def test_merged_phases_counted_and_exact(self, seeded_rng):
        # zero betas in the first two layers leave two adjacent phase sweeps
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        gb = seeded_rng.uniform(0.3, 1.0, (2, 3))
        bb = np.concatenate([np.zeros((2, 2)),
                             seeded_rng.uniform(0.3, 1.0, (2, 1))], axis=1)
        values = sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.merged_ops_executed == 1  # MergedPhaseOp((0,1))
        np.testing.assert_allclose(
            values, sim.get_expectation_batch(gb, bb, optimize="none"),
            atol=1e-12)

    def test_coalesced_exchanges_counted(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="gpumpi",
                              n_ranks=2)
        gb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        bb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.coalesced_exchange_ops == 2

    def test_unoptimized_runs_record_no_rewrites(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (2, 2)),
                                  seeded_rng.uniform(0.3, 1.0, (2, 2)))
        stats = sim.engine.stats.as_dict()
        assert stats["fused_ops_executed"] == 0
        assert stats["ops_eliminated"] == 0
        assert stats["rewrites"] == {}
