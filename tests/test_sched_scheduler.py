"""Tests for the fault-tolerant trial scheduler (repro.sched.scheduler)."""

import numpy as np
import pytest

from repro.core.mincut import minimum_cut, minimum_cuts
from repro.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.harness import run_algorithm
from repro.runtime.errors import WorkerCrashError, WorkerFailure
from repro.runtime.sim import SimBackend
from repro.sched import (
    SCHED_DISPATCH,
    TrialScheduler,
    detect_stragglers,
    split_trace,
    wait_by_rank,
)
from repro.trace import RecordingTracer
from repro.trace.events import TraceEvent
from repro.trace.report import aggregate_trace

SEED = 11
TRIALS = 6


def crash_plan(attempts, rank=1, step=1, wave=0):
    """A plan that crashes the dispatch on each of the given attempts."""
    return FaultPlan(tuple(
        FaultSpec("crash", rank=rank, step=step, wave=wave, attempt=a)
        for a in attempts
    ))


class TestHappyPath:
    def test_matches_legacy_minimum_cut_value(self, bridge_graph):
        legacy = minimum_cut(bridge_graph, p=2, seed=SEED, trials=TRIALS)
        res = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert res.value == legacy.value == 2.0
        assert res.completed == res.trials == TRIALS
        assert res.dispatches == 1 and res.retries == 0

    def test_wave_batching_is_invariant(self, bridge_graph):
        whole = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        waved = TrialScheduler(wave_size=2).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS)
        single = TrialScheduler(wave_size=1).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert waved.dispatches == 3 and single.dispatches == TRIALS
        assert (whole.ledger.fingerprint() == waved.ledger.fingerprint()
                == single.ledger.fingerprint())

    def test_p_is_irrelevant_to_results(self, bridge_graph):
        a = TrialScheduler().run(bridge_graph, 1, seed=SEED, trials=TRIALS)
        b = TrialScheduler().run(bridge_graph, 3, seed=SEED, trials=TRIALS)
        assert a.ledger.fingerprint() == b.ledger.fingerprint()

    def test_achieved_meets_requested_for_full_budget(self, bridge_graph):
        res = TrialScheduler().run(bridge_graph, 2, seed=SEED,
                                   success_prob=0.9)
        assert res.completed == res.trials
        assert res.achieved_success_prob >= res.requested_success_prob

    def test_collect_all_matches_legacy_minimum_cuts(self, bridge_graph):
        legacy = minimum_cuts(bridge_graph, p=2, seed=SEED, trials=TRIALS)
        res = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS,
                                   collect_all=True)
        assert res.value == legacy.value
        legacy_keys = {s.tobytes() for s in legacy.sides}
        sched_keys = {s.tobytes() for s in res.sides}
        assert sched_keys == legacy_keys


class TestRetry:
    def test_crash_is_retried_and_result_is_clean(self, bridge_graph):
        clean = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        res = TrialScheduler(
            fault_plan=crash_plan([0]), backoff_s=0.0,
        ).run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert res.retries == 1
        assert res.value == clean.value
        assert res.ledger.fingerprint() == clean.ledger.fingerprint()

    def test_exhausted_retries_raise_with_trials_attached(self, bridge_graph):
        sched = TrialScheduler(fault_plan=crash_plan([0, 1, 2]),
                               max_retries=2, backoff_s=0.0)
        with pytest.raises(WorkerCrashError) as exc_info:
            sched.run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        err = exc_info.value
        assert err.trials == tuple(range(TRIALS))
        assert "trial(s) in flight" in str(err)
        assert "superstep" in str(err)

    def test_backoff_schedule_deterministic(self, bridge_graph):
        sleeps = []
        sched = TrialScheduler(
            fault_plan=crash_plan([0, 1, 2]), max_retries=3,
            backoff_s=0.1, backoff_factor=2.0, backoff_jitter=0.0,
            sleep=sleeps.append,
        )
        sched.run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_is_seed_deterministic(self, bridge_graph):
        def delays(seed):
            sleeps = []
            TrialScheduler(
                fault_plan=crash_plan([0]), backoff_s=0.1,
                backoff_jitter=0.5, sleep=sleeps.append,
            ).run(bridge_graph, 2, seed=seed, trials=TRIALS)
            return sleeps

        assert delays(7) == delays(7)
        assert 0.1 <= delays(7)[0] <= 0.15

    def test_zero_retries_fails_fast(self, bridge_graph):
        sched = TrialScheduler(fault_plan=crash_plan([0]), max_retries=0)
        with pytest.raises(WorkerFailure):
            sched.run(bridge_graph, 2, seed=SEED, trials=TRIALS)


class TestPartialResults:
    def test_on_failure_continue_reports_honest_probability(self, bridge_graph):
        # Wave 1 of two dies on every attempt; wave 0's trials survive.
        plan = crash_plan([0, 1, 2], rank=0, step=0, wave=1)
        sched = TrialScheduler(wave_size=3, fault_plan=plan, backoff_s=0.0,
                               on_failure="continue")
        full = TrialScheduler(wave_size=3).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS)
        res = sched.run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert res.completed == 3 < res.trials
        assert res.value == full.value  # the true cut was in wave 0
        assert res.achieved_success_prob < full.achieved_success_prob
        statuses = {ti: rec.status for ti, rec in res.ledger.records.items()}
        assert [statuses[ti] for ti in range(6)] == (
            ["done"] * 3 + ["failed"] * 3)

    def test_all_waves_failing_raises(self, bridge_graph):
        plan = crash_plan([0, 1, 2], wave=0)
        sched = TrialScheduler(fault_plan=plan, backoff_s=0.0,
                               on_failure="continue")
        with pytest.raises(RuntimeError, match="no trial completed"):
            sched.run(bridge_graph, 2, seed=SEED, trials=TRIALS)


class TestCheckpointResume:
    def test_checkpoint_written_and_resumable(self, bridge_graph, tmp_path):
        ck = str(tmp_path / "ledger.jsonl")
        clean = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        # Run half the waves, then abandon the rest.
        plan = crash_plan([0, 1, 2], rank=0, step=0, wave=1)
        TrialScheduler(
            wave_size=3, checkpoint=ck, fault_plan=plan, backoff_s=0.0,
            on_failure="continue",
        ).run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        resumed = TrialScheduler(wave_size=3, checkpoint=ck).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS, resume=True)
        assert resumed.completed == TRIALS
        assert resumed.dispatches == 1  # only the missing wave re-ran
        assert resumed.ledger.fingerprint() == clean.ledger.fingerprint()
        assert resumed.value == clean.value

    def test_resume_needs_checkpoint_path(self, bridge_graph):
        with pytest.raises(ValueError, match="checkpoint"):
            TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS,
                                 resume=True)

    def test_resume_rejects_mismatched_run(self, bridge_graph, tmp_path):
        ck = str(tmp_path / "ledger.jsonl")
        TrialScheduler(checkpoint=ck).run(bridge_graph, 2, seed=SEED,
                                          trials=TRIALS)
        with pytest.raises(ValueError, match="different run"):
            TrialScheduler(checkpoint=ck).run(
                bridge_graph, 2, seed=SEED + 1, trials=TRIALS, resume=True)

    def test_fully_resumed_run_dispatches_nothing(self, bridge_graph, tmp_path):
        ck = str(tmp_path / "ledger.jsonl")
        first = TrialScheduler(checkpoint=ck).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS)
        again = TrialScheduler(checkpoint=ck).run(
            bridge_graph, 2, seed=SEED, trials=TRIALS, resume=True)
        assert again.dispatches == 0
        assert again.value == first.value
        assert again.ledger.fingerprint() == first.ledger.fingerprint()


class TestTraceIntegration:
    def test_single_wave_trace_reconciles_with_report(self, bridge_graph):
        res = TrialScheduler().run(
            bridge_graph, 2, backend=SimBackend(tracer=RecordingTracer()),
            seed=SEED, trials=TRIALS)
        kinds = [ev.kind for ev in res.trace]
        assert kinds[0] == SCHED_DISPATCH
        (piece,) = split_trace(res.trace)
        assert aggregate_trace(piece) == res.report

    def test_multi_wave_pieces_reconcile(self, bridge_graph):
        res = TrialScheduler(wave_size=3).run(
            bridge_graph, 2, backend=SimBackend(tracer=RecordingTracer()),
            seed=SEED, trials=TRIALS)
        pieces = split_trace(res.trace)
        assert len(pieces) == 2
        reports = [aggregate_trace(piece) for piece in pieces]
        assert sum(r.supersteps for r in reports) == res.report.supersteps
        assert sum(r.computation for r in reports) == pytest.approx(
            res.report.computation)

    def test_work_fault_flags_straggler(self, bridge_graph):
        plan = parse_fault_plan("work:rank=1,step=1,ops=1e6")
        res = TrialScheduler(fault_plan=plan).run(
            bridge_graph, 2, backend=SimBackend(tracer=RecordingTracer()),
            seed=SEED, trials=TRIALS)
        assert res.stragglers == {0: [1]}

    def test_untraced_run_has_no_trace(self, bridge_graph):
        res = TrialScheduler().run(bridge_graph, 2, seed=SEED, trials=TRIALS)
        assert res.trace is None and res.stragglers is None


class TestStragglerDetection:
    @staticmethod
    def _event(waits, supersteps=(1, 1)):
        ranks = tuple(range(len(waits)))
        zeros = (0.0,) * len(waits)
        return TraceEvent(kind="allreduce", gid=1, participants=ranks,
                          words=0, supersteps=supersteps, d_ops=zeros,
                          d_sent=zeros, d_recv=zeros, d_misses=zeros,
                          d_wait=tuple(waits))

    def test_low_wait_rank_is_flagged(self):
        events = [self._event([5000.0, 0.0])]
        assert detect_stragglers(events) == [1]
        assert wait_by_rank(events) == {0: 5000.0, 1: 0.0}

    def test_balanced_runs_not_flagged(self):
        events = [self._event([10.0, 12.0])]
        assert detect_stragglers(events) == []

    def test_absolute_floor_suppresses_noise(self):
        events = [self._event([800.0, 0.0])]  # 4x ratio but tiny deficit
        assert detect_stragglers(events, min_deficit_ops=1000.0) == []
        assert detect_stragglers(events, min_deficit_ops=100.0) == [1]

    def test_single_rank_never_flagged(self):
        assert detect_stragglers([self._event([0.0], supersteps=(1,))]) == []


class TestEntryPoints:
    def test_minimum_cut_scheduler_adapter(self, bridge_graph):
        res = minimum_cut(bridge_graph, p=2, seed=SEED,
                          scheduler=TrialScheduler())
        assert res.value == 2.0
        assert res.achieved_success_prob >= 0.9
        assert res.ledger is not None
        assert res.ledger.completed == res.trials

    def test_minimum_cuts_scheduler_adapter(self, bridge_graph):
        legacy = minimum_cuts(bridge_graph, p=2, seed=SEED, trials=TRIALS)
        res = minimum_cuts(bridge_graph, p=2, seed=SEED, trials=TRIALS,
                           scheduler=TrialScheduler())
        assert res.value == legacy.value
        assert {s.tobytes() for s in res.sides} == {
            s.tobytes() for s in legacy.sides}

    def test_resume_without_scheduler_rejected(self, bridge_graph):
        with pytest.raises(ValueError, match="scheduler"):
            minimum_cut(bridge_graph, resume=True)

    def test_preprocess_composes_with_scheduler(self, bridge_graph):
        plain = minimum_cut(bridge_graph, p=2, seed=SEED, preprocess=True)
        sched = minimum_cut(bridge_graph, p=2, seed=SEED, preprocess=True,
                            scheduler=TrialScheduler())
        assert sched.value == plain.value

    def test_run_algorithm_square_root(self, bridge_graph):
        res = run_algorithm("square_root", bridge_graph, p=2, seed=SEED,
                            scheduler=TrialScheduler(), trials=TRIALS)
        assert res.value == 2.0 and res.ledger is not None

    def test_run_algorithm_rejects_scheduler_elsewhere(self, bridge_graph):
        with pytest.raises(ValueError, match="square_root"):
            run_algorithm("parallel_cc", bridge_graph,
                          scheduler=TrialScheduler())


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_s": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_jitter": -1.0},
        {"wave_size": 0},
        {"on_failure": "explode"},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrialScheduler(**kwargs)
