"""The dataflow scheduler: block-keyed readiness, plan-order commits, resume.

Covers the scheduler in isolation (hand-built units on a bare DFS) and end
to end through the inversion driver: dataflow mode must produce the exact
inverse, record, and manifest set of barrier mode; a downstream unit must
never observe a pending block; a discarded speculative loser must never
trigger readiness; a crash between sibling-subtree completions must resume;
and the achieved schedule must respect the analyzer's predicted structure.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import InversionConfig
from repro.analysis import build_model
from repro.analysis.dataflow import barrier_slack_data, build_block_dag
from repro.chaos import DriverCrashError
from repro.dfs import DFS, CommitScope, formats
from repro.inversion import MatrixInverter
from repro.mapreduce import (
    DataflowScheduler,
    MapReduceRuntime,
    RuntimeConfig,
    SchedulerStallError,
    UnitSpec,
)

from conftest import random_invertible


def small_cluster(executor: str = "serial", workers: int = 2):
    dfs = DFS(num_datanodes=3, replication=2, block_size=1 << 16, seed=0)
    runtime = MapReduceRuntime(
        dfs=dfs, config=RuntimeConfig(num_workers=workers, executor=executor)
    )
    return dfs, runtime


def step_name(step) -> str:
    """Record entry name: a master phase's name or a job's conf name."""
    return getattr(step, "name", None) or step.conf.name


def publish_unit(dfs, name, needs, writes, log=None, body=None):
    """A minimal unit: publish ``writes`` via a commit scope when run."""

    def run(wait):
        if body is not None:
            body()
        scope = CommitScope(dfs, f"unit-{name}")
        for path in writes:
            scope.stage_bytes(path, name.encode())
        scope.publish()
        if log is not None:
            log.append(name)
        return name

    return UnitSpec(
        name=name,
        kind="phase",
        needs=frozenset(needs),
        run=run,
        commit=lambda payload: None,
    )


class TestSchedulerCore:
    def test_chain_runs_in_dependency_order(self, dfs):
        ran = []
        units = [
            publish_unit(dfs, "a", [], ["/Root/a"], log=ran),
            publish_unit(dfs, "b", ["/Root/a"], ["/Root/b"], log=ran),
            publish_unit(dfs, "c", ["/Root/b"], ["/Root/c"], log=ran),
        ]
        report = DataflowScheduler(dfs=dfs, units=units).run()
        assert ran == ["a", "b", "c"]
        assert report.launch_order == ["a", "b", "c"]
        # b and c were released by publishes, not by the initial scan.
        assert report.triggers["b"] == "/Root/a"
        assert report.triggers["c"] == "/Root/b"

    def test_independent_units_all_complete(self, dfs):
        ran = []
        units = [
            publish_unit(dfs, f"u{i}", [], [f"/Root/u{i}"], log=ran)
            for i in range(6)
        ]
        DataflowScheduler(dfs=dfs, units=units).run()
        assert sorted(ran) == [f"u{i}" for i in range(6)]

    def test_commits_happen_in_plan_order(self, dfs):
        committed = []
        # u1 finishes long after u2 (u2 has no deps), yet u1 commits first.
        slow_release = threading.Event()
        units = [
            publish_unit(
                dfs, "u1", [], ["/Root/u1"], body=lambda: slow_release.wait(5)
            ),
            publish_unit(
                dfs, "u2", [], ["/Root/u2"], body=slow_release.set
            ),
        ]
        for unit in units:
            unit.commit = lambda payload, name=unit.name: committed.append(name)
        DataflowScheduler(dfs=dfs, units=units).run()
        assert committed == ["u1", "u2"]

    def test_missing_input_stalls_with_diagnosis(self, dfs):
        units = [publish_unit(dfs, "u", ["/Root/never-produced"], ["/Root/u"])]
        with pytest.raises(SchedulerStallError, match="never-produced"):
            DataflowScheduler(dfs=dfs, units=units).run()

    def test_unit_failure_reraised_after_drain(self, dfs):
        def explode():
            raise RuntimeError("unit boom")

        units = [
            publish_unit(dfs, "ok", [], ["/Root/ok"]),
            publish_unit(dfs, "bad", [], ["/Root/bad"], body=explode),
        ]
        with pytest.raises(RuntimeError, match="unit boom"):
            DataflowScheduler(dfs=dfs, units=units).run()

    def test_staged_unpublished_block_never_triggers_readiness(self, dfs):
        """A pending (staged, unsealed) block is invisible to the scheduler.

        Models a speculative loser: its attempt stages output for the path a
        downstream unit needs, but the staging is discarded, never
        published — so the downstream unit must stay blocked (stall), not
        launch against torn data.
        """
        loser = CommitScope(dfs, "speculative-loser")
        loser.stage_bytes("/Root/block", b"half-written")
        units = [publish_unit(dfs, "down", ["/Root/block"], ["/Root/out"])]
        scheduler = DataflowScheduler(dfs=dfs, units=units)
        with pytest.raises(SchedulerStallError, match="/Root/block"):
            scheduler.run()
        loser.abort()  # discarded: still nothing published
        assert not dfs.exists("/Root/block")

    def test_done_units_are_skipped_and_satisfy_dependents(self, dfs):
        # Simulates resume: "a" committed in a previous life, its output on
        # the DFS; only "b" should run.
        dfs.write_bytes("/Root/a", b"previous run")
        ran = []
        done = publish_unit(dfs, "a", [], ["/Root/a"], log=ran)
        done.done = True
        units = [done, publish_unit(dfs, "b", ["/Root/a"], ["/Root/b"], log=ran)]
        report = DataflowScheduler(dfs=dfs, units=units).run()
        assert ran == ["b"]
        assert report.skipped == ["a"]
        assert report.launch_order == ["b"]


class TestDataflowInversion:
    def test_matches_barrier_exactly(self, rng):
        a = random_invertible(rng, 16)
        results = {}
        for schedule in ("barrier", "dataflow"):
            dfs, rt = small_cluster()
            cfg = InversionConfig(nb=4, m0=2, schedule=schedule)
            try:
                results[schedule] = MatrixInverter(cfg, runtime=rt).invert(a)
            finally:
                rt.shutdown()
        barrier, dataflow = results["barrier"], results["dataflow"]
        np.testing.assert_array_equal(barrier.inverse, dataflow.inverse)
        # record.steps appends in deterministic plan order under both modes.
        names = lambda r: [
            getattr(s, "name", None) or s.conf.name for s in r.record.steps
        ]
        assert names(barrier) == names(dataflow)
        assert dataflow.scheduler_report is not None
        assert barrier.scheduler_report is None

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_manifests_identical_to_barrier(self, rng, executor):
        a = random_invertible(rng, 16)
        manifests = {}
        for schedule in ("barrier", "dataflow"):
            dfs, rt = small_cluster(executor)
            cfg = InversionConfig(nb=4, m0=2, schedule=schedule)
            try:
                MatrixInverter(cfg, runtime=rt).invert(a)
                manifests[schedule] = sorted(dfs.list_files("/Root/_commit"))
            finally:
                rt.shutdown()
        assert manifests["barrier"] == manifests["dataflow"]

    def test_dataflow_requires_output_commit(self):
        with pytest.raises(ValueError, match="output_commit"):
            InversionConfig(nb=4, m0=2, schedule="dataflow", output_commit=False)

    def test_runtime_config_schedule_is_fallback(self, rng):
        a = random_invertible(rng, 8)
        dfs = DFS(num_datanodes=3, replication=2, seed=0)
        rt = MapReduceRuntime(
            dfs=dfs,
            config=RuntimeConfig(
                num_workers=2, executor="serial", schedule="dataflow"
            ),
        )
        try:
            result = MatrixInverter(
                InversionConfig(nb=2, m0=2), runtime=rt
            ).invert(a)
        finally:
            rt.shutdown()
        assert result.scheduler_report is not None

    def test_achieved_schedule_matches_predicted_critical_path(self, rng):
        """Every dynamic edge the scheduler observed is a static DAG edge,
        and the launch order is a topological order of the analyzer's DAG —
        the runtime schedule realizes exactly the structure the barrier-slack
        report predicted, with dataflow's sync-point count."""
        a = random_invertible(rng, 16)
        cfg = InversionConfig(nb=4, m0=2, schedule="dataflow")
        dfs, rt = small_cluster()
        try:
            result = MatrixInverter(cfg, runtime=rt).invert(a)
        finally:
            rt.shutdown()
        model = build_model(16, InversionConfig(nb=4, m0=2))
        dag = build_block_dag(model)
        report = result.scheduler_report

        step_unit = {
            s.name: s.job if s.job is not None else s.name
            for s in model.steps
        }
        launched_at = {name: i for i, name in enumerate(report.launch_order)}

        # Every dynamic (observed) release edge crosses between units in a
        # direction the static DAG predicts: the releasing producer's unit
        # launched before the released unit.
        dynamic = report.dynamic_edges(dag)
        assert dynamic, "a chain pipeline must have publish-released units"
        for producer_step, released_unit in dynamic:
            pu = step_unit[producer_step]
            assert launched_at[pu] < launched_at[released_unit], (
                pu, released_unit,
            )

        # Strong check: the launch order is a topological order of the
        # static block DAG — no unit launches before a unit it depends on.
        for edge in dag.edges():
            su, du = step_unit[edge.src], step_unit[edge.dst]
            if su == du or su not in launched_at or du not in launched_at:
                continue
            assert launched_at[su] < launched_at[du], (su, du)

        # The analyzer's sync-point claim holds for the achieved schedule:
        # the scheduler ran all stages with zero global barriers.
        slack = barrier_slack_data(model, dag)
        units_run = len(report.launch_order) + len(report.skipped)
        # write-input and collect-output run outside the scheduler; jobs
        # collapse their map+reduce stages into one unit.
        expected_units = len(
            {
                step_unit[s.name]
                for s in model.steps
                if s.name not in ("write-input", "collect-output")
            }
        )
        assert units_run == expected_units
        assert slack["sync_points"]["dataflow"] == slack["stages"]

    def _crash_between_sibling_subtrees(self, rng, schedule):
        """Crash the driver at the first write into the second subtree, then
        resume; returns the matrix, the resumed result, and the names of the
        jobs the resumed run launched."""
        a = random_invertible(rng, 8)
        dfs, rt = small_cluster("threads")
        cfg = InversionConfig(nb=2, m0=2, schedule=schedule)

        def hook(op, path):
            if op == "create" and "/Root/OUT/A1" in path:
                dfs.fault_hooks.remove(hook)
                raise DriverCrashError(f"injected crash at {op} {path}")

        dfs.fault_hooks.append(hook)
        try:
            with pytest.raises(DriverCrashError):
                MatrixInverter(cfg, runtime=rt).invert(a)
            jobs_at_crash = len(rt.history)
            result = MatrixInverter(cfg, runtime=rt).invert(a, resume=True)
            resumed_jobs = [job.name for job in rt.history[jobs_at_crash:]]
        finally:
            rt.shutdown()
        assert result.residual(a) < 1e-9
        return a, result, resumed_jobs

    def test_crash_between_sibling_subtrees_resumes(self, rng):
        _, result, resumed_jobs = self._crash_between_sibling_subtrees(
            rng, "dataflow"
        )
        # The first subtree's committed work was skipped, not re-run.
        assert "lu:/Root/A1" in result.scheduler_report.skipped
        assert "lu:/Root/A1" not in resumed_jobs
        assert "master-lu:/Root/OUT/A1" in result.scheduler_report.launch_order

    def test_crash_between_sibling_subtrees_resumes_barrier(self, rng):
        _, result, resumed_jobs = self._crash_between_sibling_subtrees(
            rng, "barrier"
        )
        # Same per-unit resume rule in plan order: the first subtree's job
        # is not re-run, the second subtree's leaf is.
        assert "lu:/Root/A1" not in resumed_jobs
        assert "lu:/Root/OUT" in resumed_jobs
        assert "master-lu:/Root/OUT/A1" in [
            step_name(s) for s in result.record.steps
        ]

    def test_lu_matches_barrier_exactly(self, rng, monkeypatch):
        import repro.inversion.driver as driver

        schedulers = []

        class RecordingScheduler(DataflowScheduler):
            def run(self):
                schedulers.append(self)
                return super().run()

        monkeypatch.setattr(driver, "DataflowScheduler", RecordingScheduler)
        a = random_invertible(rng, 16)
        factors = {}
        for schedule in ("barrier", "dataflow"):
            dfs, rt = small_cluster()
            cfg = InversionConfig(nb=4, m0=2, schedule=schedule)
            try:
                factors[schedule] = MatrixInverter(cfg, runtime=rt).lu(a)
            finally:
                rt.shutdown()
        barrier, dataflow = factors["barrier"], factors["dataflow"]
        np.testing.assert_array_equal(barrier.lower, dataflow.lower)
        np.testing.assert_array_equal(barrier.upper, dataflow.upper)
        np.testing.assert_array_equal(barrier.perm, dataflow.perm)
        names = [step_name(s) for s in barrier.record.steps]
        assert names == [step_name(s) for s in dataflow.record.steps]
        assert "invert-final" not in names
        # Only the dataflow run went through the scheduler.
        assert len(schedulers) == 1

    def test_invert_path_matches_barrier_exactly(self, rng):
        a = random_invertible(rng, 16)
        results, manifests = {}, {}
        for schedule in ("barrier", "dataflow"):
            dfs, rt = small_cluster()
            formats.write_matrix(dfs, "/warehouse/a.bin", a)
            cfg = InversionConfig(nb=4, m0=2, schedule=schedule)
            try:
                results[schedule] = MatrixInverter(cfg, runtime=rt).invert_path(
                    "/warehouse/a.bin"
                )
                manifests[schedule] = sorted(dfs.list_files("/Root/_commit"))
            finally:
                rt.shutdown()
        np.testing.assert_array_equal(
            results["barrier"].inverse, results["dataflow"].inverse
        )
        assert manifests["barrier"] == manifests["dataflow"]
        assert any("link-input" in path for path in manifests["barrier"])
        assert results["dataflow"].scheduler_report is not None

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_backends_run_dataflow(self, rng, executor):
        a = random_invertible(rng, 16)
        dfs, rt = small_cluster(executor)
        cfg = InversionConfig(nb=4, m0=2, schedule="dataflow")
        try:
            result = MatrixInverter(cfg, runtime=rt).invert(a)
        finally:
            rt.shutdown()
        assert result.residual(a) < 1e-9
        assert result.scheduler_report.launch_order
