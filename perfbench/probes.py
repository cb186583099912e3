"""Per-layer attribution of one inversion's wall time, measured from outside
the program.

:meth:`Probes.install` replaces the public entry points of each ``repro``
module with a wrapper that records an enter and a leave event on its thread.
It patches every binding site: the defining module, every ``repro`` module
that imported the function by name (``repro.inversion.driver.lu_decompose``,
``repro.inversion.invert_job.invert_lower_columns``, ...), and the class for
methods.  :meth:`Probes.attribute` then sweeps one inversion's events in time
order.  Each instant goes to the innermost probed call of every thread that
is inside one, shared equally when several threads are, and to
``unattributed`` when none is.  So a probe's self time is its span minus the
part its child spans cover, and on a single thread the self times plus
``unattributed`` add up to the inversion's wall time.

Only the driver process is seen.  With the process backend, work done in the
worker processes shows as the wait inside ``ProcessPoolBackend.run_all`` and
as ``mapreduce.task_s``.  With the serial backend the mappers and reducers
run inside ``SerialExecutor.run_all``, so the Python of their bodies (the
job code of ``repro.inversion``) is part of ``mapreduce.backend_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)
SERIAL = ("kernel-bound", "paper-io")
COMMIT_ON = ("kernel-bound", "process-dataflow")
LAYERS = ("linalg", "dfs", "mapreduce", "analysis", "inversion")


def _lu_flops(a, *args, **kwargs) -> float:
    return 2.0 * np.shape(a)[0] ** 3 / 3.0


def _solve_flops(l, b, *args, **kwargs) -> float:
    shape = np.shape(b)
    return float(np.shape(l)[0] ** 2 * (shape[1] if len(shape) > 1 else 1))


def _columns_flops(l, columns, *args, **kwargs) -> float:
    return float(np.shape(l)[0] ** 2 * len(columns))


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname`` with ``qualname`` either a
    function or ``Class.method``."""

    spec: str
    #: Workloads on which the driver process must call it at least once.
    active: tuple[str, ...]
    #: Floating-point operations of one call, from its arguments' shapes.
    flops: Callable[..., float] | None = None
    #: Called as ``after(probes, result)`` when a call returns.
    after: Callable[["Probes", object], None] | None = None


@dataclass(frozen=True)
class Probe:
    """One per-layer time metric (``<metric>_s``, the summed self time of its
    targets) and, when ``calls`` is set, its call count."""

    metric: str
    targets: tuple[Target, ...]
    calls: str | None = None

    @property
    def layer(self) -> str:
        return self.metric.split(".")[0]


def _shm_export(probes: "Probes", manifest) -> None:
    """Bytes copied into the segments this ``ShmExporter.sync`` created."""
    probes.shm_exported.append(
        sum(
            f.length
            for f in manifest.files.values()
            if f.segment not in probes.shm_segments
        )
    )
    probes.shm_segments.update(manifest.segment_names())


def _targets(
    module: str, names: str, active, flops=None, after=None
) -> tuple[Target, ...]:
    return tuple(
        Target(f"{module}:{name}", tuple(active), flops, after)
        for name in names.split()
    )


PROBES = (
    Probe(
        "linalg.lu",
        _targets("repro.linalg.lu", "lu_decompose", ALL, _lu_flops),
        calls="linalg.lu_calls",
    ),
    Probe(
        "linalg.triangular",
        _targets(
            "repro.linalg.triangular",
            "forward_substitute blocked_forward_substitute",
            SERIAL,
            _solve_flops,
        )
        + _targets(
            "repro.linalg.triangular", "back_substitute blocked_back_substitute",
            (), _solve_flops,
        )
        + _targets(
            "repro.linalg.triangular",
            "invert_lower_columns invert_upper_rows",
            SERIAL,
            _columns_flops,
        ),
        calls="linalg.triangular_calls",
    ),
    Probe(
        "dfs.namenode",
        _targets(
            "repro.dfs.namenode",
            "NameNode.create_file NameNode.get_file NameNode.exists "
            "NameNode.delete",
            ALL,
        )
        + _targets("repro.dfs.namenode", "NameNode.publish", COMMIT_ON)
        + _targets(
            "repro.dfs.namenode", "NameNode.walk_files", ("process-dataflow",)
        )
        # Public, but not called by the pipeline today.
        + _targets(
            "repro.dfs.namenode",
            "NameNode.seal NameNode.mkdirs NameNode.is_dir NameNode.is_file "
            "NameNode.list_dir NameNode.rename NameNode.pending_files",
            (),
        ),
        calls="dfs.namenode_ops",
    ),
    Probe(
        "dfs.block_read",
        _targets("repro.dfs.blocks", "BlockStore.read_block", ALL),
        calls="dfs.block_reads",
    ),
    Probe(
        "dfs.block_write",
        _targets("repro.dfs.blocks", "BlockStore.write_block", ALL),
    ),
    Probe(
        "dfs.codec",
        _targets(
            "repro.dfs.formats", "encode_matrix decode_matrix read_rows", ALL
        ),
    ),
    Probe(
        "dfs.commit",
        _targets(
            "repro.dfs.commit", "CommitScope.publish CommitLog.record", COMMIT_ON
        )
        + _targets("repro.dfs.filesystem", "DFS.publish", COMMIT_ON),
    ),
    Probe(
        "dfs.shm_sync",
        _targets(
            "repro.dfs.shm", "ShmExporter.sync", ("process-dataflow",),
            after=_shm_export,
        ),
    ),
    Probe(
        "mapreduce.job",
        _targets("repro.mapreduce.master", "JobTracker.run_job", ALL),
        calls="mapreduce.jobs",
    ),
    Probe(
        "mapreduce.backend",
        _targets("repro.mapreduce.backends", "SerialExecutor.run_all", SERIAL)
        + _targets("repro.mapreduce.backends", "ThreadPoolBackend.run_all", ())
        + _targets(
            "repro.mapreduce.backends",
            "ProcessPoolBackend.run_all",
            ("process-dataflow",),
        ),
        calls="mapreduce.waves",
    ),
    Probe(
        "mapreduce.shuffle",
        _targets(
            "repro.mapreduce.shuffle",
            "partition_pairs sort_and_group",
            SERIAL,
        )
        + _targets("repro.mapreduce.shuffle", "merge_map_outputs", ALL),
    ),
    Probe(
        "analysis.preflight",
        _targets("repro.analysis", "preflight_check", ALL)
        + _targets("repro.analysis.purity", "analyze_job", ALL),
        calls="analysis.preflight_calls",
    ),
    Probe(
        "inversion.master_phase",
        _targets("repro.mapreduce.pipeline", "Pipeline.master_phase", ALL)
        + _targets(
            "repro.mapreduce.pipeline", "Pipeline.execute_phase",
            ("process-dataflow",),
        ),
        calls="inversion.master_phases",
    ),
)

#: Which end-to-end metric each group of per-layer metrics should move, and
#: on which workload — written down before any optimization is measured.
SHOULD_MOVE = (
    ("linalg.*", "invert_s_p50, inversions_per_s",
     "kernel-bound (little on paper-io)"),
    ("dfs.namenode/block/codec, dfs.bytes_*", "invert_s_p50",
     "paper-io (less on kernel-bound)"),
    ("dfs.cache_hit_ratio, dfs.commit_s, dfs.files_published", "invert_s_p50",
     "kernel-bound, process-dataflow; no change on paper-io (cache, commit off)"),
    ("dfs.shm_sync_s, dfs.shm_exported_bytes", "inversions_per_s, invert_s_tail",
     "process-dataflow only"),
    ("mapreduce.*", "inversions_per_s, invert_s_tail, cpu_s_per_invert",
     "process-dataflow (serial workloads bypass backend and scheduler)"),
    ("analysis.*", "invert_s_p50", "paper-io (17 jobs); negligible on kernel-bound"),
    ("inversion.*", "invert_s_p50", "kernel-bound (nb=256 leaves on the master)"),
    ("unattributed_s, trace.overhead_frac", "-", "all"),
)


def _resolve(spec: str) -> tuple[object, str, object]:
    """``(owner, attribute, raw object)`` of a target's defining site."""
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = vars(owner)[name]
    return owner, attr, vars(owner)[attr]


@dataclass
class Attribution:
    """One traced inversion, split by probe."""

    wall_s: float
    self_s: dict[str, float]
    unattributed_s: float
    calls: Counter
    kernel_flops: float
    shm_exported_bytes: int
    #: Events outside the inversion's window or left open at its end.
    stray_events: int = 0
    open_spans: int = 0


class Probes:
    """Installs the wrappers and turns their events into an attribution."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self.targets = [t for p in probes for t in p.targets]
        #: target index -> probe index
        self.probe_of = [i for i, p in enumerate(probes) for _ in p.targets]
        #: ``(perf_counter_ns, thread id, target index or -1 for a leave)``
        self.events: list[tuple[int, int, int]] = []
        self._flops: list[float] = []
        #: Bytes each ``ShmExporter.sync`` exported, and the segments seen.
        self.shm_exported: list[int] = []
        self.shm_segments: set[str] = set()
        self._kernel_depth = threading.local()
        self._sites: list[tuple[object, str, object, object]] = []
        self._installed = False
        # A worker forked while the wrappers are in place runs unwrapped.
        os.register_at_fork(after_in_child=self.uninstall)

    def resolve(self) -> None:
        """Find every binding site of every target.  Call after one
        inversion, so that lazily imported modules are loaded."""
        functions: dict[int, tuple[object, object]] = {}
        self._sites = []
        for index, target in enumerate(self.targets):
            owner, attr, raw = _resolve(target.spec)
            wrapper = self._wrap(index, target, raw)
            self._sites.append((owner, attr, raw, wrapper))
            if not isinstance(owner, type):
                functions[id(raw)] = (raw, wrapper)
        # Modules that imported a target function by name hold their own
        # binding of it.
        seen = {(id(owner), attr) for owner, attr, *_ in self._sites}
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in functions and (id(module), attr) not in seen:
                    self._sites.append((module, attr, *functions[id(value)]))

    @property
    def binding_sites(self) -> int:
        return len(self._sites)

    def _wrap(self, index: int, target: Target, func):
        events, found = self.events, self._flops
        perf, ident = time.perf_counter_ns, threading.get_ident
        flops, depth, after = target.flops, self._kernel_depth, target.after

        def wrapper(*args, **kwargs):
            if flops is not None:
                # A kernel called by another (blocked -> row solver) adds
                # no flops of its own.
                outer = getattr(depth, "n", 0)
                if not outer:
                    found.append(flops(*args, **kwargs))
                depth.n = outer + 1
            events.append((perf(), ident(), index))
            try:
                result = func(*args, **kwargs)
            finally:
                events.append((perf(), ident(), -1))
                if flops is not None:
                    depth.n = outer
            if after is not None:
                after(self, result)
            return result

        return functools.wraps(func)(wrapper)

    def install(self) -> None:
        self.events.clear()
        self._flops.clear()
        self.shm_exported.clear()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, raw, _ in self._sites:
            setattr(owner, attr, raw)
        self._installed = False

    def attribute(self, start_ns: int, end_ns: int) -> Attribution:
        """Split ``[start_ns, end_ns]`` across the probes by the sweep the
        module docstring describes."""
        events = sorted(self.events, key=lambda e: e[0])  # stable per thread
        self_ns = [0.0] * len(self.probes)
        unattributed = 0.0
        stacks: dict[int, list[int]] = {}
        stray = 0
        prev = start_ns
        for t, tid, index in events + [(end_ns, 0, None)]:
            if not start_ns <= t <= end_ns:
                stray += 1
                t = min(max(t, start_ns), end_ns)
            if t > prev:
                tops = [s[-1] for s in stacks.values() if s]
                for p in tops:
                    self_ns[p] += (t - prev) / len(tops)
                if not tops:
                    unattributed += t - prev
            prev = t
            if index is None:
                break
            if index >= 0:
                stacks.setdefault(tid, []).append(self.probe_of[index])
            elif stacks.get(tid):
                stacks[tid].pop()
            else:  # a leave whose enter was before install
                stray += 1
        return Attribution(
            wall_s=(end_ns - start_ns) / 1e9,
            self_s={p.metric: ns / 1e9 for p, ns in zip(self.probes, self_ns)},
            unattributed_s=unattributed / 1e9,
            calls=Counter(i for _, _, i in events if i >= 0),
            kernel_flops=sum(self._flops),
            shm_exported_bytes=sum(self.shm_exported),
            stray_events=stray,
            open_spans=sum(len(s) for s in stacks.values()),
        )


def layer_metrics(probes: Probes, runs, untraced: list[float]) -> dict:
    """Per-inversion means over the traced inversions ``runs`` (pairs of
    :class:`Attribution` and ``InversionResult``); ``untraced`` are the
    wall times of the untraced inversions run between them."""
    k = len(runs)
    m: dict[str, float] = {}
    for index, probe in enumerate(probes.probes):
        m[f"{probe.metric}_s"] = sum(att.self_s[probe.metric] for att, _ in runs) / k
        if probe.calls:
            targets = [i for i, p in enumerate(probes.probe_of) if p == index]
            m[probe.calls] = sum(att.calls[i] for att, _ in runs for i in targets) / k
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            m[f"{p.metric}_s"] for p in probes.probes if p.layer == layer
        )
    kernel_s = m["linalg.lu_s"] + m["linalg.triangular_s"]
    flops = sum(att.kernel_flops for att, _ in runs) / k
    m["linalg.gflops"] = flops / kernel_s / 1e9 if kernel_s else 0.0
    io = [r.io for _, r in runs]
    lookups = sum(x.cache_hits + x.cache_misses for x in io)
    m["dfs.bytes_read"] = sum(x.bytes_read for x in io) / k
    m["dfs.bytes_written"] = sum(x.bytes_written for x in io) / k
    m["dfs.cache_hit_ratio"] = (
        sum(x.cache_hits for x in io) / lookups if lookups else 0.0
    )
    m["dfs.cache_lookups"] = lookups / k  # the ratio's base
    m["dfs.files_published"] = sum(x.files_published for x in io) / k
    m["dfs.shm_exported_bytes"] = sum(att.shm_exported_bytes for att, _ in runs) / k
    jobs = [j for _, r in runs for j in r.record.job_results]
    launched = sum(j.attempts_launched for j in jobs)
    m["mapreduce.task_s"] = (
        sum(t.wall_seconds for _, r in runs for t in r.record.all_traces()) / k
    )
    m["mapreduce.attempts"] = launched / k
    m["mapreduce.useful_attempt_ratio"] = (
        (launched - sum(j.attempts_failed for j in jobs)) / launched
        if launched else 0.0
    )
    m["mapreduce.backoff_s"] = sum(j.backoff_seconds for j in jobs) / k
    m["mapreduce.sched_wait_s"] = sum(
        sum(r.scheduler_report.waits.values())
        for _, r in runs
        if r.scheduler_report is not None
    ) / k
    m["inversion.flops"] = sum(r.total_flops() for _, r in runs) / k
    m["trace.invert_s"] = sum(att.wall_s for att, _ in runs) / k
    m["unattributed_s"] = sum(att.unattributed_s for att, _ in runs) / k
    m["trace.overhead_frac"] = (
        statistics.median(att.wall_s for att, _ in runs)
        / statistics.median(untraced)
        - 1.0
    )
    return m


def self_check(probes: Probes, runs, workload: str) -> list[str]:
    """Every target marked active on ``workload`` was called, and every
    traced inversion's self times plus ``unattributed`` equal its wall time
    with no event outside it and no span left open."""
    problems = []
    for index, target in enumerate(probes.targets):
        if workload in target.active and not any(
            att.calls[index] for att, _ in runs
        ):
            problems.append(f"{target.spec} recorded no call on {workload}")
    for n, (att, _) in enumerate(runs, 1):
        total = sum(att.self_s.values()) + att.unattributed_s
        if abs(total - att.wall_s) > 1e-6 * max(att.wall_s, 1.0):
            problems.append(
                f"traced inversion {n}: layers + unattributed = {total:.6f}s "
                f"!= wall {att.wall_s:.6f}s"
            )
        if att.stray_events or att.open_spans:
            problems.append(
                f"traced inversion {n}: {att.stray_events} events outside the "
                f"inversion, {att.open_spans} spans left open"
            )
    return problems
