"""End-to-end driver: ``A -> A^-1`` through the MapReduce pipeline.

Implements the workflow of Section 5 / Figure 2:

1. the master writes the input matrix and the ``MapInput/A.<j>`` control
   files to the DFS;
2. one map-only job partitions the input (Algorithm 3);
3. the recursion of Algorithm 2 runs in the in-order step sequence the
   precomputed model lists (:func:`repro.analysis.model.build_model`) —
   leaves are LU-decomposed *on the master* (Algorithm 1), internal nodes
   run one MapReduce job each for ``L2'``/``U2``/Schur;
4. a final job inverts the triangular factors and multiplies them;
5. the master assembles ``A^-1`` from the reducers' block files, applying the
   pivot column permutation.

Steps 2–4 run as units grouped from that model, through one runner: in plan
order on the driving thread (the paper's barrier sequence) or under the
dataflow scheduler (:mod:`repro.mapreduce.scheduler`).

Everything the run did — job results, master phases, I/O, flops — is captured
in an :class:`InversionResult` so experiments can replay it on the simulated
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..dfs import formats
from ..dfs.commit import STAGING_ROOT, CommitLog, CommitScope
from ..dfs.filesystem import DFS
from ..dfs.fsck import FsckReport, fsck
from ..dfs.iostats import IOSnapshot
from ..linalg import verify
from ..linalg.lu import lu_decompose, lu_flop_count
from ..mapreduce import (
    DataflowScheduler,
    MapReduceRuntime,
    Pipeline,
    PipelineRecord,
    RuntimeConfig,
    UnitSpec,
)
from ..mapreduce.faults import FaultPolicy
from ..telemetry.api import resolve_tracer
from ..telemetry.spans import SpanKind
from .config import InversionConfig
from .factors import (
    combine_factors,
    read_lower,
    read_perm,
    read_upper,
    write_leaf_factors,
)
from .invert_job import invert_job, read_final_inverse
from .layout import Layout
from .lu_jobs import lu_job, partition_job
from .plan import InversionPlan, PlanNode

if TYPE_CHECKING:
    from ..analysis.model import PipelineModel


class MasterIO:
    """DFS adapter for master-side phases with byte accounting.

    Satisfies the same reader/writer protocol as a task context, so the
    recursive factor assembly and Region reads work unchanged on the master.
    """

    def __init__(self, dfs: DFS) -> None:
        self.dfs = dfs
        self.bytes_read = 0
        self.bytes_written = 0
        self._scope: CommitScope | None = None

    # -- two-phase commit scoping (driven by Pipeline.execute_phase) ---------

    def begin_phase(self, scope: CommitScope) -> None:
        """Route subsequent writes into the phase's staging scope."""
        self._scope = scope

    def end_phase(self) -> None:
        self._scope = None

    def take_io(self) -> tuple[int, int]:
        """Return and reset the accumulated (read, written) byte counts."""
        r, w = self.bytes_read, self.bytes_written
        self.bytes_read = 0
        self.bytes_written = 0
        return r, w

    def read_bytes(self, path: str) -> bytes:
        data = self.dfs.read_bytes(path)
        self.bytes_read += len(data)
        return data

    def write_bytes(self, path: str, data: bytes) -> None:
        if self._scope is not None:
            self._scope.stage_bytes(path, data)
        else:
            self.dfs.write_bytes(path, data)
        self.bytes_written += len(data)

    def read_matrix(self, path: str) -> np.ndarray:
        """Decoded-matrix read with the same cache semantics as
        :meth:`~repro.mapreduce.job.TaskContext.read_matrix`: logical bytes
        are accounted to the master either way, physical DFS traffic only on
        a miss."""
        cache = self.dfs.cache
        if cache is None:
            return formats.decode_matrix(self.read_bytes(path))
        m, nbytes = cache.read_through(self.dfs, path)
        self.dfs.stats.record_cache_request(nbytes)
        self.bytes_read += nbytes
        return m

    def read_rows(self, path: str, r1: int, r2: int) -> np.ndarray:
        m = formats.read_rows(self.dfs, path, r1, r2)
        self.bytes_read += m.nbytes
        return m

    def exists(self, path: str) -> bool:
        return self.dfs.exists(path)


@dataclass
class InversionResult:
    """Outcome of one pipeline run."""

    inverse: np.ndarray
    plan: InversionPlan
    layout: Layout
    record: PipelineRecord
    config: InversionConfig
    io: IOSnapshot = field(default_factory=IOSnapshot)
    #: Achieved schedule of a dataflow-mode run
    #: (:class:`~repro.mapreduce.scheduler.SchedulerReport`); ``None`` for
    #: barrier mode.
    scheduler_report: object | None = None

    @property
    def num_jobs(self) -> int:
        """MapReduce jobs launched (Table 3's "Number of Jobs")."""
        return self.record.num_jobs

    def residual(self, a: np.ndarray) -> float:
        """Section 7.2's ``max |I - A A^-1|``."""
        return verify.identity_residual(a, self.inverse)

    def total_flops(self) -> float:
        task_flops = sum(t.flops for t in self.record.all_traces())
        master_flops = sum(p.flops for p in self.record.master_phases)
        return task_flops + master_flops


@dataclass
class LUFactors:
    """Assembled distributed LU factorization: ``P A = L U``."""

    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    plan: InversionPlan
    record: PipelineRecord


class MatrixInverter:
    """Public API: invert (or LU-decompose) matrices on a MapReduce runtime.

    Parameters
    ----------
    config:
        Pipeline tunables (:class:`InversionConfig`).  Defaults match the
        paper's setup scaled down (nb=64, m0=4, all optimizations on).
    runtime:
        An existing :class:`MapReduceRuntime` to run on; when omitted a
        fresh runtime with its own DFS is created (and shut down by
        ``close``), sized and backed per ``config.num_workers`` /
        ``config.executor``.
    fault_policy:
        Optional fault injection (only used when the runtime is created here).
    """

    def __init__(
        self,
        config: InversionConfig | None = None,
        runtime: MapReduceRuntime | None = None,
        runtime_config: RuntimeConfig | None = None,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        self.config = config or InversionConfig()
        self._owns_runtime = runtime is None
        if runtime is None and runtime_config is None:
            # Derive the runtime from the inversion config: one worker slot
            # per compute node unless num_workers overrides it.
            runtime_config = RuntimeConfig(
                num_workers=self.config.num_workers or self.config.m0,
                executor=self.config.executor,
            )
        self.runtime = runtime or MapReduceRuntime(
            config=runtime_config, fault_policy=fault_policy
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._owns_runtime:
            self.runtime.shutdown()

    def __enter__(self) -> "MatrixInverter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ---------------------------------------------------------------

    def _model(self, n: int) -> PipelineModel:
        """The precomputed pipeline for order ``n``: the step list every entry
        point runs.  Statically validated by the :mod:`repro.analysis`
        pre-flight unless ``config.preflight`` is off (raises
        :class:`~repro.analysis.PreflightError` on defects)."""
        if self.config.preflight:
            from ..analysis import preflight_check

            model = preflight_check(n, self.config)
        else:
            from ..analysis.model import build_model

            model = build_model(n, self.config)
        model.plan.validate()
        return model

    def _job_validators(self):
        """Pre-run checks applied to every job the pipeline launches."""
        if not self.config.preflight:
            return []
        from ..analysis import PreflightError, analyze_job, has_errors

        def check_purity(conf) -> None:
            findings = analyze_job(conf)
            if has_errors(findings):
                raise PreflightError(findings)

        return [check_purity]

    def _commit_log(self) -> CommitLog | None:
        """The run's manifest log (``None`` with the protocol off)."""
        if not self.config.output_commit:
            return None
        return CommitLog(self.runtime.dfs, self.config.root)

    def _pipeline(self) -> Pipeline:
        return Pipeline(
            self.runtime,
            validators=self._job_validators(),
            retry_policy=self.config.retry,
            max_attempts=self.config.max_attempts,
            telemetry=self.config.telemetry,
            commit_log=self._commit_log(),
            output_commit=self.config.output_commit,
        )

    def _configure_cache(self) -> None:
        """Attach/detach the decoded-block cache per ``config.block_cache_bytes``.

        Detaching when 0 (rather than leaving a previously attached cache)
        guarantees runs configured for paper-faithful accounting — the
        Figure-7 / Table-1 harnesses — never serve a byte from memory.
        """
        dfs = self.runtime.dfs
        if self.config.block_cache_bytes:
            dfs.attach_cache(self.config.block_cache_bytes)
        else:
            dfs.detach_cache()

    def _prepare(
        self,
        n: int,
        ingest_name: str,
        ingest: Callable[[], bytes],
        *,
        resume: bool = False,
    ) -> tuple[PipelineModel, Pipeline, MasterIO]:
        """Model the run, then keep a resumable DFS state or start afresh.

        A fresh start clears the work directory and any staging debris, then
        runs the ingestion phase ``ingest_name`` (Section 5.1): the master
        writes the input file (``ingest()``'s bytes) and the
        ``MapInput/A.<j>`` control files.
        """
        self._configure_cache()
        cfg = self.config
        model = self._model(n)
        layout = model.layout
        dfs = self.runtime.dfs
        if resume and cfg.output_commit:
            # Roll back any debris the crashed run left — orphaned staging,
            # unsealed files, broken manifests — before trusting DFS state.
            self._resume_fsck(dfs)
        resuming = resume and dfs.exists(layout.input_path)
        if resuming and cfg.input_format == "binary":
            stored = formats.matrix_shape(dfs, layout.input_path)
            if stored != (n, n):
                raise ValueError(
                    f"cannot resume: stored input is {stored}, new input "
                    f"is {(n, n)}"
                )
        if not resuming:
            if dfs.exists(cfg.root):
                dfs.delete(cfg.root, recursive=True)
            # A from-scratch run must not inherit staging debris (or stale
            # manifests — those lived under root and are gone with it).
            dfs.discard_staging(STAGING_ROOT)
        master = MasterIO(dfs)
        pipeline = self._pipeline()
        if not resuming:

            def write_inputs() -> None:
                master.write_bytes(layout.input_path, ingest())
                for j in range(cfg.m0):
                    master.write_bytes(layout.map_input_path(j), str(j).encode())

            pipeline.master_phase(ingest_name, write_inputs, io=master)
        return model, pipeline, master

    def _resume_fsck(self, dfs: DFS) -> FsckReport:
        """Repairing consistency check run before any resume decision."""
        tracer = resolve_tracer(self.config.telemetry)
        if not tracer.enabled:
            return fsck(dfs, root=self.config.root, repair=True)
        with tracer.span("resume-fsck", SpanKind.DFS_REPAIR) as span:
            report = fsck(dfs, root=self.config.root, repair=True)
            span.set(
                issues=len(report.issues),
                files_checked=report.files_checked,
                manifests_checked=report.manifests_checked,
            )
            return report

    def _phase_body(
        self, layout: Layout, name: str, node: PlanNode
    ) -> tuple[Callable[[MasterIO], None], float]:
        """A master phase's work (``fn(master)``) and its declared flops."""
        cfg = self.config
        if name.startswith("combine:"):
            # Section 6.1 ablation: serial combine on the master.
            return (lambda master: combine_factors(layout, node, master, master)), 0.0
        nl = layout.of(node)

        def leaf_lu(master: MasterIO) -> None:
            if node is layout.plan.tree:
                # Single-leaf plan (n <= nb): no partition job ran, so the
                # master reads the input file directly.
                if cfg.input_format == "binary":
                    block = master.read_matrix(layout.input_path)
                else:
                    block = formats.decode_matrix_text(
                        master.read_bytes(layout.input_path).decode("utf-8")
                    )
            else:
                block = nl.matrix.read(master)
            lu = lu_decompose(block, pivot=cfg.pivot)
            write_leaf_factors(master, nl, lu, transpose_u=cfg.transpose_u)

        return leaf_lu, lu_flop_count(node.n)

    def _units(
        self,
        model: PipelineModel,
        pipeline: Pipeline,
        run_span,
        *,
        resume: bool,
        dataflow: bool,
        lu_only: bool,
    ) -> list[UnitSpec]:
        """The model's steps between ingestion and collection, as units in
        plan order.

        One unit per master phase and one per MapReduce job (its map and
        reduce steps together: intra-job dataflow is the JobTracker's
        business).  ``needs`` is the unit's reads minus its own writes.  On
        resume a unit is done when its ``job:``/``phase:`` manifest is
        committed or, with the commit protocol off, when every file it
        writes exists; ``invert-final`` always re-runs (its reducers'
        outputs feed ``collect-output``).
        """
        layout = model.layout
        dfs = self.runtime.dfs
        log = self._commit_log()
        tree = layout.plan.tree
        nodes = {node.dir: node for node in tree.leaves() + tree.internal_nodes()}
        skip = {"write-input", "collect-output"} | ({"invert-final"} if lu_only else set())
        groups: dict[str, list] = {}
        for step in model.steps:
            name = step.job or step.name
            if name not in skip:
                groups.setdefault(name, []).append(step)

        def attrs(wait: float) -> dict | None:
            if not dataflow:
                return None
            return {"schedule": "dataflow", "sched_wait_seconds": round(wait, 6)}

        def job_unit(conf) -> tuple:
            def run(wait: float):
                return pipeline.execute_job(
                    conf, parent_span=run_span, span_attrs=attrs(wait)
                )

            def commit(result) -> None:
                pipeline.commit_job(
                    conf.name, result, output_commit=conf.output_commit
                )

            return run, commit

        def phase_unit(name: str, body, flops: float) -> tuple:
            def run(wait: float):
                # Per-unit MasterIO: phase scoping and byte counters are
                # mutable per-phase state, unshareable across unit threads.
                master = MasterIO(dfs)
                _, phase, published = pipeline.execute_phase(
                    name,
                    lambda: body(master),
                    flops=flops,
                    io=master,
                    parent_span=run_span,
                    span_attrs=attrs(wait),
                )
                return phase, published

            def commit(payload) -> None:
                pipeline.commit_phase(name, *payload)

            return run, commit

        units: list[UnitSpec] = []
        for name, steps in groups.items():
            kind = "phase" if steps[0].job is None else "job"
            reads = set().union(*(s.reads for s in steps))
            writes = set().union(*(s.writes for s in steps))
            if not resume or name == "invert-final":
                done = False
            elif log is not None:
                done = log.committed(f"{kind}:{name}")
            else:
                done = all(dfs.exists(p) for p in writes)
            if kind == "phase":
                node = nodes[name.split(":", 1)[1]]
                run, commit = phase_unit(name, *self._phase_body(layout, name, node))
            elif name == "partition":
                run, commit = job_unit(partition_job(layout))
            elif name == "invert-final":
                run, commit = job_unit(invert_job(layout))
            else:
                run, commit = job_unit(lu_job(layout, nodes[name[len("lu:"):]]))
            units.append(
                UnitSpec(
                    name=name,
                    kind=kind,
                    needs=frozenset(reads - writes),
                    run=run,
                    commit=commit,
                    done=done,
                )
            )
        return units

    def _schedule_mode(self) -> str:
        """Resolved scheduling mode: config wins, runtime config is the
        fallback (``"barrier"`` unless someone opted in)."""
        return self.config.schedule or self.runtime.config.schedule

    def _run(
        self,
        span_name: str,
        n: int,
        ingest_name: str,
        ingest: Callable[[], bytes],
        finish: Callable[[Layout, Pipeline, MasterIO], Any],
        *,
        resume: bool = False,
        lu_only: bool = False,
        **span_attrs,
    ) -> tuple[Layout, PipelineRecord, Any, IOSnapshot, object | None]:
        """The one execution path of every entry point.

        Ingests the input, runs the model's units — in plan order on this
        thread (barrier mode), or under the
        :class:`~repro.mapreduce.scheduler.DataflowScheduler` — then calls
        ``finish(layout, pipeline, master)`` on the master.  Returns the
        layout, the pipeline record, ``finish``'s result, the run's DFS I/O,
        and the scheduler report (``None`` in barrier mode).
        """
        cfg = self.config
        dataflow = self._schedule_mode() == "dataflow"
        if dataflow and not cfg.output_commit:
            raise ValueError(
                "dataflow scheduling requires output_commit: step readiness "
                "is keyed on sealed (published) blocks"
            )
        dfs = self.runtime.dfs
        before = dfs.stats.snapshot()
        tracer = resolve_tracer(cfg.telemetry)
        report = None
        with tracer.span(span_name, SpanKind.RUN) as run_span:
            if tracer.enabled:
                if dataflow:
                    span_attrs["schedule"] = "dataflow"
                run_span.set(n=n, nb=cfg.nb, m0=cfg.m0, resume=resume, **span_attrs)
            model, pipeline, master = self._prepare(
                n, ingest_name, ingest, resume=resume
            )
            units = self._units(
                model,
                pipeline,
                run_span if tracer.enabled else None,
                resume=resume,
                dataflow=dataflow,
                lu_only=lu_only,
            )
            if dataflow:
                report = DataflowScheduler(
                    dfs=dfs, units=units, model=model, telemetry=cfg.telemetry
                ).run()
            else:
                for unit in units:
                    if not unit.done:
                        unit.commit(unit.run(0.0))
            out = finish(model.layout, pipeline, master)
        io = dfs.stats.snapshot() - before
        if tracer.enabled:
            tracer.metrics.absorb_iostats(io)
        return model.layout, pipeline.record, out, io, report

    def _invert(
        self, span_name: str, n: int, ingest_name: str, ingest, **kwargs
    ) -> InversionResult:
        layout, record, inverse, io, report = self._run(
            span_name, n, ingest_name, ingest, self._assemble_inverse, **kwargs
        )
        return InversionResult(
            inverse=inverse,
            plan=layout.plan,
            layout=layout,
            record=record,
            config=self.config,
            io=io,
            scheduler_report=report,
        )

    def _encoder(self, a: np.ndarray) -> Callable[[], bytes]:
        """``a`` validated as a square matrix, as an ingest callable."""
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")

        def encode() -> bytes:
            if self.config.input_format == "binary":
                return formats.encode_matrix(a)
            return formats.encode_matrix_text(a).encode("utf-8")

        return encode

    def _assemble_inverse(
        self, layout: Layout, pipeline: Pipeline, master: MasterIO
    ) -> np.ndarray:
        """Collect the final job's blocks into ``A^-1`` (column permutation
        by the pivot array S, Section 4.3)."""
        n = layout.plan.tree.n
        out = np.zeros((n, n))

        def collect() -> None:
            out[:] = read_final_inverse(layout, master)

        pipeline.master_phase("collect-output", collect, io=master)
        return out

    # -- public operations ---------------------------------------------------------

    def invert(self, a: np.ndarray, *, resume: bool = False) -> InversionResult:
        """Invert ``a`` through the full MapReduce pipeline.

        ``resume=True`` continues a previous run of the same matrix on this
        runtime's DFS (e.g. after a driver crash): completed steps are
        detected by their manifests (or, with ``output_commit`` off, their
        output files) and skipped.

        With ``schedule="dataflow"`` (on the inversion or runtime config)
        the same steps run under the block-availability scheduler
        (:mod:`repro.mapreduce.scheduler`) instead of the paper's barrier
        sequence; results and DFS end-state are identical, completion order
        is not.
        """
        a = np.asarray(a, dtype=np.float64)
        return self._invert(
            "invert", a.shape[0], "write-input", self._encoder(a), resume=resume
        )

    def distributed_residual(self, result: InversionResult) -> float:
        """Section 7.2's check as a MapReduce job: ``max |I - A A^-1|``
        computed from the DFS state of a completed run (the input file and
        the final job's block files must still be present on this runtime)."""
        from .verify_job import verify_job

        job = self.runtime.run_job(verify_job(result.layout))
        (_, value), = job.reduce_outputs[0]
        result.record.steps.append(job)
        return float(value)

    def invert_path(self, path: str) -> InversionResult:
        """Invert a matrix that already lives on this runtime's DFS (binary
        format) — the Section 1 deployment story where "the input matrix to
        be inverted would be generated by a MapReduce job and stored in
        HDFS".  No driver-side ingestion: the file is linked into the work
        directory and the pipeline reads it where it lies.
        """
        dfs = self.runtime.dfs
        rows, cols = formats.matrix_shape(dfs, path)
        if rows != cols:
            raise ValueError(f"matrix at {path} is {rows}x{cols}, not square")
        if self.config.input_format != "binary":
            raise ValueError("invert_path requires binary input_format")
        # Copy the matrix into the work directory (HDFS has no hardlinks; a
        # rename would destroy the caller's file).
        return self._invert(
            "invert-path", rows, "link-input", lambda: dfs.read_bytes(path),
            path=path,
        )

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` end-to-end on the cluster: invert ``A`` through
        the pipeline, then compute ``A^-1 B`` as a distributed block-wrap
        multiplication (Section 1's linear-system application, with the
        product also done where the data lives)."""
        from ..systemml import MatrixOps, read_matrix, save_matrix

        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        one_d = b.ndim == 1
        if one_d:
            b = b[:, None]
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"rhs has {b.shape[0]} rows, matrix is {a.shape[0]}")
        result = self.invert(a)
        ops = MatrixOps(self.runtime, m0=self.config.m0)
        h_inv = save_matrix(
            self.runtime.dfs, "/solve/Ainv", result.inverse, chunks=self.config.m0
        )
        h_b = save_matrix(self.runtime.dfs, "/solve/B", b, chunks=self.config.m0)
        h_x = ops.multiply(h_inv, h_b, "/solve/X")
        x = read_matrix(self.runtime.dfs, h_x)
        return x[:, 0] if one_d else x

    def lu(self, a: np.ndarray) -> LUFactors:
        """Run only the LU stage and assemble ``P A = L U``."""
        a = np.asarray(a, dtype=np.float64)

        def factors(layout: Layout, pipeline: Pipeline, master: MasterIO):
            tree = layout.plan.tree
            return (
                read_lower(layout, tree, master),
                read_upper(layout, tree, master),
                read_perm(layout, tree, master),
            )

        layout, record, (lower, upper, perm), _, _ = self._run(
            "lu", a.shape[0], "write-input", self._encoder(a), factors,
            lu_only=True,
        )
        return LUFactors(
            lower=lower, upper=upper, perm=perm, plan=layout.plan, record=record
        )


def invert(
    a: np.ndarray,
    config: InversionConfig | None = None,
    runtime: MapReduceRuntime | None = None,
) -> InversionResult:
    """One-call convenience: invert ``a`` on a fresh (or given) runtime."""
    inverter = MatrixInverter(config=config, runtime=runtime)
    try:
        return inverter.invert(a)
    finally:
        inverter.close()
