"""The benchmark's workloads: one matrix order and one pipeline configuration
each, chosen so that each stresses a different set of layers.

Every workload inverts ``repro.workloads.generators.random_dense(n, seed)``
(the paper's input, Section 7.1) with ``MatrixInverter.invert`` in a closed
loop with one client.  No workload uses more than two worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    #: Keyword arguments of ``repro.InversionConfig``.
    config: dict = field(default_factory=dict)
    #: ``MatrixInverter.invert`` launches this many MapReduce jobs (2^d + 1).
    jobs: int = 0
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernel-bound",
            n=1024,
            config=dict(nb=256, m0=4, executor="serial", schedule="barrier"),
            jobs=5,
            why=(
                "n=1024 nb=256 serial, library defaults: numerical kernels "
                "dominate, so a BLAS-3 kernel change shows and DFS or "
                "transport changes should read no change"
            ),
        ),
        Workload(
            name="paper-io",
            n=512,
            config=dict(
                nb=32,
                m0=8,
                executor="serial",
                schedule="barrier",
                block_cache_bytes=0,
                output_commit=False,
            ),
            jobs=17,
            why=(
                "n=512 nb=32 m0=8 serial as the experiments harness runs it "
                "(cache and commit off): deep recursion, namenode, checksum "
                "and codec work dominate"
            ),
        ),
        Workload(
            name="process-dataflow",
            n=1024,
            config=dict(
                nb=128,
                m0=4,
                executor="processes",
                num_workers=2,
                schedule="dataflow",
            ),
            jobs=9,
            why=(
                "n=1024 nb=128, 2 forked workers, dataflow scheduler: the only "
                "workload through the process backend, shm transport, "
                "two-phase commit and block-publish launches"
            ),
        ),
    )
}
