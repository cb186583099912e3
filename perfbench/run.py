"""The repository benchmark: ``MatrixInverter.invert`` in a closed loop with
one client, on one workload of ``perfbench/workloads.py``.

    python3 perfbench/run.py --workload kernel-bound --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; ``--workload all`` runs every workload in
turn.  The loop starts the next inversion only
when the previous one has returned, and gates every inversion on
correctness: the paper's ``max|I - A A^-1| < 1e-5`` bound,
``num_jobs == 2^d + 1``, and an inverse bit-identical to the warm-up's.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it are the human-readable report.  Exits 1
when any check fails, 2 when the program cannot be found or imported.

``--trace 0`` splits the ``--seconds`` across ``SESSIONS`` fresh processes.
Each one is a user's whole session: import, construct the inverter, one
warm-up inversion (together ``setup_s``), then the timed loop.  The samples
of all sessions are pooled, which averages out how lucky one process is.
After each session, ``numpy.linalg.inv`` is timed on the same matrix in a
process that never imports ``repro``.

``--trace 1`` runs in this process: untraced and traced inversions
alternate, the traced ones with the wrappers of ``perfbench/probes.py``
installed, and the self-check of that module must pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fresh processes a ``--trace 0`` run is split across.
SESSIONS = 5
#: Least seconds of ``numpy.linalg.inv`` timing after each session.
NUMPY_SECONDS = 0.5
SHM_DIR = Path("/dev/shm")


class BenchError(Exception):
    """The benchmark cannot run here (program missing or not importable)."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def find_src() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    return src


def import_repro():
    src = find_src()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise BenchError(f"cannot import repro: {exc}") from exc
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return repro


def set_up(workload, seed: int):
    """Import, construct the inverter (runtime, worker pool) and run one
    warm-up inversion, which must pass the gate; returns ``(inverter,
    matrix, warm-up result, seconds)`` with the matrix generation left out
    of the seconds."""
    start = time.perf_counter()
    repro = import_repro()
    from repro.workloads.generators import random_dense

    inverter = repro.MatrixInverter(repro.InversionConfig(**workload.config))
    gen_start = time.perf_counter()
    a = random_dense(workload.n, seed)
    gen_s = time.perf_counter() - gen_start
    warm = inverter.invert(a)
    seconds = time.perf_counter() - start - gen_s
    cause = gate(workload, a, warm, None)
    if cause is not None:
        inverter.close()
        raise RuntimeError(f"warm-up inversion failed the gate: {cause}")
    return inverter, a, warm, seconds


def gate(workload, a, result, reference) -> str | None:
    """Why ``result`` fails the correctness gate, or ``None``."""
    import numpy as np
    from repro.linalg.verify import identity_residual, passes_paper_bound

    expected_jobs = 2 ** result.plan.depth + 1
    if result.num_jobs != expected_jobs or result.num_jobs != workload.jobs:
        return (
            f"num_jobs={result.num_jobs}, plan says 2^d+1={expected_jobs}, "
            f"workload says {workload.jobs}"
        )
    if reference is not None and not np.array_equal(result.inverse, reference):
        diff = float(np.max(np.abs(result.inverse - reference)))
        return f"inverse differs from the warm-up inverse (max |diff| {diff:.3e})"
    if not passes_paper_bound(a, result.inverse):
        return f"residual {identity_residual(a, result.inverse):.3e} >= 1e-5"
    return None


def children_stats() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of the live child processes (the
    worker pool), from ``/proc``."""
    import multiprocessing

    tick = os.sysconf("SC_CLK_TCK")
    cpu = rss = 0.0
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:  # exited between listing and reading
            continue
        fields = stat.rsplit(")", 1)[1].split()
        cpu += (int(fields[11]) + int(fields[12])) / tick
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                rss += int(line.split()[1]) / 1024
    return cpu, rss


def shm_segments(prefix: str = "") -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(prefix)}
    except OSError:
        return set()


class Hygiene:
    """Counts ``Exception ignored`` events and the program's shared-memory
    segments left after shutdown.  Reported, never gated.

    The ``sys.unraisablehook`` is installed before the worker pool forks, so
    the workers inherit it; every event, in the driver or a worker, writes
    one byte to a pipe they share, and the driver counts the bytes."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.first: str | None = None
        self._events = 0
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        self._default = sys.unraisablehook
        self._before = shm_segments()
        sys.unraisablehook = self._hook

    def _hook(self, info) -> None:
        os.write(self._write, b"!")
        if self.first is None and os.getpid() == self.pid:
            self.first = f"{type(info.exc_value).__name__}: {info.exc_value}"
        self._default(info)

    def report(self) -> dict:
        """Call after the runtime has shut down."""
        gc.collect()
        try:
            while chunk := os.read(self._read, 4096):
                self._events += len(chunk)
        except BlockingIOError:
            pass
        from repro.dfs.shm import SEGMENT_PREFIX

        return {
            "unraisable": self._events,
            "first": self.first,
            "leaked_segments": len(shm_segments(SEGMENT_PREFIX) - self._before),
        }


class Loop:
    """The closed loop: times each inversion, gates it, keeps the counts."""

    def __init__(self, workload, inverter, a, warm) -> None:
        self.workload, self.inverter, self.a = workload, inverter, a
        self.reference = warm.inverse
        self.times: list[float] = []
        self.cpu = 0.0
        self.attempted = self.failed = 0
        self.causes: list[str] = []

    def once(self, before=None, after=None):
        """One timed inversion; returns ``(result, start_ns, end_ns)`` or
        ``None`` when it raised or failed the gate."""
        self.attempted += 1
        cpu0 = time.process_time()
        if before:
            before()
        start = time.perf_counter_ns()
        try:
            result = self.inverter.invert(self.a)
        except Exception as exc:  # counted in failed_frac with its cause
            result, cause = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if after:
            after()
        self.cpu += time.process_time() - cpu0
        if result is not None:
            cause = gate(self.workload, self.a, result, self.reference)
        if cause is not None:
            self.failed += 1
            self.causes.append(f"inversion {self.attempted}: {cause}")
            return None
        self.times.append((end - start) / 1e9)
        return result, start, end


def session(args, workload) -> dict:
    """One fresh process's share of a ``--trace 0`` run."""
    hygiene = Hygiene()
    inverter, a, warm, setup_s = set_up(workload, args.seed)
    from repro.linalg.verify import identity_residual

    try:
        loop = Loop(workload, inverter, a, warm)
        child_cpu0, _ = children_stats()
        deadline = time.perf_counter() + args.seconds
        while loop.attempted == 0 or time.perf_counter() < deadline:
            loop.once()
        child_cpu1, child_rss = children_stats()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + child_rss
    finally:
        inverter.close()
    return {
        "setup_s": setup_s,
        "times": loop.times,
        "cpu_s": loop.cpu + child_cpu1 - child_cpu0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "causes": loop.causes,
        "peak_rss_mb": peak_rss,
        # Every timed inverse is bit-identical to the warm-up's (gated), so
        # the largest residual of the session is the warm-up's.
        "residual": identity_residual(a, warm.inverse),
        "inverse_sha256": hashlib.sha256(warm.inverse.tobytes()).hexdigest(),
        "hygiene": hygiene.report(),
    }


def child_json(argv: list[str], timeout: float, stdin: bytes | None = None) -> dict:
    """Run the script ``argv`` in a fresh interpreter and parse the JSON of
    its last output line.  The child gets its own process group, so a hung
    one is killed together with any worker pool it forked."""
    with subprocess.Popen(
        [sys.executable, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(err.decode(errors="replace"))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median when there are too few samples for one above it."""
    xs = sorted(samples)
    rank = len(xs) - 10  # 1-based nearest rank
    if rank < (len(xs) + 1) // 2:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / len(xs)


def end_to_end(args, workload) -> tuple[dict, int, int, dict, list[str]]:
    import_repro()  # only for the matrix handed to the numpy baseline
    from repro.workloads.generators import random_dense

    a = random_dense(workload.n, args.seed)
    runs, numpy_times = [], []
    share = args.seconds / SESSIONS
    for _ in range(SESSIONS):
        runs.append(child_json([
            str(HERE / "run.py"), "--session", "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", repr(share),
        ], timeout=share + 60))
        numpy_times += child_json(
            [str(HERE / "numpy_baseline.py"), str(workload.n), str(NUMPY_SECONDS)],
            timeout=60, stdin=a.tobytes(),
        )["samples"]
    times = [t for r in runs for t in r["times"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [c for r in runs for c in r["causes"]]
    if len({r["inverse_sha256"] for r in runs}) != 1:
        problems.append("sessions computed different inverses of the same matrix")
    if not times:
        raise RuntimeError("no inversion passed the gate")
    p50 = statistics.median(times)
    numpy_s = statistics.median(numpy_times)
    tail_s, tail_pct = tail(times)
    residual = max(r["residual"] for r in runs)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "invert_s_p50": p50,
        "invert_s_tail": tail_s,
        "inversions_per_s": len(times) / sum(times),
        "cpu_s_per_invert": sum(r["cpu_s"] for r in runs) / attempted,
        "slowdown_vs_numpy": p50 / numpy_s,
        "accuracy_digits": -math.log10(residual),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1.0 - failed / attempted,
    }
    hygiene = {
        "unraisable": sum(r["hygiene"]["unraisable"] for r in runs),
        "first": next((r["hygiene"]["first"] for r in runs if r["hygiene"]["first"]), None),
        "leaked_segments": sum(r["hygiene"]["leaked_segments"] for r in runs),
    }
    notes = {
        "sessions": SESSIONS,
        "samples": len(times),
        "invert_s_tail percentile": tail_pct,
        "setup_s samples": [round(r["setup_s"], 4) for r in runs],
        "numpy_inv_s": numpy_s,
        "numpy samples": len(numpy_times),
        "residual_max": residual,
        "failed_frac": failed / attempted,
        "invert_s samples": [round(t, 4) for t in times],
    }
    print("end-to-end  " + json.dumps(notes), flush=True)
    return metrics, attempted, failed, hygiene, problems


def traced(args, workload) -> tuple[dict, int, int, dict, list[str]]:
    hygiene = Hygiene()
    inverter, a, warm, _ = set_up(workload, args.seed)
    from probes import Probes, layer_metrics, self_check

    try:
        probes = Probes()
        probes.resolve()
        loop = Loop(workload, inverter, a, warm)
        untraced: list[float] = []
        runs = []  # (Attribution, InversionResult)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or (
            (not runs or not untraced) and loop.failed < 3
        ):
            if len(untraced) <= len(runs):
                if loop.once():
                    untraced.append(loop.times[-1])
            else:
                out = loop.once(before=probes.install, after=probes.uninstall)
                if out:
                    result, start, end = out
                    runs.append((probes.attribute(start, end), result))
    finally:
        inverter.close()
    report = hygiene.report()
    if not runs:
        raise RuntimeError("no traced inversion passed the gate")
    metrics = layer_metrics(probes, runs, untraced)
    metrics["dfs.shm_unraisable"] = report["unraisable"]
    metrics["dfs.shm_leaked_segments"] = report["leaked_segments"]
    print(
        f"traced      {len(runs)} traced + {len(untraced)} untraced inversions, "
        f"{probes.binding_sites} binding sites wrapped",
        flush=True,
    )
    problems = loop.causes + [
        f"SELF-CHECK: {p}" for p in self_check(probes, runs, workload.name)
    ]
    return metrics, loop.attempted, loop.failed, report, problems


def print_layer_table(metrics: dict) -> None:
    from probes import SHOULD_MOVE

    print(f"{'per-layer metric':34} {'per traced inversion':>20}")
    for name, value in metrics.items():
        print(f"{name:34} {value:20.6g}")
    print(f"\n{'metrics':56} {'should move':50} on")
    for group, moves, on in SHOULD_MOVE:
        print(f"{group:56} {moves:50} {on}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace)],
            ).returncode
            for name in WORKLOADS
        )
    workload = WORKLOADS[args.workload]
    try:
        spec = load_spec()
        find_src()
        if args.session:
            print(json.dumps(session(args, workload)))
            return 0
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, hygiene, problems = measure(args, workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from host import host_block

    print(f"workload    {workload.name}: n={workload.n} {workload.config}")
    print("host        " + json.dumps(host_block(ROOT, args.seed)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        print_layer_table(metrics)
    else:
        for m in wanted:
            print(f"{m['name']:20} {metrics[m['name']]:14.6g} {m['unit']}")
    print(
        f"hygiene     {hygiene['unraisable']} 'Exception ignored' events"
        + (f" (first in the driver: {hygiene['first']})" if hygiene["first"] else "")
        + f", {hygiene['leaked_segments']} shared-memory segments left after shutdown"
    )
    for problem in problems:
        print(f"FAILED      {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
