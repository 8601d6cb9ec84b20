"""Benchmark of the reproduction's user-facing workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload optimize-grid --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``optimize-grid``, ``protocol-mc``,
``fault-campaign`` and ``paper-full``.  ``optimize-grid`` and
``paper-full`` have fixed inputs; ``--seed`` changes the inputs of the
other two only.

With ``--trace 0`` the benchmark runs passes of the workload, each from
cold program caches, until the next pass would end after ``--seconds``
(at least :data:`MIN_PASSES`), checks every pass's outputs, and reports the
end-to-end metrics: ``setup_s`` (interpreter start until the inputs are
built, median of :data:`SETUP_PROBES` fresh interpreters), ``run_s``,
``units_per_s`` and ``cpu_s`` (medians over passes; CPU time includes
pool workers) and ``peak_rss_mb`` (peak resident memory of this process
plus that of its largest worker).

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of the traced pass (see ``tracing.py``) and the
tracing overhead; its spans go to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance.  Failed units count outputs that failed a check or
whose computation raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
# One BLAS thread per process: on this workload set, BLAS threads add
# run-to-run spread without speed (the parallelism measured is the
# campaign's worker processes).  Set before numpy loads; probes and
# pool workers inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 3
#: Passes every run makes however long they take, so that one slow stretch of a
#: shared machine cannot set a run's median alone.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe",
        action="store_true",
        help="set-up probe: build the inputs, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def reset_program_state() -> None:
    """Cold caches and zeroed counters, as every CLI invocation starts."""
    from repro.analytic.capacity import clear_capacity_caches
    from repro.simulation.batch import reset_batch_stage_timings
    from repro.simulation.vector import reset_vector_batch_stats

    clear_capacity_caches(reset_stats=True)
    reset_vector_batch_stats()
    reset_batch_stage_timings()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reap_workers() -> None:
    """Wait for pool workers a pass left behind (the orchestrator shuts
    its pool down without waiting), so their CPU time and memory are
    accounted for and no process outlives the pass."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join()


def timed_pass(workload, scratch: Path, tracer=None):
    reset_program_state()
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    if tracer is None:
        outputs = workload.run_pass(scratch)
    else:
        with tracer.span("pass", "bench"):
            outputs = workload.run_pass(scratch, tracer.span)
    seconds = time.perf_counter() - start
    reap_workers()
    return outputs, seconds, cpu_seconds() - cpu_before


def checked(workload, outputs):
    try:
        return workload.check(outputs)
    except Exception:
        return workload.units(), [traceback.format_exc()]


def measure_setup(name: str, seed: int) -> float:
    """Median wall time from launching a fresh interpreter until it has
    imported the program and built the workload's inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = probe.stdout.readline().strip()
        samples.append(time.perf_counter() - start)
        probe.stdout.close()
        if probe.wait() != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}, {line!r})")
    return statistics.median(samples)


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly (``unknown`` outside a
    git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seeded": workload.seeded,
        "unit": workload.unit,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, scratch: Path):
    passes, attempted, failed, messages = [], 0, 0, []
    budget_start = time.perf_counter()
    while True:
        attempted += workload.units()
        try:
            outputs, wall, cpu = timed_pass(workload, scratch)
        except Exception:
            reap_workers()
            failed += workload.units()
            messages.append(traceback.format_exc())
            break
        passes.append((wall, cpu))
        bad, notes = checked(workload, outputs)
        failed += bad
        messages += notes
        elapsed = time.perf_counter() - budget_start
        if len(passes) >= MIN_PASSES and elapsed + wall > seconds:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    extra_attempted, extra_failed, notes = workload.post_check()
    attempted += extra_attempted
    failed += extra_failed
    messages += notes
    metrics = {"setup_s": metric(measure_setup(workload.name, workload.seed), "s")}
    if passes:
        walls = [wall for wall, cpu in passes]
        metrics.update(
            run_s=metric(statistics.median(walls), "s"),
            units_per_s=metric(statistics.median(workload.units() / wall for wall in walls), "1/s"),
            cpu_s=metric(statistics.median(cpu for wall, cpu in passes), "s"),
            peak_rss_mb=metric((own + worker) / 1024.0, "MB"),
        )
    return attempted, failed, messages, metrics, [wall for wall, cpu in passes]


def per_layer(workload, scratch: Path, import_s: float):
    from tracing import Tracer, instrumented, layer_metrics, sample_counters

    attempted = 2 * workload.units()
    outputs, untraced_s, _ = timed_pass(workload, scratch)
    failed, messages = checked(workload, outputs)
    tracer = Tracer()
    with instrumented(tracer):
        outputs, traced_s, _ = timed_pass(workload, scratch, tracer)
        counters = sample_counters()
    bad, notes = checked(workload, outputs)
    metrics = layer_metrics(tracer, counters, workload.layer_extras(outputs))
    metrics.update(
        {
            "process.import_s": metric(import_s, "s"),
            "trace.run_s": metric(traced_s, "s"),
            "trace.untraced_run_s": metric(untraced_s, "s"),
            "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        }
    )
    STATE.mkdir(exist_ok=True)
    with open(STATE / f"spans-{workload.name}-{workload.seed}.jsonl", "w") as handle:
        for name, layer, start, end, parent, unit in tracer.spans:
            handle.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end, "parent": parent, "unit": unit}) + "\n")
    return attempted, failed + bad, messages + notes, metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.build()
    if args.probe:
        print("ready", flush=True)
        return 0

    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=STATE))
    try:
        if args.trace:
            attempted, failed, messages, metrics = per_layer(workload, scratch, import_s)
            passes = [metrics["trace.untraced_run_s"]["value"], metrics["trace.run_s"]["value"]]
        else:
            attempted, failed, messages, metrics, passes = end_to_end(workload, args.seconds, scratch)
    finally:
        reap_workers()
        shutil.rmtree(scratch, ignore_errors=True)
    for message in messages:
        print(message, file=sys.stderr)
    record = provenance(workload)
    record.update(pass_s=passes, failed_fraction=failed / attempted if attempted else 1.0)
    print(json.dumps({"provenance": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
