"""Layered benchmark of the collective_schedules package in this checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py and BENCHMARK.json): exact-dp,
heuristic-electorate, audit-corpus, cli-solve.  Each run imports the
package from this checkout's ``src/`` and refuses to run if it resolves
anywhere else.  A run:

1. starts fresh setup processes (one untimed, then five timed) and takes
   the median time from process start to "ready for the first operation"
   as ``setup_s``;
2. sets up in this process and runs one untimed warm-up operation;
3. runs operations back to back for ``--seconds`` (closed loop, one
   client), timing the calibration kernel between them (calibration.py);
4. with ``--trace 1``, runs a fixed number of further operations with
   every public layer function traced (see tracing.py);
5. checks every result (untimed), also byte for byte against the
   reference captured at a known-good commit when ``--seed`` is the
   default.

It prints details line by line and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without tracing, the per-layer metrics with it.  Latency and
throughput appear twice in the details: as measured (``_s``) and rescaled
to the reference machine speed (``_ref_s``); the JSON carries the
rescaled ones, which stay steady while the host's speed wanders.  The exit code is
0 when every result checks, 1 when one does not, 2 when the checkout
cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "collective_schedules"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 0
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {"latency_p50_ref_s": "ref_s", "instances_per_ref_s": "1/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}


class CannotRun(Exception):
    """The benchmark cannot run: no package under test in this checkout, or a bad argument."""


def import_package() -> tuple[float, float]:
    """Import numpy and then the package from ``src/``; return both import times."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise CannotRun(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy  # noqa: F401

    numpy_done = perf_counter()
    import collective_schedules

    package_done = perf_counter()
    resolved = Path(collective_schedules.__file__).resolve()
    if not resolved.is_relative_to(SRC.resolve()):
        raise CannotRun(f"{PACKAGE} resolves to {resolved}, outside {SRC}")
    return numpy_done - start, package_done - start


def environment() -> dict:
    import numpy

    import collective_schedules

    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "module": str(Path(collective_schedules.__file__).resolve()),
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def make_workload(name: str, tiny: bool):
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise CannotRun(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return WORKLOADS[name](tiny=tiny)


def probe_setup(name: str, seed: int, tiny: bool, workdir: Path) -> tuple[float, dict]:
    """Seconds from starting a fresh setup process until it is ready to time."""
    workdir.mkdir()
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--size", "tiny" if tiny else "full", "--setup-probe", str(workdir)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe for {name} exited with {proc.returncode}")
    return ready, json.loads(line)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    ranked = sorted(latencies)
    kept = len(ranked) - TAIL_BEYOND
    if kept < 1:
        return None
    return 100.0 * kept / len(ranked), ranked[kept - 1]


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def run_ops(workload, state, indices, tracer=None):
    """Run operations back to back, sampling the calibration kernel around each.

    Returns (latencies, slowdowns, outputs, elapsed): ``slowdowns[k]`` is
    the mean of the machine's slowdowns measured just before and just
    after operation k.
    """
    latencies, slowdowns, outputs = [], [], []
    start = perf_counter()
    meter = calibration.Meter(workload.calibration)
    before = meter.window()
    for i in indices:
        if tracer is not None:
            tracer.op = i
        began = perf_counter()
        try:
            result, error = workload.run_op(state, i, tracer), None
        except Exception as err:  # counted as a failed operation
            result, error = None, f"raised {type(err).__name__}: {err}"
        latencies.append(perf_counter() - began)
        after = meter.window(latencies[-1])
        slowdowns.append((before + after) / 2)
        before = after
        outputs.append((i, result, error))
    return latencies, slowdowns, outputs, perf_counter() - start


def throughput(workload, latencies, slowdowns, outputs) -> tuple[float, float]:
    """Instances completed per second of operation time: raw, and at the reference speed."""
    done = sum(1 for _, _, error in outputs if error is None) * workload.instances_per_op
    return done / sum(latencies), done / sum(at_reference(latencies, slowdowns))


def at_reference(latencies, slowdowns) -> list[float]:
    return [s / slow for s, slow in zip(latencies, slowdowns)]


def timed_indices(start: float, seconds: float):
    """0, 1, 2, ... until ``seconds`` have passed since ``start`` (at least one)."""
    i = 0
    while True:
        yield i
        i += 1
        if perf_counter() - start >= seconds:
            return


def verify(workload, state, outputs, reference) -> list[tuple[int, list[str]]]:
    """Problems of every operation that failed; checks each distinct output once."""
    first: dict[int, str] = {}
    verdict: dict[int, list[str]] = {}
    failures = []
    for i, result, error in outputs:
        if error is not None:
            failures.append((i, [error]))
            continue
        key = i % workload.period
        try:
            text = workload.canonical(result)
        except Exception as err:
            failures.append((i, [f"output unreadable: {type(err).__name__}: {err}"]))
            continue
        if key not in first:
            first[key] = text
            try:
                problems = workload.check(state, i, result)
            except Exception as err:
                problems = [f"check raised {type(err).__name__}: {err}"]
            if reference is not None and text != reference[key]:
                problems.append("output differs from the reference captured at a known-good commit")
            verdict[key] = problems
        elif text != first[key]:
            failures.append((i, ["output differs from an earlier run of the same input"]))
            continue
        if verdict[key]:
            failures.append((i, verdict[key]))
    return failures


def load_reference(name: str) -> list[str]:
    doc = json.loads((HERE / "reference" / f"{name}.json").read_text())
    if doc["seed"] != DEFAULT_SEED:
        raise CannotRun(f"reference for {name} was captured at seed {doc['seed']}")
    return doc["outputs"]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, say=print) -> dict:
    """One benchmark run; ``say`` receives the detail lines.  Returns the result object."""
    import_package()
    from tracing import PER_LAYER_UNITS, Tracer

    workload = make_workload(name, tiny)
    say("env " + json.dumps(environment()))
    say("workload " + json.dumps({"name": name, "seed": seed, "seconds": seconds, "trace": trace,
                                  "loop": "closed, one client", **workload.params()}))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        probe_setup(name, seed, tiny, workdir / "probe-warm")  # compiles .pyc files, untimed
        probes = [probe_setup(name, seed, tiny, workdir / f"probe-{k}") for k in range(SETUP_PROBES)]
        setup_s = statistics.median(ready for ready, _ in probes)
        probe_numpy_s = statistics.median(p["import_numpy_s"] for _, p in probes)
        probe_import_s = statistics.median(p["import_s"] for _, p in probes)
        say(f"setup_s {setup_s:.4f} s: median of {SETUP_PROBES} fresh processes; "
            f"package import {probe_import_s:.4f} s of which numpy {probe_numpy_s:.4f} s")

        (workdir / "main").mkdir()
        state = workload.setup(seed, workdir / "main")
        _, _, warm, _ = run_ops(workload, state, [0])
        start = perf_counter()
        latencies, slowdowns, timed, elapsed = run_ops(workload, state, timed_indices(start, seconds))
        rss = peak_rss_mb(with_children=name == "cli-solve")
        outputs = warm + timed

        if trace:
            tracer = Tracer()
            with tracer:
                traced_latencies, traced_slowdowns, traced, _ = run_ops(
                    workload, state, range(workload.trace_ops), tracer
                )
            outputs += traced
            spans_file = WORK / f"trace-{name}-seed{seed}.json"
            tracer.write(spans_file)

        reference = load_reference(name) if seed == DEFAULT_SEED and not tiny else None
        failures = verify(workload, state, outputs, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = {i for i, _ in failures}
    failed_timed = sum(1 for i, _, error in timed if error is not None or i in failed_ops)
    attempted, failed = len(outputs), len(failures)
    ref = at_reference(latencies, slowdowns)
    instances_per_s, instances_per_ref_s = throughput(workload, latencies, slowdowns, timed)
    latency_p50, latency_p50_ref = statistics.median(latencies), statistics.median(ref)
    say(f"timed: {len(latencies)} operations in {elapsed:.3f} s; median slowdown against the reference "
        f"speed {statistics.median(slowdowns):.3f} ({workload.calibration} kernel)")
    say(f"latency_p50_s {latency_p50:.6f} s raw, latency_p50_ref_s {latency_p50_ref:.6f} ref_s")
    for label, values in (("s", latencies), ("ref_s", ref)):
        tail_at = tail(values)
        if tail_at is None:
            say(f"latency_tail_{label}: run too short, {len(values)} operations; needs at least {TAIL_BEYOND + 1}")
        else:
            say(f"latency_tail_{label} {tail_at[1]:.6f} at p{tail_at[0]:.1f} ({len(values)} samples, {TAIL_BEYOND} beyond)")
    say(f"instances_per_s {instances_per_s:.4f} raw, instances_per_ref_s {instances_per_ref_s:.4f}")
    say(f"peak_rss_mb {rss:.1f}" + (" (own peak plus largest child peak)" if name == "cli-solve" else ""))
    say(f"failed_ops_frac {failed / attempted:.4f} ({failed} of {attempted} operations, {failed_timed} of them timed)")
    for i, problems in failures[:5]:
        say(f"  op {i}: " + "; ".join(problems[:3]))

    if trace:
        layer = tracer.layer_metrics(workload.trace_ops)
        layer.setdefault("cli.import_numpy_s", probe_numpy_s)
        layer.setdefault("cli.import_s", probe_import_s)
        traced_ips, traced_ref_ips = throughput(workload, traced_latencies, traced_slowdowns, traced)
        # the untraced side of the overhead: the timed operations on the same inputs
        same = [k for k, (i, _, _) in enumerate(timed) if i < workload.trace_ops]
        base_ips, base_ref_ips = throughput(
            workload, [latencies[k] for k in same], [slowdowns[k] for k in same], [timed[k] for k in same]
        )
        layer["op.traced_s"] = statistics.fmean(traced_latencies)
        layer["calibration.slowdown"] = statistics.median(traced_slowdowns)
        layer["trace.untraced_instances_per_ref_s"] = base_ref_ips
        layer["trace.traced_instances_per_ref_s"] = traced_ref_ips
        layer["trace.overhead_instances_per_ref_s"] = traced_ref_ips - base_ref_ips
        say(f"trace: {workload.trace_ops} traced operations, {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
        errors = {name: count for name, count in tracer.self_times()[2].items() if count}
        say(f"trace: calls that raised: {json.dumps(errors) if errors else 'none'}")
        say(f"tracing overhead, traced minus untraced on the same inputs: instances_per_s {traced_ips - base_ips:+.4f} "
            f"({traced_ips:.4f} - {base_ips:.4f}), instances_per_ref_s {traced_ref_ips - base_ref_ips:+.4f}")
        for metric, unit in PER_LAYER_UNITS.items():
            say(f"  {metric} {layer[metric]:.6g} {unit}")
        metrics = {metric: {"value": layer[metric], "unit": unit} for metric, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"latency_p50_ref_s": latency_p50_ref, "instances_per_ref_s": instances_per_ref_s,
                  "setup_s": setup_s, "peak_rss_mb": rss}
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def setup_probe(name: str, seed: int, tiny: bool, workdir: Path) -> None:
    """Body of a fresh setup process: import, set up, report ready."""
    numpy_s, package_s = import_package()
    make_workload(name, tiny).setup(seed, workdir)
    print(json.dumps({"import_numpy_s": numpy_s, "import_s": package_s}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny inputs, for smoke tests")
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    tiny = args.size == "tiny"
    try:
        if args.setup_probe is not None:
            setup_probe(args.workload, args.seed, tiny, args.setup_probe)
            return 0
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    except CannotRun as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
