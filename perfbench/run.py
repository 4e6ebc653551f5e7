"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_date13 --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs one unit of the workload untraced and once traced
(the difference is the tracing overhead), then the per-layer probes, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also writes an attributed capture (and, when traced, a Chrome trace) to
``perfbench/captures/``, which git ignores.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAPTURES = ROOT / "perfbench" / "captures"
WORK = ROOT / "perfbench" / ".work"

for path in (str(SRC), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.stats import (highest_percentile, peak_rss_mb,  # noqa: E402
                             percentile)

from perfbench.workloads import GATED, WORKLOADS  # noqa: E402

#: Each workload's own name for its role metrics, kept in every capture so
#: a reader can map ``cold_s`` back to e.g. ``table1_s``.
ALIASES = {
    "table1_date13": {"reference_s": "table1_memory_replay_s",
                      "cold_s": "table1_s", "warm_s": "table1_replay_s"},
    "grade_date13": {"reference_s": "grade_serial_s",
                     "cold_s": "grade_pool_cold_s", "warm_s": "grade_pool_s"},
    "olfu_full_tiny": {"reference_s": "olfu_random_s",
                       "cold_s": "olfu_full_s", "warm_s": "olfu_full_warm_s"},
    "service_mix": {"reference_s": "service_direct_s",
                    "cold_s": "service_idle_first_s",
                    "warm_s": "service_idle_repeat_s"},
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes (the self-tests use this)")
    parser.add_argument("--no-capture", action="store_true",
                        help="do not write a capture file")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# attribution
# ---------------------------------------------------------------------- #
def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources: identifies the code under test
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def attribution(seed: int, facts: Dict[str, Any]) -> Dict[str, Any]:
    from repro.runtime import WorkerPool
    from repro.simulation.kernels import kernel_info

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    pool = WorkerPool(1)  # workers start lazily: this spawns nothing
    start_method = pool.start_method
    pool.close()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_auto": kernel_info()["kernel"],
        "pool_start_method": facts.get("pool_start_method", start_method),
        "seeds": {"seed": seed, "olfu_sample_seed": seed,
                  "service_mix_seed": seed, "grade_order_seed": seed},
        "platform": platform.platform(),
        "calibration_loop_s": calibration_s(),
    }


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: tracks how fast the machine runs
    right now, so drift between captures can be told from a regression."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def run_one(args: argparse.Namespace, import_s: float) -> Dict[str, Any]:
    from perfbench.probes import run_probes, service_layer_metrics
    from perfbench.spans import Tracer
    from perfbench.workloads import FULL, SMOKE, Context, settle

    scale = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload]
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(scale=scale, seed=args.seed, work=work)
    result: Dict[str, Any] = {}
    try:
        setups: List[float] = []
        state = None
        for _ in range(min(scale.setups, workload.setups or scale.setups)):
            if state is not None:
                workload.teardown(ctx, state)
            # Each set-up starts from the same heap: the previous one's
            # objects are gone before the clock starts.
            state = None
            start = settle()
            state = workload.setup(ctx)
            setups.append(time.perf_counter() - start)
        values: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        try:
            if args.trace:
                start = time.perf_counter()
                workload.once(ctx, state)
                untraced = time.perf_counter() - start
                ctx.tracer = Tracer(enabled=True)
                start = time.perf_counter()
                with ctx.tracer.span(f"workload.{workload.name}", "bench"):
                    workload.once(ctx, state)
                traced = time.perf_counter() - start
                served = workload.name == "service_mix"
                values.update(run_probes(ctx, service=not served))
                if served:
                    # The traced loop above already served a fixed-length
                    # job mix: derive the service metrics from its jobs.
                    from repro.service import ServiceClient
                    stats = ServiceClient(port=state["harness"].port,
                                          client_id="probe").stats()
                    service_layer_metrics(ctx, state, stats, values)
                for layer, seconds in ctx.tracer.self_times().items():
                    values[f"{layer}.self_s"] = seconds
                values["trace.overhead_s"] = traced - untraced
                values["trace.spans"] = len(ctx.tracer.spans)
                result["trace_untraced_s"] = untraced
                result["trace_traced_s"] = traced
            else:
                ops, wall = workload.measure(ctx, state, args.seconds)
                for role in ("reference", "cold", "warm"):
                    if ctx.samples.count(role):
                        values[f"{role}_s"] = ctx.samples.median(role)
                        counts[f"{role}_s"] = ctx.samples.count(role)
                result["throughput"] = {"operations": ops, "seconds": wall,
                                        "per_s": ops / wall if wall else 0.0}
        finally:
            workload.teardown(ctx, state)
        values["setup_s"] = import_s + statistics.median(setups)
        counts["setup_s"] = len(setups)
        # The first round's high-water mark: every store-backed Session
        # keeps its write-behind thread and store alive, so each later
        # round leaves a few MB behind and the end-of-run figure would
        # depend on how many rounds fit in the run.
        values["peak_rss_mb"] = ctx.facts.get("peak_rss_first_round_mb",
                                              peak_rss_mb())
        ctx.facts["peak_rss_end_mb"] = peak_rss_mb()
        latencies = ctx.samples.values.get("latency", [])
        if latencies:
            tail = highest_percentile(len(latencies))
            result["latency"] = {
                "samples": len(latencies),
                "p50_ms": percentile(latencies, 50) * 1e3,
                "tail_pct": tail,
                "tail_ms": (percentile(latencies, tail) * 1e3
                            if tail else None)}
        result.update(values=values, counts=counts, ctx=ctx,
                      setups=setups, import_s=import_s)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def render(args: argparse.Namespace, result: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's result object: every metric of the run's kind."""
    ctx = result["ctx"]
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics: Dict[str, Dict[str, Any]] = {}
    missing = []
    for metric in wanted:
        if metric.name in result["values"]:
            metrics[metric.name] = {"value": result["values"][metric.name],
                                    "unit": metric.unit}
        else:
            missing.append(metric.name)
    for name in missing:
        ctx.tally.fail("metric", f"{name} has no successful sample")
    return {"correct": ctx.tally.failed == 0 and not missing,
            "attempted": ctx.tally.attempted, "failed": ctx.tally.failed,
            "metrics": metrics}


def write_capture(args: argparse.Namespace, result: Dict[str, Any],
                  line: Dict[str, Any]) -> Path:
    ctx = result["ctx"]
    CAPTURES.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = (CAPTURES / f"{stamp}-{args.workload}-seed{args.seed}"
            f"-trace{args.trace}-{os.getpid()}")
    aliases = ALIASES[args.workload]
    capture = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "attribution": attribution(args.seed, ctx.facts),
        "result": line,
        "samples": result["counts"],
        "sample_values": ctx.samples.values,
        "named_figures": {aliases[k]: v for k, v in result["values"].items()
                          if k in aliases},
        "setup_samples_s": result["setups"], "import_s": result["import_s"],
        "failed_frac": ctx.tally.failed_frac,
        "errors": ctx.tally.errors,
        "facts": ctx.facts,
    }
    for key in ("latency", "throughput", "trace_untraced_s",
                "trace_traced_s"):
        if key in result:
            capture[key] = result[key]
    if args.trace:
        trace_path = base.with_name(base.name + ".trace.json")
        ctx.tracer.write_chrome(trace_path)
        capture["chrome_trace"] = trace_path.name
    path = base.with_name(base.name + ".json")
    path.write_text(json.dumps(capture, indent=2, sort_keys=True,
                               default=str) + "\n", encoding="utf-8")
    return path


def print_summary(args: argparse.Namespace, result: Dict[str, Any],
                  line: Dict[str, Any]) -> None:
    ctx = result["ctx"]
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in line["metrics"].items():
        count = result["counts"].get(name)
        alias = f"  ({aliases[name]})" if name in aliases else ""
        samples = f"  n={count}" if count is not None else ""
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}"
              f"{samples}{alias}")
    if "latency" in result:
        lat = result["latency"]
        tail = (f", p{lat['tail_pct']} {lat['tail_ms']:.1f} ms"
                if lat["tail_pct"] else ", no tail percentile with 10 "
                                        "samples beyond it")
        print(f"  job latency: n={lat['samples']}, p50 "
              f"{lat['p50_ms']:.1f} ms{tail}")
    print(f"  operations: {ctx.tally.attempted} attempted, "
          f"{ctx.tally.failed} failed (failed_frac "
          f"{ctx.tally.failed_frac:.4f})")
    for error in ctx.tally.errors:
        print(f"  FAILED {error}")


# ---------------------------------------------------------------------- #
# process hygiene
# ---------------------------------------------------------------------- #
#: ``prctl`` option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux),
    so :func:`stop_children` can wait for every process the run started,
    not only its direct children."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def child_pids() -> List[int]:
    """PIDs whose parent is this process, read from ``/proc``."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:  # pragma: no cover - non-Linux
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    In order: the package's shared worker pools, any live multiprocessing
    child, the multiprocessing resource tracker (started by the first
    shared-memory segment; left alone it outlives the run by a moment and
    stays unreaped), then whatever else is still a child, adopted orphans
    included: SIGTERM, SIGKILL after ``timeout``, and reaped either way.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    try:
        from repro.runtime import shutdown_pools
        shutdown_pools()
    except Exception:  # noqa: BLE001 - best effort on the way out
        pass
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=2.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closing the tracker's pipe makes it unlink what is still registered
    # and exit; ``_stop`` then waits for it.
    resource_tracker._resource_tracker._stop()

    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        for pid in pids:
            while time.monotonic() < deadline or sig == signal.SIGKILL:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if done:
                    break
                time.sleep(0.01)
        if time.monotonic() >= deadline:
            sig = signal.SIGKILL


# ---------------------------------------------------------------------- #
# every workload, one subprocess each
# ---------------------------------------------------------------------- #
def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in GATED:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.no_capture:
            command.append("--no-capture")
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT), timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file of the run inside the checkout.
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)
    adopt_orphans()
    try:
        return run_workload(args)
    finally:
        stop_children()


def run_workload(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sbst.grading  # noqa: F401
    import_s = time.perf_counter() - start

    result = run_one(args, import_s)
    line = render(args, result)
    print_summary(args, result, line)
    if not args.no_capture:
        path = write_capture(args, result, line)
        print(f"  capture: {path.relative_to(ROOT)}")
    sys.stdout.flush()
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
