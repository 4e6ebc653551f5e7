"""The benchmark's own fast tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the root of
the repository.  The file name keeps it out of the package's own test
collection, so the benchmark never changes the package's test results.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import stats  # noqa: E402
from perfbench.metrics import END_TO_END, NAME, PER_LAYER, UNIT  # noqa: E402
from perfbench.spans import Span, Tracer  # noqa: E402
from perfbench.workloads import (GATED, SMOKE, WORKLOADS,  # noqa: E402
                                 Context, ServiceMix, service_requests)

RUN = ROOT / "perfbench" / "run.py"


# ---------------------------------------------------------------------- #
# metric definitions
# ---------------------------------------------------------------------- #
def test_metric_names_and_units_are_valid():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names)), "a metric name is used twice"
    for metric in END_TO_END + PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher"), metric.name
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25, metric.name
    for metric in PER_LAYER:
        assert metric.bound is None and metric.moves, metric.name
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert set(GATED) <= set(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


# ---------------------------------------------------------------------- #
# percentiles, sample counts, spread
# ---------------------------------------------------------------------- #
def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 90) == 5
    assert stats.percentile(list(range(101)), 90) == 90


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50
    assert stats.highest_percentile(40) == 75
    assert stats.highest_percentile(91) == 75
    assert stats.highest_percentile(92) == 90
    assert stats.highest_percentile(1000) == 99
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(20, 50) == 10
    assert stats.samples_beyond(0, 50) == 0


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    values = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
    q1, median, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / median


def test_spread_report_reads_untraced_captures(tmp_path, capsys):
    from perfbench.spread import main

    paths = []
    for seed, cold in ((1, 2.0), (2, 2.2), (3, 2.4), (4, 9.9)):
        capture = {"workload": "table1_date13", "trace": seed == 4,
                   "smoke": False, "attribution": {"seeds": {"seed": seed}},
                   "result": {"failed": 0, "metrics": {
                       "cold_s": {"value": cold, "unit": "s"}}}}
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(capture), encoding="utf-8")
        paths.append(str(path))
    assert main(paths) == 0
    out = capsys.readouterr().out
    assert "table1_date13: 3 runs, seeds [1, 2, 3]" in out
    assert f"spread {stats.spread([2.0, 2.2, 2.4]):6.3f}" in out


# ---------------------------------------------------------------------- #
# failure counting
# ---------------------------------------------------------------------- #
def test_tally_counts_failures_with_their_reasons():
    tally = stats.Tally()
    assert tally.check("a", True, "unused")
    assert not tally.check("b", False, "wrong table")
    tally.exception("c", ConnectionResetError("peer reset"))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == 2 / 3
    assert tally.errors == ["b: wrong table",
                            "c: ConnectionResetError: peer reset"]


def test_a_failed_output_check_drops_the_timing(tmp_path):
    workload = WORKLOADS["table1_date13"]
    ctx = Context(scale=SMOKE, seed=1, work=tmp_path)
    state = workload.setup(ctx)
    state["golden"] = "not Table I"
    assert workload.round(ctx, state) == 0
    # The cold analyze, the memory replay and each store replay fail.
    assert ctx.tally.failed == 2 + workload.store_replays
    assert not any(ctx.samples.count(role)
                   for role in ("cold", "reference", "warm"))


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Gone:
    """A harness stand-in whose service has already gone away."""

    def __init__(self) -> None:
        self.port = _closed_port()


def test_an_unreachable_service_counts_failed_jobs(tmp_path):
    ctx = Context(scale=SMOKE, seed=1, work=tmp_path)
    workload = ServiceMix()
    state = {"harness": _Gone(), "requests": service_requests(1, 4),
             "next": 0, "lock": __import__("threading").Lock(),
             "tables": {}, "repeats": [], "jobs": [], "rejections": 0}
    workload.run_clients(ctx, state, 30.0, limit=4)
    assert (ctx.tally.attempted, ctx.tally.failed) == (4, 4)
    assert all("ServiceUnavailable" in e for e in ctx.tally.errors)
    assert ctx.samples.count("warm") == 0


def test_service_requests_are_seeded_and_half_repeats():
    requests = service_requests(7, 200)
    assert requests == service_requests(7, 200)
    assert requests != service_requests(8, 200)
    seen = set()
    for variant, first in requests:
        assert first == (variant not in seen)
        seen.add(variant)
    repeats = sum(1 for _, first in requests if not first)
    assert 70 <= repeats <= 130


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_children_and_exports_chrome_events():
    tracer = Tracer()
    tracer.add(Span(1, "pipeline.run", "pipeline", 0.0, 10.0, None))
    tracer.add(Span(2, "pass.a", "pipeline", 1.0, 4.0, 1))
    tracer.add(Span(3, "compile", "netlist", 3.0, 6.0, 1))
    times = tracer.self_times()
    assert times["pipeline"] == pytest.approx(5.0 + 3.0)
    assert times["netlist"] == pytest.approx(3.0)
    events = tracer.chrome_events()
    assert [e["ph"] for e in events] == ["X"] * 3
    assert events[0]["dur"] == pytest.approx(10e6)
    assert events[1]["args"]["parent"] == 1


def test_spans_nest_and_a_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("outer", "soc"):
        with tracer.span("inner", "netlist"):
            time.sleep(0.001)
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    off = Tracer(enabled=False)
    with off.span("x", "soc"):
        pass
    assert off.spans == []


# ---------------------------------------------------------------------- #
# reduced-size runs of every workload
# ---------------------------------------------------------------------- #
def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", "0", "--smoke", "--no-capture")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "table1_date13", "--seed", "3", "--seconds",
                "0.1", "--trace", "1", "--smoke", "--no-capture")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"], proc.stdout
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("captures", ".work",
                                                  "__pycache__"))
    proc = _run("--workload", "table1_date13", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _session_processes(sid: int) -> list:
    """PIDs (zombies included) still in process session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
            found.append(int(entry.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
@pytest.mark.parametrize("workload,trace", [("grade_date13", "0"),
                                            ("table1_date13", "1")])
def test_run_leaves_no_process_behind(workload, trace):
    # The pool grade spawns workers and, through its shared-memory
    # planes, the multiprocessing resource tracker; the run must stop and
    # reap them all before it exits.
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", trace, "--smoke", "--no-capture"],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert _session_processes(proc.pid) == []
