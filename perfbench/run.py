"""Benchmark of tnomial: cold CLI sweeps, big exact coefficients and a warm
library session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --workload all --trace 1  # per-layer metrics

The load is one closed-loop client: one request in flight at a time.  For
``verify-cli`` and ``bigcoeff`` every request runs in a child forked from
this process, which imported tnomial but ran nothing, so each request
starts with empty row caches as a fresh ``tnomial`` call does.  The timer
brackets the call into tnomial only, and every time is scaled to a
reference machine speed (``calibrate``).  ``session`` runs all its batches
in one long-lived child whose caches are warmed by one untimed pass.

A run repeats its seeded request list in whole passes until ``--seconds``
have passed.  Outputs are checked in the child after the timer stops,
against exact references that do not use tnomial (``reference.py``); a
wrong value, an unexpected exit code or exception, or a request that
exceeds its time cap counts as failed.

With ``--trace 1`` passes alternate between traced and untraced.  Per-layer
metrics are medians over the traced passes, and the tracing overhead is
the difference of the median pass times.  Spans are written to
``.perfbench/spans-<workload>.jsonl.gz`` in the checkout; the file keeps
the last traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from reference import Reference, bits, check_coeff, check_reports, check_table  # noqa: E402
from tracer import Tracer, finish  # noqa: E402
from workloads import GENERATORS, WORKLOADS, Request  # noqa: E402

REQUEST_CAP_S = {"verify-cli": 15.0, "bigcoeff": 20.0, "session": 5.0}
"""Per-request time cap, about ten times the slowest request (a session batch
takes milliseconds)."""

RUN_LIMIT_S = 150.0
"""No request starts after this long, so a run ends within 180 s."""

SETUP_REPEATS = 11

CALIBRATION_REF_S = 0.0125
"""What ``calibrate()`` takes on the machine the baseline was measured on."""

try:  # glibc only; elsewhere children may reuse the parent's free heap
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _malloc_trim = None

IMPORT_PROBE = (
    "import resource, time; start = time.process_time(); import tnomial.cli; "
    "elapsed = time.process_time() - start; print(tnomial.cli.__file__); print(elapsed); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def load_package():
    """Import tnomial from this checkout's ``src``, and from nowhere else."""
    init = SRC / "tnomial" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tnomial
    import tnomial.cli

    if Path(tnomial.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported tnomial from {tnomial.__file__}, not {init}")
    return tnomial


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work and big-integer products takes.

    Other tenants of a shared machine change its speed by up to 1.7x within
    seconds.  Every timing is scaled by ``CALIBRATION_REF_S`` over the mean
    of ``calibrate()`` just before and just after it, which cut the spread
    of session pass times from 38% to 4% over 100 s.  tnomial's code does not run here, so its
    speed-ups and slow-downs show in full.
    """
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    power = 3**20_000
    for _ in range(20):
        total += (power * power) & 1
    return time.perf_counter() - start


def _scale(elapsed: float, calibration: float) -> float:
    return elapsed * CALIBRATION_REF_S / calibration


def measure_setup() -> tuple[float, float]:
    """Median processor time and peak memory (kB) of a fresh interpreter
    importing tnomial.cli.

    Processor time rather than wall time, because other tenants of a shared
    machine stretch the wall time of a 0.1 s import by tens of percent.
    One discarded probe first, so byte-code compilation is not measured.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, footprints = [], []
    for _ in range(SETUP_REPEATS + 1):
        calibration = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        where, elapsed, rss_kb = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: the probe imported tnomial from {where}")
        times.append(_scale(float(elapsed), calibration))
        footprints.append(int(rss_kb))
    return statistics.median(times[1:]), statistics.median(footprints[1:])


def _rss_kb() -> int:
    """Resident memory of this process now."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def _growth_kb(start_kb: int) -> int:
    """Peak resident memory since ``start_kb`` was taken, above it.

    A forked child starts with the parent's pages resident, and the parent's
    size depends on the benchmark's own history; the growth does not.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start_kb


# --- executing and checking one request (inside a child process) ----------


def _call(tnomial, request: Request):
    if request.kind == "cli":
        return tnomial.cli.main(list(request.argv))
    if request.kind == "route":
        params = tnomial.SeqParams(request.p, request.q)
        return tnomial.coefficients.coeff_route(params, request.n, request.k, request.route)
    if request.kind == "symbolic":
        return tnomial.coefficients.coeff_symbolic(request.n, request.k)
    raise ValueError(f"unknown request kind {request.kind!r}")


def _expected(request: Request) -> int:
    ref = Reference(request.p, request.q)
    if request.route == "inverse":
        return ref.inverse_entry(request.n, request.k)
    return ref.coefficient(request.n, request.k)


def _check(request: Request, result, text: str) -> tuple[str | None, int]:
    """Error message or None, and the exact bits of the checked result."""
    if request.kind == "cli":
        if result != 0:
            return f"exit code {result}", 0
        command = request.argv[0]
        if command in ("verify", "oracle"):
            return check_reports(text, request.fmt), 0
        if command == "table":
            return check_table(text, request.fmt, request.p, request.q, request.n)
        expected = _expected(request)
        return check_coeff(text, request.fmt, expected), bits(expected)
    if request.kind == "route":
        if result != _expected(request):
            return f"wrong value ({bits(result)} bits) at ({request.p}, {request.q})", 0
        return None, bits(result)
    for p, q in request.queries:
        value = sum(coeff * p**i * q**j for (i, j), coeff in result.terms.items())
        if value != Reference(p, q).coefficient(request.n, request.k):
            return f"polynomial evaluates wrongly at ({p}, {q})", 0
    return None, bits(result)


def _execute(tnomial, request: Request, index: int, tracer: Tracer | None, spans_path: Path | None) -> dict:
    calibration = calibrate()
    gc.collect()  # start from the same collector state whatever the parent did
    if tracer is not None:
        tracer.start_request(index)
    # Output goes to a file, as a CLI user's does; held in memory, a 20 MB
    # table made the peak flip between two allocator states.
    out, err = tempfile.TemporaryFile("w+", encoding="utf-8", dir=SPANS_DIR), io.StringIO()
    sys.stdout, sys.stderr = out, err
    start_kb = _rss_kb()
    start = time.perf_counter()
    try:
        result, error = _call(tnomial, request), None
    except (Exception, SystemExit) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    growth_kb = _growth_kb(start_kb)
    calibration = (calibration + calibrate()) / 2
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    with out:
        out.seek(0)
        text = out.read()
    layers = {}
    if tracer is not None:
        layers = tracer.totals()
        layers["cli.output_bytes"] = len(text)
        tracer.write_spans(str(spans_path))
    size = 0
    if error is None:
        try:
            error, size = _check(request, result, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error is not None and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return {
        "elapsed": elapsed,
        "scaled": _scale(elapsed, calibration),
        "error": error,
        "bits": size,
        "growth_kb": growth_kb,
        "layers": layers,
    }


# --- running requests in children --------------------------------------


def _in_child(work, cap: float) -> dict | list:
    """Run ``work()`` in a forked child and return its JSON-able result.

    The child is killed when it runs past ``cap`` seconds; that raises
    TimeoutError.  Any other death of the child raises RuntimeError.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    if _malloc_trim is not None:
        # Hand free heap pages back, so the child faults in every page it
        # uses, as a fresh process would; reused pages do not count as growth.
        _malloc_trim(0)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = json.dumps(work()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    deadline = time.monotonic() + cap
    chunks, timed_out = [], False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([pipe], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if timed_out:
        raise TimeoutError(f"killed after {cap:.1f} s")
    if status != 0:
        raise RuntimeError(f"child ended with wait status {status}")
    return json.loads(b"".join(chunks))


def _forked_passes(tnomial, workload: str, requests: list[Request], seconds: float, trace: bool, started: float) -> list[dict]:
    tracer = Tracer() if trace else None
    spans_path = SPANS_DIR / f"spans-{workload}.jsonl.gz"
    passes: list[dict] = []
    while len(passes) < (2 if trace else 1) or time.monotonic() - started < seconds:
        traced = trace and len(passes) % 2 == 0
        if traced:
            spans_path.unlink(missing_ok=True)
            tracer.install(tnomial)
        outcomes, layers = [], {}
        try:
            for index, request in enumerate(requests):
                left = RUN_LIMIT_S - (time.monotonic() - started)
                if left <= 0:
                    break
                cap = min(REQUEST_CAP_S[workload], left)
                try:
                    outcome = _in_child(lambda: _execute(tnomial, request, index, tracer if traced else None, spans_path), cap)
                except (TimeoutError, RuntimeError) as exc:
                    outcome = {"elapsed": cap, "scaled": cap, "error": str(exc), "bits": 0, "growth_kb": 0, "layers": {}}
                _add_to(layers, outcome.pop("layers"))
                outcome["slot"] = request.slot
                outcomes.append(outcome)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "outcomes": outcomes, "layers": layers})
        if time.monotonic() - started >= RUN_LIMIT_S:
            break
    return passes


def _run_batch(tnomial, request: Request) -> list:
    coefficients = tnomial.coefficients
    params = tnomial.SeqParams(request.p, request.q)
    answers = []
    for query in request.queries:
        kind = query[0]
        if kind == "point":
            answers.append(coefficients.coeff_recurrence(params, query[1], query[2]))
        elif kind == "row":
            answers.append([coefficients.coeff_recurrence(params, query[1], k) for k in range(query[1] + 1)])
        elif kind == "route":
            answers.append(coefficients.coeff_route(params, query[2], query[3], query[1]))
        elif kind == "multinomial":
            answers.append(coefficients.multinomial(params, query[1], query[2]))
        else:
            answers.append(coefficients.coeff_symbolic(query[1], query[2]).eval(request.p, request.q))
    return answers


def _expected_batch(request: Request) -> list:
    ref = Reference(request.p, request.q)
    expected = []
    for query in request.queries:
        kind = query[0]
        if kind in ("point", "symbolic"):
            expected.append(ref.coefficient(query[1], query[2]))
        elif kind == "row":
            expected.append(ref.row(query[1]))
        elif kind == "route":
            expected.append(ref.coefficient(query[2], query[3]))
        else:
            expected.append(ref.multinomial(query[1], query[2]))
    return expected


def _add_to(totals: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        totals[key] = totals.get(key, 0) + value


class _BatchTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _BatchTimeout


def _session_passes(tnomial, requests: list[Request], seconds: float, trace: bool, started: float) -> list[dict]:
    """All session passes, run in one child that keeps its caches warm."""
    tracer = Tracer() if trace else None
    spans_path = SPANS_DIR / "spans-session.jsonl.gz"
    cap = REQUEST_CAP_S["session"]

    def one_pass(traced: bool, expected: list) -> dict:
        outcomes, layers = [], {}
        calibration = calibrate()
        for index, request in enumerate(requests):
            if time.monotonic() - started > RUN_LIMIT_S:
                break
            if traced:
                tracer.start_request(index)
            signal.setitimer(signal.ITIMER_REAL, cap)
            start = time.perf_counter()
            try:
                answers, error = _run_batch(tnomial, request), None
            except _BatchTimeout:
                answers, error = None, f"batch exceeded {cap} s"
            except Exception as exc:
                answers, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                _add_to(layers, tracer.totals())
                tracer.write_spans(str(spans_path))
            if error is None and answers != expected[index]:
                error = f"wrong answer for ({request.p}, {request.q}) in {request.slot}"
            size = bits(answers) if error is None else 0
            outcomes.append({"elapsed": elapsed, "error": error, "bits": size, "slot": request.slot})
        calibration = (calibration + calibrate()) / 2
        for outcome in outcomes:
            outcome["scaled"] = _scale(outcome["elapsed"], calibration)
        return {"traced": traced, "outcomes": outcomes, "layers": layers}

    def work() -> list[dict]:
        signal.signal(signal.SIGALRM, _on_alarm)
        expected = [_expected_batch(request) for request in requests]
        gc.collect()
        start_kb = _rss_kb()
        one_pass(False, expected)  # warm the caches; not reported
        passes: list[dict] = []
        while len(passes) < (2 if trace else 1) or time.monotonic() - started < seconds:
            traced = trace and len(passes) % 2 == 0
            if traced:
                spans_path.unlink(missing_ok=True)
                tracer.install(tnomial)
            try:
                passes.append(one_pass(traced, expected))
            finally:
                if traced:
                    tracer.uninstall()
            if time.monotonic() - started >= RUN_LIMIT_S:
                break
        growth_kb = _growth_kb(start_kb)
        for done in passes:
            for outcome in done["outcomes"]:
                outcome["growth_kb"] = growth_kb
        return passes

    try:
        return _in_child(work, RUN_LIMIT_S + 20 - (time.monotonic() - started))
    except (TimeoutError, RuntimeError) as exc:
        failed = {"elapsed": 0.0, "scaled": 0.0, "error": f"session: {exc}", "bits": 0, "growth_kb": 0, "slot": "session"}
        return [{"traced": False, "outcomes": [failed], "layers": {}}]


# --- metrics --------------------------------------------------------------


def _nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(ceil(share * len(ordered)), 1) - 1]


def _typical(passes: list[list[dict]], field: str) -> list[float]:
    """``field`` of each request of a pass, at its median over the passes.

    Per-request medians filter a slow spell of the machine that hits one
    pass, which a median of a few pass sums does not.
    """
    longest = max(len(outcomes) for outcomes in passes)
    return [statistics.median(outcomes[i][field] for outcomes in passes if i < len(outcomes)) for i in range(longest)]


def end_to_end(passes: list[dict], setup_s: float, footprint_kb: float) -> tuple[dict[str, float], dict[str, str]]:
    """Metrics from the untraced passes, and the sample count behind each.

    ``peak_rss_mb`` is what a fresh process would reach: the footprint of
    importing tnomial.cli plus the largest growth a request caused.
    """
    untraced = [done["outcomes"] for done in passes if not done["traced"]]
    latencies = _typical(untraced, "scaled")
    wall_s = sum(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "req_p50_ms": 1e3 * _nearest_rank(latencies, 0.5),
        "req_p90_ms": 1e3 * _nearest_rank(latencies, 0.9),
        "bits_per_s": sum(_typical(untraced, "bits")) / wall_s if wall_s else 0.0,
        "peak_rss_mb": (footprint_kb + statistics.median(max(o["growth_kb"] for o in outcomes) for outcomes in untraced)) / 1024,
    }
    typical = f"{len(latencies)} requests a pass, each at its median over {len(untraced)} passes"
    unscaled = sum(_typical(untraced, "elapsed"))
    samples = {
        "setup_s": f"median of {SETUP_REPEATS} imports",
        "wall_s": f"{typical}; {unscaled:.4g} s unscaled",
        "req_p50_ms": typical,
        "req_p90_ms": f"{typical}; {len(latencies) - ceil(0.9 * len(latencies))} beyond",
        "bits_per_s": typical,
        "peak_rss_mb": f"import footprint plus the median over {len(untraced)} passes of the largest growth",
    }
    return values, samples


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Median over the traced passes of each pass's summed layer figures."""
    per_pass = [finish(done["layers"]) for done in passes if done["traced"]]
    names = {name for totals in per_pass for name in totals}
    return {name: statistics.median(totals.get(name, 0) for totals in per_pass) for name in names}


def _pass_wall(passes: list[dict], traced: bool) -> float:
    return sum(_typical([done["outcomes"] for done in passes if done["traced"] == traced], "scaled"))


def run_workload(tnomial, spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = GENERATORS[workload](seed)
    setup_s, footprint_kb = measure_setup()
    started = time.monotonic()
    if workload == "session":
        passes = _session_passes(tnomial, requests, seconds, trace, started)
    else:
        passes = _forked_passes(tnomial, workload, requests, seconds, trace, started)
    outcomes = [outcome for done in passes for outcome in done["outcomes"]]
    failures = [outcome for outcome in outcomes if outcome["error"] is not None]
    print(f"== {workload}  seed {seed}  passes {len(passes)}  requests {len(outcomes)}  failed {len(failures)}")
    for outcome in failures[:5]:
        print(f"   failed: {outcome['slot']}: {outcome['error'][:300]}")
    print(f"   {'error_rate':<12} {len(failures) / len(outcomes):.4g}  ({len(failures)} of {len(outcomes)} requests)")
    values, samples = end_to_end(passes, setup_s, footprint_kb)
    metrics = {}
    if trace:
        layers = per_layer(passes)
        for metric in spec["per_layer"]:
            value = layers.get(metric["name"], 0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"   {metric['name']:<52} {value:.6g} {metric['unit']}")
        untraced_s, traced_s = _pass_wall(passes, False), _pass_wall(passes, True)
        print(
            f"   tracing overhead: wall_s {traced_s:.4f} s traced against {untraced_s:.4f} s untraced, "
            f"+{traced_s - untraced_s:.4f} s ({100 * (traced_s / untraced_s - 1):+.1f}%)"
        )
    else:
        for metric in spec["end_to_end"]:
            value = values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"   {metric['name']:<12} {value:.6g} {metric['unit']:<6} ({samples[metric['name']]})")
    return {"correct": not failures, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    tnomial = load_package()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    SPANS_DIR.mkdir(exist_ok=True)
    results = {w: run_workload(tnomial, spec, w, args.seed, seconds, bool(args.trace)) for w in workloads}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
