"""gammapower benchmark: the catalog, evaluate and solve workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 0

Each workload is a closed loop, one client in one process and one thread,
calling the public entry point `gammapower.cli.main` in-process with stdout
captured.  The program is imported from this checkout's src/ and receives
only the generated argv.  Every op is checked (exit code, parsed output,
expected verdicts, residuals); a failed check counts as a failed op.

Each op of a short fixed list runs in many passes over the run, and the pace
loop (pace.py) runs after every op.  An op's latency is the median of its
samples, each taken at the reference pace: its wall time over the median
pace-loop time around it, times PACE_MS.  setup_s is the median wall time
of fresh interpreters spread over the run.  The run header gives the raw
wall-clock latencies and the run's pace factor.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
spans around every public function of specfun, families, critical, certify
and cli, written to perfbench/out/, plus the specfun layer probe.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from pace import Pace  # noqa: E402

# Ops the traced run repeats: one catalog pass, or a comparable slice.
TRACE_OPS = {"catalog": len(wl.BASE_IDS), "evaluate": 180, "solve": 280}
SETUP_RUNS = 15
# Ops in the timed list: whole stratified cycles of rounds (one round for
# catalog); on evaluate and solve, latency_p90_ms has at least ten ops beyond it.
TIMED_OPS = {"catalog": len(wl.BASE_IDS), "evaluate": 180, "solve": 140}
MIN_PASSES = 3
# Within a pass, each op runs back to back until it has taken this long.
# Three heavy claims take 1.8 of catalog's ~2 s pass, so without repeats its
# light claims would get only a dozen samples each in a run.
OP_SPAN_S = {"catalog": 0.03, "evaluate": 0.0, "solve": 0.0}
SUBPROCESS_TIMEOUT = 60
_SETUP_CODE = "import sys\nfrom gammapower.cli import main\nsys.exit(main(sys.argv[1:]))"


def _loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "loadavg_start": _loadavg(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "mpmath": _version("mpmath"),
    }


class Runner:
    """Runs ops through cli.main in this process and checks each answer."""

    def __init__(self, workload: str):
        self.workload = workload
        self.check = wl.CHECKS[workload]
        from gammapower import cli
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv) -> tuple[int | str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed op, not a crash
                rc = f"raised {exc!r}"
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt

    def run(self, op: wl.Op) -> tuple[int | str, str, float, dict]:
        """One checked op: (exit code, stdout, seconds, check stats)."""
        rc, out, dt = self.call(op.argv)
        self.attempted += 1
        error, stats = (f"exit {rc}", {}) if isinstance(rc, str) else self.check(op, rc, out)
        if error:
            self.fail(op, error)
        return rc, out, dt, stats

    def fail(self, op: wl.Op, error: str) -> None:
        self.failures.append(f"{' '.join(op.argv)}: {error}")


class Setup:
    """Fresh interpreters that import the CLI and run the workload's smallest op.

    Set-up time drifts with the machine, so the samples are spread over the
    whole timed run and setup_s is their median wall time.  It is not taken
    at the reference pace: a fresh interpreter feels the neighbours' load
    far less than the pace loop does, and dividing by the loop's slowdown
    would make set-up look faster the busier the machine.
    """

    def __init__(self, runner: Runner, seconds: float):
        self.runner = runner
        self.op = wl.SMALLEST[runner.workload]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.interval = seconds / SETUP_RUNS
        self.next = time.perf_counter()
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", _SETUP_CODE, *self.op.argv], cwd=ROOT,
                             env=self.env, capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT)
        self.times.append(time.perf_counter() - t0)
        self.runner.attempted += 1
        error, _ = self.runner.check(self.op, res.returncode, res.stdout)
        if error:
            self.runner.fail(self.op, f"fresh interpreter: {error} {res.stderr[-300:]}")

    def due(self) -> None:
        """One sample if the next one is due."""
        if len(self.times) < SETUP_RUNS and time.perf_counter() >= self.next:
            self.sample()
            self.next += self.interval

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


@contextlib.contextmanager
def pinned(cpu: int):
    """Run this process on one CPU, then restore its affinity."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_loop(runner: Runner, seed: int, seconds: float, setup: Setup,
               pace: Pace) -> tuple[list[list[tuple[float, float]]], list, int]:
    """Closed-loop passes over one fixed op list until `seconds` are up.

    Returns the (start, seconds) samples of each op, the sampled row of each
    evaluate op in the first pass (for the mpmath check) and the number of
    passes.  The list is kept short (TIMED_OPS) so every op runs in many
    passes spread over the whole run (OP_SPAN_S adds repeats inside a pass),
    which take turns on each CPU this process may use.  After each op the
    pace loop runs; between passes, `setup` takes its samples.
    """
    ops = wl.first_ops(runner.workload, seed, TIMED_OPS[runner.workload])
    span = OP_SPAN_S[runner.workload]
    cpus = sorted(os.sched_getaffinity(0))
    samples: list[list[tuple[float, float]]] = [[] for _ in ops]
    rows = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        setup.due()
        with pinned(cpus[passes % len(cpus)]):
            for i, op in enumerate(ops):
                spent = 0.0
                while True:
                    t0 = time.perf_counter()
                    _, _, dt, stats = runner.run(op)
                    samples[i].append((t0, dt))
                    pace.after(dt)
                    if passes == 0 and spent == 0.0 and stats.get("row"):
                        rows.append((op, stats["row"]))
                    spent += dt
                    if spent >= span:
                        break
        passes += 1
    return samples, rows, passes


def accuracy(runner: Runner, rows: list) -> float:
    """Spot-check each evaluate op's sampled row, then the fixed reference set.

    Returns the worst scaled error over the reference set, capped at 1 so a
    failed request (infinite error) still reports a number.
    """
    import oracle
    import reference

    for op, (x, v) in rows:
        s = op.spec
        err = oracle.scaled_error(s["fn"], v, s["a"], s["c"], s["n"], s["sign"], x)
        if not err <= oracle.WRONG_ANSWER_TOL:
            runner.fail(op, f"value {v!r} at x={x!r} off mpmath by {err:.3g}")

    ops = reference.SETS[runner.workload]()
    results = []
    for op in ops:
        rc, out, _ = runner.call(op.argv)
        runner.attempted += 1
        results.append((rc, out))
    if runner.workload == "solve":
        errors = reference.solve_errors(ops, results)
    else:
        errors = [reference.eval_error(op, rc, out) for op, (rc, out) in zip(ops, results)]
    for op, err in zip(ops, errors):
        if not err <= oracle.WRONG_ANSWER_TOL:
            runner.fail(op, f"reference error {err:.3g}")
    return min(max(errors), 1.0)


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[Runner, dict, dict]:
    runner = Runner(workload)
    runner.run(wl.SMALLEST[workload])  # warm-up: lazy imports and first-call costs
    facts = {"scipy_special_loaded": "scipy.special" in sys.modules}
    pace = Pace()
    setup = Setup(runner, seconds)
    samples, rows, passes = timed_loop(runner, seed, seconds, setup, pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = setup.median()
    # Each op's latency is the median of its samples at the reference pace.
    lat = [statistics.median(pace.at_pace(s)) for s in samples]
    raw = [statistics.median(dt for _, dt in s) for s in samples]
    max_rel_err = accuracy(runner, rows)
    pct = statistics.quantiles(lat, n=100, method="inclusive")
    raw_pct = statistics.quantiles(raw, n=100, method="inclusive")
    # p99 is reported, not gated: fewer than ten of the timed ops lie beyond
    # it.  The raw_ figures are wall-clock medians at the machine's own pace.
    facts.update(ops=len(lat), passes=passes, samples=sum(map(len, samples)),
                 setup_samples=len(setup.times), pace_factor=pace.factor(),
                 latency_p99_ms=pct[98] * 1e3, raw_ops_per_s=len(raw) / sum(raw),
                 raw_latency_p50_ms=raw_pct[49] * 1e3, raw_latency_p90_ms=raw_pct[89] * 1e3)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "latency_p50_ms": (pct[49] * 1e3, "ms"),
        "latency_p90_ms": (pct[89] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "success_rate": (1.0 - len(runner.failures) / runner.attempted, "fraction"),
        "max_rel_err": (max_rel_err, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return runner, metrics, facts


def traced(workload: str, seed: int, seconds: int, tag: str) -> tuple[Runner, dict, dict]:
    """Alternate untraced and traced passes over one fixed op list."""
    import probe
    from spans import Tracer, span_stats

    runner = Runner(workload)
    runner.run(wl.SMALLEST[workload])
    facts = {"scipy_special_loaded": "scipy.special" in sys.modules}
    ops = wl.first_ops(workload, seed, TRACE_OPS[workload])
    tracer = Tracer()
    plain_s, traced_s, layer_runs, per_id = [], [], [], {}
    outputs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_s:
        busy = 0.0
        for op in ops:
            _, _, dt, _ = runner.run(op)
            busy += dt
            if workload == "catalog":
                per_id.setdefault(op.kind, []).append(dt * 1e3)
        plain_s.append(busy)

        tracer.reset()
        busy, rep = 0.0, []
        with tracer:
            for i, op in enumerate(ops):
                tracer.op_id = i
                rc, out, dt, stats = runner.run(op)
                busy += dt
                rep.append((rc, len(out), stats))
        traced_s.append(busy)
        spans = tracer.arrays()
        layer_runs.append(span_stats(tracer.names, spans))
        if len(traced_s) == 1:
            first_spans, outputs = spans, rep
    tracer.reset()

    import numpy as np
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{tag}.npz", names=np.array(tracer.names), **first_spans)

    counts = layer_runs[0]
    layer = {k: statistics.median(r[k] for r in layer_runs) if k.endswith("_s") else v
             for k, v in counts.items()}
    n_ops = len(ops)
    reports = sum(s.get("reports", 0) for _, _, s in outputs)
    layer.update({
        "certify.reports": reports,
        "certify.inconclusive": sum(s.get("inconclusive", 0) for _, _, s in outputs),
        "certify.json_bytes": sum(s.get("bytes", 0) for _, _, s in outputs),
        "certify.evals_per_report": counts["certify.evals"] / reports if reports else 0.0,
        "cli.self_ms_per_op": layer["cli.self_s"] * 1e3 / n_ops,
        "cli.bytes_out": sum(n for _, n, _ in outputs),
        "cli.nonzero_exits": sum(rc != 0 for rc, _, _ in outputs),
        "trace.overhead": statistics.median(traced_s) / statistics.median(plain_s),
    })
    for base in wl.BASE_IDS:
        layer[f"certify.{base}.ms"] = statistics.median(per_id[base]) if base in per_id else 0.0
    from gammapower import specfun
    layer.update(probe.run_probe(specfun))
    facts.update(ops=n_ops, repeats=len(traced_s), spans=len(first_spans["name"]))
    return runner, {k: (v, layer_unit(k)) for k, v in layer.items()}, facts


def layer_unit(name: str) -> str:
    for suffix, unit in (("ns_per_call", "ns"), ("ns_per_point", "ns"), ("ms_per_op", "ms"),
                         (".ms", "ms"), ("_s", "s"), ("bytes", "bytes"), ("bytes_out", "bytes"),
                         ("_per_call", "ratio"), ("_per_solve", "ratio"),
                         ("_per_report", "ratio"), ("max_rel_err", "ratio"),
                         ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    head = header(workload, seed, seconds, trace)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        runner, metrics, facts = traced(workload, seed, seconds, tag)
    else:
        runner, metrics, facts = end_to_end(workload, seed, seconds)
    head.update(facts, loadavg_end=_loadavg())
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"header": head, "failures": runner.failures, **result}, indent=1) + "\n")
    print("header " + json.dumps(head, sort_keys=True))
    for line in runner.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(f"{workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.6g}, {facts['ops']} timed ops")
    for k, (v, u) in metrics.items():
        print(f"  {workload:<9} {k:<40} {v:>16.6g} {u}")
    return result


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in wl.WORKLOADS:
        res = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)],
                             capture_output=True, text=True, timeout=600)
        sys.stdout.write("".join(res.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise SystemExit(f"workload {w} exited with {res.returncode}")
        part = json.loads(res.stdout.splitlines()[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in part["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "gammapower" / "cli.py").is_file():
        print(f"perfbench: no gammapower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gammapower
    if Path(gammapower.__file__).resolve().parent != SRC / "gammapower":
        print(f"perfbench: imported gammapower from {gammapower.__file__}", file=sys.stderr)
        return 2
    if ns.workload == "all":
        result = run_all(ns.seed, ns.seconds, ns.trace)
    else:
        result = run_one(ns.workload, ns.seed, ns.seconds, ns.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
