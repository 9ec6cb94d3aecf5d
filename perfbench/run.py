"""margraph benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (described in BENCHMARK.json and ``workloads.py``): ``cli-mix``,
``elim-wide``, ``elim-many`` and ``sparse-large``.  Each is a closed loop
with one client.
Inputs come from the seed alone.  Every op is checked outside the timed
region; an op that fails or returns a wrong result counts in ``failed``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run (see ``spans.py``), including the tracing overhead.
Times are wall times scaled to a reference CPU speed (see ``speed.py``).
A readable summary, with the raw latencies, goes to stderr.
"""

from __future__ import annotations

import os

# One client in one process on a 2-core machine: BLAS gets one thread, which
# measured both faster and steadier here than two.  numpy reads these when
# it is first imported, in this process and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-mix", "elim-wide", "elim-many", "sparse-large")
SETUP_REPEATS = 7       # set-up samples per run; setup_s is their median
BASELINE_REPEATS = 5    # samples of each process-level baseline
CHILD_TIMEOUT = 120.0   # seconds before a stuck child is killed
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
REQUIRED = ("src/margraph/cli.py", "fixtures/chain_potential.json")

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
BASELINES = {"cli.interpreter_ms": "pass", "cli.import_numpy_ms": "import numpy",
             "cli.import_ms": "import margraph.cli"}
PER_LAYER = {
    **{name: "ms" for name in BASELINES},
    **{f"{name}_ms": "ms" for name in spans.SPAN_NAMES},
    "hypergraph_marginal.self_ms": "ms",
    **{m: "bytes" if m.endswith("_bytes") else "count" for m in spans.COUNT_KINDS},
    "src.lines": "lines",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_p90_ms": "ms",
}


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"latency_p50_ms": 0.0, "latency_p90_ms": 0.0, "ops_per_s": 0.0}
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": p90(latencies) * 1000.0,
        # ops per second of op time: one client, so the loop is busy
        # exactly while an op runs; checks between ops are not counted
        "ops_per_s": len(latencies) / sum(latencies),
    }


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_timed(cmd: list[str], env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to exit; returns (wall s, exit code, peak RSS MB of the child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def spans_path(args) -> str:
    """Where a traced run leaves its spans for later analysis."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")


# ---------------------------------------------------------------------------
# cli-mix.
# ---------------------------------------------------------------------------

DOT_BODY = re.compile(r'^  "[^"]*"( -- "[^"]*")?;$')


def check_cli_output(op: dict, code: int, out: bytes, err: bytes) -> str | None:
    """None when the op's exit code and stdout are right, else why not."""
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}: {err.decode(errors='replace')[-300:]}"
    if code != 0:
        refused = not out and any(line.startswith(b"error:") for line in err.splitlines())
        return None if refused else "refusal printed a result or no error"
    text = out.decode()
    if "dot" in op["argv"]:
        lines = text.splitlines()
        ok = (lines and lines[0] == "graph marginal {" and lines[-1] == "}"
              and all(DOT_BODY.match(line) for line in lines[1:-1]))
        return None if ok else "stdout is not DOT"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("command") != op["argv"][0]:
        return "result names another command"
    if op["argv"][0] == "oracle-verify" and doc.get("passed") is not True:
        return "oracle-verify did not pass"
    return None


class CliLoop:
    """Closed loop of margraph processes, one per op."""

    def __init__(self, ops: list[dict], work: str):
        self.ops = ops
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.peak_rss = 0.0
        self.span_files: list[tuple[str, str]] = []  # (op name, spans file)

    def run(self, seconds: float, traced: bool = False, min_cycles: int = 0):
        """Returns the wall times (s) of the ops that passed their check and
        the reference time taken before each."""
        latencies, refs = [], []
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            for op in self.ops:
                if time.perf_counter() >= deadline and n >= min_cycles * len(self.ops):
                    return latencies, refs
                n += 1
                self.attempted += 1
                if traced:
                    path = os.path.join(self.work, f"spans-{self.attempted}.json")
                    self.span_files.append((op["name"], path))
                    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), path]
                else:
                    cmd = [sys.executable, "-m", "margraph.cli"]
                if n % 2 == 1:  # a fresh reference every other op
                    ref = speed.process_reference(self.env)
                with open(out_path, "wb") as out, open(err_path, "wb") as err:
                    elapsed, code, rss = run_timed(cmd + op["argv"], self.env, out, err)
                with open(out_path, "rb") as out, open(err_path, "rb") as err:
                    problem = check_cli_output(op, code, out.read(), err.read())
                if problem:
                    print(f"{op['name']}: {problem}", file=sys.stderr)
                    self.failed += 1
                    continue
                latencies.append(elapsed)
                refs.append(ref)
                self.peak_rss = max(self.peak_rss, rss)

    def layers(self, ops: int, out_path: str) -> tuple[dict, dict]:
        """Span summary over all traced children, and counts from the first
        traced run of each op of the cycle; the merged spans go to ``out_path``."""
        merged: list = []
        counts: dict[str, dict] = {}
        for name, path in self.span_files:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            base = len(merged)
            merged += [[s[0], s[1], s[2], None if s[3] is None else s[3] + base, s[4]]
                       for s in data["spans"]]
            counts.setdefault(name, data["counts"].get("cli", {}))
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": merged, "counts": counts}, fh)
        return spans.summarize(merged, ops), spans.merge_counts(counts)


def process_baselines(env) -> dict[str, float]:
    """Median wall time of children that only start, import numpy, or import
    the CLI module, so that an import saving can be attributed.  These are
    raw times: the numpy import is itself the process reference."""
    samples: dict[str, list[float]] = {k: [] for k in BASELINES}
    for _ in range(BASELINE_REPEATS):
        for metric, code in BASELINES.items():
            elapsed, status, _ = run_timed([sys.executable, "-c", code], env)
            if status != 0:
                raise RuntimeError(f"baseline {code!r} exited {status}")
            samples[metric].append(elapsed)
    return {k: statistics.median(v) * 1000.0 for k, v in samples.items()}


def run_cli_mix(args, work: str) -> dict:
    import workloads

    env = child_env()
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(speed.process_reference(env))
        t0 = time.perf_counter()
        ops = workloads.write_cli_models(args.seed, work)
        _, status, _ = run_timed([sys.executable, "-c", "import margraph.cli"], env)
        if status != 0:
            raise RuntimeError("margraph.cli does not import")
        setups.append(time.perf_counter() - t0)
    loop = CliLoop(ops, work)
    result = {"setup_s": statistics.median(speed.scaled(setups, refs, speed.PROCESS_S)),
              "nominal": speed.PROCESS_S}
    if args.trace:
        result["latencies"], result["refs"] = loop.run(args.seconds / 2)
        result["baselines"] = process_baselines(env)
        result["traced_latencies"], result["traced_refs"] = loop.run(
            args.seconds / 2, traced=True, min_cycles=1)
        result["layers"], result["counts"] = loop.layers(
            len(result["traced_latencies"]), spans_path(args))
    else:
        result["latencies"], result["refs"] = loop.run(args.seconds)
    result.update(peak_rss_mb=loop.peak_rss, attempted=loop.attempted, failed=loop.failed)
    return result


# ---------------------------------------------------------------------------
# Library workloads: one fresh worker process per run.
# ---------------------------------------------------------------------------

def run_library(args) -> dict:
    """Start SETUP_REPEATS workers, timing each until it is ready; the last
    one runs the loop."""
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    env = child_env()
    setups, refs = [], []
    for k in range(SETUP_REPEATS):
        if k < SETUP_REPEATS - 1:
            cmd = base + ["--setup-only"]
        else:
            cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--spans", spans_path(args)]
        refs.append(speed.process_reference(env))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        killer = threading.Timer(args.seconds + CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
        finally:
            killer.cancel()
        if ready.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    result["setup_s"] = statistics.median(speed.scaled(setups, refs, speed.PROCESS_S))
    result["nominal"] = speed.LOOP_S
    return result


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def end_to_end(result: dict) -> dict[str, float]:
    values = {"setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}
    values.update(latency_metrics(
        speed.scaled(result["latencies"], result["refs"], result["nominal"])))
    return {name: values[name] for name in END_TO_END}


def per_layer(result: dict) -> dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    values.update(result.get("baselines", {}))
    values.update(result["counts"])
    values["src.lines"] = src_lines()
    nominal = result["nominal"]
    if result["traced_refs"]:
        # span times scale by the traced loop's median reference time
        scale = nominal / statistics.median(result["traced_refs"])
        values.update({name: ms * scale for name, ms in result["layers"].items()})
    plain = latency_metrics(speed.scaled(result["latencies"], result["refs"], nominal))
    traced = latency_metrics(
        speed.scaled(result["traced_latencies"], result["traced_refs"], nominal))
    for p in ("p50", "p90"):
        name = f"latency_{p}_ms"
        values[f"trace.overhead_{p}_ms"] = traced[name] - plain[name]
    return values


def summary(args, result: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    lat = result["latencies"]
    raw = latency_metrics(lat)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
          file=sys.stderr)
    print(f"  {len(lat)} timed samples ({len(lat) - math.ceil(0.9 * len(lat))} beyond p90); "
          f"raw p50 {raw['latency_p50_ms']:.6g} ms, raw p90 {raw['latency_p90_ms']:.6g} ms, "
          f"reference {statistics.median(result['refs'] or [0.0]) * 1e3:.4g} ms "
          f"(nominal {result['nominal'] * 1e3:.4g})", file=sys.stderr)
    print(f"  {'failed_ratio':52s} {result['failed'] / max(result['attempted'], 1):14.6g} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="margraph benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: run from the root of a margraph checkout; missing {missing}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        result = run_cli_mix(args, work) if args.workload == "cli-mix" else run_library(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = per_layer(result) if args.trace else end_to_end(result)
    summary(args, result, metrics, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
