"""Worker process of a library workload: set up, run the closed loop, check.

Started by ``run.py`` as a fresh process per run.  It prints ``ready`` once
its set-up (imports and the seeded inputs) is done, then, unless
``--setup-only``, runs the loop and prints one JSON line with the samples.
Results are checked after the loop: every op's result must equal the first
result for its input, and that first result must pass ``checks.check``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import speed


class Loop:
    """Closed loop over the inputs; keeps what the checks need across loops."""

    def __init__(self, specs, prepared):
        self.specs = specs
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}    # input -> its first result
        self._keys: dict[int, tuple] = {}
        self.matched: dict[int, int] = {}     # input -> ops equal to the first

    def run(self, seconds: float, tracer=None, min_cycles: int = 0):
        """Cycle the inputs until ``seconds`` have passed and at least
        ``min_cycles`` full cycles are done.  Returns the wall times of the
        ops that returned, in s, and the reference time taken before each."""
        import checks
        import workloads

        latencies, refs = [], []
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            for k, (spec, args) in enumerate(zip(self.specs, self.prepared)):
                if time.perf_counter() >= deadline and n >= min_cycles * len(self.specs):
                    return latencies, refs
                n += 1
                self.attempted += 1
                ref = speed.loop_reference()
                if tracer is not None:
                    tracer.begin_op(self.attempted, spec["op"], spec["name"])
                try:
                    t0 = time.perf_counter()
                    result = workloads.run_op(spec["op"], args)
                    t1 = time.perf_counter()
                except Exception as exc:  # an op that raises counts as failed
                    print(f"{spec['name']}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    self.failed += 1
                    continue
                finally:
                    if tracer is not None:
                        tracer.end_op()
                latencies.append(t1 - t0)
                refs.append(ref)
                key = checks.fingerprint(spec["op"], result)
                if k not in self.first:
                    self.first[k] = result
                    self._keys[k] = key
                if key == self._keys[k]:
                    self.matched[k] = self.matched.get(k, 0) + 1
                else:
                    print(f"{spec['name']}: result differs from the first run", file=sys.stderr)
                    self.failed += 1

    def check(self) -> None:
        """Check each input's first result; a wrong one fails every op that
        returned the same result."""
        import checks

        for k, result in self.first.items():
            for message in checks.check(self.specs[k], self.prepared[k], result):
                print(f"{self.specs[k]['name']}: {message}", file=sys.stderr)
                self.failed += self.matched[k]
                break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import margraph  # noqa: F401  (set-up includes the imports)
    import workloads

    specs = workloads.library_inputs(args.workload, args.seed)
    prepared = [workloads.prepare(s) for s in specs]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(specs, prepared)
    out = {}
    if args.trace:
        import spans

        # Untraced, then traced, in one process: the difference is the
        # tracing overhead.  The traced half covers every input at least once.
        out["latencies"], out["refs"] = loop.run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        out["traced_latencies"], out["traced_refs"] = loop.run(
            args.seconds / 2, tracer, min_cycles=1)
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        out["layers"] = spans.summarize(tracer.spans, len(out["traced_latencies"]))
        out["counts"] = spans.merge_counts(tracer.counts)
    else:
        out["latencies"], out["refs"] = loop.run(args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check()
    out.update(failed=loop.failed, attempted=loop.attempted)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
