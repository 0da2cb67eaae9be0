"""qslice benchmark: a closed loop of CLI operations, one client, concurrency 1.

Run from the repository root:

    python3 perfbench/run.py --workload slice-effective --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one ``qslice`` command run in this process through
``qslice.cli.main(argv)`` with stdout captured, and its output is checked
against ``reference``. The workload seed draws a deck of operations (see
``workloads``); the loop plays the whole deck again and again until
``--seconds`` have passed, so every operation counts equally and the
counts (oracle calls, failures) are the same for the same seed however fast
the machine is. The package comes from ``./src``; nothing is installed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics of ``tracer``, plus the tracing overhead. A human-readable
report precedes it. Inputs and span files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER, Tracer, span_cost

#: Fresh interpreters whose median time to import qslice is setup_s. They
#: are spread evenly over the measured loop, after one discarded warm-up
#: import, so that a passing slow spell of the host moves few of them.
IMPORT_SAMPLES = 11

#: Stop after this many multiples of --seconds even if the tail is short of samples.
MAX_OVERRUN = 3

WORKDIR = ".perfbench_work"

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import qslice.cli; print(time.perf_counter() - t)"
)


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all of them with 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_time() -> float:
    """Time to import qslice, numpy included, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Import times taken at even steps of the loop's measured wall time."""

    def __init__(self, seconds: float):
        import_time()  # warm-up: writes bytecode caches, loads the files into memory
        self.times: list[float] = []
        self.step = seconds / IMPORT_SAMPLES

    def due(self, wall: float) -> None:
        """Take the next import time if the loop has run long enough for it."""
        if len(self.times) < IMPORT_SAMPLES and wall >= len(self.times) * self.step:
            self.times.append(import_time())


class Client:
    """Runs CLI commands in this process and captures what they print."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv: list[str]) -> tuple[int | None, str]:
        """(exit code, stdout); the code is None when the command raised."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an escaped exception is a failed operation, not a crash
                code = None
        return code, out.getvalue()

    def stdout(self, argv: list[str]) -> str:
        return self.run(argv)[1]


class Tally:
    """Latencies, outcomes and reported oracle calls of played operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.calls = 0
        self.ok = 0
        self.wall = 0.0
        self.failures: dict[str, str] = {}

    def play(self, client: Client, deck, between=None) -> None:
        """Run and check each operation; ``between(wall)`` runs after each, off the clock."""
        for op in deck:
            t0 = time.perf_counter()
            self.one(client, op, t0)
            self.wall += time.perf_counter() - t0
            if between is not None:
                between(self.wall)

    def one(self, client: Client, op, t0: float) -> None:
        code, out = client.run(op.argv)
        self.latencies.append(time.perf_counter() - t0)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures[op.label] = "exception" if code is None else f"exit {code}"
            return
        try:
            right = op.check(out)
        except (ValueError, KeyError, TypeError):
            right = False
        if not right:
            self.failed += 1
            self.wrong += 1
            self.failures[op.label] = "wrong answer"
            return
        self.ok += 1
        self.calls += op.oracle_calls(out)

    def absorb(self, other: "Tally") -> None:
        """Add another tally's operation counts and latencies to this one."""
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.calls += other.calls
        self.ok += other.ok
        self.wall += other.wall
        self.failures.update(other.failures)


def tail(latencies: list[float], percentile: int) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, math.ceil(percentile / 100 * len(ordered)) - 1)]


def tail_samples(percentile: int) -> int:
    """Samples needed so that ten or more lie beyond the percentile."""
    return math.ceil(10 / (1 - percentile / 100))


def end_to_end(tally: Tally, setup: list[float], percentile: int) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (tally.ok / tally.wall, "1/s"),
        "latency_p50_s": (statistics.median(tally.latencies), "s"),
        "latency_tail_s": (tail(tally.latencies, percentile), "s"),
        "oracle_calls_per_query": (tally.calls / tally.ok if tally.ok else 0.0, "count"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qslice", "cli.py")):
        print("perfbench: no ./src/qslice here; run from the repository root", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    import qslice.cli

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(workloads.FIXTURE):
        print(f"perfbench: {workloads.FIXTURE} is missing; run from the repository root",
              file=sys.stderr)
        return 1

    client = Client(qslice.cli)
    inputs_dir = os.path.join(WORKDIR, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs_dir)
    try:
        deck = workloads.build_deck(workload, args.seed, workloads.Inputs(inputs_dir), client.stdout)
        print(f"# {workload.name}: seed {args.seed}, deck of {len(deck)} operations", flush=True)
        if args.trace:
            tally, metrics = traced_run(client, deck, args, qslice, Tracer())
        else:
            tally, metrics = untraced_run(client, deck, args, workload)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    report(workload, tally, metrics)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of its own."""
    failed = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        failed += done.returncode != 0
    return 1 if failed else 0


def untraced_run(client: Client, deck, args, workload) -> tuple[Tally, dict]:
    """Whole passes until --seconds have passed and the tail has its samples."""
    setup = SetupProbes(args.seconds)
    tally = Tally()
    setup.due(tally.wall)
    while True:
        tally.play(client, deck, setup.due)
        if tally.wall >= args.seconds and (
            len(tally.latencies) >= tail_samples(workload.tail_percentile)
            or tally.wall >= MAX_OVERRUN * args.seconds
        ):
            return tally, end_to_end(tally, setup.times, workload.tail_percentile)


def traced_run(client: Client, deck, args, package, tracer) -> tuple[Tally, dict]:
    """Every operation run twice in a row, untraced and traced; per-layer metrics of the traced runs.

    An unmeasured pass first warms what the first run of an operation pays
    for once. Then the order of the two runs alternates from one operation
    to the next and from one pass to the next, so the pair shares the host's
    moment and neither run always finds the other's warm caches.
    """
    Tally().play(client, deck)
    plain, traced = Tally(), Tally()
    passes = 0
    while plain.wall + traced.wall < args.seconds or not passes:
        for i, op in enumerate(deck):
            for trace in (False, True) if (i + passes) % 2 == 0 else (True, False):
                if not trace:
                    plain.play(client, [op])
                    continue
                tracer.install(package)
                try:
                    traced.play(client, [op])
                finally:
                    tracer.uninstall()
        passes += 1
    tracer.save(os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.npz"))
    ops = traced.attempted
    layer = tracer.layer_metrics(ops, traced.calls)
    layer["bench.op_s"] = sum(traced.latencies) / ops
    layer["bench.unattributed_s"] = layer["bench.op_s"] - sum(
        v for k, v in layer.items() if k.endswith(".layer_self_s")
    )
    layer["bench.tracing_overhead"] = 1.0 - (traced.ok / traced.wall) / (plain.ok / plain.wall)
    layer["bench.tracing_overhead_computed"] = len(tracer.start) / ops * span_cost() / layer["bench.op_s"]
    traced.absorb(plain)
    return traced, {name: (layer[name], unit) for name, unit, _ in PER_LAYER}


def report(workload, tally: Tally, metrics: dict) -> None:
    print(f"# {workload.name}: {tally.attempted} operations, {tally.failed} failed "
          f"(error_rate {tally.failed / tally.attempted:.4f}), {tally.wrong} wrong answers")
    for label, why in sorted(tally.failures.items()):
        print(f"#   failed: {label}: {why}")
    for name, (value, unit) in metrics.items():
        n = IMPORT_SAMPLES if name == "setup_s" else tally.attempted
        extra = f" (p{workload.tail_percentile})" if name == "latency_tail_s" else ""
        print(f"# {name:<40} {value:>16.6g} {unit:<9} n={n}{extra}")


if __name__ == "__main__":
    sys.exit(main())
