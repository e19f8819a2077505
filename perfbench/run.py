"""Benchmark for convexcodes: both pipelines through the public CLI entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract|analyze|random --seed N \
        --seconds S --trace 0|1 [--negative-control]

One process, one thread, closed loop: ``convexcodes.cli.main(argv)`` runs
in-process with stdout captured, one input after the other.  A pass is one
run over the workload's inputs (cheap inputs run a few times, see
``Runner.run_pass``); passes repeat until the next one would end past
``--seconds``.  Every output is checked (see ``checks.py``).  End-to-end
times are at the nominal speed of ``calibrate.SpeedMeter``: the machine's
speed swings by about 1.8x, and each interval is scaled by the speed the
meter saw during it.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (tracing off); with ``--trace 1`` one untraced pass is
followed by traced passes and the metrics are the per-layer ones.  The lines
before it record the environment, sample counts and failure fractions.
``--negative-control`` corrupts the first output of the run (one codeword
dropped); the run must then report ``correct: false`` and exit 1.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_S, SpeedMeter, WallClock
from checks import CheckFailed
from spans import Tracer, per_layer
from workloads import SETUPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
SETUPS_PER_PASS = 3
REPEAT_BUDGET_S = 2.0
REPEAT_MAX = 8


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(root),
        "seed": seed,
        "src_lines": src_lines,
    }


class Runner:
    """Runs passes over a workload's items and checks every output."""

    def __init__(self, cli, items, negative_control: bool, meter) -> None:
        self.cli = cli
        self.meter = meter
        self.items = items
        self.corrupt_next = negative_control
        self.verified: dict[str, tuple[str, tuple[int, int]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts = 0
        self.unknown = 0
        self.bytes_out = 0
        self.item_calls: dict[str, dict[str, int]] = {}

    def run_pass(self, tracer=None, repeat: bool = True) -> tuple[float, list[list[float]]]:
        """One pass; returns its wall time and each input's latencies.

        With ``repeat``, an input runs again while its runs in this pass total
        less than its share of REPEAT_BUDGET_S (at most REPEAT_MAX runs):
        cheap inputs get more samples for no more than a fixed cost per pass.
        Latencies are at the nominal speed of a ``SpeedMeter`` (wall times
        with a ``WallClock``); the meter's own time is left out of them and of
        the pass.  Traced passes run every input once, so that per-pass
        counts repeat exactly.
        """
        repeat = repeat and tracer is None
        gc.collect()
        share = REPEAT_BUDGET_S / len(self.items)
        outputs = []
        latencies = []
        untimed = 0.0
        meter = self.meter
        start = meter.clock()
        for item in self.items:
            runs, spent = [], 0.0
            while not runs or (repeat and len(runs) < REPEAT_MAX and spent < share):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    t0 = meter.clock()
                    try:
                        status = self.cli.main(list(item.argv))
                    except Exception as exc:  # an input that raises counts as failed
                        status = f"{type(exc).__name__}: {exc}"
                    wall, dt = meter.normalize(t0, meter.clock())
                runs.append(dt)
                spent += wall
                outputs.append((item, status, out.getvalue(), err.getvalue()))
            latencies.append(runs)
            if tracer is not None:
                t0 = perf_counter()
                before = dict(tracer.counts)
                tracer.fold()
                if item.label not in self.item_calls:
                    self.item_calls[item.label] = {
                        k: v - before.get(k, 0) for k, v in tracer.counts.items()
                        if k.endswith(".calls") and v != before.get(k, 0)
                    }
                untimed += perf_counter() - t0
        end = meter.clock()
        wall = end[0] - start[0] - (end[1] - start[1]) - untimed
        for item, status, text, err in outputs:
            self.record(item, status, text, err)
        return wall, latencies

    def record(self, item, status, text: str, err: str) -> None:
        self.attempted += 1
        self.bytes_out += len(text.encode())
        if self.corrupt_next:
            self.corrupt_next = False
            text = item.corrupt(text)
        if status != 0:
            self.failures.append(f"{item.label}: exit {status!r} {err.strip()}")
            return
        cached = self.verified.get(item.label)
        if cached is not None and cached[0] == text:
            counts = cached[1]
        else:
            try:
                counts = item.check(text)
            except CheckFailed as exc:
                self.failures.append(f"{item.label}: {exc}")
                return
            self.verified[item.label] = (text, counts)
        self.verdicts += counts[0]
        self.unknown += counts[1]


def run_until(runner: Runner, seconds: float, elapsed: float, tracer=None, between=None):
    """Passes until the next one would end past the budget; at least one.

    ``between`` runs after each pass, outside the pass's time.
    """
    walls, latencies = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, lat = runner.run_pass(tracer)
        took = perf_counter() - t0
        walls.append(wall)
        latencies.append(lat)
        if between is not None:
            between()
        if elapsed + perf_counter() - start + took > seconds:
            return walls, latencies


def measure(args, runner: Runner, setup_times: list[float], more_setups) -> tuple[list[float], dict]:
    """The passes of one run; returns their wall times and the run's metrics."""
    if args.trace:
        plain, _ = runner.run_pass(repeat=False)
        plain_bytes = runner.bytes_out
        tracer = Tracer()
        tracer.install()
        walls, _ = run_until(runner, args.seconds, plain, tracer)
        traced_bytes = runner.bytes_out - plain_bytes
        return walls, per_layer(tracer, len(walls), traced_bytes, statistics.median(walls) / plain)
    walls, latencies = run_until(runner, args.seconds, 0.0, between=more_setups)
    # each input's median latency over all its runs, at the nominal speed
    typical = [statistics.median(sum(runs, [])) for runs in zip(*latencies)]
    return walls, {
        "batch_s": (sum(typical), "s"),
        "item_p50_ms": (percentile(typical, 0.5) * 1e3, "ms"),
        "item_p90_ms": (percentile(typical, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["extract", "analyze", "random"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/convexcodes/cli.py", "corpus") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a convexcodes checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as work:
        setup_times = []

        def setup():
            gc.collect()  # garbage of earlier set-ups is not this one's
            t0 = meter.clock()
            made = SETUPS[args.workload](ROOT, Path(work), args.seed)
            setup_times.append(meter.normalize(t0, meter.clock())[1])
            return made

        def more_setups():
            # spread the set-up samples over the run, not only its first second
            for _ in range(SETUPS_PER_PASS):
                if len(setup_times) < SETUP_REPEATS:
                    setup()

        # traced runs time spans in wall time; an interrupting meter would
        # land in whichever span is open
        meter = WallClock() if args.trace else SpeedMeter()
        meter.start()
        try:
            cli, items = setup()
            runner = Runner(cli, items, args.negative_control, meter)
            walls, metrics = measure(args, runner, setup_times, more_setups)
        finally:
            meter.stop()

    failed = len(runner.failures)
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "pass_s": walls,
        # each input's median latency over its runs is one percentile sample
        "percentile_samples": len(items),
        "setup_samples": len(setup_times),
        "fail_frac": {"value": failed / runner.attempted, "base": runner.attempted},
        "undecided_frac": {
            "value": runner.unknown / runner.verdicts if runner.verdicts else 0.0,
            "base": runner.verdicts,
        },
        "env": environment(ROOT, args.seed),
    }
    if not args.trace:
        ks = sorted(meter.samples)
        summary["speed_meter"] = {
            "samples": len(ks),
            "kernel_ms_p10_p50_p90": [round(ks[int(q * (len(ks) - 1))] * 1e3, 4) for q in (0.1, 0.5, 0.9)],
            "nominal_ms": NOMINAL_S * 1e3,
            "wrong_answers": meter.errors,
        }
    if args.trace and len(items) <= 32:
        summary["calls_per_input"] = runner.item_calls
    for line in runner.failures[:20]:
        print(f"FAIL {line}")
    print(json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
