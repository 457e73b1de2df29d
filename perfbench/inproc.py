"""``trace-rca4``: in-process trace-mode ``CircuitExecutor.run`` on a
4-bit ripple carry adder, in a closed loop on one thread.

No wire and no queue: each call is submitted and resolved at once, and
nearly all of its time is waveform synthesis and lock-in decode in the
gate simulator.  Inputs cycle through a small pool of seeded batches
built before the timed window.
"""

import subprocess
import sys
import time
from statistics import median

import numpy as np

from common import (
    Deadline,
    adder_reference,
    env_with_src,
    margins_agree,
    random_assignments,
    seeded_rng,
    vm_hwm_mb,
)

NAME = "trace-rca4"
WIDTH = 4
WORDS = 64
MODE = "trace"
#: Distinct seeded batches the closed loop cycles through.
POOL = 4
#: Cold set-ups timed per run, each in a fresh interpreter: importing
#: the program, building an executor and its first run (compile and
#: calibration), as a user's first call pays them.  They run between
#: slices of the measured window, so they sample the same host speed
#: as the calls rather than a swing at the start of the run;
#: ``setup_s`` is their median.
SETUP_REPEATS = 7
#: A cold set-up slower than this [s] fails the run.
SETUP_TIMEOUT_S = 60.0
#: Words of the first batch checked against ``run_scalar``.
SAMPLE_WORDS = 16


class TraceWorkload:
    def run(self, root, seed, seconds, trace):
        from repro.circuits import CircuitExecutor, ripple_carry_adder

        netlist = ripple_carry_adder(WIDTH)
        rng = seeded_rng(seed, NAME)
        batches = [random_assignments(rng, netlist, WORDS)
                   for _ in range(POOL)]
        expected = [adder_reference(netlist, WIDTH, b) for b in batches]

        executor = CircuitExecutor(n_bits=8)
        if executor.run(netlist, batches[0], mode=MODE).outputs != expected[0]:
            raise RuntimeError(f"{NAME}: first run is wrong")
        loop = Loop(executor, netlist, batches, expected)
        fallbacks = 0
        if trace:
            metrics, plain = self._traced(root, seed, seconds, loop)
            loop.attempted += plain.attempted
            loop.failed += plain.failed
            loop.errors += plain.errors
            fallbacks = plain.executor.stats["fallbacks"]
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                setups.append(cold_setup_s(root, seed))
                loop.run(seconds / SETUP_REPEATS)
            metrics = {
                "setup_s": median(setups),
                "latency_p50_ms": median(loop.walls) * 1e3,
                "words_per_s": WORDS / median(loop.walls),
                "peak_rss_mb": vm_hwm_mb(),
            }
        mismatches = self._check_scalar(netlist, executor, batches[0])
        return {
            "attempted": loop.attempted,
            "failed": loop.failed + mismatches,
            "fallbacks": fallbacks + executor.stats["fallbacks"],
            "notes": loop.errors[:5] + (
                ["disagrees with run_scalar"] if mismatches else []),
            "metrics": metrics,
        }

    @staticmethod
    def _check_scalar(netlist, executor, batch):
        """1 when a seeded slice disagrees with ``run_scalar``."""
        from repro.circuits import CircuitEngine

        sample = batch[:SAMPLE_WORDS]
        fast = executor.run(netlist, sample, mode=MODE)
        reference = CircuitEngine(netlist, n_bits=8).run_scalar(
            sample, mode=MODE
        )
        return 0 if margins_agree(fast, reference) else 1

    @staticmethod
    def _traced(root, seed, seconds, loop):
        """Per-layer metrics, and the untraced half's loop."""
        import layers
        from repro.circuits import CircuitExecutor

        # The untraced half runs the same batches on an executor with
        # request tracing off, so the difference of the two halves is
        # the tracing cost.
        plain = Loop(CircuitExecutor(n_bits=8, trace_requests=False),
                     loop.netlist, loop.batches, loop.expected)
        plain.executor.run(loop.netlist, loop.batches[0], mode=MODE)
        plain.run(seconds / 2.0)
        executor = loop.executor
        before = (executor.obs.snapshot(), layers.executor_stats(executor))
        loop.run(seconds / 2.0, keep=True)
        after = (executor.obs.snapshot(), layers.executor_stats(executor))
        calls = [
            (i, result, wall) for i, (result, wall)
            in enumerate(zip(loop.results, loop.walls)) if result is not None
        ]
        metrics = layers.stage_metrics(
            [r.trace for _, r, _ in calls], [w for _, _, w in calls],
            before, after,
        )
        served = [
            layers.Served(loop.netlist, loop.batches[i % POOL], [], None,
                          result, wall, MODE)
            for i, result, wall in calls[:POOL]
        ]
        metrics.update(layers.daemon_probe(root, served[:2]))
        metrics.update(layers.circuit_probes([loop.netlist], served))
        metrics.update(layers.physics_probes(seed))
        layers.finish(metrics)
        metrics["tracing.overhead_ms"] = (
            np.median(loop.walls) - np.median(plain.walls)
        ) * 1e3
        metrics["tail.latency_p90_ms"] = np.percentile(loop.walls, 90) * 1e3
        metrics.update({
            "loadgen.lag_p90_ms": np.percentile(loop.lags, 90) * 1e3,
            "loadgen.sent": loop.attempted,
            "loadgen.ok": loop.attempted - loop.failed,
            "loadgen.failed": loop.failed,
        })
        return metrics, plain


def cold_setup_s(root, seed):
    """Seconds a fresh interpreter takes to import the program, build
    an executor and finish its first (checked) run."""
    done = subprocess.run(
        [sys.executable, __file__, str(seed)], cwd=root,
        env=env_with_src(root), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{NAME}: cold set-up failed: "
                           + done.stderr[-2000:])
    return float(done.stdout.split()[-1])


class Loop:
    """Closed loop of ``executor.run`` calls with output checks."""

    def __init__(self, executor, netlist, batches, expected):
        self.executor = executor
        self.netlist = netlist
        self.batches = batches
        self.expected = expected
        self.walls = []
        self.lags = []     # gap between one completion and the next call
        self.results = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, seconds, keep=False):
        deadline = Deadline(seconds)
        previous = time.perf_counter()
        index = 0
        while not deadline.expired():
            batch = self.batches[index % len(self.batches)]
            started = time.perf_counter()
            self.lags.append(started - previous)
            try:
                result = self.executor.run(self.netlist, batch, mode=MODE)
            except Exception as exc:  # a failed call is counted
                result = None
                self.errors.append(f"{type(exc).__name__}: {exc}")
            previous = time.perf_counter()
            self.walls.append(previous - started)
            self.attempted += 1
            if result is None or not (
                result.correct
                and result.outputs == self.expected[index % len(
                    self.expected)]
            ):
                self.failed += 1
                if result is not None:
                    self.errors.append("outputs differ from the reference")
            if keep:
                self.results.append(result)
            index += 1


if __name__ == "__main__":
    # One cold set-up (see ``cold_setup_s``).  Generating the inputs
    # needs the netlist, so it falls inside the timed span; it takes
    # well under a millisecond.
    started = time.perf_counter()
    from repro.circuits import CircuitExecutor, ripple_carry_adder

    netlist = ripple_carry_adder(WIDTH)
    batch = random_assignments(seeded_rng(int(sys.argv[1]), NAME), netlist,
                               WORDS)
    result = CircuitExecutor(n_bits=8).run(netlist, batch, mode=MODE)
    elapsed = time.perf_counter() - started
    if result.outputs != adder_reference(netlist, WIDTH, batch):
        sys.exit(f"{NAME}: first run is wrong")
    print(elapsed)
