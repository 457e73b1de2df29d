"""``serve-light``: open-loop traffic against a ``swgate serve`` child
process.

The workload sends a fixed-rate request mix: phasor requests of
8/16/32/64 words over four netlists (a 4-bit ripple carry adder and the
optimized ``mux4``, ``comparator4`` and ``alu_slice`` synthesis-suite
mappings); 1/8 of the requests carry an amplitude/phase ``NoiseModel``
and 1/8 a weak-source ``CellFault``.
Arrivals are a Poisson process conditioned on its count (sorted
uniform times), with word sizes, netlists and noise/fault shares drawn
as exact quotas, so every seed offers the same load.  Sender threads
(at most one per CPU, each with one ``ServeClient``) take requests in
due order; a request's latency runs from when it was *due*, so a stall
in the daemon or in the generator shows as latency of later requests.
"""

import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from statistics import median

import numpy as np

from common import (
    adder_reference,
    margins_agree,
    random_assignments,
    seeded_rng,
    suite_reference,
)
from daemon import Daemon

#: Offered request rate [1/s], a constant of the workload definition.
#: A request takes ~12 ms (mostly the 5 ms latency sweep it waits for
#: when it is under ``max_block`` words), so most requests find the
#: daemon idle.
RATE = 15.0
WORD_SIZES = (8, 16, 32, 64)
SUITE_NETLISTS = ("mux4", "comparator4", "alu_slice")
#: Daemons started and timed before and after the measured window;
#: ``setup_s`` is their median.  Timing on both sides of the window
#: keeps a host-speed swing at its start from setting ``setup_s``.
SETUP_REPEATS = (3, 3)
#: Client socket timeout [s]; a request slower than this fails.
CLIENT_TIMEOUT_S = 30.0
#: Requests still unsent this long [s] after the schedule's end are
#: dropped as failed, so a stalled daemon cannot stretch the run.
OVERRUN_S = 30.0
#: Served requests replayed in-process for ``executor.submit_ms``.
PROBE_REQUESTS = 40


@dataclass
class Circuit:
    netlist: object
    reference: object  # (batch) -> {output: [bits]}


@dataclass
class Request:
    due: float
    circuit: int
    assignments: list
    faults: list = field(default_factory=list)
    noise: object = None
    kind: str = "nominal"
    expected: dict = None


@dataclass
class Record:
    lag: float = 0.0       # send time - due time
    latency: float = 0.0   # completion time - due time
    wall: float = 0.0      # completion time - send time
    ok: bool = False
    result: object = None
    error: str = None


def build_circuits():
    """The four served netlists with independent references."""
    from repro.circuits import ripple_carry_adder
    from repro.synthesis import get_circuit, synthesize

    adder = ripple_carry_adder(4)
    circuits = [Circuit(adder, partial(adder_reference, adder, 4))]
    for name in SUITE_NETLISTS:
        suite = get_circuit(name)
        netlist = synthesize(suite.build()).optimized.netlist
        circuits.append(Circuit(
            netlist, partial(suite_reference, suite.reference, netlist)
        ))
    return circuits


def _quota(rng, n, values):
    """``n`` values cycling through ``values``, shuffled."""
    drawn = [values[i % len(values)] for i in range(n)]
    rng.shuffle(drawn)
    return drawn


def make_schedule(seed, seconds, circuits):
    """The requests, due times in [0, seconds), sorted."""
    from repro.circuits import CellFault
    from repro.core.faults import TransducerFault
    from repro.waveguide import NoiseModel

    rng = seeded_rng(seed, "serve-light")
    n = max(8, round(RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    sizes = _quota(rng, n, WORD_SIZES)
    which = _quota(rng, n, list(range(len(circuits))))
    kinds = ["noise"] * (n // 8) + ["fault"] * (n // 8)
    kinds += ["nominal"] * (n - len(kinds))
    rng.shuffle(kinds)
    schedule = []
    for due, size, index, kind in zip(dues, sizes, which, kinds):
        circuit = circuits[index]
        netlist = circuit.netlist
        batch = random_assignments(rng, netlist, size)
        request = Request(due=due, circuit=index, assignments=batch,
                          kind=kind, expected=circuit.reference(batch))
        if kind == "noise":
            request.noise = NoiseModel(
                amplitude_sigma=0.05, phase_sigma=0.05,
                seed=rng.randrange(2**31),
            )
        elif kind == "fault":
            cell = rng.choice(netlist.cells("MAJ3")).name
            request.faults = [CellFault(cell, TransducerFault(
                kind="weak-source", channel=rng.randrange(8),
                input_index=rng.randrange(3), severity=0.5,
            ))]
        schedule.append(request)
    return schedule


def sender_threads():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def open_loop(url, circuits, schedule, keep=lambda index: False):
    """Send ``schedule`` open-loop; returns (records, start, end).

    ``keep(index)`` selects the requests whose results are retained
    for checks after the timed window.
    """
    from repro.serve import ServeClient

    records = [Record() for _ in schedule]
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter() + 0.02
    cutoff = start + schedule[-1].due + OVERRUN_S

    def worker():
        client = ServeClient(url, timeout=CLIENT_TIMEOUT_S)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            request = schedule[index]
            record = records[index]
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if sent > cutoff:
                record.error = "not sent: the run overran its schedule"
                record.latency = sent - due
                continue
            try:
                result = client.run(
                    circuits[request.circuit].netlist, request.assignments,
                    faults=request.faults, noise=request.noise,
                )
            except Exception as exc:  # a failed request is counted
                record.error = f"{type(exc).__name__}: {exc}"
                result = None
            done = time.perf_counter()
            record.lag = sent - due
            record.latency = done - due
            record.wall = done - sent
            if result is not None:
                record.ok = (
                    result.correct and result.outputs == request.expected
                )
                if not record.ok:
                    record.error = "outputs differ from the reference"
                if keep(index):
                    record.result = result

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(sender_threads())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((start + r.latency + schedule[i].due
               for i, r in enumerate(records)), default=start)
    return records, start, end


def latency_summary(records, schedule, start, end):
    """p50/p90 latency [ms] from due time (failed requests count as
    missing: they sort above every served one) and served words/s."""
    latencies = [
        r.latency * 1e3 if r.ok else CLIENT_TIMEOUT_S * 1e3
        for r in records
    ]
    words = sum(len(q.assignments)
                for q, r in zip(schedule, records) if r.ok)
    return {
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "words_per_s": words / (end - start),
    }


def _setup_once(root, circuits, *options):
    """Start one daemon (``swgate serve`` with extra ``options``) and
    serve one request per netlist; returns (daemon, seconds from spawn
    to the last correct first response)."""
    from repro.serve import ServeClient

    started = time.perf_counter()
    daemon = Daemon(root, *options).start()
    try:
        client = ServeClient(daemon.url, timeout=CLIENT_TIMEOUT_S)
        rng = seeded_rng(0, "serve-setup")
        for circuit in circuits:
            batch = random_assignments(rng, circuit.netlist, WORD_SIZES[0])
            result = client.run(circuit.netlist, batch)
            if result.outputs != circuit.reference(batch):
                raise RuntimeError(
                    f"{circuit.netlist.name}: first response is wrong"
                )
        return daemon, time.perf_counter() - started
    except BaseException:
        daemon.close()
        raise


def scalar_sample(schedule):
    """Indices checked against ``run_scalar``: the first two noisy,
    the first two faulted and the first nominal request."""
    picked = []
    for kind, count in (("noise", 2), ("fault", 2), ("nominal", 1)):
        picked += [i for i, q in enumerate(schedule) if q.kind == kind][
            :count
        ]
    return set(picked)


def check_against_scalar(circuits, schedule, records, indices):
    """Number of sampled requests whose served result disagrees with
    ``CircuitEngine.run_scalar`` (outputs, per-level margins)."""
    from repro.circuits import CircuitEngine

    engines = {}
    mismatches = 0
    for index in sorted(indices):
        request = schedule[index]
        record = records[index]
        if not record.ok:
            continue  # already counted as failed
        engine = engines.get(request.circuit)
        if engine is None:
            engine = CircuitEngine(
                circuits[request.circuit].netlist, n_bits=8
            )
            engines[request.circuit] = engine
        reference = engine.run_scalar(
            request.assignments, faults=request.faults,
            noise=request.noise,
        )
        if not margins_agree(record.result, reference):
            record.ok = False
            record.error = "disagrees with run_scalar"
            mismatches += 1
    return mismatches


class ServeWorkload:
    def run(self, root, seed, seconds, trace):
        circuits = build_circuits()
        setups = []
        daemon = None
        try:
            for _ in range(1 if trace else SETUP_REPEATS[0]):
                if daemon is not None:
                    daemon.close()
                daemon, elapsed = _setup_once(root, circuits)
                setups.append(elapsed)
            if trace:
                return self._traced(root, seed, seconds, circuits, daemon)
            schedule = make_schedule(seed, seconds, circuits)
            sample = scalar_sample(schedule)
            records, start, end = open_loop(
                daemon.url, circuits, schedule, keep=sample.__contains__
            )
            stats = daemon.get_json("/stats")["stats"]
            peak = daemon.peak_rss_mb()
        finally:
            if daemon is not None:
                daemon.close()
        for _ in range(SETUP_REPEATS[1]):
            daemon, elapsed = _setup_once(root, circuits)
            daemon.close()
            setups.append(elapsed)
        check_against_scalar(circuits, schedule, records, sample)
        summary = latency_summary(records, schedule, start, end)
        metrics = {
            "setup_s": median(setups),
            "latency_p50_ms": summary["latency_p50_ms"],
            "words_per_s": summary["words_per_s"],
            "peak_rss_mb": peak,
        }
        return self._outcome(records, stats, metrics)

    @staticmethod
    def _outcome(records, stats, metrics):
        failed = sum(not r.ok for r in records)
        errors = sorted({r.error for r in records if r.error})
        lag = np.percentile([r.lag * 1e3 for r in records], 90)
        return {
            "attempted": len(records),
            "failed": failed,
            "fallbacks": stats["fallbacks"],
            "notes": [f"load generator: {sender_threads()} sender threads, "
                      f"lag p90 {lag:.3f} ms"] + errors[:5],
            "metrics": metrics,
        }

    def _traced(self, root, seed, seconds, circuits, daemon):
        import layers

        # Both halves replay one schedule: the untraced half against a
        # daemon with request tracing off, the traced half against the
        # default one, so their latency difference is the tracing cost.
        schedule = make_schedule(seed, seconds / 2.0, circuits)
        plain_daemon, _ = _setup_once(root, circuits, "--no-request-trace")
        try:
            plain, start, end = open_loop(plain_daemon.url, circuits,
                                          schedule)
            plain_stats = plain_daemon.get_json("/stats")["stats"]
        finally:
            plain_daemon.close()
        untraced = latency_summary(plain, schedule, start, end)
        before = layers.DaemonSnapshot.take(daemon)
        records, start, end = open_loop(
            daemon.url, circuits, schedule, keep=lambda index: True
        )
        after = layers.DaemonSnapshot.take(daemon)
        traced = latency_summary(records, schedule, start, end)
        daemon.close()
        sample = scalar_sample(schedule)
        check_against_scalar(circuits, schedule, records, sample)
        served = [
            layers.Served(circuits[q.circuit].netlist, q.assignments,
                          q.faults, q.noise, r.result, r.wall)
            for q, r in zip(schedule, records) if r.ok
        ]
        # submit_ms needs in-process timing around ``run``; replay a
        # slice of the served requests for it.
        metrics = layers.executor_probe(served[:PROBE_REQUESTS])
        metrics.update(layers.wire_metrics(served, before, after))
        metrics.update(layers.block_metrics(before.metrics, after.metrics))
        metrics.update(layers.trace_metrics(
            [s.result.trace for s in served]
        ))
        metrics.update(layers.cache_metrics(before.stats, after.stats))
        metrics.update(layers.circuit_probes(
            [c.netlist for c in circuits], served,
        ))
        metrics.update(layers.physics_probes(seed))
        layers.finish(metrics)
        metrics["tracing.overhead_ms"] = (
            traced["latency_p50_ms"] - untraced["latency_p50_ms"]
        )
        metrics["tail.latency_p90_ms"] = traced["latency_p90_ms"]
        lags = [r.lag * 1e3 for r in records]
        metrics.update({
            "loadgen.lag_p90_ms": float(np.percentile(lags, 90)),
            "loadgen.sent": len(records),
            "loadgen.ok": sum(r.ok for r in records),
            "loadgen.failed": sum(not r.ok for r in records),
        })
        stats = dict(after.stats["stats"])
        stats["fallbacks"] += plain_stats["fallbacks"]
        return self._outcome(plain + records, stats, metrics)
