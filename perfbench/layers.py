"""Per-layer measurements for the traced pass (``--trace 1``).

Everything here times *public* functions of one layer from outside
(``time.perf_counter`` around the call) or reads what the program
already reports: the ``RequestTrace`` on every result, the daemon's
``/stats`` and ``/metrics?format=json``, and ``CircuitExecutor.stats``.
No program method is wrapped or replaced -- replacing any hook in
``repro.circuits.compiled._PRISTINE_HOOKS`` would silently reroute
every request to the per-op fallback and measure a different program.

Layers a workload does not cross on its own are probed briefly, so
every traced run reports the full per-layer table: the wire through a
fresh daemon and the circuit layers through a fresh executor, both on
the workload's own requests; the gate physics on MAJ3 blocks of the
shape ``trace-rca4`` and ``serve-light`` feed it; the LLG kernels on
the reduced gate of the LLG cross-validation experiment.
``spec.MOVES`` names the workload each metric is attributed to.
"""

import json
import time
from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

#: Wall-clock budget [s] of each repeated-call micro-measurement.
PROBE_BUDGET_S = 0.3
#: Simulated span [s] of the LLG kernel probe run.
MM_PROBE_SPAN_S = 0.05e-9
#: LLG time step of ``run_llg_case`` [s].
MM_DT_S = 0.1e-12


@dataclass
class Served:
    """One request as it crossed (or would cross) the wire."""

    netlist: object
    assignments: list
    faults: list
    noise: object
    result: object
    wall: float = 0.0  # client wall time [s]
    mode: str = "phasor"


def per_call_s(func, budget=PROBE_BUDGET_S, min_calls=5):
    """Median wall time [s] of ``func()`` over repeated calls."""
    times = []
    stop = time.perf_counter() + budget
    while len(times) < min_calls or time.perf_counter() < stop:
        started = time.perf_counter()
        func()
        times.append(time.perf_counter() - started)
    return median(times)


# ----------------------------------------------------------------------
# Daemon-side numbers
# ----------------------------------------------------------------------
class DaemonSnapshot:
    """``/stats`` + ``/metrics?format=json`` at one instant."""

    def __init__(self, stats, metrics):
        self.stats = stats
        self.metrics = metrics

    @classmethod
    def take(cls, daemon):
        return cls(daemon.get_json("/stats"),
                   daemon.get_json("/metrics?format=json"))


def _counter(snapshot, name):
    return snapshot["counters"].get(name, 0)


def _histogram(snapshot, name):
    entry = snapshot["histograms"].get(name) or {"sum": 0.0, "count": 0}
    return entry["sum"], entry["count"]


def _histogram_mean(before, after, name):
    sum0, count0 = _histogram(before, name)
    sum1, count1 = _histogram(after, name)
    return (sum1 - sum0) / (count1 - count0)


def block_metrics(before, after):
    """Coalescing, from two executor registry snapshots."""
    requests = _counter(after, "executor.requests") - _counter(
        before, "executor.requests")
    blocks = _counter(after, "executor.blocks") - _counter(
        before, "executor.blocks")
    return {
        "executor.requests_per_block": requests / blocks,
        "executor.block_occupancy": _histogram_mean(
            before, after, "executor.block_occupancy"),
    }


def cache_metrics(before, after):
    """Compile-cache hit rate between two ``/stats``-shaped dicts."""
    hits = after["compile_cache"]["hits"] - before["compile_cache"]["hits"]
    misses = (after["compile_cache"]["misses"]
              - before["compile_cache"]["misses"])
    return {"compiled.cache_hit_rate": hits / (hits + misses)}


def executor_stats(executor):
    """``/stats``-shaped dict of an in-process executor."""
    return {
        "stats": executor.stats,
        "compile_cache": {"hits": executor.cache.hits,
                          "misses": executor.cache.misses},
    }


def trace_metrics(traces):
    """Queue wait, packed execution and decode from ``RequestTrace``s."""
    waits = [t.queue_wait_s * 1e3 for t in traces]
    return {
        "executor.queue_wait_p50_ms": np.percentile(waits, 50),
        "executor.queue_wait_p90_ms": np.percentile(waits, 90),
        "compiled.execute_ms": fmean([t.execute_s * 1e3 for t in traces]),
        "compiled.decode_ms": fmean([t.decode_s * 1e3 for t in traces]),
    }


# ----------------------------------------------------------------------
# The wire: client, protocol, daemon handler, transport
# ----------------------------------------------------------------------
def wire_metrics(served, before, after):
    """Client/protocol costs re-timed on the captured payloads, the
    daemon handler time over the same requests, and the transport
    remainder of the client's wall time."""
    from repro.serve import protocol

    encode, decode, request_decode, result_encode = [], [], [], []
    request_bytes, response_bytes = [], []
    for item in served:
        def encode_request(item=item):
            return json.dumps(protocol.encode_run_request(
                item.netlist, item.assignments, faults=item.faults,
                noise=item.noise, mode=item.mode,
            )).encode("utf-8")

        body = encode_request()
        payload = json.loads(body)
        response = json.dumps(
            protocol.result_to_wire(item.result)).encode("utf-8")
        request_bytes.append(len(body))
        response_bytes.append(len(response))
        encode.append(_timed(encode_request))
        decode.append(_timed(
            lambda: protocol.result_from_wire(json.loads(response))))
        request_decode.append(_timed(
            lambda: protocol.decode_run_request(payload)))
        result_encode.append(_timed(lambda: json.dumps(
            protocol.result_to_wire(item.result)).encode("utf-8")))
    handler = _histogram_mean(before.metrics, after.metrics,
                              "serve.request_s") * 1e3
    metrics = {
        "serve.client.encode_ms": fmean(encode),
        "serve.client.decode_ms": fmean(decode),
        "serve.protocol.request_decode_ms": fmean(request_decode),
        "serve.protocol.result_encode_ms": fmean(result_encode),
        "serve.daemon.handler_ms": handler,
        "serve.request_bytes": fmean(request_bytes),
        "serve.response_bytes": fmean(response_bytes),
    }
    metrics["serve.transport_ms"] = (
        fmean([s.wall * 1e3 for s in served]) - handler
        - metrics["serve.client.encode_ms"]
        - metrics["serve.client.decode_ms"]
    )
    return metrics


def _timed(func):
    started = time.perf_counter()
    func()
    return (time.perf_counter() - started) * 1e3


def daemon_probe(root, served):
    """Send ``served`` requests one at a time through a fresh daemon
    (closed loop) and return the wire metrics of those requests."""
    from daemon import Daemon
    from repro.serve import ServeClient

    with Daemon(root) as daemon:
        client = ServeClient(daemon.url, timeout=60.0)
        for item in served[:1]:  # compile outside the measured span
            client.run(item.netlist, item.assignments, mode=item.mode)
        before = DaemonSnapshot.take(daemon)
        captured = []
        for item in served:
            started = time.perf_counter()
            result = client.run(item.netlist, item.assignments,
                                faults=item.faults, noise=item.noise,
                                mode=item.mode)
            wall = time.perf_counter() - started
            if not result.correct:
                raise RuntimeError("daemon probe result is wrong")
            captured.append(Served(item.netlist, item.assignments,
                                   item.faults, item.noise, result, wall,
                                   item.mode))
        after = DaemonSnapshot.take(daemon)
    if after.stats["stats"]["fallbacks"]:
        raise RuntimeError("daemon probe took the per-op fallback")
    return wire_metrics(captured, before, after)


# ----------------------------------------------------------------------
# Executor, compiled artifact, netlist reference
# ----------------------------------------------------------------------
def executor_probe(served, n_bits=8):
    """Stage metrics of ``served`` requests replayed through a fresh
    in-process executor (after one warm-up pass): trace stages,
    coalescing, compile-cache hit rate and ``executor.submit_ms``."""
    from repro.circuits import CircuitExecutor

    executor = CircuitExecutor(n_bits=n_bits)
    for item in served:
        executor.run(item.netlist, item.assignments, faults=item.faults,
                     noise=item.noise, mode=item.mode)
    before = (executor.obs.snapshot(), executor_stats(executor))
    traces, walls = [], []
    for item in served:
        started = time.perf_counter()
        result = executor.run(item.netlist, item.assignments,
                              faults=item.faults, noise=item.noise,
                              mode=item.mode)
        walls.append(time.perf_counter() - started)
        if not result.correct:
            raise RuntimeError("executor probe result is wrong")
        traces.append(result.trace)
    after = (executor.obs.snapshot(), executor_stats(executor))
    if executor.stats["fallbacks"]:
        raise RuntimeError("executor probe took the per-op fallback")
    return stage_metrics(traces, walls, before, after)


def stage_metrics(traces, walls, before, after):
    """Executor and compiled-artifact metrics of in-process ``run``
    calls; ``before``/``after`` are (registry snapshot, stats) pairs."""
    metrics = trace_metrics(traces)
    metrics.update(block_metrics(before[0], after[0]))
    metrics.update(cache_metrics(before[1], after[1]))
    metrics["executor.submit_ms"] = fmean(
        [(w - t.total_s) * 1e3 for t, w in zip(traces, walls)]
    )
    return metrics


def circuit_probes(netlists, served):
    """Signature hashing, cold compile and the Boolean reference."""
    from repro.circuits import GateBindings, compile_circuit
    from repro.circuits.compiled import netlist_signature

    signature = fmean([per_call_s(lambda n=n: netlist_signature(n), 0.05)
                       for n in netlists])
    compile_times = []
    for netlist in netlists:
        bindings = GateBindings(n_bits=8)
        started = time.perf_counter()
        compile_circuit(netlist, bindings)
        compile_times.append(time.perf_counter() - started)
    reference = fmean([
        _timed(lambda s=s: s.netlist.evaluate_batch(s.assignments))
        for s in served
    ])
    return {
        "compiled.signature_ms": signature * 1e3,
        "compiled.compile_ms": fmean(compile_times) * 1e3,
        "netlist.reference_ms": reference,
    }


# ----------------------------------------------------------------------
# Gate physics and LLG kernels
# ----------------------------------------------------------------------
#: Entries per ``run_batch`` / ``run_phasor_batch`` call for a 64-word
#: request (8 groups of 8 lanes, one cell per op per level), the batch
#: of ``trace-rca4`` and the largest request of ``serve-light``.
ROWS = 8


def gate_probes(seed, n_bits=8):
    """Lanes per second of the nominal MAJ3 simulator's batched paths."""
    from repro.circuits import GateBindings

    simulator = GateBindings(n_bits=n_bits).simulator("MAJ3")
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 2, size=(ROWS, 3, n_bits))
    simulator.run_batch(block)
    trace_s = per_call_s(lambda: simulator.run_batch(block))
    simulator.run_phasor_batch(block)
    phasor_s = per_call_s(lambda: simulator.run_phasor_batch(block))
    return {
        "gate.trace_words_per_s": ROWS * n_bits / trace_s,
        "gate.phasor_words_per_s": ROWS * n_bits / phasor_s,
    }


def mm_probes(seed):
    """LLG kernels on the reduced gate of the LLG cross-validation."""
    from repro.core.simulate import build_micromagnetic_simulation
    from repro.experiments.llg_validation import build_reduced_gate

    gate = build_reduced_gate()
    bits = [int(b) for b in np.random.default_rng(seed).integers(0, 2, 3)]
    words = [[b] * gate.n_bits for b in bits]

    def build():
        return build_micromagnetic_simulation(
            gate, words, cell_size=4e-9, field_amplitude=8e3)

    build_s = per_call_s(build, 0.1)
    sim, probes = build()
    workspace = sim.ensure_workspace()
    state = sim.state
    m = np.array(state.m)
    out = np.empty_like(m)
    rhs_s = per_call_s(lambda: workspace.rhs_into(state, 0.0, m, out))
    field_s = per_call_s(lambda: workspace.effective_field_into(state, 0.0))
    started = time.perf_counter()
    sim.run(MM_PROBE_SPAN_S, dt=MM_DT_S)
    elapsed = time.perf_counter() - started
    return {
        "mm.build_ms": build_s * 1e3,
        "mm.rhs_us": rhs_s * 1e6,
        "mm.effective_field_us": field_s * 1e6,
        "mm.steps": len(probes[0].times()),
        "mm.cells": int(np.prod(state.mesh.shape)),
        "mm.sim_ns_per_s": MM_PROBE_SPAN_S * 1e9 / elapsed,
    }


def physics_probes(seed):
    metrics = gate_probes(seed)
    metrics.update(mm_probes(seed))
    return metrics


def finish(metrics):
    """Derived entries: result build = decode minus the reference."""
    metrics["compiled.result_build_ms"] = (
        metrics["compiled.decode_ms"] - metrics["netlist.reference_ms"]
    )
    return metrics
