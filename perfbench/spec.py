"""What each per-layer metric should move.

``BENCHMARK.json`` at the repository root names the workloads (with
why each was chosen) and the metrics (with units and bounds).  This
table adds, for every per-layer metric, the prediction a change to
that layer is judged against: the end-to-end metric, and the workload,
that a faster layer should improve.  ``run.py`` refuses to run when a
per-layer metric of ``BENCHMARK.json`` has no entry here.
"""

_LIGHT = "latency_p50_ms (serve-light)"
_TRACE = "words_per_s (trace-rca4)"
# No workload runs the LLG solver end to end: one reduced-gate case
# takes seconds, too few per run for a steady median on a shared host.
# The kernels are probed in every traced run instead.
_LLG = "none gated: no end-to-end LLG workload"
_HEALTH = "none: generator health"

MOVES = {
    "serve.client.encode_ms": _LIGHT,
    "serve.client.decode_ms": _LIGHT,
    "serve.protocol.request_decode_ms": _LIGHT,
    "serve.protocol.result_encode_ms": _LIGHT,
    "serve.daemon.handler_ms":
        _LIGHT,
    "serve.transport_ms": _LIGHT,
    "serve.request_bytes": _LIGHT,
    "serve.response_bytes": _LIGHT,
    "executor.queue_wait_p50_ms": _LIGHT,
    "executor.queue_wait_p90_ms": "tail.latency_p90_ms (serve-light)",
    # Requests rarely coalesce at serve-light's rate (about 1.02
    # requests per block), so a flush-policy change shows in the tail.
    "executor.requests_per_block": "tail.latency_p90_ms (serve-light)",
    "executor.block_occupancy": "tail.latency_p90_ms (serve-light)",
    "executor.submit_ms": _LIGHT + "; negligible on trace-rca4",
    "compiled.execute_ms": _TRACE + " (dominant); " + _LIGHT,
    "compiled.decode_ms": _LIGHT + "; negligible on trace-rca4",
    "netlist.reference_ms": _LIGHT + "; negligible on trace-rca4",
    "compiled.result_build_ms": _LIGHT + "; negligible on trace-rca4",
    "compiled.signature_ms": _LIGHT,
    "compiled.cache_hit_rate": _LIGHT,
    "compiled.compile_ms": "setup_s (serve-light, trace-rca4)",
    "gate.trace_words_per_s": _TRACE,
    "gate.phasor_words_per_s": _LIGHT,
    "mm.rhs_us": _LLG,
    "mm.effective_field_us": _LLG,
    "mm.steps": _LLG,
    "mm.cells": _LLG,
    "mm.build_ms": _LLG,
    "mm.sim_ns_per_s": _LLG,
    "loadgen.lag_p90_ms": _HEALTH,
    "loadgen.sent": _HEALTH,
    "loadgen.ok": _HEALTH,
    "loadgen.failed": _HEALTH,
    "tracing.overhead_ms": "none: traced minus untraced latency_p50_ms",
    # The tail is reported here rather than gated as an end-to-end
    # metric: on a shared two-core host its run-to-run spread
    # (IQR/median over seeds) measured 0.1-0.3, wider than any bound.
    "tail.latency_p90_ms": "none: p90 of the latency behind latency_p50_ms",
}
