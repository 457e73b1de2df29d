"""``swgate top`` -- live throughput monitor for a serving daemon.

Polls a running daemon's ``/healthz``, ``/stats`` and
``/metrics?format=json`` endpoints (plain :class:`ServeClient` calls,
no daemon-side support needed) and renders **interval deltas**: words/s
and requests/s over the last polling window, p50/p99 queue-wait and
request latency estimated from the delta of the cumulative histograms
(:func:`repro.obs.histogram_quantile`), coalescing efficiency
(words per packed block, share of requests that shared a block),
compile-cache hit rate and error rate.  Cumulative counters answer
"how much since boot"; the interval view answers "what is it doing
*now*", which is what you watch during a load test.

Everything below :func:`top` is a pure function of two samples, so the
rendering is unit-testable without a daemon.
"""

import sys
import time

from repro.obs import histogram_quantile
from repro.serve.client import ServeClient

#: ANSI clear-screen + home, used between refreshes (``--no-clear``
#: falls back to a separator line for dumb terminals / log capture).
_CLEAR = "\x1b[2J\x1b[H"


def sample(client):
    """One monitoring sample: monotonic time + the daemon's state."""
    return {
        "t": time.monotonic(),
        "healthz": client.healthz(),
        "stats": client.stats(),
        "metrics": client.metrics(format="json"),
    }


def _counter(sample_, name):
    return sample_["metrics"].get("counters", {}).get(name, 0)


def _counter_delta(prev, cur, name):
    return _counter(cur, name) - _counter(prev, name)


def _histogram_delta(prev, cur, name):
    """The interval histogram between two cumulative snapshots.

    Returns the current histogram verbatim when the previous sample
    lacks it (first window, or bounds changed); ``None`` when the
    daemon never recorded it.
    """
    c = cur["metrics"].get("histograms", {}).get(name)
    if c is None:
        return None
    p = prev["metrics"].get("histograms", {}).get(name)
    if p is None or p.get("bounds") != c.get("bounds"):
        return c
    return {
        "bounds": list(c["bounds"]),
        "counts": [b - a for a, b in zip(p["counts"], c["counts"])],
        "count": c["count"] - p["count"],
        "sum": c["sum"] - p["sum"],
        # Interval max is unknowable from cumulative buckets; the
        # all-time max is the honest upper bound for the p99 estimate.
        "max": c.get("max"),
    }


def _quantiles_ms(prev, cur, name):
    """``(p50, p99)`` of the interval histogram, in milliseconds."""
    delta = _histogram_delta(prev, cur, name)
    if not delta or not delta.get("count"):
        return None, None
    p50 = histogram_quantile(delta, 0.5)
    p99 = histogram_quantile(delta, 0.99)
    return (
        None if p50 is None else p50 * 1e3,
        None if p99 is None else p99 * 1e3,
    )


def _fmt_ms(value):
    return "-" if value is None else f"{value:.2f}ms"


def render_interval(prev, cur):
    """Render one refresh of the monitor from two samples (pure)."""
    dt = max(cur["t"] - prev["t"], 1e-9)
    health = cur["healthz"]
    requests = _counter_delta(prev, cur, "serve.requests")
    errors = sum(
        _counter_delta(prev, cur, name)
        for name in cur["metrics"].get("counters", {})
        if name.startswith("serve.errors.") and ".class." not in name
    )
    words = _counter_delta(prev, cur, "executor.words")
    blocks = _counter_delta(prev, cur, "executor.blocks")
    coalesced = _counter_delta(prev, cur, "executor.coalesced_requests")
    submitted = _counter_delta(prev, cur, "executor.requests")
    hits = _counter_delta(prev, cur, "compile_cache.hits")
    misses = _counter_delta(prev, cur, "compile_cache.misses")
    lookups = hits + misses
    q50, q99 = _quantiles_ms(prev, cur, "executor.queue_latency_s")
    r50, r99 = _quantiles_ms(prev, cur, "serve.request_s")

    lines = [
        f"swgate top -- {health['backend']} backend, "
        f"{health['n_bits']}-bit cells, uptime {health['uptime_s']:.0f}s, "
        f"pending {health['pending_words']} words",
        f"  interval   {dt:.2f}s",
        f"  throughput {words / dt:8.1f} words/s   "
        f"{requests / dt:8.1f} requests/s   "
        f"{blocks / dt:8.1f} blocks/s",
        f"  latency    queue p50 {_fmt_ms(q50)} p99 {_fmt_ms(q99)}   "
        f"request p50 {_fmt_ms(r50)} p99 {_fmt_ms(r99)}",
        "  coalescing "
        + (
            f"{words / blocks:8.1f} words/block  "
            f"{coalesced / submitted:7.1%} of requests shared a block"
            if blocks and submitted else "   (no blocks this interval)"
        ),
        f"  compile    "
        + (
            f"{hits / lookups:7.1%} cache hit rate ({lookups} lookups)"
            if lookups else "(no lookups this interval)"
        ),
        f"  errors     "
        + (
            f"{errors / requests:7.1%} of requests ({errors} errors)"
            if requests else "(no requests this interval)"
        ),
    ]
    return "\n".join(lines)


def top(url, interval=2.0, iterations=None, clear=True, out=None):
    """Poll ``url`` every ``interval`` seconds and render live stats.

    ``iterations`` bounds the number of refreshes (None = until
    interrupted); returns the number of refreshes rendered.  The first
    window doubles as warm-up: rendering starts after the second
    sample, when a delta exists.
    """
    out = sys.stdout if out is None else out
    client = ServeClient(url, timeout=max(interval, 5.0))
    prev = sample(client)
    rendered = 0
    while iterations is None or rendered < iterations:
        time.sleep(interval)
        cur = sample(client)
        text = render_interval(prev, cur)
        if clear:
            out.write(_CLEAR)
        out.write(text + "\n")
        if not clear:
            out.write("---\n")
        out.flush()
        prev = cur
        rendered += 1
    return rendered
