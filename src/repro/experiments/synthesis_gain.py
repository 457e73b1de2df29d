"""What logic optimization buys *physically*: margins and throughput.

Depth and cell counts are synthesis-side proxies; this experiment closes
the loop by executing every suite circuit's naive and optimized mapping
on the physical circuit engine and measuring what actually changes at
the waveguide level:

* **decode margins** -- each removed logic level is one fewer
  regeneration stage whose worst-case channel must clear the decision
  boundary; the per-level minimum margins of both mappings are compared
  directly;
* **throughput** -- fewer (cell x word-group) GEMMs per batch mean more
  words per second through the same engine; both mappings time a warmed
  batched run over the same seeded assignment batch;
* **conformance** -- both mappings must decode exactly the Boolean
  reference on every entry, and one designated circuit re-runs in
  full time-domain trace mode to confirm the optimized mapping survives
  waveform physics, not just steady-state phasors.
"""

import time

import numpy as np

from repro.analysis.tables import render_table
from repro.circuits.executor import CircuitExecutor
from repro.errors import SynthesisError
from repro.synthesis import suite as synthesis_suite
from repro.synthesis.flow import synthesize
from repro.synthesis.verify import random_input_batch

DEFAULT_TRACE_CIRCUIT = "comparator4"


def _timed_run(executor, netlist, batch):
    """(CircuitRunResult, words/s) of one warmed batched evaluation."""
    # Warm run compiles the packed artifact (and any weights/bases not
    # already shared from a previous circuit) so the timed run measures
    # steady-state serving throughput.
    executor.run(netlist, batch[: executor.n_bits])
    started = time.perf_counter()
    result = executor.run(netlist, batch, strict=False)
    elapsed = time.perf_counter() - started
    return result, len(batch) / elapsed


def run(circuits=None, n_bits=4, n_groups=2, seed=7,
        trace_circuit=DEFAULT_TRACE_CIRCUIT):
    """Naive-vs-optimized physical comparison over the synthesis suite.

    For each circuit the specification is synthesized (optimize + map +
    Boolean verification against the independent Python reference),
    then both mappings execute one seeded random batch of ``n_groups``
    word groups on ``n_bits``-wide cells.  ``trace_circuit`` names the
    suite entry whose optimized mapping additionally runs in trace mode.
    """
    if n_groups < 1:
        raise SynthesisError(f"n_groups must be >= 1, got {n_groups!r}")
    circuits = list(circuits) if circuits is not None else synthesis_suite()
    rng = np.random.default_rng(seed)
    # Every mapping of every circuit is served by one executor: one
    # shared bindings object (phasor and trace weights memoised across
    # circuits) and one compile cache of packed artifacts.
    executor = CircuitExecutor(n_bits=n_bits)
    rows = []
    trace_report = None
    for circuit in circuits:
        result = synthesize(circuit.build(), reference=circuit.reference)
        batch = None
        measurements = {}
        for label, report in (
            ("naive", result.naive), ("optimized", result.optimized)
        ):
            if batch is None:
                batch = random_input_batch(
                    report.netlist.inputs, n_groups * n_bits, rng=rng
                )
            run_result, words_per_second = _timed_run(
                executor, report.netlist, batch
            )
            if not run_result.correct:
                raise SynthesisError(
                    f"{label} mapping of {circuit.name!r} disagrees with "
                    "the Boolean reference on the physical engine"
                )
            measurements[label] = {
                "depth": report.depth,
                "physical_depth": report.physical_depth,
                "n_physical": report.n_physical,
                "min_margin": run_result.min_margin,
                "words_per_second": words_per_second,
            }
        naive, optimized = measurements["naive"], measurements["optimized"]
        rows.append(
            {
                "circuit": circuit.name,
                "naive": naive,
                "optimized": optimized,
                "throughput_ratio": (
                    optimized["words_per_second"]
                    / naive["words_per_second"]
                ),
                "margin_delta": (
                    optimized["min_margin"] - naive["min_margin"]
                ),
                "verified": result.verified,
            }
        )
        if circuit.name == trace_circuit:
            netlist = result.optimized.netlist
            phasor = executor.run(netlist, batch, strict=False)
            trace = executor.run(netlist, batch, strict=False, mode="trace")
            trace_report = {
                "circuit": circuit.name,
                "phasor_correct": phasor.correct,
                "trace_correct": trace.correct,
                "decodes_agree": trace.outputs == phasor.outputs,
                "trace_min_margin": trace.min_margin,
            }
    return {
        "rows": rows,
        "n_bits": n_bits,
        "n_entries": n_groups * n_bits,
        "seed": seed,
        "trace": trace_report,
        "serving": executor.describe(),
    }


def report(results):
    """Render the naive-vs-optimized physical scorecard."""
    headers = [
        "circuit",
        "depth n->o",
        "cells n->o",
        "margin n",
        "margin o",
        "kwords/s n",
        "kwords/s o",
        "speedup",
    ]
    rows = []
    for row in results["rows"]:
        naive, optimized = row["naive"], row["optimized"]
        rows.append(
            [
                row["circuit"],
                f"{naive['physical_depth']} -> "
                f"{optimized['physical_depth']}",
                f"{naive['n_physical']} -> {optimized['n_physical']}",
                f"{naive['min_margin']:.3f}",
                f"{optimized['min_margin']:.3f}",
                f"{naive['words_per_second'] / 1e3:.1f}",
                f"{optimized['words_per_second'] / 1e3:.1f}",
                f"{row['throughput_ratio']:.2f}x",
            ]
        )
    table = render_table(
        headers,
        rows,
        title=(
            "Physical gain of logic optimization "
            f"({results['n_entries']} words, {results['n_bits']}-bit "
            "cells, phasor backend; depth/cells count transducer levels)"
        ),
    )
    lines = [table, ""]
    trace = results.get("trace")
    if trace is not None:
        agree = "agree" if trace["decodes_agree"] else "DISAGREE"
        lines.append(
            f"trace-mode confirmation ({trace['circuit']}): "
            f"optimized mapping {'correct' if trace['trace_correct'] else 'WRONG'}"
            f" through full waveform physics, phasor/trace decodes {agree}, "
            f"min margin {trace['trace_min_margin']:.3f}"
        )
    lines.append(
        "Every removed level is one fewer regeneration stage; fewer "
        "(cell x group) GEMMs per batch turn directly into words/s."
    )
    serving = results.get("serving")
    if serving is not None:
        lines.append(f"packed serving: {serving}")
    return "\n".join(lines)
