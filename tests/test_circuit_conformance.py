"""Cross-backend conformance harness for circuit execution.

Every circuit runs through one batched path per mode (the compiled
packed artifact, standalone or coalesced by the executor) and one
scalar reference; this module pins them against each other on seeded
randomized MAJ/XOR/INV/BUF DAGs (:func:`repro.circuits.synth.random_netlist`
-- fanout, constants and virtual cells all occur) across nominal,
noisy, single-fault and multi-fault configurations:

* **Boolean** -- :meth:`Netlist.evaluate_batch`, the exact logic
  reference (physics must match it bit-for-bit in nominal runs);
* **scalar cascade** -- :meth:`CircuitEngine.run_scalar`, one
  ``run_phasor`` / ``run`` call per (cell, word group), the pinned
  ground truth of the batched path and the only path serving placement
  noise;
* **packed phasor** -- :meth:`CircuitEngine.run`, the steady-state
  GEMM path (pinned to scalar at <= 1e-12);
* **packed trace** -- ``run(mode="trace")``, full time-domain waveform
  generation with lock-in decode (pinned to its scalar loop at
  <= 1e-12, and decode-agreeing with the phasor path);
* **coalesced** -- :class:`CircuitExecutor` blocks mixing requests of
  every configuration, each pinned to its standalone scalar run.

The fast lane exercises a handful of seeds; the full randomized sweep
(>= 20 seeds x {nominal, noisy, faulty}) is marked ``slow``.
"""

import random

import numpy as np
import pytest

from repro.circuits import (
    CellFault,
    CircuitEngine,
    CircuitExecutor,
    random_netlist,
)
from repro.circuits.library import PHYSICAL_BINDINGS, physical_arity
from repro.circuits.netlist import Netlist
from repro.core.faults import TransducerFault
from repro.core.readout import MIN_AMPLITUDE_RATIO
from repro.core.simulate import GateSimulator
from repro.circuits.library import physical_gate
from repro.errors import NetlistError, SimulationError
from repro.waveguide import NoiseModel

TOL = 1e-12
N_BITS = 2

#: The randomized-sweep seed set: >= 20 seeded netlists (acceptance
#: criterion of the harness); the first FAST_SEEDS stay in the quick lane.
ALL_SEEDS = tuple(range(20))
FAST_SEEDS = ALL_SEEDS[:3]


def random_batch(netlist, seed, n_entries=6):
    """Deterministic random primary-input assignments."""
    rng = random.Random(1000 + seed)
    return [
        {name: rng.randint(0, 1) for name in netlist.inputs}
        for _ in range(n_entries)
    ]


def first_physical_cell(engine):
    """Name of the first transducer-level cell in the schedule (or None)."""
    for cells in engine.schedule:
        for node in cells:
            if node.kind in PHYSICAL_BINDINGS:
                return node
    return None


def seeded_fault(engine, seed, kind="stuck-phase-1"):
    """A deterministic CellFault at the first physical cell (or None)."""
    node = first_physical_cell(engine)
    if node is None:
        return None
    return CellFault(
        node.name,
        TransducerFault(
            kind,
            channel=seed % engine.n_bits,
            input_index=seed % physical_arity(node.kind),
        ),
    )


def two_faults(engine):
    """Faults on the first two physical cells (a multi-fault config)."""
    physical = [
        node
        for cells in engine.schedule
        for node in cells
        if node.kind in PHYSICAL_BINDINGS
    ]
    assert len(physical) >= 2
    return [
        CellFault(
            physical[0].name,
            TransducerFault("stuck-phase-1", channel=0, input_index=0),
        ),
        CellFault(
            physical[1].name,
            TransducerFault("dead-source", channel=1, input_index=0),
        ),
    ]


def assert_pinned(result, reference):
    """A batched CircuitRunResult equals its scalar reference <= 1e-12."""
    assert result.outputs == reference.outputs
    assert result.failed == reference.failed
    assert len(result.levels) == len(reference.levels)
    for mine, ref in zip(result.levels, reference.levels):
        assert (mine.level, mine.n_cells, mine.n_physical) == (
            ref.level, ref.n_cells, ref.n_physical
        )
        if ref.min_margin is None:
            assert mine.min_margin is None
        else:
            assert abs(mine.min_margin - ref.min_margin) <= TOL
    assert set(result.cells) == set(reference.cells)
    for name, record in result.cells.items():
        ref = reference.cells[name]
        assert record.bits == ref.bits
        if record.margins is None:
            assert ref.margins is None
            continue
        np.testing.assert_allclose(
            record.margins, ref.margins, rtol=TOL, atol=TOL
        )
        np.testing.assert_allclose(
            record.amplitudes, ref.amplitudes, rtol=TOL, atol=TOL
        )


def assert_decode_agreement(trace, phasor):
    """Trace and phasor semantics decode every cell identically."""
    assert trace.outputs == phasor.outputs
    assert trace.failed == phasor.failed
    for name in trace.cells:
        assert trace.cells[name].bits == phasor.cells[name].bits


def cross_check(engine, batch, faults=(), noise=None):
    """Packed and scalar paths in both modes; returns (phasor, trace)."""
    phasor = engine.run(batch, faults=faults, noise=noise, strict=False)
    phasor_ref = engine.run_scalar(
        batch, faults=faults, noise=noise, strict=False
    )
    trace = engine.run(
        batch, faults=faults, noise=noise, strict=False, mode="trace"
    )
    trace_ref = engine.run_scalar(
        batch, faults=faults, noise=noise, strict=False, mode="trace"
    )
    assert phasor.mode == phasor_ref.mode == "phasor"
    assert trace.mode == trace_ref.mode == "trace"
    assert_pinned(phasor, phasor_ref)
    assert_pinned(trace, trace_ref)
    assert_decode_agreement(trace, phasor)
    if not faults and noise is None:
        expected = engine.netlist.evaluate_batch(batch)
        assert phasor.correct
        assert trace.correct
        assert phasor.outputs == expected
        assert trace.outputs == expected
    return phasor, trace


# ----------------------------------------------------------------------
# Fast lane: a handful of seeds through every configuration
# ----------------------------------------------------------------------
class TestConformanceFast:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_nominal(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        cross_check(engine, random_batch(netlist, seed))

    @pytest.mark.parametrize("seed", FAST_SEEDS[:2])
    def test_noisy(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.05, seed=40 + seed
        )
        cross_check(engine, random_batch(netlist, seed), noise=noise)

    @pytest.mark.parametrize("kind", ["stuck-phase-1", "weak-source"])
    def test_faulty(self, kind):
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        fault = seeded_fault(engine, seed, kind=kind)
        assert fault is not None
        cross_check(engine, random_batch(netlist, seed), faults=[fault])

    def test_placement_noise_served_by_run_scalar(self):
        """Placement noise: ``run`` refuses it, ``run_scalar`` serves it.

        Position jitter breaks the shared geometry the packed weights
        bake in, so ``run`` raises a NetlistError naming the study path
        in both modes.  The scalar reference takes the general
        per-source path instead, decodes both modes alike, and never
        memoises the jittered geometries.
        """
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        noise = NoiseModel(position_sigma=1e-9, seed=60 + seed)
        batch = random_batch(netlist, seed, n_entries=4)
        nominal = engine.run(batch, mode="trace")  # builds the trace maps
        simulators = [
            engine.simulator_for(operation) for operation in PHYSICAL_BINDINGS
        ]
        memo = [simulator._trace_weights for simulator in simulators]
        assert any(maps is not None for maps in memo)
        for mode in ("phasor", "trace"):
            with pytest.raises(NetlistError, match="run_scalar"):
                engine.run(batch, noise=noise, strict=False, mode=mode)
        phasor = engine.run_scalar(batch, noise=noise, strict=False)
        trace = engine.run_scalar(
            batch, noise=noise, strict=False, mode="trace"
        )
        assert (phasor.mode, trace.mode) == ("phasor", "trace")
        assert_decode_agreement(trace, phasor)
        # The jitter reached the physics: some margin moved.
        assert any(
            record.margins is not None
            and not np.allclose(record.margins, nominal.cells[name].margins)
            for name, record in trace.cells.items()
        )
        # Jittered geometries never repeat and must not be memoised.
        assert all(
            simulator._trace_weights is maps
            for simulator, maps in zip(simulators, memo)
        )
        assert engine.model()._basis_cache == {}

    def test_multi_fault_conformance(self):
        """Distinct-cell fault lists conform across all four backends."""
        seed = FAST_SEEDS[2]
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        cross_check(
            engine, random_batch(netlist, seed), faults=two_faults(engine)
        )


# ----------------------------------------------------------------------
# Coalesced serving: many requests in one packed block pin to standalone
# ----------------------------------------------------------------------
class TestCoalescedConformance:
    """Coalesced executor blocks reproduce scalar runs <= 1e-12.

    Five requests -- nominal, noisy, trace-noisy, single-fault and
    multi-fault -- are queued against structurally equal netlists
    (distinct objects, same content hash) and executed as ONE packed
    block; every ticket must pin to the uncoalesced
    ``CircuitEngine.run_scalar`` reference.
    """

    @pytest.mark.parametrize("mode", ["phasor", "trace"])
    def test_coalesced_block_matches_standalone(self, mode):
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        twin = random_netlist(seed)  # same signature, different object
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.05, seed=70 + seed
        )
        trace_noise = NoiseModel(trace_sigma=0.05, seed=80 + seed)
        fault = seeded_fault(engine, seed)
        assert fault is not None
        configs = [
            (random_batch(netlist, seed), (), None),
            (random_batch(netlist, seed + 1), (), noise),
            (random_batch(netlist, seed + 4), (), trace_noise),
            (random_batch(netlist, seed + 2), (fault,), None),
            (random_batch(netlist, seed + 3), tuple(two_faults(engine)),
             None),
        ]
        tickets = [
            executor.submit(
                twin if index % 2 else netlist,
                batch,
                faults=faults,
                noise=noise_model,
                strict=False,
                mode=mode,
            )
            for index, (batch, faults, noise_model) in enumerate(configs)
        ]
        assert executor.pending_words == sum(
            len(batch) for batch, _, _ in configs
        )
        executor.flush()
        assert executor.stats["blocks"] == 1
        assert executor.stats["coalesced_requests"] == len(configs)
        assert executor.stats["fallbacks"] == 0
        for ticket, (batch, faults, noise_model) in zip(tickets, configs):
            assert ticket.done
            reference = engine.run_scalar(
                batch,
                faults=faults,
                noise=noise_model,
                strict=False,
                mode=mode,
            )
            assert_pinned(ticket.result(), reference)

    def test_auto_flush_at_max_block(self):
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=4)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=8)
        first = executor.submit(netlist, batch, strict=False)
        assert not first.done and executor.pending_words == 4
        second = executor.submit(netlist, batch, strict=False)
        # The second submission reached the high-water mark: both ran.
        assert first.done and second.done
        assert executor.pending_words == 0
        assert executor.stats["blocks"] == 1
        assert_pinned(
            second.result(), CircuitEngine(netlist, n_bits=N_BITS).run_scalar(
                batch, strict=False
            )
        )

    def test_mixed_arity_noise_coalescing(self):
        """Colliding derived noise seeds across group counts stay arity-safe.

        Two noisy requests with different group counts derive *equal*
        per-(cell, group) NoiseModels for different physical cells, so
        the block's perturbation-draw cache sees one seed at two source
        arities (XOR2 vs MAJ3); each row must still receive a draw of
        its own width (regression: a reused XOR2-width array raised a
        broadcast ValueError that aborted the whole block).
        """
        netlist = Netlist("mixed")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_cell("x", "XOR2", ("a", "b"))
        netlist.add_cell("m", "MAJ3", ("a", "b", "c"))
        netlist.mark_output("x")
        netlist.mark_output("m")
        noise = NoiseModel(amplitude_sigma=0.03, phase_sigma=0.05, seed=7)
        rng = random.Random(7)
        batches = [
            [
                {name: rng.randint(0, 1) for name in netlist.inputs}
                for _ in range(n_entries)
            ]
            for n_entries in (4, 2)  # 2 groups vs 1 group at n_bits=2
        ]
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        tickets = [
            executor.submit(netlist, batch, noise=noise, strict=False)
            for batch in batches
        ]
        executor.flush()
        assert executor.stats["blocks"] == 1
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        for ticket, batch in zip(tickets, batches):
            reference = engine.run_scalar(batch, noise=noise, strict=False)
            assert_pinned(ticket.result(), reference)

    def test_block_failure_resolves_every_ticket(self, monkeypatch):
        """Non-ReproError block failures surface through every ticket.

        A failure inside the packed pass must resolve all coalesced
        tickets with the error -- ``result()`` re-raises it instead of
        silently returning None for stranded requests.
        """
        seed = FAST_SEEDS[0]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=2)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        tickets = [
            executor.submit(netlist, batch, strict=False) for _ in range(2)
        ]
        artifact = executor.cache.get_or_compile(netlist, executor.bindings)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(artifact, "_execute_padded", boom)
        executor.flush()
        for ticket in tickets:
            assert ticket.done
            with pytest.raises(RuntimeError, match="kernel exploded"):
                ticket.result()

    def test_mutation_after_submit_fails_only_its_own_ticket(self):
        """A netlist mutated between submit and flush fails loudly.

        The mutated request's ticket raises a clear NetlistError; its
        unmutated coalesced neighbour still executes and pins to the
        standalone reference.
        """
        seed = FAST_SEEDS[1]
        netlist = random_netlist(seed)
        twin = random_netlist(seed)  # same submit-time signature
        batch = random_batch(netlist, seed, n_entries=2)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        healthy = executor.submit(twin, batch, strict=False)
        doomed = executor.submit(netlist, batch, strict=False)
        netlist.add_cell("late_inv", "INV", (netlist.inputs[0],))
        netlist.mark_output("late_inv")
        executor.flush()
        assert doomed.done
        with pytest.raises(NetlistError, match="mutated"):
            doomed.result()
        reference = CircuitEngine(twin, n_bits=N_BITS).run_scalar(
            batch, strict=False
        )
        assert_pinned(healthy.result(), reference)

    def test_position_noise_rejected_at_submit(self):
        """Placement jitter cannot ride a packed block: submit raises a
        NetlistError naming the study path and queues nothing."""
        seed = FAST_SEEDS[2]
        netlist = random_netlist(seed)
        batch = random_batch(netlist, seed, n_entries=4)
        executor = CircuitExecutor(n_bits=N_BITS, max_block=1024)
        noise = NoiseModel(position_sigma=1e-9, seed=90 + seed)
        for mode in ("phasor", "trace"):
            with pytest.raises(NetlistError, match="run_scalar"):
                executor.submit(
                    netlist, batch, noise=noise, strict=False, mode=mode
                )
        assert executor.pending_words == 0
        assert executor.stats["requests"] == 0
        assert executor.stats["fallbacks"] == 0


# ----------------------------------------------------------------------
# Lock-in weak-carrier rule: trace mode refuses what phasor mode decodes
# ----------------------------------------------------------------------
class TestWeakCarrierRule:
    def test_trace_marks_weak_carrier_dead(self):
        """A carrier at ~1% of its reference: phasor mode decodes it,
        trace mode (lock-in readout) marks it dead exactly like its
        scalar reference, strict message included."""
        netlist = Netlist("weak")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_cell("m", "MAJ3", ("a", "b", "c"))
        netlist.mark_output("m")
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        fault = TransducerFault("dead-source", channel=0, input_index=0)
        faults = [CellFault("m", fault)]
        # Channel 0 sees inputs (a, 0, 1): with source a dead, b and c
        # nearly cancel.
        batch = [{"a": 1, "b": 0, "c": 1}, {"a": 0, "b": 1, "c": 1}]
        phasor = engine.run(batch, faults=faults, strict=False)
        assert phasor.failed == [False, False]
        reference_amplitude = engine.bindings.faulty_simulator(
            "MAJ3", fault
        ).calibration()[0][1]
        ratio = phasor.cells["m"].amplitudes[0] / reference_amplitude
        assert 0 < ratio < MIN_AMPLITUDE_RATIO
        trace = engine.run(batch, faults=faults, strict=False, mode="trace")
        trace_ref = engine.run_scalar(
            batch, faults=faults, strict=False, mode="trace"
        )
        assert trace.failed == [True, True]
        assert_pinned(trace, trace_ref)
        with pytest.raises(SimulationError) as packed_error:
            engine.run(batch, faults=faults, mode="trace")
        with pytest.raises(SimulationError) as scalar_error:
            engine.run_scalar(batch, faults=faults, mode="trace")
        assert str(packed_error.value) == str(scalar_error.value)

    def test_level_margin_skips_dead_groups(self):
        """A level's min margin reduces over live groups only: with one
        dead and one live group in the same cell, it is the live group's
        minimum, as in the scalar reference."""
        netlist = Netlist("half-dead")
        for name in ("a", "b", "c"):
            netlist.add_input(name)
        netlist.add_cell("m", "MAJ3", ("a", "b", "c"))
        netlist.mark_output("m")
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        faults = [CellFault(
            "m", TransducerFault("dead-source", channel=0, input_index=0)
        )]
        # Group 0's channel 0 nearly cancels (b != c); group 1's adds up.
        batch = [
            {"a": 1, "b": 0, "c": 1}, {"a": 0, "b": 1, "c": 1},
            {"a": 0, "b": 1, "c": 1}, {"a": 1, "b": 0, "c": 0},
        ]
        trace = engine.run(batch, faults=faults, strict=False, mode="trace")
        assert trace.failed == [True, True, False, False]
        assert trace.levels[0].min_margin is not None
        assert_pinned(trace, engine.run_scalar(
            batch, faults=faults, strict=False, mode="trace"
        ))


# ----------------------------------------------------------------------
# Gate-level strictness of the trace batch
# ----------------------------------------------------------------------
class TestTraceBatchStrictness:
    def test_undecodable_trace_entries_raise(self):
        """A decode failure raises, as the scalar ``run`` does."""
        gate = physical_gate("MAJ3", 1)
        simulator = GateSimulator(gate, amplitudes=np.zeros((1, 3)))
        patterns = gate.exhaustive_patterns()
        with pytest.raises(SimulationError):
            simulator.run_batch(patterns)

    def test_strict_default_matches_scalar_run(self):
        gate = physical_gate("XOR2", 2)
        simulator = GateSimulator(gate)
        patterns = gate.exhaustive_patterns()
        batched = simulator.run_batch(patterns)
        for run, words in zip(batched, patterns):
            reference = simulator.run(words)
            assert run.decoded == reference.decoded
            np.testing.assert_allclose(
                [d.margin for d in run.decodes],
                [d.margin for d in reference.decodes],
                rtol=TOL,
                atol=TOL,
            )


# ----------------------------------------------------------------------
# Full randomized sweep (slow lane): >= 20 seeds x 3 configurations
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestConformanceSweep:
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    def test_seeded_netlist_conformance(self, seed):
        netlist = random_netlist(seed)
        engine = CircuitEngine(netlist, n_bits=N_BITS)
        batch = random_batch(netlist, seed)
        # Nominal.
        cross_check(engine, batch)
        # Noisy (amplitude + phase jitter, per-(cell, group) seeds).
        noise = NoiseModel(
            amplitude_sigma=0.03, phase_sigma=0.08, seed=500 + seed
        )
        cross_check(engine, batch, noise=noise)
        # Faulty (seed-dependent victim/channel/input).
        kind = ("stuck-phase-1", "stuck-phase-0", "weak-source")[seed % 3]
        fault = seeded_fault(engine, seed, kind=kind)
        if fault is not None:
            cross_check(engine, batch, faults=[fault])


class TestFloat32Conformance:
    """Circuit-level conformance of the single-precision backend.

    The default-backend classes pin packed/trace execution to the
    scalar reference at <= 1e-12; here the float32 variant must decode
    every randomized netlist identically (rounding at ~1e-5 relative
    never approaches the decode margins) with margins tracking the
    float64 ground truth at a slack 1e-4 tolerance.
    """

    TOL32 = 1e-4

    def _engines(self, seed):
        from repro.backends import NumpyBackend
        from repro.circuits.library import GateBindings

        netlist = random_netlist(seed=seed)
        reference = CircuitEngine(netlist, n_bits=N_BITS)
        bindings = GateBindings(
            n_bits=N_BITS, backend=NumpyBackend("single")
        )
        return netlist, reference, CircuitEngine(netlist, bindings=bindings)

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_packed_phasor_tracks_float64(self, seed):
        netlist, engine64, engine32 = self._engines(seed)
        batch = random_batch(netlist, seed)
        result64 = engine64.run(batch)
        result32 = engine32.run(batch)
        assert result32.outputs == result64.outputs
        assert result32.outputs == netlist.evaluate_batch(batch)
        assert result32.failed == result64.failed
        for name, record in result32.cells.items():
            ref = result64.cells[name]
            assert record.bits == ref.bits
            if record.margins is None:
                continue
            np.testing.assert_allclose(
                record.margins, ref.margins, rtol=self.TOL32, atol=self.TOL32
            )

    @pytest.mark.parametrize("seed", FAST_SEEDS[:2])
    def test_trace_decode_agrees_with_float64(self, seed):
        netlist, engine64, engine32 = self._engines(seed)
        batch = random_batch(netlist, seed, n_entries=3)
        result64 = engine64.run(batch, mode="trace")
        result32 = engine32.run(batch, mode="trace")
        assert result32.outputs == result64.outputs
        assert result32.failed == result64.failed
        for name in result32.cells:
            assert result32.cells[name].bits == result64.cells[name].bits
