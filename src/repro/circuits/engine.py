"""Physical circuit simulation: netlists compiled onto batched SW gates.

This module closes the gap between the Boolean netlist layer
(:class:`~repro.circuits.netlist.Netlist`) and the phasor-level physics
backend: a :class:`CircuitEngine` compiles an arbitrary MAJ/XOR/INV DAG
into the levelized schedule cached on the netlist, maps every physical
cell operation to one shared data-parallel gate
(:func:`~repro.circuits.library.physical_gate`), and executes whole
input-assignment batches level by level -- the
:class:`~repro.core.cascade.GateCascade` regeneration semantics
generalised to arbitrary wiring with fanout, constants and
detector-placement inversion.

Execution model
---------------
Each physical cell is an ``n_bits``-wide gate: channel ``c`` carries
circuit instance ``c`` of a group, so a batch of ``B`` assignments packs
into ``ceil(B / n_bits)`` word groups.  Between levels the decoded word
is re-excited at full amplitude -- transduced regeneration, the robust
cascade option of Section III -- so INV and BUF cells cost nothing:
inversion is a detector-placement / re-excitation phase choice at the
regeneration boundary, exactly the free-inverter rule the cell library
prices.

Circuits execute one of two ways.  :meth:`CircuitEngine.run` is the one
batched path: it lowers the netlist once into a
:class:`~repro.circuits.compiled.CompiledCircuit` (cross-op packed
level GEMMs against the propagation weights cached on the engine's
shared :class:`~repro.waveguide.LinearWaveguideModel`) and executes
every batch against it.  :meth:`CircuitEngine.run_scalar` is the
reference: one ``run_phasor`` (or full ``run``) call per (cell, group),
the loop the packed path is pinned to.

Two execution *modes* share this schedule.  The default ``"phasor"``
mode evaluates steady-state phasors only; ``"trace"`` mode
(:meth:`CircuitEngine.run_trace_batch`, or ``run(mode="trace")``) runs
the full waveform physics instead: every (cell, group) pair generates
time-domain detector traces through
:meth:`~repro.core.simulate.GateSimulator.run_batch` (the batched
carrier-basis GEMM of
:meth:`~repro.waveguide.LinearWaveguideModel.trace_batch`, memoised per
gate geometry) and decodes them by lock-in demodulation over the settled
analysis window -- so propagation delay, causal wavefronts and
finite-window phase estimation are all part of circuit execution, not
just of single-gate studies.  Both modes share the fault plumbing, the
per-(cell, group) noise seeding and the per-level decode-margin
reports; ``tests/test_circuit_conformance.py`` pins the Boolean model,
the scalar reference and the packed path in both modes against each
other on randomized netlists.

Faults (:class:`CellFault`, reusing
:class:`~repro.core.faults.FaultySimulator` column mutation) and
transducer noise (:class:`~repro.waveguide.NoiseModel`, one independent
derived seed per cell and group) inject at any physical cell; decode
errors then *propagate* through later levels instead of raising, which
is what circuit-level fault coverage and noise-robustness experiments
measure.  Placement noise (``position_sigma > 0``) moves every cell's
transducers, which baked packed weights cannot represent, so only
:meth:`CircuitEngine.run_scalar` serves it.

A purely virtual circuit needs no physics at all:

>>> from repro.circuits.netlist import Netlist
>>> netlist = Netlist("demo")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_cell("na", "INV", ("a",))
>>> _ = netlist.mark_output("na")
>>> engine = CircuitEngine(netlist, n_bits=2)
>>> result = engine.run([{"a": 0}, {"a": 1}])
>>> result.outputs["na"]
[1, 0]
>>> result.correct
True
>>> trace_result = engine.run_trace_batch([{"a": 0}, {"a": 1}])
>>> (trace_result.mode, trace_result.outputs == result.outputs)
('trace', True)
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.circuits.library import PHYSICAL_BINDINGS, GateBindings
from repro.core.faults import TransducerFault
from repro.errors import NetlistError, ReproError, SimulationError


@dataclass(frozen=True)
class CellFault:
    """One transducer fault bound to a named physical cell.

    ``fault.channel`` selects the data-parallel channel (and therefore
    which circuit instances of each word group see the defect);
    ``fault.input_index`` selects the cell's input transducer.
    """

    cell: str
    fault: TransducerFault

    def describe(self):
        """Short label for reports."""
        return f"{self.cell}:{self.fault.describe()}"


def check_mode(mode):
    """Raise :class:`~repro.errors.NetlistError` for an unknown mode."""
    if mode not in ("phasor", "trace"):
        raise NetlistError(
            f"unknown execution mode {mode!r}; "
            "supported: 'phasor', 'trace'"
        )


def input_block(netlist, batch):
    """Validated primary-input bits of ``batch`` as one int64 block.

    Returns an ``(n_inputs, n_entries)`` array whose rows follow
    ``sorted(netlist.inputs)``: the input names are part of the netlist
    signature but their insertion order is not, so every netlist that
    shares a compiled artifact (and a coalesced block) shares this row
    order.  Every input must be present in every assignment, and every
    value must be a bool or a number equal to 0 or 1 -- fractional
    (``0.7``), string (``"1"``) and ``None`` values raise
    :class:`~repro.errors.NetlistError` before any int64 cast could
    truncate them.  The check runs once over the whole block.
    """
    if not batch:
        raise NetlistError("no assignments supplied")
    names = sorted(netlist.inputs)
    try:
        rows = [[assignment[name] for name in names] for assignment in batch]
    except KeyError as exc:
        raise NetlistError(
            f"no value supplied for input {exc.args[0]!r}"
        ) from None
    try:
        block = np.array(rows)
    except ValueError:  # ragged nested values
        block = None
    if (
        block is None
        or block.shape != (len(batch), len(names))
        or block.dtype.kind not in "biuf"
        or not np.isin(block, (0, 1)).all()
    ):
        raise NetlistError("logic values must all be 0 or 1")
    return block.T.astype(np.int64)


def normalise_faults(netlist, faults):
    """``{cell name: TransducerFault}`` from an iterable of :class:`CellFault`.

    Rejects non-:class:`CellFault` items, faults on cells without
    transducers (INV/BUF/inputs) and more than one fault per cell.
    """
    fault_map = {}
    for item in faults:
        if not isinstance(item, CellFault):
            raise NetlistError(
                f"faults must be CellFault instances, got {item!r}"
            )
        node = netlist.node(item.cell)
        if node.kind not in PHYSICAL_BINDINGS:
            raise NetlistError(
                f"cell {item.cell!r} ({node.kind}) has no transducers "
                "to fault (INV/BUF are detector-placement choices)"
            )
        if item.cell in fault_map:
            raise NetlistError(
                f"cell {item.cell!r} carries more than one fault"
            )
        fault_map[item.cell] = item.fault
    return fault_map


@dataclass
class CellRecord:
    """Per-instance decode detail of one cell across the batch.

    ``margins``/``amplitudes`` are ``None`` for virtual cells (INV/BUF,
    constants resolved at the regeneration boundary -- no detector).
    """

    name: str
    operation: str
    level: int
    bits: list
    margins: list = None
    amplitudes: list = None


@dataclass
class LevelReport:
    """Decode-margin summary of one schedule level.

    ``min_margin`` is ``None`` for levels without physical cells.
    """

    level: int
    n_cells: int
    n_physical: int
    min_margin: float = None


@dataclass
class CircuitRunResult:
    """Everything produced by one engine evaluation of a batch.

    ``outputs[name][i]`` is ``None`` when entry ``i`` failed outright (a
    fault silenced a decode); ``failed`` marks those entries.  ``levels``
    carries the per-level decode-margin report; ``cells`` the per-cell
    decode detail.  ``mode`` records which execution semantics produced
    the result (``"phasor"`` steady state or ``"trace"`` waveform).
    ``trace`` is the per-request timing breakdown
    (:class:`~repro.circuits.executor.RequestTrace`) when the run was
    served by a tracing :class:`~repro.circuits.executor.CircuitExecutor`
    -- ``None`` for direct engine runs.
    """

    outputs: dict
    expected: dict
    failed: list
    levels: list
    cells: dict
    n_entries: int
    faults: list = field(default_factory=list)
    mode: str = "phasor"
    trace: object = None

    @property
    def correct(self):
        """True when every entry decoded and matches the Boolean model."""
        return self.word_errors == 0

    @property
    def word_errors(self):
        """Entries that failed or disagree with the Boolean reference."""
        errors = 0
        for i in range(self.n_entries):
            if self.failed[i] or any(
                self.outputs[o][i] != self.expected[o][i] for o in self.outputs
            ):
                errors += 1
        return errors

    @property
    def min_margin(self):
        """Smallest decode margin across all physical levels (or None)."""
        margins = [
            r.min_margin for r in self.levels if r.min_margin is not None
        ]
        return min(margins) if margins else None


class CircuitEngine:
    """Executes a netlist on batched data-parallel spin-wave gates.

    Parameters
    ----------
    netlist:
        :class:`~repro.circuits.netlist.Netlist` (combinational DAG).
    n_bits:
        Data-parallel width of every physical cell: one cell carries
        ``n_bits`` circuit instances on its frequency channels.
    waveguide:
        Shared :class:`~repro.waveguide.Waveguide` (default 50 nm
        Fe60Co20B20 strip); every cell's gate is laid out on it and all
        simulators share one :class:`~repro.waveguide.LinearWaveguideModel`
        so identical cells reuse cached propagation weights.
    transducer:
        Optional :class:`~repro.core.layout.TransducerSpec`.
    """

    def __init__(self, netlist, n_bits=8, waveguide=None, transducer=None,
                 bindings=None):
        self.netlist = netlist
        if bindings is None:
            bindings = GateBindings(
                n_bits=n_bits, waveguide=waveguide, transducer=transducer
            )
        self.bindings = bindings
        self.n_bits = bindings.n_bits
        self.waveguide = bindings.waveguide
        self.transducer = bindings.transducer
        self._compiled = None
        self._compile_schedule()

    def _compile_schedule(self):
        """(Re)read the netlist's cached schedule and index its cells.

        Called at construction and again whenever the netlist's topology
        revision moves past the one we compiled against, so a netlist
        grown after the engine was built is picked up transparently
        (the per-operation gates and weight caches stay valid -- only
        the schedule, the noise-seed indices and any packed artifact
        refresh).
        """
        self._schedule_revision = self.netlist.topology_revision
        self.schedule = self.netlist.level_schedule()
        self._compiled = None
        # Deterministic per-cell index (schedule order) seeding the
        # independent noise stream of each (cell, group) evaluation.
        self._physical_index = {}
        for cells in self.schedule:
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    self._physical_index[node.name] = len(self._physical_index)

    def _refresh_schedule(self):
        """Recompile iff the netlist topology changed since compilation."""
        if self.netlist.topology_revision != self._schedule_revision:
            self._compile_schedule()

    # ------------------------------------------------------------------
    # Compilation: shared model, gates and simulators
    # ------------------------------------------------------------------
    @property
    def n_physical_cells(self):
        """Number of transducer-level cells in the schedule."""
        return len(self._physical_index)

    @property
    def _model(self):
        """The bindings' lazily-built model (None until physics is hit)."""
        return self.bindings._model

    def model(self):
        """The engine-wide shared linear waveguide model (lazy)."""
        return self.bindings.model()

    def gate_for(self, operation):
        """The shared :class:`DataParallelGate` template of one operation."""
        return self.bindings.gate(operation)

    def simulator_for(self, operation):
        """The nominal simulator shared by every cell of ``operation``."""
        return self.bindings.simulator(operation)

    def _faulty_simulator(self, operation, fault):
        """A fault-injected simulator sharing the engine's model/caches."""
        return self.bindings.faulty_simulator(operation, fault)

    def compiled(self):
        """The packed :class:`~repro.circuits.compiled.CompiledCircuit`.

        Compiled lazily on first use and cached until the netlist's
        topology revision moves; the artifact owns the cross-op packed
        weight matrices and preallocated buffers :meth:`run` executes
        against.
        """
        from repro.circuits.compiled import compile_circuit

        self._refresh_schedule()
        if self._compiled is None:
            self._compiled = compile_circuit(self.netlist, self.bindings)
        return self._compiled

    # ------------------------------------------------------------------
    # Scalar plumbing
    # ------------------------------------------------------------------
    def _cell_noise(self, noise, cell_name, group, n_groups):
        """An independent, deterministic noise model per (cell, group)."""
        if noise is None:
            return None
        offset = self._physical_index[cell_name] * n_groups + group
        return replace(noise, seed=noise.seed + offset + 1)

    @staticmethod
    def _group_slice(group, n_bits):
        return slice(group * n_bits, (group + 1) * n_bits)

    def _record_decode(
        self, records, node, level, group, n_valid, decoded, margins, amplitudes
    ):
        record = records.get(node.name)
        if record is None:
            record = CellRecord(
                name=node.name,
                operation=node.kind,
                level=level,
                bits=[],
                margins=[],
                amplitudes=[],
            )
            records[node.name] = record
        record.bits.extend(decoded[:n_valid])
        record.margins.extend(margins[:n_valid])
        record.amplitudes.extend(amplitudes[:n_valid])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, assignments_batch, faults=(), noise=None, strict=True,
            mode="phasor"):
        """Evaluate a batch of assignments through the physics.

        Parameters
        ----------
        assignments_batch:
            Sequence of ``{input name: bit}`` mappings (one circuit
            instance each).
        faults:
            Iterable of :class:`CellFault` (at most one per cell, any
            number of distinct cells); each faulted cell evaluates
            against its own fault-inclusive calibration, so multi-fault
            studies (e.g. a defect cluster along one carry chain)
            compose naturally.
        noise:
            Optional :class:`~repro.waveguide.NoiseModel` template; every
            (cell, group) evaluation draws an independent realisation
            from a deterministically derived seed.  Placement noise
            (``position_sigma > 0``) perturbs every cell's geometry, which
            the compiled weights cannot represent: it raises
            :class:`~repro.errors.NetlistError`; study it with
            :meth:`run_scalar`.
        strict:
            When True, a dead decode (a fault silencing a phase-readout
            channel) raises; when False the affected entries are marked
            ``failed`` and a regenerated 0 propagates onward.
        mode:
            ``"phasor"`` (default) evaluates steady-state phasors;
            ``"trace"`` runs the full time-domain waveform physics --
            every (cell, group) generates detector traces and decodes
            them by lock-in over the settled window
            (:meth:`~repro.core.simulate.GateSimulator.run_batch`).

        The batch executes through the compile-once packed artifact
        (:meth:`compiled`): one cross-op GEMM per level in phasor mode,
        preallocated buffers.  Returns a :class:`CircuitRunResult`.
        Decoded (possibly wrong) bits always propagate to later levels
        -- regeneration restores amplitude, not truth -- so fault and
        noise effects compound through the DAG exactly as in hardware.
        """
        return self.compiled().run(
            assignments_batch, faults=faults, noise=noise, strict=strict,
            mode=mode,
        )

    def run_trace_batch(self, assignments_batch, faults=(), noise=None,
                        strict=True):
        """Waveform-accurate circuit execution: :meth:`run` in trace mode.

        Convenience alias for ``run(..., mode="trace")`` -- the
        circuit-level counterpart of
        :meth:`~repro.core.simulate.GateSimulator.run_batch`.
        """
        return self.run(
            assignments_batch, faults=faults, noise=noise, strict=strict,
            mode="trace",
        )

    def run_scalar(self, assignments_batch, faults=(), noise=None, strict=True,
                   mode="phasor"):
        """Per-cell scalar reference: one ``run_phasor`` (or, in trace
        mode, one full ``run``) call per (cell, group) -- the
        :class:`~repro.core.cascade.GateCascade`-style loop generalised
        to DAGs.

        Same semantics as :meth:`run` (same noise seeds, same fault
        plumbing, same ``mode`` options); the packed path is pinned
        against this reference to <= 1e-12 in
        ``tests/test_circuit_engine.py`` and
        ``tests/test_circuit_conformance.py``, and the throughput
        benchmark uses it as the baseline.  Each simulator call builds
        its sources afresh, so this is also the study path for placement
        noise (``position_sigma > 0``), which :meth:`run` refuses.
        """
        check_mode(mode)
        self._refresh_schedule()  # picks up netlist growth (revision key)
        batch = list(assignments_batch)
        fault_map = normalise_faults(self.netlist, faults)
        block = input_block(self.netlist, batch)
        n_entries = len(batch)
        n_groups = -(-n_entries // self.n_bits)
        padded = n_groups * self.n_bits
        values = {}
        for name, column in zip(sorted(self.netlist.inputs), block):
            values[name] = np.zeros(padded, dtype=np.int64)
            values[name][:n_entries] = column
        for name in self.netlist.topological_order():
            kind = self.netlist.node(name).kind
            if kind in ("const0", "const1"):
                values[name] = np.full(padded, int(kind == "const1"))
        failed = np.zeros(padded, dtype=bool)
        records = {}
        level_reports = []

        for level, cells in enumerate(self.schedule, start=1):
            physical = {}
            level_margins = []
            for node in cells:
                if node.kind in PHYSICAL_BINDINGS:
                    physical.setdefault(node.kind, []).append(node)
                    continue
                source = values[node.fanin[0]]
                values[node.name] = (
                    1 - source if node.kind == "INV" else source.copy()
                )
                records[node.name] = CellRecord(
                    name=node.name,
                    operation=node.kind,
                    level=level,
                    bits=values[node.name][:n_entries].tolist(),
                )
            n_physical = sum(len(nodes) for nodes in physical.values())
            with obs.span(f"circuit/level/{mode}"):
                for operation in sorted(physical):
                    # Nominal cells before faulted ones (a stable sort):
                    # the order strict mode reports dead decodes in.
                    for node in sorted(
                        physical[operation], key=lambda n: n.name in fault_map
                    ):
                        fault = fault_map.get(node.name)
                        simulator = (
                            self.simulator_for(operation) if fault is None
                            else self._faulty_simulator(operation, fault)
                        )
                        self._evaluate_cell(
                            simulator, node, values, failed, records,
                            level_margins, noise, n_entries, n_groups,
                            level, strict, mode,
                        )
            level_reports.append(
                LevelReport(
                    level=level,
                    n_cells=len(cells),
                    n_physical=n_physical,
                    min_margin=min(level_margins) if level_margins else None,
                )
            )

        expected = self.netlist.evaluate_batch(batch)
        outputs = {}
        for name in self.netlist.outputs:
            column = values[name][:n_entries]
            outputs[name] = [
                None if failed[i] else int(column[i])
                for i in range(n_entries)
            ]
        return CircuitRunResult(
            outputs=outputs,
            expected=expected,
            failed=failed[:n_entries].tolist(),
            levels=level_reports,
            cells=records,
            n_entries=n_entries,
            faults=list(faults),
            mode=mode,
        )

    def _evaluate_cell(self, simulator, node, values, failed, records,
                       level_margins, noise, n_entries, n_groups, level,
                       strict, mode):
        """Evaluate one cell for every word group, one simulator call each.

        Each call runs under that group's derived noise model; a decode
        failure (any :class:`~repro.errors.ReproError`) becomes a dead
        group, raised under ``strict`` and marked ``failed`` otherwise.
        """
        n_bits = self.n_bits
        runner = getattr(simulator, "run" if mode == "trace" else "run_phasor")
        fanin_values = [values[driver] for driver in node.fanin]
        values[node.name] = np.zeros(len(failed), dtype=np.int64)
        saved = simulator.noise
        try:
            for group in range(n_groups):
                window = self._group_slice(group, n_bits)
                n_valid = min(n_entries - group * n_bits, n_bits)
                if noise is not None:
                    simulator.noise = self._cell_noise(
                        noise, node.name, group, n_groups
                    )
                try:
                    run = runner([v[window].tolist() for v in fanin_values])
                except ReproError:
                    run = None
                if run is None:
                    if strict:
                        raise SimulationError(
                            f"cell {node.name!r} (level {level}) failed to "
                            "decode: a channel produced no decodable carrier"
                        )
                    failed[group * n_bits : group * n_bits + n_valid] = True
                    self._record_decode(
                        records, node, level, group, n_valid,
                        [None] * n_bits, [math.nan] * n_bits,
                        [math.nan] * n_bits,
                    )
                    continue
                values[node.name][window] = run.decoded
                margins = [d.margin for d in run.decodes]
                amplitudes = [d.amplitude for d in run.decodes]
                self._record_decode(
                    records, node, level, group, n_valid,
                    run.decoded, margins, amplitudes,
                )
                level_margins.extend(margins[:n_valid])
        finally:
            simulator.noise = saved
