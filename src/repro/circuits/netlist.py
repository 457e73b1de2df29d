"""A minimal gate-level netlist with simulation and timing analysis.

Nodes are primary inputs, constants, or cells (MAJ3, INV, XOR2); edges
carry single bits.  The netlist is a DAG (combinational logic only);
:meth:`Netlist.evaluate` computes outputs with plain Boolean semantics,
and :meth:`Netlist.depth` / :meth:`Netlist.critical_path` feed the
circuit cost model.

The topological order and level assignment are computed once and cached
(:meth:`Netlist.topological_order`, :meth:`Netlist.levels`,
:meth:`Netlist.level_schedule`); topology-changing construction methods
(``add_*``) invalidate the cache, while output bookkeeping
(:meth:`Netlist.mark_output`, including re-registration of an existing
output) deliberately does not: the cached tuples depend only on the
DAG, and every output-sensitive query (:meth:`Netlist.evaluate`,
:meth:`Netlist.depth`, :meth:`Netlist.critical_path`) reads the live
output list on top of the cache -- pinned by the regression tests in
``tests/test_circuits.py``.

:meth:`Netlist.evaluate_block` evaluates a validated ``(n_inputs,
n_entries)`` input block (:func:`input_block`, rows in
``sorted(inputs)`` order) as whole-array operations -- it is the
Boolean reference the physical circuit engine
(:class:`repro.circuits.engine.CircuitEngine`, which executes the same
levelized schedule on batched spin-wave gates) is pinned against, and
the compiled and coalescing paths hand it the block they already
validated.  :meth:`Netlist.evaluate_batch` is the same evaluation over
``{input name: bit}`` dicts.

:meth:`Netlist.signature` is the content hash of the DAG and output
list that compiled artifacts and coalescing queues key on.  It is
memoised per ``(topology_revision, outputs)``: any ``add_*`` call or
output edit rehashes on the next read, and an unpickled netlist starts
without it.

>>> netlist = Netlist("demo")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_input("b")
>>> _ = netlist.add_cell("x", "XOR2", ("a", "b"))
>>> _ = netlist.mark_output("x")
>>> netlist.evaluate({"a": 1, "b": 0})
{'x': 1}
>>> schedule = netlist.level_schedule()
>>> _ = netlist.mark_output("a")  # output edits leave the cache valid
>>> netlist.level_schedule() is schedule
True
>>> netlist.evaluate({"a": 1, "b": 0})
{'x': 1, 'a': 1}
"""

import hashlib
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.encoding import validate_bit
from repro.errors import NetlistError

#: Supported cell operations and their evaluators.
_OPERATIONS = {
    "MAJ3": lambda bits: int(sum(bits) >= 2),
    "INV": lambda bits: 1 - bits[0],
    "XOR2": lambda bits: bits[0] ^ bits[1],
    "BUF": lambda bits: bits[0],
}

_ARITY = {"MAJ3": 3, "INV": 1, "XOR2": 2, "BUF": 1}

#: Array-native evaluators: each maps a list of (n,) int arrays (one per
#: fanin) to the (n,) output array -- the vectorised twin of _OPERATIONS.
_BATCH_OPERATIONS = {
    "MAJ3": lambda bits: (bits[0] + bits[1] + bits[2] >= 2).astype(np.int64),
    "INV": lambda bits: 1 - bits[0],
    "XOR2": lambda bits: bits[0] ^ bits[1],
    "BUF": lambda bits: bits[0].copy(),
}


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
    names = netlist._sorted_inputs()
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
        or not ((block == 0) | (block == 1)).all()
    ):
        raise NetlistError("logic values must all be 0 or 1")
    return block.T.astype(np.int64)


@dataclass(frozen=True)
class Node:
    """One netlist node: a primary input, a constant, or a cell."""

    name: str
    kind: str  # "input", "const0", "const1", or an operation name
    fanin: tuple = field(default_factory=tuple)


class Netlist:
    """A combinational majority-inverter-XOR netlist."""

    def __init__(self, name="netlist"):
        self.name = name
        self._graph = nx.DiGraph()
        self._outputs = []
        # (order, levels, parents, schedule) -- rebuilt lazily after any
        # topology change (see _topology).
        self._topology_cache = None
        # Monotonic counter bumped by every topology change; consumers
        # (the circuit engine, the compile cache) key compiled artifacts
        # on it instead of on schedule identity, so pickling or cache
        # round-trips never force spurious recompiles.
        self._revision = 0
        # ((revision, outputs), digest) of the last signature() call.
        self._signature_memo = None

    def __setstate__(self, state):
        # Derived caches restart empty after unpickling: a loaded
        # artifact's netlist always hashes afresh when it is verified,
        # and a pickle of an older cache layout is never read.
        self.__dict__.update(state)
        self._topology_cache = None
        self._signature_memo = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_fresh(self, name):
        if name in self._graph:
            raise NetlistError(f"node {name!r} already exists")

    def add_input(self, name):
        """Declare a primary input; returns its name."""
        self._check_fresh(name)
        self._graph.add_node(name, node=Node(name, "input"))
        self._topology_cache = None
        self._revision += 1
        return name

    def add_const(self, name, value):
        """Declare a constant 0/1 node; returns its name."""
        self._check_fresh(name)
        value = validate_bit(value)
        self._graph.add_node(name, node=Node(name, f"const{value}"))
        self._topology_cache = None
        self._revision += 1
        return name

    def add_cell(self, name, operation, fanin):
        """Add a cell ``operation`` driven by existing nodes ``fanin``."""
        self._check_fresh(name)
        if operation not in _OPERATIONS:
            raise NetlistError(
                f"unknown operation {operation!r}; "
                f"supported: {sorted(_OPERATIONS)}"
            )
        fanin = tuple(fanin)
        if len(fanin) != _ARITY[operation]:
            raise NetlistError(
                f"{operation} takes {_ARITY[operation]} inputs, "
                f"got {len(fanin)}"
            )
        for driver in fanin:
            if driver not in self._graph:
                raise NetlistError(f"fanin node {driver!r} does not exist")
        self._graph.add_node(name, node=Node(name, operation, fanin))
        for driver in fanin:
            self._graph.add_edge(driver, name)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_node(name)
            raise NetlistError(
                f"adding {name!r} would create a combinational loop"
            )
        self._topology_cache = None
        self._revision += 1
        return name

    def mark_output(self, name):
        """Register an existing node as a primary output.

        Re-registering an already-marked output is a no-op (outputs keep
        their first registration order).  Output edits never touch the
        topology cache or bump :attr:`topology_revision`: the cached
        order/levels/schedule describe the DAG alone, and consumers
        keying compiled artifacts on the revision (the circuit engine,
        the compile cache) must not recompile for an output edit --
        only ``add_*`` calls invalidate.  Detector-placement
        inversion is likewise *not* a netlist edit: the engine resolves
        INV/BUF cells at the regeneration boundary, so flipping an
        output's polarity means adding an ``INV`` cell (which does
        invalidate) and marking it.
        """
        if name not in self._graph:
            raise NetlistError(f"cannot mark unknown node {name!r} as output")
        if name not in self._outputs:
            self._outputs.append(name)
        return name

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def topology_revision(self):
        """Monotonic topology revision: bumps on every ``add_*`` call.

        Output bookkeeping (:meth:`mark_output`) does not bump it.  Two
        reads returning the same value guarantee the DAG (and therefore
        the cached level schedule) is unchanged -- a robust staleness
        key for compiled execution artifacts that survives pickling and
        cache round-trips, unlike object identity of the schedule tuple.
        """
        return self._revision

    @property
    def inputs(self):
        """Primary input names in insertion order."""
        return [
            n for n in self._graph.nodes
            if self._graph.nodes[n]["node"].kind == "input"
        ]

    @property
    def outputs(self):
        """Primary output names in registration order."""
        return list(self._outputs)

    def _sorted_inputs(self):
        """Input names in ``sorted`` order: the rows of an input block."""
        return sorted(
            node.name for node in self._topology()[4] if node.kind == "input"
        )

    def cells(self, operation=None):
        """Cell nodes, optionally filtered by operation."""
        result = []
        for n in self._graph.nodes:
            node = self._graph.nodes[n]["node"]
            if node.kind in _OPERATIONS and (
                operation is None or node.kind == operation
            ):
                result.append(node)
        return result

    def cell_counts(self):
        """Histogram {operation: count} over all cells."""
        counts = {}
        for node in self.cells():
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Topology (cached)
    # ------------------------------------------------------------------
    def _topology(self):
        """Cached ``(order, levels, parents, schedule, nodes)`` of the DAG.

        One topological sort serves :meth:`evaluate`,
        :meth:`evaluate_block`, :meth:`signature`, :meth:`depth`,
        :meth:`critical_path` and the physical engine's level schedule;
        ``nodes`` holds the :class:`Node` records in topological order.
        Any ``add_*`` call invalidates the cache.
        """
        if self._topology_cache is None:
            order = tuple(nx.topological_sort(self._graph))
            nodes = tuple(self._graph.nodes[name]["node"] for name in order)
            levels = {}
            parents = {}
            buckets = {}
            for name, node in zip(order, nodes):
                if node.kind in ("input", "const0", "const1"):
                    levels[name] = 0
                    parents[name] = None
                else:
                    best = max(node.fanin, key=lambda d: levels[d])
                    levels[name] = 1 + levels[best]
                    parents[name] = best
                    buckets.setdefault(levels[name], []).append(node)
            schedule = tuple(
                tuple(buckets[level]) for level in sorted(buckets)
            )
            self._topology_cache = (order, levels, parents, schedule, nodes)
        return self._topology_cache

    def node(self, name):
        """The :class:`Node` record of ``name``; raises when unknown."""
        try:
            return self._graph.nodes[name]["node"]
        except KeyError:
            raise NetlistError(f"unknown node {name!r}") from None

    def topological_order(self):
        """Cached topological node order (tuple of names)."""
        return self._topology()[0]

    def levels(self):
        """{node name: level}; inputs/constants are level 0 (cached)."""
        return dict(self._topology()[1])

    def level_schedule(self):
        """Cells grouped by level: entry ``l - 1`` holds the level-``l``
        :class:`Node` tuples in topological order (cached).

        This is the execution schedule of the physical circuit engine:
        every cell of one level depends only on earlier levels, so a
        level's cells evaluate as one batch
        (:class:`repro.circuits.engine.CircuitEngine`).
        """
        return self._topology()[3]

    # ------------------------------------------------------------------
    # Evaluation and timing
    # ------------------------------------------------------------------
    def evaluate(self, assignments):
        """Evaluate outputs for ``assignments`` {input name: bit}.

        Returns {output name: bit}.  Raises on missing inputs.
        """
        values = {}
        for name in self.topological_order():
            node = self._graph.nodes[name]["node"]
            if node.kind == "input":
                if name not in assignments:
                    raise NetlistError(f"no value supplied for input {name!r}")
                values[name] = validate_bit(assignments[name])
            elif node.kind == "const0":
                values[name] = 0
            elif node.kind == "const1":
                values[name] = 1
            else:
                bits = [values[d] for d in node.fanin]
                values[name] = _OPERATIONS[node.kind](bits)
        missing = [o for o in self._outputs if o not in values]
        if missing:
            raise NetlistError(f"outputs {missing!r} were never computed")
        return {o: values[o] for o in self._outputs}

    def evaluate_block(self, block):
        """Vectorised :meth:`evaluate` over a validated input block.

        ``block`` is the ``(n_inputs, n_entries)`` int64 array of
        :func:`input_block`: one row per primary input in
        ``sorted(self.inputs)`` order, every value already checked to
        be 0 or 1.  Walking the cached topological order, every node
        evaluates once as a whole-array operation over the entries.
        Returns ``{output name: list of bits}`` whose entry ``i`` is the
        output of column ``i``.  This is the Boolean reference of the
        physical circuit engine.
        """
        names = self._sorted_inputs()
        if len(block) != len(names):
            raise NetlistError(
                f"input block has {len(block)} rows, the netlist "
                f"{len(names)} inputs"
            )
        values = dict(zip(names, block))
        n_entries = block.shape[1]
        for node in self._topology()[4]:
            if node.kind == "input":
                continue
            if node.kind == "const0":
                values[node.name] = np.zeros(n_entries, dtype=np.int64)
            elif node.kind == "const1":
                values[node.name] = np.ones(n_entries, dtype=np.int64)
            else:
                values[node.name] = _BATCH_OPERATIONS[node.kind](
                    [values[driver] for driver in node.fanin]
                )
        return {o: values[o].tolist() for o in self._outputs}

    def evaluate_batch(self, assignments_batch):
        """:meth:`evaluate_block` over ``{input name: bit}`` mappings.

        Entry ``i`` of every returned output list equals
        ``evaluate(assignments_batch[i])``; the assignments are
        validated once, as a whole block (:func:`input_block`).
        """
        return self.evaluate_block(input_block(self, list(assignments_batch)))

    def signature(self):
        """Canonical content hash of the DAG and the output list.

        Two netlists with equal signatures have identical node names,
        kinds, fanin wiring and output registrations (insertion order
        and the netlist name are not part of it).  Memoised per
        ``(topology_revision, outputs)``, so a netlist hashes once per
        state: any ``add_*`` call or :meth:`mark_output` edit rehashes
        on the next read.  See
        :func:`~repro.circuits.compiled.netlist_signature`.
        """
        key = (self._revision, tuple(self._outputs))
        memo = self._signature_memo
        if memo is None or memo[0] != key:
            digest = hashlib.sha256()
            for node in sorted(self._topology()[4], key=lambda n: n.name):
                digest.update(
                    repr((node.name, node.kind, node.fanin)).encode()
                )
            digest.update(repr(key[1]).encode())
            memo = self._signature_memo = (key, digest.hexdigest())
        return memo[1]

    def depth(self):
        """Logic depth in cell levels (inputs/constants are level 0)."""
        levels = self._topology()[1]
        if not self._outputs:
            return max(levels.values(), default=0)
        return max(levels[o] for o in self._outputs)

    def critical_path(self):
        """One deepest input-to-output node path (list of names)."""
        _, levels, parents, _, _ = self._topology()
        if not levels:
            return []
        terminals = self._outputs or list(levels)
        end = max(terminals, key=lambda n: levels[n])
        path = [end]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        return list(reversed(path))

    def graph(self):
        """A copy of the underlying networkx DiGraph."""
        return self._graph.copy()

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-pure dict of the netlist (nodes in insertion order).

        The wire format of the serving layer (:mod:`repro.serve`):
        node insertion order is preserved, so :meth:`from_dict` rebuilds
        a netlist whose content hash
        (:func:`~repro.circuits.compiled.netlist_signature`) -- and
        therefore compile-cache and coalescing behaviour -- matches the
        original exactly.

        >>> netlist = Netlist("wire")
        >>> _ = netlist.add_input("a")
        >>> _ = netlist.add_cell("na", "INV", ("a",))
        >>> _ = netlist.mark_output("na")
        >>> clone = Netlist.from_dict(netlist.to_dict())
        >>> clone.evaluate({"a": 0})
        {'na': 1}
        """
        nodes = []
        for name in self._graph.nodes:
            node = self._graph.nodes[name]["node"]
            nodes.append({
                "name": node.name,
                "kind": node.kind,
                "fanin": list(node.fanin),
            })
        return {
            "name": self.name,
            "nodes": nodes,
            "outputs": list(self._outputs),
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a netlist from :meth:`to_dict` output.

        Every node re-enters through the validating ``add_*``
        constructors, so malformed payloads (unknown kinds, missing
        fanin, cycles) raise :class:`~repro.errors.NetlistError` rather
        than building a corrupt DAG.
        """
        if not isinstance(payload, dict):
            raise NetlistError(
                f"netlist payload must be a dict, got {type(payload).__name__}"
            )
        netlist = cls(str(payload.get("name", "netlist")))
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            raise NetlistError("netlist payload needs a 'nodes' list")
        for entry in nodes:
            if not isinstance(entry, dict) or "name" not in entry:
                raise NetlistError(
                    f"malformed netlist node entry {entry!r}"
                )
            name = entry["name"]
            kind = entry.get("kind")
            if kind == "input":
                netlist.add_input(name)
            elif kind in ("const0", "const1"):
                netlist.add_const(name, int(kind[-1]))
            elif kind in _OPERATIONS:
                netlist.add_cell(name, kind, tuple(entry.get("fanin", ())))
            else:
                raise NetlistError(
                    f"unknown node kind {kind!r} for node {name!r}"
                )
        for name in payload.get("outputs", ()):
            netlist.mark_output(name)
        return netlist
