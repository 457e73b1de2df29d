"""Saved compiled-circuit artifacts: the fleet warm-start path.

Pins the serialization contract of :meth:`CompiledCircuit.save` /
:meth:`CompiledCircuit.load`: a loaded artifact serves bit-identical
results to the freshly-compiled original, and every unsafe load --
stale topology, tampered payload, wrong precision, wrong data width,
foreign format -- refuses with :class:`~repro.errors.ArtifactError`
instead of serving a wrong artifact.  Also covers
:meth:`CompiledCircuitCache.warm` and :meth:`CircuitExecutor.warm`,
whose acceptance bar is a first request with zero compile misses.
"""

import math
import pickle

import pytest

from repro.backends import NumpyBackend
from repro.circuits import (
    CircuitExecutor,
    CompiledCircuitCache,
    GateBindings,
    compile_circuit,
    ripple_carry_adder,
)
from repro.circuits.compiled import CompiledCircuit
from repro.circuits.netlist import Netlist
from repro.errors import ArtifactError

N_BITS = 2


def xor_pair(title):
    netlist = Netlist(title)
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("c")
    netlist.add_cell("x", "XOR2", ("a", "b"))
    netlist.add_cell("y", "XOR2", ("x", "c"))
    netlist.mark_output("y")
    return netlist


BATCH = [
    {"a": 0, "b": 1, "c": 1},
    {"a": 1, "b": 1, "c": 0},
    {"a": 1, "b": 0, "c": 1},
]


def assert_results_pinned(left, right, tolerance=1e-12):
    """Outputs bit-identical; margins within ``tolerance``."""
    assert left.outputs == right.outputs
    assert left.expected == right.expected
    assert list(left.failed) == list(right.failed)
    for mine, theirs in zip(left.levels, right.levels):
        if mine.min_margin is None or math.isnan(mine.min_margin):
            assert theirs.min_margin is None or math.isnan(
                theirs.min_margin
            )
        else:
            assert abs(mine.min_margin - theirs.min_margin) <= tolerance


class TestSaveLoadRoundTrip:
    def test_loaded_artifact_matches_fresh_compile(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        original = compile_circuit(xor_pair("disk"), bindings)
        path = original.save(tmp_path / "xor.ccz")
        loaded = CompiledCircuit.load(path, bindings)
        assert loaded.signature == original.signature
        assert loaded.n_bits == original.n_bits
        assert_results_pinned(loaded.run(BATCH), original.run(BATCH))

    def test_round_trip_preserves_trace_mode(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        original = compile_circuit(xor_pair("trace"), bindings)
        path = original.save(tmp_path / "xor.ccz")
        loaded = CompiledCircuit.load(path, bindings)
        assert_results_pinned(
            loaded.run(BATCH, mode="trace"),
            original.run(BATCH, mode="trace"),
        )

    def test_save_returns_path_and_counts(self, tmp_path):
        from repro import obs

        bindings = GateBindings(n_bits=N_BITS)
        artifact = compile_circuit(xor_pair("count"), bindings)
        before = obs.get_registry().counter("circuit.artifact_saves")
        path = artifact.save(tmp_path / "a.ccz")
        assert path == tmp_path / "a.ccz"
        after = obs.get_registry().counter("circuit.artifact_saves")
        assert after == before + 1


class TestLoadRefusals:
    def test_wrong_precision_refused(self, tmp_path):
        double = GateBindings(n_bits=N_BITS, backend=NumpyBackend("double"))
        single = GateBindings(n_bits=N_BITS, backend=NumpyBackend("single"))
        path = compile_circuit(xor_pair("p"), double).save(
            tmp_path / "d.ccz"
        )
        with pytest.raises(ArtifactError, match="backend"):
            CompiledCircuit.load(path, single)

    def test_wrong_n_bits_refused(self, tmp_path):
        narrow = GateBindings(n_bits=N_BITS)
        wide = GateBindings(n_bits=N_BITS * 2)
        path = compile_circuit(xor_pair("w"), narrow).save(
            tmp_path / "n.ccz"
        )
        with pytest.raises(ArtifactError, match="n_bits"):
            CompiledCircuit.load(path, wide)

    def test_tampered_topology_refused(self, tmp_path):
        """An artifact whose embedded netlist no longer hashes to the
        saved signature must never serve (stale or tampered payload)."""
        bindings = GateBindings(n_bits=N_BITS)
        path = compile_circuit(xor_pair("t"), bindings).save(
            tmp_path / "t.ccz"
        )
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        tampered = xor_pair("t")
        tampered.add_cell("z", "XOR2", ("x", "y"))
        tampered.mark_output("z")
        state["attrs"]["netlist"] = tampered
        with open(path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(ArtifactError, match="content-hash"):
            CompiledCircuit.load(path, bindings)

    def test_unknown_format_version_refused(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        path = compile_circuit(xor_pair("v"), bindings).save(
            tmp_path / "v.ccz"
        )
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        state["format"] = 999
        with open(path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(ArtifactError, match="format"):
            CompiledCircuit.load(path, bindings)

    def test_non_artifact_file_refused(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"this is not a pickle")
        bindings = GateBindings(n_bits=N_BITS)
        with pytest.raises(ArtifactError, match="cannot read"):
            CompiledCircuit.load(path, bindings)

    def test_foreign_pickle_refused(self, tmp_path):
        path = tmp_path / "dict.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"hello": "world"}, handle)
        bindings = GateBindings(n_bits=N_BITS)
        with pytest.raises(ArtifactError, match="not a compiled-circuit"):
            CompiledCircuit.load(path, bindings)


class TestWarmStart:
    def test_cache_warm_serves_without_misses(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        path = compile_circuit(xor_pair("warm"), bindings).save(
            tmp_path / "w.ccz"
        )
        cache = CompiledCircuitCache(max_entries=4)
        loaded = cache.warm([path], bindings)
        assert len(loaded) == 1
        assert len(cache) == 1
        served = cache.get_or_compile(xor_pair("other-title"), bindings)
        assert served is loaded[0]
        assert (cache.hits, cache.misses) == (1, 0)

    def test_executor_warm_first_request_zero_misses(self, tmp_path):
        """The acceptance bar: a warm-started worker's first request
        never pays compile + calibration."""
        bindings = GateBindings(n_bits=N_BITS)
        netlist = ripple_carry_adder(2)
        path = compile_circuit(netlist, bindings).save(
            tmp_path / "rca.ccz"
        )
        executor = CircuitExecutor(bindings=GateBindings(n_bits=N_BITS))
        executor.warm([path])
        result = executor.run(
            ripple_carry_adder(2),
            [{"a0": 1, "a1": 0, "b0": 1, "b1": 1}],
        )
        assert result.correct
        assert executor.cache.misses == 0
        assert executor.cache.hits == 1

    def test_warm_artifact_serves_reordered_inputs(self, tmp_path):
        """An artifact saved from one netlist serves an equal-signature
        netlist whose inputs were declared in another order."""
        bindings = GateBindings(n_bits=N_BITS)
        source = ripple_carry_adder(2)
        path = compile_circuit(source, bindings).save(tmp_path / "rca.ccz")
        reordered = Netlist("rca-reordered")
        for name in reversed(source.inputs):
            reordered.add_input(name)
        for name in source.topological_order():
            node = source.node(name)
            if node.kind == "const0":
                reordered.add_const(name, 0)
            elif node.kind != "input":
                reordered.add_cell(name, node.kind, node.fanin)
        for name in source.outputs:
            reordered.mark_output(name)
        executor = CircuitExecutor(bindings=GateBindings(n_bits=N_BITS))
        executor.warm([path])
        batch = [
            {"a0": 1, "a1": 0, "b0": 1, "b1": 0},
            {"a0": 0, "a1": 0, "b0": 1, "b1": 1},
        ]
        result = executor.run(reordered, batch)
        assert executor.cache.misses == 0
        assert result.outputs == reordered.evaluate_batch(batch)
        assert result.correct

    def test_warm_respects_lru_capacity(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        paths = []
        for index, netlist in enumerate(
            (xor_pair("a"), ripple_carry_adder(2), ripple_carry_adder(3))
        ):
            paths.append(
                compile_circuit(netlist, bindings).save(
                    tmp_path / f"{index}.ccz"
                )
            )
        cache = CompiledCircuitCache(max_entries=2)
        loaded = cache.warm(paths, bindings)
        assert len(loaded) == 3  # all load...
        assert len(cache) == 2  # ...but the cache stays bounded

    def test_warm_propagates_refusals(self, tmp_path):
        bindings = GateBindings(n_bits=N_BITS)
        single = GateBindings(
            n_bits=N_BITS, backend=NumpyBackend("single")
        )
        path = compile_circuit(xor_pair("refuse"), bindings).save(
            tmp_path / "r.ccz"
        )
        cache = CompiledCircuitCache(max_entries=2)
        with pytest.raises(ArtifactError):
            cache.warm([path], single)
