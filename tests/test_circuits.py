"""Tests for repro.circuits (netlist, library, synthesis, estimation)."""

from itertools import product

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.circuits import (
    CellLibrary,
    CellSpec,
    Netlist,
    circuit_cost,
    default_library,
    full_adder,
    majority_tree,
    parallel_vs_scalar,
    random_netlist,
    ripple_carry_adder,
)
from repro.circuits.synth import evaluate_adder


class TestNetlistConstruction:
    def test_duplicate_node_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_input("a")

    def test_unknown_fanin_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_cell("g", "INV", ("ghost",))

    def test_wrong_arity_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_cell("g", "MAJ3", ("a", "a"))

    def test_unknown_operation_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_cell("g", "NAND9", ("a",))

    def test_const_validation(self):
        netlist = Netlist()
        netlist.add_const("zero", 0)
        with pytest.raises(Exception):
            netlist.add_const("two", 2)

    def test_mark_unknown_output_rejected(self):
        with pytest.raises(NetlistError):
            Netlist().mark_output("nope")

    def test_cycle_rejected(self):
        # A cell cannot feed itself (the only way to build a cycle here).
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_cell("g1", "INV", ("a",))
        with pytest.raises(NetlistError):
            netlist.add_cell("g1b", "INV", ("g1b",))


class TestNetlistEvaluation:
    def test_simple_inverter(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_cell("n", "INV", ("a",))
        netlist.mark_output("n")
        assert netlist.evaluate({"a": 0}) == {"n": 1}
        assert netlist.evaluate({"a": 1}) == {"n": 0}

    def test_missing_input_raises(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_cell("n", "INV", ("a",))
        netlist.mark_output("n")
        with pytest.raises(NetlistError):
            netlist.evaluate({})

    def test_constants(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_const("one", 1)
        netlist.add_const("zero", 0)
        netlist.add_cell("g", "MAJ3", ("a", "one", "zero"))
        netlist.mark_output("g")
        assert netlist.evaluate({"a": 1})["g"] == 1
        assert netlist.evaluate({"a": 0})["g"] == 0

    def test_depth_and_critical_path(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_cell("g1", "INV", ("a",))
        netlist.add_cell("g2", "INV", ("g1",))
        netlist.add_cell("g3", "BUF", ("a",))
        netlist.mark_output("g2")
        netlist.mark_output("g3")
        assert netlist.depth() == 2
        assert netlist.critical_path() == ["a", "g1", "g2"]

    def test_cell_counts(self):
        netlist, _, _ = full_adder()
        counts = netlist.cell_counts()
        assert counts == {"MAJ3": 1, "XOR2": 2}

    def test_inputs_outputs_ordering(self):
        netlist = ripple_carry_adder(2)
        assert netlist.inputs[:2] == ["a0", "a1"]
        assert netlist.outputs[-1].endswith("carry")


class TestTopologyCache:
    def test_levels_of_full_adder(self):
        netlist, total, carry = full_adder()
        levels = netlist.levels()
        assert levels["a"] == 0 and levels["cin"] == 0
        assert levels[carry] == 1 and levels["fa_axb"] == 1
        assert levels[total] == 2

    def test_level_schedule_groups_cells(self):
        netlist = ripple_carry_adder(2)
        schedule = netlist.level_schedule()
        assert len(schedule) == netlist.depth()
        levels = netlist.levels()
        for index, cells in enumerate(schedule, start=1):
            assert all(levels[node.name] == index for node in cells)
        scheduled = {node.name for cells in schedule for node in cells}
        assert scheduled == {node.name for node in netlist.cells()}

    def test_cache_reused_and_invalidated(self):
        netlist, _, _ = full_adder()
        first = netlist.level_schedule()
        assert netlist.level_schedule() is first  # cached
        netlist.add_cell("extra", "INV", ("fa_sum",))
        second = netlist.level_schedule()
        assert second is not first
        assert netlist.levels()["extra"] == 3

    def test_failed_add_cell_keeps_netlist_consistent(self):
        netlist, _, _ = full_adder()
        netlist.topological_order()
        with pytest.raises(NetlistError):
            netlist.add_cell("bad", "NAND9", ("a",))
        assert netlist.depth() == 2

    def test_node_accessor(self):
        netlist, _, _ = full_adder()
        assert netlist.node("fa_carry").kind == "MAJ3"
        with pytest.raises(NetlistError):
            netlist.node("ghost")

    def test_mark_output_keeps_cache_valid(self):
        """Regression: output edits must not touch the topology cache,
        and every output-sensitive query must still see the live list."""
        netlist = ripple_carry_adder(2)
        schedule = netlist.level_schedule()
        order = netlist.topological_order()
        depth = netlist.depth()
        # Register a shallow internal node as a new primary output.
        netlist.mark_output("rca_fa0_axb")
        assert netlist.level_schedule() is schedule  # cache untouched
        assert netlist.topological_order() is order
        assert "rca_fa0_axb" in netlist.outputs
        # Depth/critical path re-read the live output list on top of the
        # cache; a shallow extra output must not shrink them.
        assert netlist.depth() == depth
        assert netlist.levels()["rca_fa0_axb"] < depth
        assert netlist.critical_path()[-1] != "rca_fa0_axb"
        # evaluate/evaluate_batch include the new output immediately.
        assignment = {name: 0 for name in netlist.inputs}
        assert "rca_fa0_axb" in netlist.evaluate(assignment)
        assert "rca_fa0_axb" in netlist.evaluate_batch([assignment])

    def test_mark_output_reregistration_is_idempotent(self):
        netlist, total, carry = full_adder()
        schedule = netlist.level_schedule()
        before = netlist.outputs
        netlist.mark_output(total)  # already registered
        assert netlist.outputs == before  # no duplicate, same order
        assert netlist.level_schedule() is schedule

    def test_inversion_edit_is_an_add_and_invalidates(self):
        """Output-polarity edits go through an INV cell (detector
        placement), which *is* a topology change and must invalidate."""
        netlist, total, carry = full_adder()
        schedule = netlist.level_schedule()
        inverted = netlist.add_cell("ncarry", "INV", (carry,))
        netlist.mark_output(inverted)
        assert netlist.level_schedule() is not schedule
        assert netlist.levels()["ncarry"] == 2
        outputs = netlist.evaluate({"a": 1, "b": 1, "cin": 0})
        assert outputs["ncarry"] == 1 - outputs[carry]


class TestEvaluateBatch:
    def test_matches_scalar_evaluate(self):
        netlist = ripple_carry_adder(2)
        batch = [
            {name: (seed >> i) & 1 for i, name in enumerate(netlist.inputs)}
            for seed in range(16)
        ]
        outputs = netlist.evaluate_batch(batch)
        for index, assignment in enumerate(batch):
            scalar = netlist.evaluate(assignment)
            for name in netlist.outputs:
                assert outputs[name][index] == scalar[name]

    def test_missing_input_raises(self):
        netlist, _, _ = full_adder()
        with pytest.raises(NetlistError, match="cin"):
            netlist.evaluate_batch([{"a": 0, "b": 1}])

    def test_empty_batch_raises(self):
        netlist, _, _ = full_adder()
        with pytest.raises(NetlistError, match="no assignments"):
            netlist.evaluate_batch([])

    def test_bad_bit_rejected(self):
        netlist, _, _ = full_adder()
        with pytest.raises(Exception):
            netlist.evaluate_batch([{"a": 2, "b": 0, "cin": 0}])


def _shuffled_inputs(netlist, seed):
    """A structurally equal copy whose inputs are declared in a
    shuffled order (cells and constants keep theirs)."""
    import random

    payload = netlist.to_dict()
    inputs = [n for n in payload["nodes"] if n["kind"] == "input"]
    others = [n for n in payload["nodes"] if n["kind"] != "input"]
    random.Random(seed).shuffle(inputs)
    payload["nodes"] = inputs + others
    return Netlist.from_dict(payload)


class TestEvaluateBlock:
    """``evaluate_block`` (the array-native reference the packed paths
    call) agrees with ``evaluate_batch`` and per-entry ``evaluate``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_block_batch_and_scalar_agree(self, seed):
        import random

        from repro.circuits.engine import input_block

        rng = random.Random(seed)
        original = random_netlist(seed, n_inputs=5, n_cells=14, n_outputs=3)
        # random_netlist wires its constants in, so they are exercised.
        assert {"const0", "const1"} <= {
            original.node(n).kind for n in original.topological_order()
        }
        for netlist in (original, _shuffled_inputs(original, seed)):
            batch = [
                {name: rng.randint(0, 1) for name in netlist.inputs}
                for _ in range(11)
            ]
            block = netlist.evaluate_block(input_block(netlist, batch))
            assert block == netlist.evaluate_batch(batch)
            for index, assignment in enumerate(batch):
                scalar = netlist.evaluate(assignment)
                assert {o: bits[index] for o, bits in block.items()} == scalar

    def test_rows_follow_sorted_input_names(self):
        netlist = Netlist("order")
        netlist.add_input("b")
        netlist.add_input("a")
        netlist.add_cell("na", "INV", ("a",))
        netlist.mark_output("na")
        netlist.mark_output("b")
        # Row 0 is "a" (sorted), row 1 is "b", whatever the insertion order.
        block = np.array([[0, 1, 1], [1, 1, 0]], dtype=np.int64)
        assert netlist.evaluate_block(block) == {
            "na": [1, 0, 0], "b": [1, 1, 0],
        }

    def test_wrong_row_count_raises(self):
        netlist, _, _ = full_adder()
        with pytest.raises(NetlistError, match="3 inputs"):
            netlist.evaluate_block(np.zeros((2, 4), dtype=np.int64))


class TestSynthesis:
    def test_full_adder_truth_table(self):
        netlist, total, carry = full_adder()
        for a, b, cin in product((0, 1), repeat=3):
            outputs = netlist.evaluate({"a": a, "b": b, "cin": cin})
            assert outputs[total] == (a + b + cin) % 2
            assert outputs[carry] == (a + b + cin) // 2

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_ripple_adder_exhaustive_small_random_large(self, width):
        netlist = ripple_carry_adder(width)
        if width <= 4:
            pairs = product(range(2**width), repeat=2)
        else:
            import random

            rng = random.Random(0)
            pairs = [
                (rng.randrange(2**width), rng.randrange(2**width))
                for _ in range(25)
            ]
        for a, b in pairs:
            assert evaluate_adder(netlist, a, b, width) == a + b

    def test_ripple_adder_width_validation(self):
        with pytest.raises(NetlistError):
            ripple_carry_adder(0)

    def test_majority_tree_structure(self):
        netlist = majority_tree(9)
        assert netlist.cell_counts() == {"MAJ3": 4}
        assert netlist.depth() == 2

    def test_majority_tree_unanimous(self):
        netlist = majority_tree(9)
        for value in (0, 1):
            outputs = netlist.evaluate({f"x{i}": value for i in range(9)})
            assert list(outputs.values())[0] == value

    def test_majority_tree_power_check(self):
        with pytest.raises(NetlistError):
            majority_tree(6)

    def test_random_netlist_deterministic(self):
        first = random_netlist(7)
        second = random_netlist(7)
        assert first.name == second.name == "rand7"
        assert first.topological_order() == second.topological_order()
        assert first.outputs == second.outputs
        assert [n.fanin for n in first.cells()] == [
            n.fanin for n in second.cells()
        ]
        assignment = {name: 1 for name in first.inputs}
        assert first.evaluate(assignment) == second.evaluate(assignment)

    def test_random_netlist_validation(self):
        with pytest.raises(NetlistError, match="n_outputs"):
            random_netlist(0, n_cells=1, n_outputs=2)


class TestLibrary:
    def test_default_library_cells(self):
        library = default_library()
        assert set(library.names()) == {"MAJ3", "XOR2", "INV", "BUF"}

    def test_inv_is_free(self):
        # SW inversion = detector placement, no transducer cost.
        library = default_library()
        inv = library.get("INV")
        assert inv.area == 0.0 and inv.energy == 0.0

    def test_missing_cell_raises(self):
        library = default_library()
        with pytest.raises(NetlistError):
            library.get("NAND2")

    def test_duplicate_cell_rejected(self):
        with pytest.raises(NetlistError):
            CellLibrary([CellSpec("A", 1, 1, 1), CellSpec("A", 1, 1, 1)])

    def test_negative_cost_rejected(self):
        with pytest.raises(NetlistError):
            CellSpec("A", -1.0, 1.0, 1.0)

    def test_nbit_cells_larger_but_sublinear(self):
        scalar = default_library(1).get("MAJ3")
        parallel = default_library(8).get("MAJ3")
        assert parallel.area > scalar.area
        assert parallel.area < 8 * scalar.area  # the whole point

    def test_physical_arity(self):
        from repro.circuits.library import physical_arity

        assert physical_arity("MAJ3") == 3
        assert physical_arity("XOR2") == 2
        with pytest.raises(NetlistError, match="no physical gate"):
            physical_arity("INV")


class TestEstimation:
    def test_circuit_cost_sums_cells(self):
        netlist, _, _ = full_adder()
        library = CellLibrary(
            [
                CellSpec("MAJ3", 10.0, 1.0, 2.0),
                CellSpec("XOR2", 5.0, 1.0, 1.0),
            ]
        )
        cost = circuit_cost(netlist, library)
        assert cost.area == pytest.approx(10 + 2 * 5)
        assert cost.energy == pytest.approx(2 + 2 * 1)
        assert cost.n_cells == 3
        # Critical path: a -> axb -> sum = two XOR2 cells.
        assert cost.delay == pytest.approx(2.0)

    def test_per_word_division(self):
        netlist, _, _ = full_adder()
        library = CellLibrary(
            [CellSpec("MAJ3", 8.0, 1.0, 8.0), CellSpec("XOR2", 8.0, 1.0, 8.0)]
        )
        cost = circuit_cost(netlist, library)
        per_word = cost.per_word(8)
        assert per_word.area == pytest.approx(cost.area / 8)
        assert per_word.delay == cost.delay
        with pytest.raises(NetlistError):
            cost.per_word(0)

    def test_parallel_vs_scalar_adder(self):
        netlist = ripple_carry_adder(4)
        result = parallel_vs_scalar(netlist, n_words=8)
        # The paper's conclusion, lifted to circuits: big area win,
        # energy parity (same transducers per processed word).
        assert result.area_ratio > 2.0
        assert result.energy_ratio == pytest.approx(1.0, rel=0.3)
        assert result.n_words == 8

    def test_parallel_vs_scalar_validation(self):
        netlist, _, _ = full_adder()
        with pytest.raises(NetlistError):
            parallel_vs_scalar(netlist, n_words=0)
