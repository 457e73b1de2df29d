"""Shared helpers: process memory, seeded inputs, checks.

Nothing here imports the program under test at module import time, so
``run.py`` can refuse to run (and exit non-zero) in a directory that
does not hold the program's sources.
"""

import os
import random
import time

#: Tolerance on decode margins [rad] when a fast path is compared with
#: ``CircuitEngine.run_scalar``.  The conformance tests pin the packed
#: paths to <= 1e-12; the wire carries floats by ``repr`` (exact), so
#: anything above float round-off is a real divergence.
MARGIN_TOL = 1e-9


def vm_hwm_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def random_assignments(rng, netlist, n_words):
    """``n_words`` seeded ``{input: bit}`` dicts for ``netlist``."""
    names = list(netlist.inputs)
    return [{name: rng.getrandbits(1) for name in names}
            for _ in range(n_words)]


def adder_reference(netlist, width, batch):
    """Independent reference of ``ripple_carry_adder(width)``:
    integer addition, one ``{output: [bits]}`` dict like
    ``CircuitRunResult.outputs``."""
    outputs = {name: [] for name in netlist.outputs}
    names = list(netlist.outputs)  # s0..s{w-1}, then cout
    for entry in batch:
        a = sum(entry[f"a{i}"] << i for i in range(width))
        b = sum(entry[f"b{i}"] << i for i in range(width))
        total = a + b
        for bit, name in enumerate(names):
            outputs[name].append((total >> bit) & 1)
    return outputs


def suite_reference(reference, netlist, batch):
    """Per-output bit lists of a suite circuit's Python reference."""
    outputs = {name: [] for name in netlist.outputs}
    for entry in batch:
        bits = reference(entry)
        for name in netlist.outputs:
            outputs[name].append(int(bits[name]))
    return outputs


def margins_agree(result, reference):
    """Outputs equal and per-level minimum margins within MARGIN_TOL."""
    if result.outputs != reference.outputs:
        return False
    if len(result.levels) != len(reference.levels):
        return False
    for mine, theirs in zip(result.levels, reference.levels):
        if (mine.min_margin is None) != (theirs.min_margin is None):
            return False
        if mine.min_margin is not None and not (
            abs(mine.min_margin - theirs.min_margin) <= MARGIN_TOL
        ):
            return False
    return True


class Deadline:
    """Wall-clock budget of one measured window."""

    def __init__(self, seconds):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def expired(self):
        return time.perf_counter() >= self.end


def seeded_rng(seed, stream):
    """Independent deterministic stream ``stream`` of workload ``seed``."""
    return random.Random(f"{seed}:{stream}")


def env_with_src(root):
    """Environment for a child interpreter that imports the program
    from ``<root>/src`` (the package is not installed)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env
