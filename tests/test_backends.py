"""The pluggable compute-backend layer: registry, dtype discipline, FFTs.

Three concerns are pinned here:

* backend *identity* -- registry names, ``key``/``tag``, the process
  default and its ``set_backend`` swap semantics;
* the float64 default being a strict no-op layer (casts return the same
  object, ``out=`` FFTs are bit-identical to the allocating calls), so
  the existing <=1e-12 equivalence harnesses keep pinning the historical
  numerics unchanged;
* dtype *discipline* under float32 -- an end-to-end circuit run through
  the phasor and trace paths whose bulk intermediates (baked weights,
  excitation blocks, carrier bases, level GEMM outputs) must all stay in
  float32/complex64, never silently upcasting to float64/complex128.
"""

import numpy as np
import pytest

from repro.backends import (
    Backend,
    NumpyBackend,
    ScipyFFTBackend,
    available_backends,
    construct_backend,
    get_backend,
    set_backend,
)
from repro.circuits import CircuitEngine, GateBindings
from repro.circuits.netlist import Netlist
from repro.errors import BackendError


def _xor_pair(title):
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


class TestIdentity:
    def test_default_is_numpy_double(self):
        backend = get_backend()
        assert backend.key == ("numpy", "double")
        assert backend.real_dtype == np.float64
        assert backend.complex_dtype == np.complex128

    def test_registry_constructs_every_name(self):
        for name in available_backends():
            backend = construct_backend(name)
            assert isinstance(backend, Backend)
        assert construct_backend("numpy32").key == ("numpy", "single")
        assert construct_backend("scipy-fft64").key == ("scipy-fft", "double")

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            construct_backend("torch")

    def test_unknown_precision_rejected(self):
        with pytest.raises(BackendError, match="unknown precision"):
            NumpyBackend("half")

    def test_tags(self):
        assert NumpyBackend("double").tag == "numpy64"
        assert NumpyBackend("single").tag == "numpy32"
        assert ScipyFFTBackend("single").tag == "scipy-fft32"

    def test_equality_and_hash_follow_key(self):
        assert NumpyBackend("double") == NumpyBackend("double")
        assert NumpyBackend("double") != NumpyBackend("single")
        assert hash(NumpyBackend("single")) == hash(NumpyBackend("single"))

    def test_set_backend_roundtrip(self):
        original = get_backend()
        try:
            installed = set_backend("numpy32")
            assert get_backend() is installed
            assert get_backend().precision == "single"
            instance = NumpyBackend("double")
            assert set_backend(instance) is instance
            assert get_backend() is instance
        finally:
            set_backend(original)
        assert get_backend() is original

    def test_set_backend_rejects_garbage(self):
        with pytest.raises(BackendError, match="Backend instance or name"):
            set_backend(42)

    def test_threads_knob_validated(self):
        backend = NumpyBackend("double")
        assert backend.set_threads(4) is backend
        assert backend.threads == 4
        with pytest.raises(BackendError, match="threads"):
            backend.set_threads(0)


class TestDtypeHelpers:
    def test_double_cast_is_identity(self):
        """The float64 default must never copy: bit-identity of the
        historical path depends on casts being object no-ops."""
        backend = NumpyBackend("double")
        real = np.arange(4.0)
        cplx = np.arange(4.0) + 1j
        assert backend.cast(real) is real
        assert backend.cast(cplx, kind="complex") is cplx

    def test_single_cast_downcasts(self):
        backend = NumpyBackend("single")
        assert backend.cast(np.arange(4.0)).dtype == np.float32
        weights = backend.cast(np.arange(4.0) + 1j, kind="complex")
        assert weights.dtype == np.complex64

    def test_zeros_empty_dtypes(self):
        backend = NumpyBackend("single")
        assert backend.zeros((2, 3)).dtype == np.float32
        assert backend.empty((2, 3), kind="complex").dtype == np.complex64
        assert NumpyBackend("double").zeros(3, kind="complex").dtype == (
            np.complex128
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(BackendError, match="kind"):
            NumpyBackend("double").zeros(3, kind="quaternion")


class TestFFT:
    PADDED = (8, 6, 1)
    AXES = (0, 1, 2)

    def _signal(self, dtype=np.float64):
        rng = np.random.default_rng(7)
        return rng.standard_normal(self.PADDED).astype(dtype)

    def test_numpy_out_roundtrip_bit_identical(self):
        backend = NumpyBackend("double")
        signal = self._signal()
        reference = np.fft.rfftn(signal, s=self.PADDED, axes=self.AXES)
        spectrum = backend.empty(reference.shape, kind="complex")
        result = backend.rfftn(signal, s=self.PADDED, axes=self.AXES,
                               out=spectrum)
        assert result is spectrum
        np.testing.assert_array_equal(spectrum, reference)
        back = backend.empty(self.PADDED, kind="real")
        result = backend.irfftn(spectrum, s=self.PADDED, axes=self.AXES,
                                out=back)
        assert result is back
        np.testing.assert_array_equal(
            back, np.fft.irfftn(reference, s=self.PADDED, axes=self.AXES)
        )

    def test_numpy_single_preserves_float32(self):
        backend = NumpyBackend("single")
        spectrum = backend.rfftn(
            self._signal(np.float32), s=self.PADDED, axes=self.AXES
        )
        assert spectrum.dtype == np.complex64
        back = backend.irfftn(spectrum, s=self.PADDED, axes=self.AXES)
        assert back.dtype == np.float32

    def test_scipy_matches_numpy(self):
        try:
            backend = ScipyFFTBackend("double")
        except BackendError:
            pytest.skip("scipy not available")
        signal = self._signal()
        reference = np.fft.rfftn(signal, s=self.PADDED, axes=self.AXES)
        spectrum = backend.empty(reference.shape, kind="complex")
        result = backend.rfftn(signal, s=self.PADDED, axes=self.AXES,
                               out=spectrum)
        assert result is spectrum  # out= keeps one stable buffer identity
        np.testing.assert_allclose(spectrum, reference, rtol=1e-12,
                                   atol=1e-12)
        back = backend.irfftn(spectrum, s=self.PADDED, axes=self.AXES)
        np.testing.assert_allclose(back, signal, rtol=1e-12, atol=1e-12)


class TestDtypeDiscipline:
    """Satellite: nothing in a float32 circuit run silently upcasts."""

    N_BITS = 2

    def _engine(self):
        bindings = GateBindings(
            n_bits=self.N_BITS, backend=NumpyBackend("single")
        )
        return CircuitEngine(_xor_pair("f32"), bindings=bindings)

    def test_phasor_path_stays_complex64(self):
        engine = self._engine()
        result = engine.run(BATCH)
        assert result.correct
        artifact = engine.compiled()
        for plan in artifact.levels:
            if not plan.ops:
                continue
            assert plan.weights.dtype == np.complex64
            for op in plan.ops:
                assert op.weights.dtype == np.complex64
        # Excitation scratch and the model's memoised weight matrices
        # were allocated by the same backend.
        for excite in artifact._excite_buffers.values():
            assert excite.dtype == np.complex64
        model = engine.bindings.model()
        for weights in model._weights_cache.values():
            assert weights.dtype == np.complex64
        # The packed level GEMM inherits its operands' dtype.
        excite = next(iter(artifact._excite_buffers.values()))
        plan = next(p for p in artifact.levels if p.ops)
        assert (excite @ plan.weights).dtype == np.complex64

    def test_trace_path_stays_float32(self):
        engine = self._engine()
        result = engine.run_trace_batch(BATCH)
        assert result.correct
        artifact = engine.compiled()
        assert artifact._trace_maps, "trace run should build trace maps"
        for forward, backward, lock_ins in artifact._trace_maps:
            if forward is None:
                continue
            assert forward.dtype == np.complex64
            assert backward.dtype == np.complex64
            assert all(r.dtype == np.complex64 for r in lock_ins)

    def test_float32_results_match_float64_reference(self):
        """Numerics: the float32 circuit decodes the same outputs and
        its phasors track the float64 ground truth to the documented
        ~1e-5 relative tolerance."""
        netlist = _xor_pair("accuracy")
        double = GateBindings(n_bits=self.N_BITS,
                              backend=NumpyBackend("double"))
        single = GateBindings(n_bits=self.N_BITS,
                              backend=NumpyBackend("single"))
        engine64 = CircuitEngine(netlist, bindings=double)
        engine32 = CircuitEngine(netlist, bindings=single)
        assert engine32.run(BATCH).outputs == engine64.run(BATCH).outputs
        art64 = engine64.compiled()
        art32 = engine32.compiled()
        for plan64, plan32 in zip(art64.levels, art32.levels):
            if not plan64.ops:
                continue
            scale = np.max(np.abs(plan64.weights))
            assert np.max(
                np.abs(plan32.weights.astype(complex) - plan64.weights)
            ) <= 1e-5 * scale
