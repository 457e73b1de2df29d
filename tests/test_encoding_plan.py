"""Tests for repro.core.encoding and repro.core.frequency_plan."""

import math

import numpy as np
import pytest

from repro.errors import DispersionError, EncodingError
from repro.core.encoding import (
    PhaseEncoding,
    bits_to_int,
    int_to_bits,
    validate_bit,
    validate_word,
)
from repro.core.frequency_plan import FrequencyPlan
from repro.units import GHZ
from repro.waveguide import Waveguide


class TestPhaseEncoding:
    def setup_method(self):
        self.encoding = PhaseEncoding()

    def test_code_points(self):
        assert self.encoding.encode(0) == 0.0
        assert self.encoding.encode(1) == pytest.approx(math.pi)

    def test_decode_near_code_points(self):
        assert self.encoding.decode(0.1) == 0
        assert self.encoding.decode(math.pi - 0.1) == 1
        assert self.encoding.decode(-math.pi + 0.1) == 1

    def test_decode_wraps(self):
        assert self.encoding.decode(2 * math.pi + 0.05) == 0
        assert self.encoding.decode(3 * math.pi) == 1

    def test_roundtrip(self):
        for bit in (0, 1):
            assert self.encoding.decode(self.encoding.encode(bit)) == bit

    def test_word_helpers(self):
        phases = self.encoding.encode_word([1, 0, 1])
        assert self.encoding.decode_word(phases) == [1, 0, 1]

    def test_margin_peaks_at_code_points(self):
        assert self.encoding.margin(0.0) == pytest.approx(math.pi / 2)
        assert self.encoding.margin(math.pi) == pytest.approx(math.pi / 2)
        assert self.encoding.margin(math.pi / 2) == pytest.approx(0.0)

    def test_custom_threshold(self):
        strict = PhaseEncoding(threshold=0.9 * math.pi)
        assert strict.decode(0.8 * math.pi) == 0

    def test_invalid_threshold(self):
        with pytest.raises(EncodingError):
            PhaseEncoding(threshold=0.0)
        with pytest.raises(EncodingError):
            PhaseEncoding(threshold=math.pi)

    def test_encode_rejects_non_bits(self):
        with pytest.raises(EncodingError):
            self.encoding.encode(2)
        with pytest.raises(EncodingError):
            self.encoding.encode("1")


class TestBitHelpers:
    def test_validate_bit_accepts_bool(self):
        assert validate_bit(True) == 1
        assert validate_bit(False) == 0

    def test_validate_bit_accepts_exact_floats(self):
        assert validate_bit(1.0) == 1

    def test_validate_bit_accepts_numpy_scalars(self):
        assert validate_bit(np.int64(1)) == 1
        assert validate_bit(np.bool_(True)) == 1
        assert validate_bit(np.float32(0.0)) == 0
        with pytest.raises(EncodingError):
            validate_bit(np.int64(2))

    def test_validate_bit_rejects(self):
        for bad in (2, -1, 0.5, None, "0"):
            with pytest.raises(EncodingError):
                validate_bit(bad)

    def test_validate_word_width(self):
        assert validate_word([1, 0], width=2) == [1, 0]
        with pytest.raises(EncodingError):
            validate_word([1, 0], width=3)

    def test_int_to_bits_little_endian(self):
        assert int_to_bits(5, 4) == [1, 0, 1, 0]
        assert int_to_bits(0, 3) == [0, 0, 0]
        assert int_to_bits(255, 8) == [1] * 8

    def test_int_to_bits_range_checks(self):
        with pytest.raises(EncodingError):
            int_to_bits(8, 3)
        with pytest.raises(EncodingError):
            int_to_bits(-1, 3)
        with pytest.raises(EncodingError):
            int_to_bits(0, 0)

    def test_bits_to_int_roundtrip(self):
        for value in (0, 1, 5, 170, 255):
            assert bits_to_int(int_to_bits(value, 8)) == value


class TestFrequencyPlan:
    def test_paper_plan(self):
        plan = FrequencyPlan.paper_byte_plan()
        assert plan.n_bits == 8
        assert plan.channel(0) == pytest.approx(10 * GHZ)
        assert plan.channel(7) == pytest.approx(80 * GHZ)

    def test_uniform_constructor(self):
        plan = FrequencyPlan.uniform(4, 10 * GHZ, 5 * GHZ)
        assert plan.frequencies == [10e9, 15e9, 20e9, 25e9]

    def test_uniform_validation(self):
        with pytest.raises(EncodingError):
            FrequencyPlan.uniform(0, 10 * GHZ, 5 * GHZ)
        with pytest.raises(EncodingError):
            FrequencyPlan.uniform(4, 10 * GHZ, 0.0)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(EncodingError):
            FrequencyPlan([1e10, 1e10])

    def test_empty_and_negative_rejected(self):
        with pytest.raises(EncodingError):
            FrequencyPlan([])
        with pytest.raises(EncodingError):
            FrequencyPlan([-1e9])

    def test_min_spacing(self):
        plan = FrequencyPlan([10e9, 40e9, 20e9])
        assert plan.min_spacing() == pytest.approx(10e9)
        assert FrequencyPlan([1e10]).min_spacing() == math.inf

    def test_wavelengths_descend(self, paper_dispersion):
        plan = FrequencyPlan.paper_byte_plan()
        lams = plan.wavelengths(paper_dispersion)
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_validate_against_passes_paper_plan(self, paper_dispersion):
        plan = FrequencyPlan.paper_byte_plan()
        assert plan.validate_against(paper_dispersion) is plan

    def test_validate_rejects_below_band_edge(self, paper_dispersion):
        plan = FrequencyPlan([1e9])  # below the 3.64 GHz edge
        with pytest.raises(DispersionError):
            plan.validate_against(paper_dispersion)

    def test_validate_rejects_too_close_channels(self, paper_dispersion):
        plan = FrequencyPlan([10e9, 10.05e9])
        with pytest.raises(EncodingError, match="too close"):
            plan.validate_against(paper_dispersion)

    def test_describe(self):
        text = FrequencyPlan.paper_byte_plan().describe()
        assert "10 GHz" in text and "80 GHz" in text
