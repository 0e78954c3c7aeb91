"""Tests for shared primitives in repro.common."""

import math
import pickle

import pytest

from repro.common import (
    Precision,
    ceil_div,
    clamp,
    cycles_to_seconds,
    geometric_mean,
    seconds_to_cycles,
)


class TestPrecision:
    def test_int8_bits_and_bytes(self):
        assert Precision.INT8.bits == 8
        assert Precision.INT8.bytes == 1

    def test_bf16_bits_and_bytes(self):
        assert Precision.BF16.bits == 16
        assert Precision.BF16.bytes == 2

    def test_mantissa_bits_loaded_into_cim(self):
        # BF16 has an 8-bit mantissa (with implicit one) in the paper's design.
        assert Precision.INT8.mantissa_bits == 8
        assert Precision.BF16.mantissa_bits == 8

    def test_accumulator_width(self):
        assert Precision.INT8.accumulator_bytes == 4
        assert Precision.BF16.accumulator_bytes == 4

    @pytest.mark.parametrize("precision", list(Precision))
    def test_widths_are_ints_on_every_member(self, precision):
        widths = (precision.bits, precision.bytes, precision.mantissa_bits,
                  precision.accumulator_bytes)
        assert all(type(width) is int for width in widths)
        assert precision.bytes * 8 == precision.bits

    def test_members_look_up_by_value_and_name(self):
        assert Precision("bf16") is Precision.BF16
        assert Precision("int8") is Precision.INT8
        assert Precision["BF16"] is Precision.BF16
        assert [p.value for p in Precision] == ["int8", "bf16"]
        with pytest.raises(ValueError):
            Precision("fp32")

    @pytest.mark.parametrize("precision", list(Precision))
    def test_pickling_returns_the_member(self, precision):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(precision, protocol))
            assert restored is precision
            assert restored.bits == precision.bits

    def test_fingerprint_canonical_form_is_unchanged(self):
        from repro.sweep.fingerprint import canonicalize
        assert canonicalize(Precision.INT8) == ["enum", "Precision", "int8"]
        assert canonicalize(Precision.BF16) == ["enum", "Precision", "bf16"]


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(128, 64) == 2

    def test_rounds_up(self):
        assert ceil_div(129, 64) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 8) == 0

    def test_one(self):
        assert ceil_div(1, 128) == 1

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 4)


class TestClamp:
    def test_within_range(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below_range(self):
        assert clamp(-2.0, 0.0, 1.0) == 0.0

    def test_above_range(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestCycleConversions:
    def test_round_trip(self):
        cycles = 12345.0
        seconds = cycles_to_seconds(cycles, 1.05)
        assert seconds_to_cycles(seconds, 1.05) == pytest.approx(cycles)

    def test_one_ghz(self):
        assert cycles_to_seconds(1e9, 1.0) == pytest.approx(1.0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValueError):
            cycles_to_seconds(1.0, 0.0)
        with pytest.raises(ValueError):
            seconds_to_cycles(1.0, -1.0)


class TestGeometricMean:
    def test_identical_values(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_matches_math_definition(self):
        values = [1.5, 2.5, 3.5]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geometric_mean(values) == pytest.approx(expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
