"""Unit and property tests for bit-string encoders."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.advice import (
    BitReader,
    BitWriter,
    bits_from_bytes,
    bytes_from_bits,
    decode_symbols,
    elias_gamma_encode,
    encode_symbols,
    encode_unsigned,
)


class TestBitWriterReader:
    def test_write_and_read_unsigned(self):
        writer = BitWriter()
        writer.write_unsigned(5, 4)
        writer.write_unsigned(0, 3)
        writer.write_unsigned(7, 3)
        bits = writer.getvalue()
        assert bits == "0101" + "000" + "111"
        reader = BitReader(bits)
        assert reader.read_unsigned(4) == 5
        assert reader.read_unsigned(3) == 0
        assert reader.read_unsigned(3) == 7
        assert reader.remaining == 0

    def test_unsigned_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_unsigned(8, 3)
        with pytest.raises(ValueError):
            writer.write_unsigned(-1, 3)

    def test_read_past_end_rejected(self):
        reader = BitReader("01")
        reader.read_unsigned(2)
        with pytest.raises(ValueError):
            reader.read_bit()

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            BitReader("0a1")

    def test_elias_gamma_known_values(self):
        assert elias_gamma_encode(1) == "1"
        assert elias_gamma_encode(2) == "010"
        assert elias_gamma_encode(3) == "011"
        assert elias_gamma_encode(4) == "00100"
        with pytest.raises(ValueError):
            elias_gamma_encode(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_elias_gamma_roundtrip(self, value):
        assert BitReader(elias_gamma_encode(value)).read_elias_gamma() == value

    def test_encode_unsigned_helper(self):
        assert encode_unsigned(5, 4) == "0101"


class TestSymbolEncoding:
    def test_known_roundtrip(self):
        symbols = (3, 0, 1, 7, 2)
        assert decode_symbols(encode_symbols(symbols)) == symbols

    def test_empty_sequence(self):
        assert decode_symbols(encode_symbols(())) == ()

    def test_negative_symbol_rejected(self):
        with pytest.raises(ValueError):
            encode_symbols((1, -2))

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=200))
    def test_property_roundtrip(self, symbols):
        assert list(decode_symbols(encode_symbols(symbols))) == symbols

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    def test_size_is_linear_in_symbol_count(self, symbols):
        bits = encode_symbols(symbols)
        width = max(1, max(symbols).bit_length())
        assert len(bits) <= len(symbols) * width + 4 * width.bit_length() + 4 * len(symbols).bit_length() + 8


class TestByteConversion:
    def test_roundtrip(self):
        payload = b"leader election"
        assert bytes_from_bits(bits_from_bytes(payload)) == payload

    def test_partial_byte_rejected(self):
        with pytest.raises(ValueError):
            bytes_from_bits("0101")

    @pytest.mark.parametrize("bits", ["+0000001", "0000_001", " 0000001"])
    def test_characters_other_than_0_and_1_rejected(self, bits):
        # int(chunk, 2) alone would accept a sign, underscores and whitespace
        with pytest.raises(ValueError):
            bytes_from_bits(bits)
