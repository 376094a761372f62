"""Bit-string encoding utilities.

Advice in the paper is a single binary string whose *length in bits* is the
measure of interest, so the oracles here produce actual ``'0'``/``'1'``
strings and the library always reports exact bit counts.  The main encoder
turns a sequence of non-negative integer symbols (e.g. the flattened view of
Theorem 2.2, or a UTF-8 byte stream for map advice) into a self-delimiting
bit string:

* the symbol width ``w`` (Elias-gamma coded),
* the number of symbols (Elias-gamma coded),
* the symbols themselves, each in ``w`` fixed-width bits.

For symbols bounded by the maximum degree Δ this costs
``len(symbols) * ceil(log2(Δ+1)) + O(log)`` bits, matching the
O((Δ-1)^k log Δ) accounting of Theorem 2.2.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "BitWriter",
    "BitReader",
    "elias_gamma_encode",
    "encode_unsigned",
    "encode_symbols",
    "decode_symbols",
    "bits_from_bytes",
    "bytes_from_bits",
]


class BitWriter:
    """Accumulates bits into a string."""

    def __init__(self) -> None:
        self._chunks: List[str] = []

    def write_bit(self, bit: int) -> None:
        self._chunks.append("1" if bit else "0")

    def write_unsigned(self, value: int, width: int) -> None:
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._chunks.append(format(value, f"0{width}b") if width > 0 else "")

    def write_elias_gamma(self, value: int) -> None:
        """Elias gamma code of a *positive* integer."""
        if value < 1:
            raise ValueError("Elias gamma encodes positive integers only")
        binary = bin(value)[2:]
        self._chunks.append("0" * (len(binary) - 1) + binary)

    def getvalue(self) -> str:
        return "".join(self._chunks)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)


class BitReader:
    """Sequential reader over a bit string."""

    def __init__(self, bits: str) -> None:
        if any(c not in "01" for c in bits):
            raise ValueError("bit strings may only contain '0' and '1'")
        self._bits = bits
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise ValueError("read past the end of the bit string")
        bit = self._bits[self._pos]
        self._pos += 1
        return 1 if bit == "1" else 0

    def read_unsigned(self, width: int) -> int:
        if width == 0:
            return 0
        if self._pos + width > len(self._bits):
            raise ValueError("read past the end of the bit string")
        value = int(self._bits[self._pos : self._pos + width], 2)
        self._pos += width
        return value

    def read_elias_gamma(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value


def elias_gamma_encode(value: int) -> str:
    """Elias gamma code of a positive integer, as a bit string."""
    writer = BitWriter()
    writer.write_elias_gamma(value)
    return writer.getvalue()


def encode_unsigned(value: int, width: int) -> str:
    """Fixed-width binary encoding."""
    writer = BitWriter()
    writer.write_unsigned(value, width)
    return writer.getvalue()


def encode_symbols(symbols: Sequence[int]) -> str:
    """Encode a sequence of non-negative integers as a self-delimiting bit string."""
    symbols = list(symbols)
    max_symbol = max(symbols, default=0)
    width = max(1, max_symbol.bit_length())
    writer = BitWriter()
    writer.write_elias_gamma(width)
    writer.write_elias_gamma(len(symbols) + 1)
    for symbol in symbols:
        if symbol < 0:
            raise ValueError("symbols must be non-negative")
        writer.write_unsigned(symbol, width)
    return writer.getvalue()


def decode_symbols(bits: str) -> Tuple[int, ...]:
    """Inverse of :func:`encode_symbols`."""
    reader = BitReader(bits)
    width = reader.read_elias_gamma()
    count = reader.read_elias_gamma() - 1
    return tuple(reader.read_unsigned(width) for _ in range(count))


def bits_from_bytes(payload: bytes) -> str:
    """Bit-string view of a byte string (big-endian per byte).

    Eight characters per byte, most significant bit first, produced by one
    ``int.from_bytes`` and one zero-padded ``format`` of the whole payload.
    An empty payload is the empty string (``format(0, "00b")`` is ``"0"``).
    """
    if not payload:
        return ""
    return format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")


def bytes_from_bits(bits: str) -> bytes:
    """Inverse of :func:`bits_from_bytes`.

    The length must be a multiple of 8 and every character a ``'0'`` or a
    ``'1'``; anything else raises :class:`ValueError`, including the sign,
    underscores and whitespace ``int(..., 2)`` alone would accept.  One
    ``int(bits, 2)`` and one ``int.to_bytes`` convert the whole string.
    """
    if len(bits) % 8 != 0:
        raise ValueError("bit string length must be a multiple of 8")
    if bits.strip("01"):
        raise ValueError("bit strings may only contain '0' and '1'")
    if not bits:
        return b""
    return int(bits, 2).to_bytes(len(bits) // 8, "big")
