"""Bit packing helpers. Bit order is MSB-first within each byte."""

import numpy as np

from .errors import ContractViolationError, MalformedBitstreamError


def pack_fixed(values, width: int) -> tuple[bytes, int]:
    """Pack unsigned integers into `width` bits each; returns (bytes, bit length)."""
    values = np.asarray(values, dtype=np.uint64)
    if width < 0 or width > 64:
        raise ContractViolationError("width must be in 0..64")
    if values.size and int(values.max()) >> width:
        raise ContractViolationError(f"value does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    bits = bits.ravel()
    return np.packbits(bits).tobytes(), int(bits.size)


def unpack_fixed(payload: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_fixed; raises on short payloads."""
    need_bits = width * count
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < need_bits:
        raise MalformedBitstreamError(
            f"need {need_bits} bits, payload has {bits.size}"
        )
    bits = bits[:need_bits].reshape(count, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1)


def pack_bit_array(bits) -> bytes:
    """Pack a 0/1 array into bytes, zero-padded to a byte boundary."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bit_array(payload: bytes, bit_length: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < bit_length:
        raise MalformedBitstreamError(
            f"need {bit_length} bits, payload has {bits.size}"
        )
    return bits[:bit_length]


def concat_bits(parts) -> tuple[bytes, int]:
    """Join (payload, bit length) pieces into one bit string; returns
    (bytes zero-padded to a byte boundary, total bit length)."""
    bits = np.concatenate([unpack_bit_array(p, n) for p, n in parts])
    return pack_bit_array(bits), int(bits.size)
