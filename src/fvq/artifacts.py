"""Codebook files: one writer and one reader for the three layouts.

Fields are little-endian; each magic is four letters and four zero bytes.

    VQCB  a `Codebook`: magic, version 1, l_vq, q_vq (u8 each), codeword
          count (u32), float32 codewords row-major, uint64 usage counts.
    VQMS  an `MsvqCodebook`: magic, version 1, q1, q2, l (u8 each), the
          stage-1 VQCB block, then one stage-2 block per stage-1 codeword.
    UPMG  an `UpmgqCodebook`: magic, version 1, theta (i8), q_high, l,
          q_low, q0 (u8 each), the G2 VQCB block, the G3 grid as float32,
          then the G2 code lengths (u8 each, of its `table`). q0 is stored
          here only; loading ignores it beyond its check.

A file is valid only as the bytes `encode` writes for what it holds.
`load_codebook` picks the layout by the magic and checks that the header's
geometry gives exactly the file's length before it reads the body. It then
builds the codebook from the blocks at that geometry and refuses the file
unless `encode` of it gives back the same bytes, which covers versions,
block headers, trailing bytes, the G3 grid and the G2 code lengths.
"""

import os
import struct

import numpy as np

from .errors import ContractViolationError, FormatError
from .msvq import MsvqCodebook
from .upmgq import UpmgqCodebook
from .vq_core import Codebook, codebook_size

_VERSION = 1
VQCB, VQMS, UPMG = (name + bytes(4) for name in (b"VQCB", b"VQMS", b"UPMG"))
_HEAD = 14  # the longest header ahead of a VQCB block (UPMG's)


def _pack(magic: bytes, fmt: str, *fields) -> bytes:
    try:
        return magic + struct.pack("<B" + fmt, _VERSION, *fields)
    except struct.error as exc:
        raise ContractViolationError(f"header field out of range: {exc}") from exc


def _vqcb(cb: Codebook) -> bytes:
    return (
        _pack(VQCB, "BBI", cb.l_vq, cb.q_vq, cb.size)
        + cb.codewords.astype("<f4").tobytes()
        + cb.usage_counts.astype("<u8").tobytes()
    )


def encode(cb, q0: int) -> bytes:
    """The file bytes of a `Codebook` (VQCB), `MsvqCodebook` (VQMS) or
    `UpmgqCodebook` (UPMG); q0 goes into the UPMG header only."""
    if isinstance(cb, Codebook):
        return _vqcb(cb)
    if isinstance(cb, MsvqCodebook):
        head = _pack(VQMS, "BBB", cb.q1, cb.q2, cb.l)
        return head + b"".join(map(_vqcb, [cb.stage1, *cb.stage2]))
    if isinstance(cb, UpmgqCodebook):
        if q0 < 1:
            raise ContractViolationError("UPMG q0 must be positive")
        high = cb.high_vq
        return (
            _pack(UPMG, "bBBBB", cb.theta, high.q_vq, high.l_vq, cb.q_low, q0)
            + _vqcb(high)
            + cb.low_sq.astype("<f4").tobytes()
            + high.table.code_lengths.astype(np.uint8).tobytes()
        )
    raise ContractViolationError(f"no codebook file holds a {type(cb).__name__}")


def save_codebook(cb, path, q0: int) -> None:
    data = encode(cb, q0)
    with open(path, "wb") as fh:
        fh.write(data)


def _block_length(l: int, q: int) -> int:
    return 15 + (1 << l * q) * (4 * l + 8)


def _block(data: bytes, at: int, l: int, q: int) -> Codebook:
    """The VQCB block at offset `at`, read at geometry (l, q); its own header
    is left to the canonical-form check."""
    k = codebook_size(l, q)
    codewords = np.frombuffer(data, "<f4", k * l, at + 15).reshape(k, l)
    usage = np.frombuffer(data, "<u8", k, at + 15 + 4 * k * l)
    return Codebook(l, q, codewords, usage)


def _vqcb_layout(head):
    l, q = head[9], head[10]
    return _block_length(l, q), lambda data: (_block(data, 0, l, q), 0)


def _vqms_layout(head):
    q1, q2, l = head[9:12]
    step = _block_length(l, q2)
    first = 12 + _block_length(l, q1)

    def build(data):
        stage2 = [_block(data, first + i * step, l, q2)
                  for i in range(codebook_size(l, q1))]
        return MsvqCodebook(_block(data, 12, l, q1), stage2, l, q1, q2), 0

    return first + (1 << q1 * l) * step, build


def _upmg_layout(head):
    theta, q_high, l, q_low, q0 = struct.unpack_from("<bBBBB", head, 9)
    length = 14 + _block_length(l, q_high) + (4 << q_low) + (1 << l * q_high)

    def build(data):
        high = _block(data, 14, l, q_high)
        return UpmgqCodebook(high, theta, q_low), q0

    return length, build


_LAYOUTS = {VQCB: _vqcb_layout, VQMS: _vqms_layout, UPMG: _upmg_layout}


def load_codebook(path):
    """The `Codebook`, `MsvqCodebook` or `UpmgqCodebook` a file holds;
    FormatError unless the file is exactly the bytes `encode` writes for it
    (module docstring)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD)
        layout = _LAYOUTS.get(head[:8])
        if layout is None:
            raise FormatError(f"{path}: not a VQCB, VQMS or UPMG file")
        # a short header reads as zeros: its geometry then needs more bytes
        # than the file has
        length, build = layout(head.ljust(_HEAD, b"\0"))
        size = os.fstat(fh.fileno()).st_size
        if length != size:
            raise FormatError(
                f"{path}: header geometry gives {length} bytes, file has {size}"
            )
        data = head + fh.read()
    try:
        cb, q0 = build(data)
        canonical = encode(cb, q0) == data
    except ContractViolationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not canonical:
        raise FormatError(f"{path}: not the bytes its codebook encodes to")
    return cb
