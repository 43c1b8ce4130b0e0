"""Canonical Huffman coding over quantizer index streams.

Tables are built from add-one-smoothed PMFs so every symbol of the alphabet
stays encodable at runtime even if it never occurred in training (evaluation
streams routinely differ from training streams). Codes are canonical, so a
table serializes as one code length per symbol. Emitted bit order is
MSB-first within each byte.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .bitio import unpack_bit_array
from .errors import ContractViolationError, MalformedBitstreamError


def estimate_pmf(indices, alphabet_size: int) -> np.ndarray:
    """Add-one-smoothed empirical PMF of `indices` over 0..alphabet_size-1."""
    if alphabet_size < 1:
        raise ContractViolationError("alphabet_size must be >= 1")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (
        indices.min() < 0 or indices.max() >= alphabet_size
    ):
        raise ContractViolationError("index outside alphabet")
    counts = np.bincount(indices, minlength=alphabet_size).astype(np.float64)
    counts += 1.0
    return counts / counts.sum()


def _huffman_lengths(pmf: np.ndarray) -> np.ndarray:
    """Optimal prefix code lengths via the classic heap merge."""
    n = len(pmf)
    if n == 1:
        # Degenerate alphabet: zero bits per symbol, decode relies on the
        # declared symbol count.
        return np.zeros(1, dtype=np.int64)
    # Node arrays: 0..n-1 are leaves, then internal nodes.
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    heap = [(float(pmf[i]), i) for i in range(n)]
    heapq.heapify(heap)
    next_node = n
    while len(heap) > 1:
        wa, a = heapq.heappop(heap)
        wb, b = heapq.heappop(heap)
        parent[a] = next_node
        parent[b] = next_node
        heapq.heappush(heap, (wa + wb, next_node))
        next_node += 1
    lengths = np.zeros(n, dtype=np.int64)
    for leaf in range(n):
        d, node = 0, leaf
        while parent[node] != -1:
            node = parent[node]
            d += 1
        lengths[leaf] = d
    return lengths


@dataclass
class HuffmanTable:
    code_lengths: np.ndarray  # (alphabet,) int
    codes: np.ndarray  # (alphabet,) canonical codewords, right-aligned
    avg_length: float  # L_HUFF under the PMF the table was built from

    @property
    def alphabet_size(self) -> int:
        return len(self.code_lengths)

    def kraft_sum(self) -> float:
        return float(np.sum(2.0 ** (-self.code_lengths.astype(np.float64))))


def build_huffman(pmf) -> HuffmanTable:
    """Build a canonical Huffman table for a probability vector.

    The average length satisfies H(pmf) <= L_HUFF < H(pmf) + 1.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or len(pmf) < 1:
        raise ContractViolationError("pmf must be a non-empty vector")
    if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-6:
        raise ContractViolationError("pmf entries must be >= 0 and sum to 1")
    lengths = _huffman_lengths(pmf)
    codes = canonical_codes(lengths)
    table = HuffmanTable(lengths, codes, float(np.dot(pmf, lengths)))
    if table.kraft_sum() > 1.0 + 1e-9:
        raise AssertionError("Kraft inequality violated")
    return table


def canonical_codes(lengths) -> np.ndarray:
    """Assign canonical codewords from code lengths (sorted by length, then
    symbol index)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(len(lengths), dtype=np.uint64)
    if len(lengths) == 1:
        return codes
    order = np.lexsort((np.arange(len(lengths)), lengths))
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        ln = int(lengths[sym])
        code <<= ln - prev_len
        codes[sym] = code
        code += 1
        prev_len = ln
    return codes


def table_from_counts(counts, alphabet_size: int) -> HuffmanTable:
    """Table from raw usage counts (codebook artifacts store these)."""
    counts = np.asarray(counts, dtype=np.int64)
    flat = np.zeros(alphabet_size, dtype=np.int64)
    flat[: len(counts)] = counts
    total = flat.sum() + alphabet_size
    return build_huffman((flat + 1.0) / total)


def encode(table: HuffmanTable, indices) -> tuple[bytes, int]:
    """Encode symbols; returns (packed bytes, exact bit length)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return b"", 0
    if indices.min() < 0 or indices.max() >= table.alphabet_size:
        raise ContractViolationError("symbol outside alphabet")
    lens = table.code_lengths[indices]
    codes = table.codes[indices]
    total = int(lens.sum())
    if total == 0:
        return b"", 0
    offsets = np.cumsum(lens) - lens
    bits = np.zeros(total, dtype=np.uint8)
    for b in range(int(lens.max())):
        mask = lens > b
        shift = (lens[mask] - 1 - b).astype(np.uint64)
        bits[offsets[mask] + b] = (codes[mask] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), total


def decode(table: HuffmanTable, payload: bytes, count: int) -> np.ndarray:
    """Decode exactly `count` symbols from an MSB-first bit payload.

    Raises MalformedBitstreamError if the payload runs out mid-symbol; extra
    trailing bits (byte padding) are ignored.
    """
    if count < 0:
        raise ContractViolationError("count must be >= 0")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = table.code_lengths
    if table.alphabet_size == 1:
        return np.zeros(count, dtype=np.int64)
    if count > 8 * len(payload):  # every code is at least one bit long
        raise MalformedBitstreamError(
            f"bit payload exhausted: {8 * len(payload)} bits cannot hold "
            f"{count} symbols"
        )
    max_len = int(lengths.max())
    order = np.lexsort((np.arange(len(lengths)), lengths))
    sorted_lens = lengths[order]
    # first_code[l], first_pos[l], num[l] over the canonical ordering
    first_code = [0] * (max_len + 2)
    first_pos = [0] * (max_len + 2)
    num = [0] * (max_len + 2)
    for ln in range(1, max_len + 1):
        num[ln] = int(np.sum(sorted_lens == ln))
    code = 0
    pos = 0
    for ln in range(1, max_len + 1):
        first_code[ln] = code
        first_pos[ln] = pos
        code = (code + num[ln]) << 1
        pos += num[ln]
    bits = unpack_bit_array(payload, min(len(payload) * 8, count * max_len))
    out = np.empty(count, dtype=np.int64)
    bi = 0
    nbits = bits.size
    for si in range(count):
        code = 0
        ln = 0
        while True:
            if bi >= nbits:
                raise MalformedBitstreamError(
                    f"bit payload exhausted after {si} of {count} symbols"
                )
            code = (code << 1) | int(bits[bi])
            bi += 1
            ln += 1
            if ln > max_len:
                raise MalformedBitstreamError("invalid code in bit payload")
            off = code - first_code[ln]
            if 0 <= off < num[ln]:
                out[si] = order[first_pos[ln] + off]
                break
    return out


def ec_gain(table: HuffmanTable, l_vq: int, q_vq: int) -> float:
    """Entropy-coding gain: fixed index width over the table's average length."""
    if table.avg_length == 0:
        return float("inf")
    return l_vq * q_vq / table.avg_length


def serialize_table(table: HuffmanTable) -> bytes:
    """Alphabet size (uint32 LE) then one code length byte per symbol."""
    if int(table.code_lengths.max(initial=0)) > 255:
        raise ContractViolationError("code length exceeds one byte")
    return (
        np.uint32(table.alphabet_size).tobytes()
        + table.code_lengths.astype(np.uint8).tobytes()
    )


def parse_table(data: bytes) -> tuple[HuffmanTable, int]:
    """Inverse of serialize_table; returns (table, bytes consumed)."""
    if len(data) < 4:
        raise MalformedBitstreamError("truncated Huffman table")
    n = int(np.frombuffer(data[:4], dtype=np.uint32)[0])
    if len(data) < 4 + n:
        raise MalformedBitstreamError("truncated Huffman table body")
    lengths = np.frombuffer(data[4 : 4 + n], dtype=np.uint8)
    return table_from_lengths(lengths), 4 + n


def table_from_lengths(lengths) -> HuffmanTable:
    """Canonical table from code lengths read off a bitstream.

    Lengths that break the Kraft inequality, or that exceed the 64-bit
    canonical codeword width, raise MalformedBitstreamError.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        raise MalformedBitstreamError("empty Huffman table")
    if int(lengths.max()) > 64:
        raise MalformedBitstreamError("code length exceeds 64 bits")
    table = HuffmanTable(lengths, canonical_codes(lengths), 0.0)
    if table.kraft_sum() > 1.0 + 1e-9:
        raise MalformedBitstreamError("code lengths violate Kraft inequality")
    return table
