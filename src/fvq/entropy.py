"""Canonical Huffman coding over quantizer index streams.

Tables are built from add-one-smoothed PMFs so every symbol of the alphabet
stays encodable at runtime even if it never occurred in training (evaluation
streams routinely differ from training streams). Codes are canonical, so a
table serializes as one code length per symbol. Emitted bit order is
MSB-first within each byte.

Decoding reads a code at a time, for every bit position at once (Moffat &
Turpin, "On the implementation of minimum-redundancy prefix codes", 1997).
Left-justified in 64 bits, the canonical codes of each length occupy one
range above those of every shorter length, so the length of the code that
starts at bit p is found by `np.searchsorted` of the 64-bit window at p
against each length's last left-justified code, and its symbol follows from
that length's first code and first position in canonical order. Each
position's successor p + len(p) is known from that alone; composing the
successor map with itself (pointer doubling) gives the positions of all
`count` symbols in log2(count) vector steps. The per-length constants are
computed once per `HuffmanTable`, and `table_from_counts` memoises its
tables on the counts' content, so a codebook whose usage counts have not
changed gets the same table, constants included, on every call.
"""

import functools
import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# bench/tracing.py patches entropy.unpack_bit_array
from .bitio import unpack_bit_array  # noqa: F401
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


class _Decoder(NamedTuple):
    """Canonical decoding constants of one table."""

    order: np.ndarray  # symbols in canonical order (by length, then symbol)
    lengths: np.ndarray  # code lengths that occur, ascending, then 0
    last: np.ndarray  # per such length: its last code left-justified, uint64
    first_code: np.ndarray  # per length 0..max_len: first code, uint64
    first_pos: np.ndarray  # per length 0..max_len: its first index in order
    max_len: int


def _canonical_decoder(code_lengths) -> _Decoder:
    lengths = np.asarray(code_lengths, dtype=np.int64)
    max_len = int(lengths.max())
    if max_len > 64:
        raise ContractViolationError("code length exceeds 64 bits")
    num = np.bincount(lengths, minlength=max_len + 1).tolist()
    first_code = np.zeros(max_len + 1, dtype=np.uint64)
    first_pos = np.zeros(max_len + 1, dtype=np.int64)
    present, last = [], []
    code = pos = 0
    for ln in range(1, max_len + 1):
        first_code[ln], first_pos[ln] = code, pos
        if num[ln]:
            code += num[ln]
            pos += num[ln]
            present.append(ln)
            last.append((code << (64 - ln)) - 1)
        code <<= 1
    return _Decoder(
        np.lexsort((np.arange(len(lengths)), lengths)),
        np.array(present + [0], dtype=np.uint8),
        np.array(last, dtype=np.uint64),
        first_code, first_pos, max_len,
    )


def _kraft_sum(code_lengths) -> float:
    return float(np.sum(2.0 ** -np.asarray(code_lengths, dtype=np.float64)))


@dataclass(eq=False)
class HuffmanTable:
    """A canonical code; treat it as immutable, since decoding caches
    constants derived from `code_lengths`. Compared by identity: its fields
    are arrays."""

    code_lengths: np.ndarray  # (alphabet,) int
    codes: np.ndarray  # (alphabet,) canonical codewords, right-aligned
    avg_length: float  # L_HUFF under the PMF the table was built from

    @property
    def alphabet_size(self) -> int:
        return len(self.code_lengths)

    def kraft_sum(self) -> float:
        return _kraft_sum(self.code_lengths)

    @functools.cached_property
    def _decoder(self) -> _Decoder:
        return _canonical_decoder(self.code_lengths)


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
    symbol index): a symbol's code is its length's first code plus its
    offset from that length's first position in canonical order."""
    lengths = np.asarray(lengths, dtype=np.int64)
    dec = _canonical_decoder(lengths)
    rank = np.empty(len(lengths), dtype=np.int64)
    rank[dec.order] = np.arange(len(lengths))
    offset = (rank - dec.first_pos[lengths]).astype(np.uint64)
    return dec.first_code[lengths] + offset


def table_from_counts(counts, alphabet_size: int) -> HuffmanTable:
    """Table from raw usage counts (codebook artifacts store these).

    Memoised on the counts' content and the alphabet size: equal counts give
    the same table object, with read-only arrays, and changed counts (even
    an array changed in place) give a new one.
    """
    counts = np.asarray(counts, dtype=np.int64)
    flat = np.zeros(alphabet_size, dtype=np.int64)
    flat[: len(counts)] = counts
    return _table_from_flat_counts(flat.tobytes())


@functools.lru_cache(maxsize=8)
def _table_from_flat_counts(flat: bytes) -> HuffmanTable:
    counts = np.frombuffer(flat, dtype=np.int64)
    table = build_huffman((counts + 1.0) / (counts.sum() + len(counts)))
    table.code_lengths.setflags(write=False)
    table.codes.setflags(write=False)
    return table


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
    offsets = np.cumsum(lens) - lens
    bits = np.zeros(total, dtype=np.uint8)
    for b in range(int(lens.max())):
        mask = lens > b
        shift = (lens[mask] - 1 - b).astype(np.uint64)
        bits[offsets[mask] + b] = (codes[mask] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), total


def _bit_windows(payload: bytes, n: int) -> np.ndarray:
    """The 64 bits of `payload` starting at each bit 0..n-1, MSB-first, as
    uint64; bits past the payload's end read as zero."""
    n_bytes = (n + 7) >> 3
    data = np.frombuffer(payload, dtype=np.uint8)[: n_bytes + 8]
    buf = np.zeros(n_bytes + 8, dtype=np.uint8)
    buf[: len(data)] = data
    words = sliding_window_view(buf, 8)[:n_bytes].copy().view(">u8")
    spill = buf[8:, None].astype(np.uint64)  # the byte after each word
    shift = np.arange(8, dtype=np.uint64)
    windows = (words.astype(np.uint64) << shift) | (spill >> (8 - shift))
    return windows.reshape(-1)[:n]


def decode(table: HuffmanTable, payload: bytes, count: int) -> np.ndarray:
    """Decode exactly `count` symbols from an MSB-first bit payload.

    Raises MalformedBitstreamError if the payload runs out mid-symbol or
    holds a bit string that is no code of `table`; extra trailing bits (byte
    padding) are ignored. Scratch memory is linear in the bits read, at most
    min(8 * len(payload), count * max code length).
    """
    if count < 0:
        raise ContractViolationError("count must be >= 0")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if table.alphabet_size == 1:
        return np.zeros(count, dtype=np.int64)
    if count > 8 * len(payload):  # every code is at least one bit long
        raise MalformedBitstreamError(
            f"bit payload exhausted: {8 * len(payload)} bits cannot hold "
            f"{count} symbols"
        )
    dec = table._decoder
    # no symbol of the first `count` starts at or after bit n
    n = min(8 * len(payload), count * dec.max_len)
    windows = _bit_windows(payload, n)
    lens = dec.lengths[np.searchsorted(dec.last, windows)]  # 0: no code
    # jump[p]: the bit after the code at p; `bad` where none fits in n bits
    bad = n + 1
    jump = np.arange(n, dtype=np.intp) + lens
    jump[(lens == 0) | (jump > n)] = bad
    jump = np.append(jump, [bad, bad])
    # pos[k]: first bit of symbol k, pos[count] the bit after the last one;
    # each pass doubles `done` and turns `jump` into a jump over `done` codes
    pos = np.zeros(count + 1, dtype=np.intp)
    done = 1
    while done <= count:
        step = min(done, count + 1 - done)
        pos[done : done + step] = jump[pos[:step]]
        done += step
        if done <= count:
            jump = jump[jump]
    if pos[count] == bad:  # `bad` is absorbing
        k = int(np.argmax(pos == bad)) - 1
        p = int(pos[k])
        if p + dec.max_len <= n and lens[p] == 0:
            raise MalformedBitstreamError("invalid code in bit payload")
        raise MalformedBitstreamError(
            f"bit payload exhausted after {k} of {count} symbols"
        )
    pos = pos[:count]
    ln = lens[pos]
    offset = (windows[pos] >> (64 - ln.astype(np.uint64))) - dec.first_code[ln]
    return dec.order[dec.first_pos[ln] + offset.astype(np.int64)]


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
    if _kraft_sum(lengths) > 1.0 + 1e-9:
        raise MalformedBitstreamError("code lengths violate Kraft inequality")
    return HuffmanTable(lengths, canonical_codes(lengths), 0.0)
