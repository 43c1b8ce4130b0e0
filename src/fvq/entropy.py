"""Canonical Huffman coding over quantizer index streams.

Tables are built from add-one-smoothed PMFs so every symbol of the alphabet
stays encodable at runtime even if it never occurred in training (evaluation
streams routinely differ from training streams). Codes are canonical, so a
table serializes as one code length per symbol. Emitted bit order is
MSB-first within each byte.

Encoding is word-parallel: each code is shifted into the 64-bit word that
holds its last bit, the codes that end in one word are OR-ed together, and
a code that straddles a word boundary puts its high bits into the word
before.

Decoding reads a code at a time, for every bit position at once (Moffat &
Turpin, "On the implementation of minimum-redundancy prefix codes", 1997).
The window at bit p is the 32 bits from p on, or 64 bits for a table with a
code longer than 32 bits. Left-justified in the window, the canonical codes
of each length occupy one range above those of every shorter length, so the
length of the code that starts at p is found by counting the lengths the
table uses whose last left-justified code the window exceeds (stepping up
from the shortest length once for each), and its symbol follows from that
length's first code and first position in canonical order. Each
position's successor p + len(p) is known from that alone. Pointer doubling
composes the successor map with itself log2(T) times (T = `_SPAN` = 32),
so that it jumps over T codes; a scalar loop follows those jumps from bit 0
to every T-th code start, and T vector steps of the one-code jump fill in
the starts between them. For n bits read and `count` symbols that is
O(n log T + count) work, valid payload or not, and no loop runs a
data-dependent number of times. (A speculative self-synchronising decode
is not used: its fix-up rounds have no useful bound on a hostile
payload.) The per-length constants are
computed once per `HuffmanTable`. A codebook builds its table from its
usage counts once (`table_from_counts`) and keeps it, constants included,
for every frame it codes.
"""

import functools
import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    lengths: np.ndarray  # code lengths that occur, ascending
    steps: np.ndarray  # per such length: up to the next one; 1 after the
    # longest, so a window past every last code reads max_len + 1
    last: np.ndarray  # per such length: its last code left-justified in
    # `width` bits, as uint32 or uint64
    first_code: np.ndarray  # per length 0..max_len: first code, uint64
    first_pos: np.ndarray  # per length 0..max_len: its first index in order
    max_len: int
    width: int  # bits per decode window: 32, or 64 for longer codes


def _canonical_decoder(code_lengths) -> _Decoder:
    lengths = np.asarray(code_lengths, dtype=np.int64)
    max_len = int(lengths.max())
    if max_len > 64:
        raise ContractViolationError("code length exceeds 64 bits")
    width = 32 if max_len <= 32 else 64
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
            last.append((code << (width - ln)) - 1)
        code <<= 1
    return _Decoder(
        np.lexsort((np.arange(len(lengths)), lengths)),
        np.array(present, dtype=np.uint8),
        np.diff(present + [max_len + 1]).astype(np.uint8),
        np.array(last, dtype=f"uint{width}"),
        first_code, first_pos, max_len, width,
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
    """Table from raw usage counts (codebook artifacts store these), with
    read-only arrays: every frame its codebook codes shares it. Counts are
    float64 (exact to 2^53), so any uint64 counts, a hostile file's too,
    give a table."""
    flat = np.zeros(alphabet_size)
    flat[: len(counts)] = counts
    table = build_huffman((flat + 1.0) / (flat.sum() + alphabet_size))
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
    end = np.cumsum(lens)
    total = int(end[-1])
    if total == 0:  # a one-symbol alphabet's codes are empty
        return b"", 0
    # each code is OR-ed into the 64-bit word that holds its last bit,
    # shifted up past the bits after it in that word; a code that straddles
    # a word boundary puts its high bits into the word before
    word = (end - 1) >> 6
    shift = (-end) & 63
    codes = table.codes[indices]
    runs = np.flatnonzero(np.diff(word, prepend=-1))
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    words[word[runs]] = np.bitwise_or.reduceat(
        codes << shift.astype(np.uint64), runs
    )
    over = np.flatnonzero(lens + shift > 64)
    high = codes[over] >> (64 - shift[over]).astype(np.uint64)
    words[word[over] - 1] |= high
    return words.astype(">u8").tobytes()[: (total + 7) >> 3], total


# Pointer doubling in `decode` stops once a jump spans this many codes.
_SPAN = 32


def _bit_windows(payload: bytes, n: int, width: int) -> np.ndarray:
    """The `width` (32 or 64) bits of `payload` starting at each bit
    0..n-1, MSB-first, as uint32 or uint64; bits past the payload's end
    read as zero."""
    size = width >> 3
    dtype = np.dtype(f"uint{width}")
    n_bytes = (n + 7) >> 3
    buf = np.zeros(n_bytes + size, dtype=np.uint8)
    data = np.frombuffer(payload, dtype=np.uint8)[: len(buf)]
    buf[: len(data)] = data
    # words[b]: the `size` bytes from byte b on, big-endian
    words = np.empty(n_bytes, dtype=dtype)
    for r in range(size):
        part = words[r::size]
        part[:] = np.frombuffer(buf, dtype.newbyteorder(">"), len(part), r)
    # row s: the window at bit s of each byte, topped up from the next byte
    shift = np.arange(8, dtype=np.uint8)[:, None]
    windows = words << shift.astype(dtype)
    windows |= buf[size:] >> (8 - shift)
    return windows.T.reshape(-1)[:n]


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
    windows = _bit_windows(payload, n, dec.width)
    # lens[p]: the length of the code at p, max_len + 1 where none is
    lens = np.full(n, dec.lengths[0], dtype=np.uint8)
    for last, step in zip(dec.last, dec.steps):
        lens += (windows > last) * step
    # jump[p]: the bit after the code at p; `bad` where none fits in n bits
    bad = n + 1
    jump = np.arange(n + 2, dtype=np.intp)
    head = jump[:n]
    head += lens
    head[lens > dec.max_len] = bad
    np.minimum(head, bad, out=head)
    jump[n:] = bad
    del lens
    # far: a jump over `span` codes; each pass doubles it, in two buffers
    # (every entry is an index into jump, so "clip" never clips)
    far = np.take(jump, jump, mode="clip")
    spare = np.empty_like(far)
    span = 2
    while span < _SPAN:
        np.take(far, far, out=spare, mode="clip")
        far, spare = spare, far
        span *= 2
    del spare
    # every span-th code start, then the starts between them: pos[k] is the
    # first bit of symbol k, pos[count] the bit after the last one
    chain = [0]
    for _ in range(count // span):
        chain.append(far.item(chain[-1]))
    del far
    fill = np.empty((len(chain), span), dtype=np.intp)
    fill[:, 0] = chain
    for j in range(1, span):
        fill[:, j] = jump[fill[:, j - 1]]
    del jump
    pos = fill.reshape(-1)[: count + 1]
    if pos[count] == bad:  # `bad` is absorbing
        k = int(np.argmax(pos == bad)) - 1
        if pos[k] + dec.max_len <= n:  # a whole window, and no code in it
            raise MalformedBitstreamError("invalid code in bit payload")
        raise MalformedBitstreamError(
            f"bit payload exhausted after {k} of {count} symbols"
        )
    ln = np.diff(pos)
    pos = pos[:count]
    word = windows[pos] >> (dec.width - ln).astype(windows.dtype)
    offset = (word - dec.first_code[ln]).astype(np.int64)
    return dec.order[dec.first_pos[ln] + offset]


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
