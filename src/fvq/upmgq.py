"""Unequally protected multi-group quantization.

Each normalized sample component is split by binary expansion at a threshold
level theta into three groups:

  G1  sign           1 uncoded bit per component, always exact;
  G2  high part      2^theta * floor(|s| * 2^-theta), vector-quantized after
                     dividing by 2^theta (codebooks hold non-negative
                     integers, so reconstructions stay on the expansion
                     lattice) and Huffman-coded;
  G3  low part       |s| - high in [0, 2^theta), uniform scalar quantization
                     with midpoint reconstruction, coded by formula:
                     ceil(low * 2^(q_low - theta)) - 1, clipped to the grid,
                     so a low on a cell edge takes the lower code; entropy
                     coding over G3 is off by default since low levels are
                     near Bernoulli(0.5), but can be enabled for completeness.

The expansion identity sign * (high + low) = s holds exactly for every finite
float: high truncates |s| at bit position theta, so both parts and their sum
are exactly representable.

`UpmgqConfig` (theta, q_high, l, q_low) is the one geometry type, which the
pipeline's `UpmgqSpec` extends. Quantization expands a frame once. The UPMG
container takes its geometry from the codebook, and loading checks the header
against the file size before reading the body.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, FormatError
from .entropy import HuffmanTable, build_huffman, estimate_pmf, table_from_lengths
from .iqstream import IQStream
from .vectorizer import VectorBatch, VectorLayout, devectorize, vectorize
from .vq_core import (
    CLASSICAL,
    Codebook,
    LloydStop,
    SearchCounter,
    _frozen_nearest,
    _nearest,
    check_trainer,
    codebook_size,
    load_codebook,
    save_codebook,
    train_classical,
    train_modified,
)

UPMG_MAGIC = b"UPMG\x00\x00\x00\x00"
_UPMG_VERSION = 1


@dataclass
class UpmgqConfig:
    """UPMGQ geometry: threshold level theta, G2 vectors of l components at
    q_high bits each, and q_low-bit G3 codes."""

    theta: int = 0
    q_high: int = 4
    l: int = 2
    q_low: int = 4

    def __post_init__(self):
        if self.q_high < 1 or self.l < 1 or self.q_low < 0:
            raise ContractViolationError("need q_high >= 1, l >= 1, q_low >= 0")
        if self.q_high * self.l > 62 or self.q_low > 62:
            raise ContractViolationError("resolution overflows")


@dataclass(eq=False)
class UpmgqCodebook:
    """G2 codebook, G3 grid and G2 Huffman table; compared by identity, like
    `Codebook`."""

    high_vq: Codebook  # over high parts divided by 2^theta (integer entries)
    low_sq: np.ndarray  # 2^q_low midpoints strictly inside [0, 2^theta)
    huffman_high: HuffmanTable
    theta: int = 0
    q_low: int = 0

    def __post_init__(self):
        self.low_sq = np.asarray(self.low_sq, dtype=np.float64)


@dataclass(eq=False)
class UpmgqIndices:
    """Quantizer output: per-component sign bits and G3 codes (component
    order is all I, then all Q), plus per-vector G2 indices."""

    sign_negative: np.ndarray  # (2M,) 0/1
    g2_indices: np.ndarray  # (ceil(2M / l),) int64
    g3_codes: np.ndarray  # (2M,) int64


def expand(sample: float, theta: int) -> tuple[int, float, float]:
    """Split one real sample into (sign, high, low) at threshold level theta.

    high = 2^theta * floor(|s| * 2^-theta), low = |s| - high, and
    sign * (high + low) reproduces the sample exactly. A zero sample gets
    sign +1.
    """
    if not math.isfinite(sample):
        raise ContractViolationError("sample must be finite")
    neg, high, low = _expand_components(np.float64(sample), theta)
    return -1 if neg else 1, float(high), float(low)


def _expand_components(components: np.ndarray, theta: int):
    scale = math.ldexp(1.0, theta)
    neg = components < 0
    mag = np.abs(components)
    high = np.floor(mag / scale) * scale
    low = mag - high
    return neg, high, low


@dataclass
class LevelStats:
    levels: np.ndarray
    p_one: np.ndarray
    sign_negative_p: float


def level_statistics(stream: IQStream, levels=range(-8, 8)) -> LevelStats:
    """Empirical P(bit = 1) per binary-expansion level across all I/Q
    components, with the sign level reported separately."""
    if len(stream) == 0:
        raise ContractViolationError("empty stream")
    comps = np.concatenate([stream.samples.real, stream.samples.imag])
    levels = np.asarray(list(levels), dtype=np.int64)
    mag = np.abs(comps)
    p = np.empty(len(levels))
    for i, k in enumerate(levels):
        p[i] = float(np.mean(np.floor(mag * math.ldexp(1.0, -int(k))) % 2))
    return LevelStats(levels, p, float(np.mean(comps < 0)))


def _high_batch(high: np.ndarray, theta: int, l: int) -> VectorBatch:
    """G2 vectors from the high parts of 2M components (all I, then all Q)."""
    norm = high * math.ldexp(1.0, -theta)
    m = len(high) // 2
    return vectorize(IQStream(norm[:m] + 1j * norm[m:]), VectorLayout.METHOD1, l)


def train_upmgq(
    stream: IQStream,
    cfg: UpmgqConfig,
    trainer: str = CLASSICAL,
    stop: LloydStop = None,
    seed: int = 0,
    trials: int = 1,
) -> UpmgqCodebook:
    """Train the G2 codebook on normalized high parts and fix the G3 grid.

    The G2 Lloyd result is rounded to non-negative integers (the high parts
    are integer multiples of 2^theta by construction) and usage counts are
    re-measured on the rounded codebook for the Huffman table.
    """
    check_trainer(trainer)
    if len(stream) == 0:
        raise ContractViolationError("empty stream")
    comps = np.concatenate([stream.samples.real, stream.samples.imag])
    batch = _high_batch(_expand_components(comps, cfg.theta)[1], cfg.theta, cfg.l)
    train = train_classical if trainer == CLASSICAL else train_modified
    cb = train(batch.vectors, cfg.q_high, trials, stop, seed)
    rounded = np.maximum(np.round(cb.codewords), 0.0)
    idx = _nearest(batch.vectors, rounded)
    usage = np.bincount(idx, minlength=len(rounded)).astype(np.uint64)
    high_vq = Codebook(cfg.l, cfg.q_high, rounded, usage, cb.training_meta)
    table = build_huffman(estimate_pmf(idx, high_vq.size))
    return UpmgqCodebook(high_vq, _low_grid(cfg), table, cfg.theta, cfg.q_low)


def _low_grid(cfg: UpmgqConfig) -> np.ndarray:
    n = 1 << cfg.q_low
    return (np.arange(n) + 0.5) * math.ldexp(1.0, cfg.theta) / n


def quantize_upmgq(
    cb: UpmgqCodebook,
    cfg: UpmgqConfig,
    stream: IQStream,
    g2_counter: SearchCounter = None,
    g3_counter: SearchCounter = None,
) -> UpmgqIndices:
    """Quantize a normalized stream into (G1, G2, G3) index groups.

    G2 searches (one per vector) are counted into `g2_counter`, G3 searches
    (one per component) into `g3_counter`."""
    if len(stream) == 0:
        raise ContractViolationError("empty stream")
    comps = np.concatenate([stream.samples.real, stream.samples.imag])
    neg, high, low = _expand_components(comps, cfg.theta)
    batch = _high_batch(high, cfg.theta, cfg.l)
    g2 = _frozen_nearest(batch.vectors, cb.high_vq.codewords)
    # G3: the nearest midpoint, ties (cell edges) to the lower code; the
    # counter adds the closed-form count like every other search.
    g3 = np.ceil(low * math.ldexp(1.0, cb.q_low - cb.theta)).astype(np.int64)
    g3 = np.clip(g3 - 1, 0, (1 << cb.q_low) - 1)
    if g2_counter is not None:
        g2_counter.add(cb.high_vq.size * len(batch.vectors), len(batch.vectors))
    if g3_counter is not None:
        g3_counter.add(len(cb.low_sq) * len(comps), len(comps))
    return UpmgqIndices(neg.astype(np.uint8), g2, g3.astype(np.int64))


def dequantize_upmgq(
    cb: UpmgqCodebook,
    cfg: UpmgqConfig,
    indices: UpmgqIndices,
    sample_rate=1,
) -> IQStream:
    """Rebuild the stream: sign * (2^theta * G2 component + G3 midpoint)."""
    n = len(indices.sign_negative)
    if n % 2:
        raise ContractViolationError("component count must be even")
    g2, g3 = indices.g2_indices, indices.g3_codes
    if len(g2) != -(-n // cfg.l) or len(g3) != n:
        raise ContractViolationError("index group lengths are inconsistent")
    if g2.min(initial=0) < 0 or g2.max(initial=0) >= cb.high_vq.size:
        raise ContractViolationError("G2 index out of range")
    if g3.min(initial=0) < 0 or g3.max(initial=0) >= len(cb.low_sq):
        raise ContractViolationError("G3 code out of range")
    batch = VectorBatch(
        cfg.l, cb.high_vq.codewords[g2], VectorLayout.METHOD1, original_count=n
    )
    high_stream = devectorize(batch, sample_rate)
    high = np.concatenate(
        [high_stream.samples.real, high_stream.samples.imag]
    ) * math.ldexp(1.0, cfg.theta)
    low = cb.low_sq[g3]
    sign = 1.0 - 2.0 * indices.sign_negative.astype(np.float64)
    comps = sign * (high + low)
    m = n // 2
    return IQStream(comps[:m] + 1j * comps[m:], sample_rate)


def cr_upmgq(l_high: float, l_upmgq: int, l_low: float, q0: int) -> float:
    """Compression gain of the quantizer block alone:
    q0 / (1 + L_HIGH / L_UPMGQ + L_LOW)."""
    if l_upmgq < 1 or q0 < 1 or l_high < 0 or l_low < 0:
        raise ContractViolationError("lengths must be non-negative, l >= 1")
    return q0 / (1.0 + l_high / l_upmgq + l_low)


def upmgq_complexity(cfg: UpmgqConfig) -> tuple[int, int]:
    """(search operations, codebook size); both 2^(q_high*l) + 2^q_low."""
    so = codebook_size(cfg.l, cfg.q_high) + (1 << cfg.q_low)
    return so, so


def save_upmgq(cb: UpmgqCodebook, path, q0: int) -> None:
    """UPMG container: magic, version, geometry and q0, G2 VQCB block, G3
    grid as float32, then the G2 Huffman code lengths."""
    high = cb.high_vq
    with open(path, "wb") as fh:
        fh.write(UPMG_MAGIC + struct.pack(
            "<BbBBBB", _UPMG_VERSION, cb.theta, high.q_vq, high.l_vq, cb.q_low, q0
        ))
        save_codebook(high, fh)
        fh.write(cb.low_sq.astype("<f4").tobytes())
        fh.write(cb.huffman_high.code_lengths.astype(np.uint8).tobytes())


def load_upmgq(path) -> UpmgqCodebook:
    """Read a UPMG container. The header must declare a valid geometry whose
    body is exactly the rest of the file, and the G2 block must have that
    geometry; q0 is checked and otherwise unused."""
    with open(path, "rb") as fh:
        header = fh.read(14)
        if len(header) < 14 or header[:8] != UPMG_MAGIC:
            raise FormatError("bad UPMG header")
        version, theta, q_high, l, q_low, q0 = struct.unpack_from(
            "<BbBBBB", header, 8
        )
        if version != _UPMG_VERSION:
            raise FormatError(f"unsupported UPMG version {version}")
        try:
            cfg = UpmgqConfig(theta, q_high, l, q_low)
        except ContractViolationError as exc:
            raise FormatError(f"bad UPMG geometry: {exc}") from exc
        if q0 < 1:
            raise FormatError("UPMG q0 must be positive")
        k = codebook_size(l, q_high)
        # VQCB header, codewords, usage counts, G3 grid, code lengths
        body = 15 + k * (4 * l + 8) + (4 << q_low) + k
        if body != os.fstat(fh.fileno()).st_size - 14:
            raise FormatError("UPMG header does not match the file size")
        high_vq = load_codebook(fh)
        if (high_vq.l_vq, high_vq.q_vq) != (l, q_high):
            raise FormatError("G2 block geometry mismatch")
        low_raw = fh.read(4 << q_low)
        if low_raw != _low_grid(cfg).astype("<f4").tobytes():
            raise FormatError("G3 grid is not the configuration's midpoints")
        low_sq = np.frombuffer(low_raw, dtype="<f4").astype(np.float64)
        table = table_from_lengths(np.frombuffer(fh.read(k), dtype=np.uint8))
    return UpmgqCodebook(high_vq, low_sq, table, theta, q_low)
