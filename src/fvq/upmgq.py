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
pipeline's `UpmgqSpec` extends. The components are taken in the profile's
vector layout (`vectorizer.vectorize`), as VQ and MSVQ take them: G2 is a
plain `vq_core.Codebook` over the high parts in its rows of l, coded under
its `table`, and the sign and G3 codes follow the same component order. The
G3 grid follows from theta and q_low. Quantization expands a frame once. A
UPMG file (`artifacts`) stores the grid and the G2 code lengths too, and
loads only if they are the ones the geometry and the G2 usage counts give.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import vq_core
from .entropy import build_huffman, estimate_pmf  # noqa: F401 (bench/tracing.py)
from .errors import ContractViolationError
from .iqstream import IQStream
from .vectorizer import VectorBatch, VectorLayout, devectorize, vectorize
from .vq_core import (
    CLASSICAL,
    Codebook,
    LloydStop,
    SearchCounter,
    _nearest,
    codebook_size,
    dequantize_batch,
    quantize_batch,
    train_classical,  # noqa: F401 (patched by bench/tracing.py)
    train_modified,  # noqa: F401
)


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
        # the UPMG header stores theta as an int8
        if not -128 <= self.theta <= 127:
            raise ContractViolationError("theta must lie in [-128, 127]")


@dataclass(frozen=True, eq=False)
class UpmgqCodebook:
    """G2 codebook and G3 geometry; compared by identity, like `Codebook`."""

    high_vq: Codebook  # over high parts divided by 2^theta (integer entries)
    theta: int = 0
    q_low: int = 0

    def __post_init__(self):
        UpmgqConfig(self.theta, self.high_vq.q_vq, self.high_vq.l_vq, self.q_low)

    @property
    def low_sq(self) -> np.ndarray:
        """The G3 grid: 2^q_low midpoints strictly inside [0, 2^theta)."""
        return _midpoints(np.arange(1 << self.q_low), self.theta, self.q_low)


def _midpoints(codes, theta: int, q_low: int) -> np.ndarray:
    """G3 reconstructions: the midpoints of cells `codes` of [0, 2^theta)."""
    return (codes + 0.5) * math.ldexp(1.0, theta) / (1 << q_low)


@dataclass(eq=False)
class UpmgqIndices:
    """Quantizer output: per-component sign bits and G3 codes (in the
    vector layout's component order; all I, then all Q under method 1),
    plus per-vector G2 indices."""

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


def _expand_layout(stream: IQStream, cfg: UpmgqConfig, method, vector_seed):
    """(sign, G2 vectors, low) of the stream's 2M components in the vector
    layout (`vectorize`): sign and low one per component, and the G2
    vectors the high parts over 2^theta in rows of l, the last one
    zero-padded."""
    if len(stream) == 0:
        raise ContractViolationError("empty stream")
    comps = vectorize(stream, method, cfg.l, vector_seed).vectors
    neg, high, low = _expand_components(comps, cfg.theta)
    high *= math.ldexp(1.0, -cfg.theta)
    n = 2 * len(stream)
    return neg.ravel()[:n], high, low.ravel()[:n]


def train_upmgq(
    stream: IQStream,
    cfg: UpmgqConfig,
    trainer: str = CLASSICAL,
    stop: LloydStop = None,
    seed: int = 0,
    trials: int = 1,
    method: VectorLayout = VectorLayout.METHOD1,
    vector_seed: int = 0,
) -> UpmgqCodebook:
    """Train the G2 codebook on normalized high parts, formed in the vector
    layout `method` (`vector_seed` for method 3), and fix the G3 grid.

    The G2 Lloyd result is rounded to non-negative integers (the high parts
    are integer multiples of 2^theta by construction) and usage counts, from
    which its Huffman table follows, are re-measured on the rounded codebook.
    """
    train = vq_core.trainer(trainer)
    vecs = _expand_layout(stream, cfg, method, vector_seed)[1]
    cb = train(vecs, cfg.q_high, trials, stop, seed)
    rounded = np.maximum(np.round(cb.codewords), 0.0)
    usage = np.bincount(_nearest(vecs, rounded), minlength=len(rounded))
    high_vq = Codebook(cfg.l, cfg.q_high, rounded, usage, cb.training_meta)
    return UpmgqCodebook(high_vq, cfg.theta, cfg.q_low)


def quantize_upmgq(
    cb: UpmgqCodebook,
    cfg: UpmgqConfig,
    stream: IQStream,
    g2_counter: SearchCounter = None,
    g3_counter: SearchCounter = None,
    method: VectorLayout = VectorLayout.METHOD1,
    vector_seed: int = 0,
) -> UpmgqIndices:
    """Quantize a normalized stream into (G1, G2, G3) index groups, its
    components taken in the vector layout `method` (`vector_seed` for
    method 3).

    G2 searches (one per vector) are counted into `g2_counter`, G3 searches
    (one per component) into `g3_counter`."""
    neg, vecs, low = _expand_layout(stream, cfg, method, vector_seed)
    g2 = quantize_batch(cb.high_vq, vecs, g2_counter)
    # G3: the nearest midpoint, ties (cell edges) to the lower code; the
    # counter adds the closed-form count like every other search.
    g3 = np.ceil(low * math.ldexp(1.0, cb.q_low - cb.theta)).astype(np.int64)
    g3 = np.clip(g3 - 1, 0, (1 << cb.q_low) - 1)
    if g3_counter is not None:
        g3_counter.add((1 << cb.q_low) * len(low), len(low))
    return UpmgqIndices(neg.astype(np.uint8), g2, g3)


def dequantize_upmgq(
    cb: UpmgqCodebook,
    cfg: UpmgqConfig,
    indices: UpmgqIndices,
    sample_rate=1,
    method: VectorLayout = VectorLayout.METHOD1,
    vector_seed: int = 0,
) -> IQStream:
    """Rebuild the stream: sign * (2^theta * G2 component + G3 midpoint),
    the components in the vector layout `quantize_upmgq` took them in."""
    n = len(indices.sign_negative)
    if n % 2:
        raise ContractViolationError("component count must be even")
    g2, g3 = indices.g2_indices, indices.g3_codes
    if len(g2) != -(-n // cfg.l) or len(g3) != n:
        raise ContractViolationError("index group lengths are inconsistent")
    if g3.min(initial=0) < 0 or g3.max(initial=0) >= 1 << cb.q_low:
        raise ContractViolationError("G3 code out of range")
    comps = dequantize_batch(cb.high_vq, g2).reshape(-1)
    comps *= math.ldexp(1.0, cfg.theta)
    low = _midpoints(g3, cb.theta, cb.q_low)
    sign = 1.0 - 2.0 * indices.sign_negative.astype(np.float64)
    comps[:n] = sign * (comps[:n] + low)  # the padding is trimmed below
    batch = VectorBatch(cfg.l, comps, method, permutation_seed=vector_seed,
                        original_count=n)
    return devectorize(batch, sample_rate)


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
