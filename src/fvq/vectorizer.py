"""Vector formation from I/Q component streams and the orthant-entropy metric.

Three layouts are supported:

  method1: all I components in time order, then all Q components, chunked
           into runs of l_vq (the boundary vector may mix I and Q when 2M is
           not a multiple of l_vq);
  method2: (I, Q) interleaved per time index, then chunked;
  method3: a seeded uniform random permutation of all 2M components, chunked.

Tails are zero-padded to a full vector and the pre-padding component count is
recorded so devectorize can trim exactly.
"""

import enum

import numpy as np
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolationError
from .iqstream import IQStream


class VectorLayout(str, enum.Enum):
    METHOD1 = "method1_consecutive_same_component"
    METHOD2 = "method2_iq_interleaved"
    METHOD3 = "method3_random"


@dataclass(eq=False)
class VectorBatch:
    l_vq: int
    vectors: np.ndarray  # (count, l_vq) float64
    layout: VectorLayout
    permutation_seed: int = 0
    original_count: int = 0  # component count before padding (= 2M)

    def __post_init__(self):
        self.layout = VectorLayout(self.layout)
        self.vectors = np.asarray(self.vectors, dtype=np.float64).reshape(
            -1, self.l_vq
        )


def _interleaved_components(stream: IQStream) -> np.ndarray:
    comps = np.empty(2 * len(stream))
    comps[0::2] = stream.samples.real
    comps[1::2] = stream.samples.imag
    return comps


def vectorize(
    stream: IQStream, method: VectorLayout, l_vq: int, seed: int = 0
) -> VectorBatch:
    if l_vq < 1:
        raise ContractViolationError("l_vq must be positive")
    method = VectorLayout(method)
    m = len(stream)
    if method is VectorLayout.METHOD1:
        comps = np.concatenate([stream.samples.real, stream.samples.imag])
    elif method is VectorLayout.METHOD2:
        comps = _interleaved_components(stream)
    else:
        perm = np.random.default_rng(int(seed)).permutation(2 * m)
        comps = _interleaved_components(stream)[perm]
    count = -(-comps.size // l_vq) if comps.size else 0
    padded = np.zeros(count * l_vq)
    padded[: comps.size] = comps
    return VectorBatch(
        l_vq,
        padded.reshape(count, l_vq),
        method,
        permutation_seed=int(seed) if method is VectorLayout.METHOD3 else 0,
        original_count=2 * m,
    )


def devectorize(batch: VectorBatch, sample_rate=Fraction(1)) -> IQStream:
    """Exact inverse of vectorize; the sample rate is pipeline metadata and
    must be supplied by the caller."""
    flat = batch.vectors.ravel()
    oc = batch.original_count
    if oc % 2 or oc > flat.size or flat.size - oc >= max(batch.l_vq, 1):
        raise ContractViolationError(
            f"original_count {oc} inconsistent with "
            f"{len(batch.vectors)} vectors of length {batch.l_vq}"
        )
    comps = flat[:oc]
    if batch.layout is VectorLayout.METHOD1:
        m = oc // 2
        re, im = comps[:m], comps[m:]
    else:
        if batch.layout is VectorLayout.METHOD3:
            perm = np.random.default_rng(
                int(batch.permutation_seed)
            ).permutation(oc)
            inv = np.empty(oc, dtype=np.int64)
            inv[perm] = np.arange(oc)
            comps = comps[inv]
        re, im = comps[0::2], comps[1::2]
    return IQStream(re + 1j * im, sample_rate)


def orthant_entropy(batch: VectorBatch) -> float:
    """Empirical Shannon entropy (bits per vector) of the sign-orthant
    distribution of the batch.

    Each vector maps to the 2^l_vq-ary symbol of its component signs (zero
    counts as positive); lower entropy means stronger inter-component
    dependence.
    """
    if len(batch.vectors) == 0:
        raise ContractViolationError("orthant entropy of an empty batch")
    if batch.l_vq > 62:
        raise ContractViolationError("l_vq too large for orthant labeling")
    weights = np.uint64(1) << np.arange(batch.l_vq, dtype=np.uint64)
    symbols = (batch.vectors < 0).astype(np.uint64) @ weights
    _, counts = np.unique(symbols, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())
