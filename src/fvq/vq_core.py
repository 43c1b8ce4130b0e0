"""Vector codebooks, nearest-codeword search, and Lloyd training.

Two trainers are provided. The classical trainer runs independent Lloyd
descents from random data-point initializations and keeps the best final
codebook. The modified trainer chains trials serially: each new trial starts
from the previous trial's output codebook rescaled so its RMS amplitude
matches the training corpus RMS, which kicks the search out of the local
optimum the previous descent settled into; the best codebook seen anywhere in
the chain is returned.

Nearest-codeword search (`_nearest`) has two paths, chosen by codebook size
K. Below `_TREE_MIN_CODEWORDS` it is brute force: one matrix product per
chunk ranks every codeword by |c|^2 - 2 v.c and the row argmin wins, so
exact ties break to the lowest index. From that size on it is an exact k-d
tree search (Friedman, Bentley & Finkel 1977; `scipy.spatial.cKDTree`, built
per call) for each vector's two nearest codewords. A vector whose two nearest
squared distances differ by at most 1e-9 (|v|^2 + max |c|^2), far above the
rounding of either path, is searched again by brute force. Every index
therefore equals the brute-force one, ties and duplicate codewords included,
and the threshold changes speed, never output. Non-finite vectors are
refused on both paths.

Where training needs the distance to the chosen codeword (`_assign`), it is
computed from the index alone, as (-2 v.c_j + |c_j|^2) + |v|^2 clamped at 0,
whichever path found j; distortions, stop decisions and empty-cell repairs
therefore do not depend on the path or on the matrix kernel's rounding.

Distortion is squared Euclidean distance per vector. The per-iteration
distortion trace of every descent is non-increasing (up to the small,
documented exception when an empty-cell repair fires). Empty cells are
repaired by splitting the cell with the largest total distortion: the donor
centroid moves by -delta and the empty slot takes centroid +delta, with
delta = 1e-3 * corpus RMS, preserving codebook size.

All randomness is routed through numpy Generators keyed on (seed, trial), so
training is bit-reproducible for a fixed seed.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContractViolationError, FormatError
from .vectorizer import VectorBatch

CLASSICAL = "classical"
MODIFIED = "modified"

VQCB_MAGIC = b"VQCB\x00\x00\x00\x00"
_VQCB_VERSION = 1

# Keep chunked distance matrices around this many float64 entries (~64 MB).
_CHUNK_BUDGET = 8_000_000

# Smallest codebook searched with a k-d tree. Median of 9 calls on 2 vCPUs,
# random codebooks, n = 1,000 / 10,080 / 34,560 vectors: at K = 512 the tree
# is faster for every l = 1..4 and n (1.2x to 8.6x); at K = 256 it is slower
# in 5 of 12 cases (l = 2, n = 10,080: brute 6.9 ms, tree 8.9 ms); at
# K = 4096, l = 2, n = 10,080: brute 194 ms, tree 11.9 ms.
_TREE_MIN_CODEWORDS = 512

# Relative gap, against |v|^2 + max |c|^2, under which the two nearest
# codewords count as tied and the brute-force search decides.
_NEAR_TIE = 1e-9

# Serial-trial rescale overshoot. Rescaling a converged codebook exactly to
# the corpus RMS is a no-op (its RMS already matches within a fraction of a
# percent), so each new trial aims slightly above the corpus RMS; the
# following descent then reabsorbs the inflated periphery, which is what
# actually evades the previous local optimum. Results are flat across
# 1.1..1.5.
_RESCALE_OVERSHOOT = 1.2


@dataclass
class SearchCounter:
    """Search-operation count in the paper's brute-force model.

    `distance_evals` adds K per vector searched in a K-codeword codebook:
    the evaluations a brute-force search makes, which the paper's
    complexity formulas count. The k-d tree path makes fewer, so this is
    the model's count, not the work actually done."""

    distance_evals: int = 0
    items: int = 0

    def add(self, evals: int, items: int) -> None:
        self.distance_evals += int(evals)
        self.items += int(items)

    @property
    def evals_per_item(self) -> float:
        return self.distance_evals / self.items if self.items else 0.0


@dataclass
class TrainingMeta:
    algorithm: str
    trials: int
    iterations: int
    final_distortion: float
    seed: int
    trial_distortions: list = field(default_factory=list)
    distortion_trace: list = field(default_factory=list)
    repair_events: int = 0


@dataclass
class LloydStop:
    max_iterations: int = 200
    rel_improvement_eps: float = 1e-4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ContractViolationError("max_iterations must be positive")
        if self.rel_improvement_eps <= 0:
            raise ContractViolationError("rel_improvement_eps must be > 0")


@dataclass(eq=False)
class Codebook:
    """A VQ codebook; compared by identity, since its fields are arrays."""

    l_vq: int
    q_vq: int
    codewords: np.ndarray  # (2**(l_vq*q_vq), l_vq) float64
    usage_counts: np.ndarray = None
    training_meta: TrainingMeta = None

    def __post_init__(self):
        self.codewords = np.asarray(self.codewords, dtype=np.float64)
        expected = codebook_size(self.l_vq, self.q_vq)
        if self.codewords.shape != (expected, self.l_vq):
            raise ContractViolationError(
                f"codebook must be {expected} x {self.l_vq}, "
                f"got {self.codewords.shape}"
            )
        if not np.all(np.isfinite(self.codewords)):
            raise ContractViolationError("codewords must be finite")
        if self.usage_counts is None:
            self.usage_counts = np.zeros(expected, dtype=np.uint64)
        else:
            self.usage_counts = np.asarray(self.usage_counts, dtype=np.uint64)
            if self.usage_counts.shape != (expected,):
                raise ContractViolationError("usage_counts shape mismatch")

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def stored_codewords(self) -> int:
        return self.size


def codebook_size(l_vq: int, q_vq: int) -> int:
    # q_vq = 0 (a single codeword) is allowed for degenerate stages.
    if l_vq < 1 or q_vq < 0:
        raise ContractViolationError("l_vq must be positive, q_vq >= 0")
    if l_vq * q_vq > 62:
        raise ContractViolationError("codebook size overflows (l_vq*q_vq > 62)")
    return 1 << (l_vq * q_vq)


def _as_vectors(vectors) -> np.ndarray:
    if isinstance(vectors, VectorBatch):
        return vectors.vectors
    return np.asarray(vectors, dtype=np.float64)


def nearest_codeword(codebook: Codebook, vector, counter: SearchCounter = None) -> int:
    """Index of the squared-Euclidean-nearest codeword; ties break low."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (codebook.l_vq,):
        raise ContractViolationError(
            f"vector length {vector.shape} != l_vq {codebook.l_vq}"
        )
    if not np.isfinite(vector).all():
        raise ContractViolationError("vectors must be finite")
    # one vector never repays building a k-d tree
    idx = _brute_nearest(vector[None, :], codebook.codewords)
    if counter is not None:
        counter.add(codebook.size, 1)
    return int(idx[0])


def _brute_nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """argmin over c of |c|^2 - 2 v.c (|v|^2 is constant per row), one
    matrix product per chunk so the matrix never exceeds the budget."""
    idx = np.empty(len(vectors), dtype=np.int64)
    cw_sq = np.einsum("kl,kl->k", codewords, codewords)
    chunk = max(1, _CHUNK_BUDGET // max(len(codewords), 1))
    for a in range(0, len(vectors), chunk):
        g = vectors[a : a + chunk] @ codewords.T
        g *= -2.0
        g += cw_sq[None, :]
        idx[a : a + chunk] = np.argmin(g, axis=1)
    return idx


def _nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Nearest-codeword index for every vector, exactly the brute-force
    one (ties low) on both search paths; see the module docstring."""
    if not np.isfinite(vectors).all():
        raise ContractViolationError("vectors must be finite")
    if len(codewords) < _TREE_MIN_CODEWORDS:
        return _brute_nearest(vectors, codewords)
    d, j = cKDTree(codewords).query(vectors, k=2)
    d *= d
    tol = _NEAR_TIE * (np.einsum("nl,nl->n", vectors, vectors)
                       + np.einsum("kl,kl->k", codewords, codewords).max())
    idx = np.ascontiguousarray(j[:, 0])
    near = np.flatnonzero(d[:, 1] - d[:, 0] <= tol)
    if near.size:
        idx[near] = _brute_nearest(vectors[near], codewords)
    return idx


def _assign(vectors: np.ndarray, codewords: np.ndarray):
    """Nearest-codeword index and squared distance for every vector; the
    distance comes from the index alone (module docstring)."""
    idx = _nearest(vectors, codewords)
    cw_sq = np.einsum("kl,kl->k", codewords, codewords)
    # np.take: row gathers by fancy indexing are an order of magnitude slower
    dist = np.einsum("nl,nl->n", vectors, np.take(codewords, idx, axis=0))
    dist *= -2.0
    dist += cw_sq[idx]
    dist += np.einsum("nl,nl->n", vectors, vectors)
    return idx, np.maximum(dist, 0.0, out=dist)


def _recenter(vectors, idx, dist, codewords, corpus_rms):
    """Move codewords to cell centroids; split the highest-distortion cell
    into every empty cell (perturbed duplication) to preserve size."""
    k, l = codewords.shape
    counts = np.bincount(idx, minlength=k).astype(np.float64)
    new = np.empty_like(codewords)
    for d in range(l):
        new[:, d] = np.bincount(idx, weights=vectors[:, d], minlength=k)
    occupied = counts > 0
    new[occupied] /= counts[occupied, None]
    # unused codewords stay put unless repair reinvests them below
    new[~occupied] = codewords[~occupied]
    empties = np.flatnonzero(~occupied)
    repairs = 0
    if empties.size:
        cell_distortion = np.bincount(idx, weights=dist, minlength=k)
        delta = 1e-3 * corpus_rms
        for e in empties:
            donor = int(np.argmax(cell_distortion))
            if cell_distortion[donor] <= 0.0:
                # nothing left to reinvest (duplicate-heavy corpora)
                break
            new[e] = new[donor] + delta
            new[donor] = new[donor] - delta
            # halve so repeated donations keep picking fresh cells
            cell_distortion[donor] /= 2.0
            cell_distortion[e] = 0.0
            repairs += 1
    return new, repairs


def lloyd_iterate(vectors, codebook: Codebook):
    """One partition/update step: a one-iteration `_descent`.

    Returns (new codebook, mean squared distortion of the new codebook). The
    returned codebook carries usage counts from its own assignment pass.
    """
    vecs = _as_vectors(vectors)
    if len(vecs) == 0:
        raise ContractViolationError("empty batch")
    if vecs.shape[1] != codebook.l_vq:
        raise ContractViolationError("vector length != codebook l_vq")
    rms = float(np.sqrt(np.mean(vecs**2)))
    cw, d, _, usage, _ = _descent(vecs, codebook.codewords, LloydStop(1), rms)
    out = Codebook(codebook.l_vq, codebook.q_vq, cw, usage,
                   codebook.training_meta)
    return out, d


def _descent(vectors, init_codewords, stop: LloydStop, corpus_rms):
    """Full Lloyd descent from a given initialization.

    Returns (codewords, final distortion, trace, usage, repairs). The trace
    holds the assignment distortion of every visited codebook including the
    initial one.
    """
    cw = np.array(init_codewords, dtype=np.float64)
    idx, dist = _assign(vectors, cw)
    d = float(dist.mean())
    trace = [d]
    repairs = 0
    for _ in range(stop.max_iterations):
        cw, rep = _recenter(vectors, idx, dist, cw, corpus_rms)
        repairs += rep
        idx, dist = _assign(vectors, cw)
        d_new = float(dist.mean())
        trace.append(d_new)
        if d <= 0 or (d - d_new) / d < stop.rel_improvement_eps:
            d = d_new
            break
        d = d_new
    usage = np.bincount(idx, minlength=len(cw)).astype(np.uint64)
    return cw, d, trace, usage, repairs


def _init_codewords(vectors, size, rng):
    """Sample `size` distinct training vectors (by index, no replacement)."""
    picks = rng.choice(len(vectors), size=size, replace=False)
    return vectors[picks]


def _seed_key(seed) -> list:
    """Flatten an int or a sequence of ints into a generator key."""
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def _best_of_trials(vectors, q_vq, trials, stop, seed, algorithm, init):
    """Run `trials` Lloyd descents and return the codebook with the lowest
    final distortion. `init(t, vecs, size, key, rms, prev)` gives trial t's
    initial codewords; `prev` is trial t-1's output (None for t = 0), `key`
    the generator key of `seed` and `rms` the corpus RMS amplitude."""
    vecs = _as_vectors(vectors)
    stop = stop or LloydStop()
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    l_vq = vecs.shape[1]
    size = codebook_size(l_vq, q_vq)
    if len(vecs) < size:
        raise ContractViolationError(
            f"{len(vecs)} training vectors for a {size}-codeword codebook"
        )
    rms = float(np.sqrt(np.mean(vecs**2)))
    key = _seed_key(seed)
    best = None
    trial_ds = []
    cw = None
    for t in range(trials):
        start = init(t, vecs, size, key, rms, cw)
        cw, d, trace, usage, repairs = _descent(vecs, start, stop, rms)
        trial_ds.append(d)
        if best is None or d < best[1]:
            best = (cw, d, trace, usage, repairs)
    cw, d, trace, usage, repairs = best
    meta = TrainingMeta(algorithm, trials, len(trace) - 1, d, seed,
                        trial_ds, trace, repairs)
    return Codebook(l_vq, q_vq, cw, usage, meta)


def check_trainer(name: str) -> None:
    if name not in (CLASSICAL, MODIFIED):
        raise ContractViolationError(f"unknown trainer {name!r}")


def train_classical(
    vectors, q_vq: int, trials: int, stop: LloydStop = None, seed: int = 0
) -> Codebook:
    """Independent Lloyd trials in parallel form: best final codebook wins."""

    def init(t, vecs, size, key, rms, prev):
        return _init_codewords(vecs, size, np.random.default_rng(key + [t]))

    return _best_of_trials(vectors, q_vq, trials, stop, seed, CLASSICAL, init)


def train_modified(
    vectors, q_vq: int, trials: int, stop: LloydStop = None, seed: int = 0
) -> Codebook:
    """Serial Lloyd trials: each trial restarts from the previous trial's
    output rescaled against the corpus RMS amplitude (with the overshoot
    factor above); the best codebook seen anywhere in the chain wins."""

    def init(t, vecs, size, key, rms, prev):
        if prev is None:
            rng = np.random.default_rng(key + [0])
            return _init_codewords(vecs, size, rng)
        cb_rms = float(np.sqrt(np.mean(prev**2)))
        scale = _RESCALE_OVERSHOOT * rms / cb_rms if cb_rms > 0 else 1.0
        return prev * scale

    return _best_of_trials(vectors, q_vq, trials, stop, seed, MODIFIED, init)


def quantize_batch(
    codebook: Codebook, vectors, counter: SearchCounter = None
) -> np.ndarray:
    """Nearest-codeword index for every vector."""
    vecs = _as_vectors(vectors)
    if vecs.size == 0:
        return np.zeros(0, dtype=np.int64)
    if vecs.shape[1] != codebook.l_vq:
        raise ContractViolationError("vector length != codebook l_vq")
    idx = _nearest(vecs, codebook.codewords)
    if counter is not None:
        counter.add(codebook.size * len(vecs), len(vecs))
    return idx


def dequantize_batch(codebook: Codebook, indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.zeros((0, codebook.l_vq))
    if indices.min() < 0 or indices.max() >= codebook.size:
        raise ContractViolationError("codeword index out of range")
    return codebook.codewords[indices]


def vq_gain(q0: int, q_vq: int) -> float:
    """Quantizer bit-width gain Q0 / Q_VQ."""
    return q0 / q_vq


def save_codebook(codebook: Codebook, path_or_fh) -> None:
    """VQCB container: 8-byte magic, version, l_vq, q_vq, uint32 count,
    float32 LE codewords row-major, uint64 LE usage counts."""
    if codebook.l_vq > 255 or codebook.q_vq > 255:
        raise ContractViolationError("l_vq/q_vq exceed one byte")
    header = VQCB_MAGIC + struct.pack(
        "<BBBI", _VQCB_VERSION, codebook.l_vq, codebook.q_vq, codebook.size
    )
    body = codebook.codewords.astype("<f4").tobytes()
    counts = codebook.usage_counts.astype("<u8").tobytes()
    if hasattr(path_or_fh, "write"):
        path_or_fh.write(header + body + counts)
    else:
        with open(path_or_fh, "wb") as fh:
            fh.write(header + body + counts)


def load_codebook(path_or_fh) -> Codebook:
    if hasattr(path_or_fh, "read"):
        return _read_codebook(path_or_fh)
    with open(path_or_fh, "rb") as fh:
        return _read_codebook(fh)


def _read_codebook(fh) -> Codebook:
    header = fh.read(15)
    if len(header) < 15:
        raise FormatError("truncated VQCB header")
    if header[:8] != VQCB_MAGIC:
        raise FormatError("bad VQCB magic")
    version, l_vq, q_vq, count = struct.unpack_from("<BBBI", header, 8)
    if version != _VQCB_VERSION:
        raise FormatError(f"unsupported VQCB version {version}")
    if count != codebook_size(l_vq, q_vq):
        raise FormatError("VQCB codeword count inconsistent with geometry")
    body = fh.read(4 * count * l_vq)
    counts = fh.read(8 * count)
    if len(body) < 4 * count * l_vq or len(counts) < 8 * count:
        raise FormatError("truncated VQCB body")
    codewords = (
        np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(count, l_vq)
    )
    usage = np.frombuffer(counts, dtype="<u8").astype(np.uint64)
    return Codebook(l_vq, q_vq, codewords, usage)
