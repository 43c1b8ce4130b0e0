"""Two-stage multi-stage vector quantization.

Stage 1 is a coarse codebook over all training vectors; every stage-1 cell
then owns a local refinement codebook trained only on that cell's members.
Quantization searches stage 1 once and then only the selected cell's stage-2
codebook, so the search cost is 2^(q1*l) + 2^(q2*l) distance evaluations per
vector while the stored codeword count is 2^(q1*l) + 2^((q1+q2)*l).

Reconstruction returns the stage-2 codeword directly (cells hold absolute
positions, not residuals).
"""

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, FormatError
from .vq_core import (
    CLASSICAL,
    Codebook,
    LloydStop,
    SearchCounter,
    _as_vectors,
    _nearest,
    check_trainer,
    codebook_size,
    load_codebook,
    save_codebook,
    train_classical,
    train_modified,
)

log = logging.getLogger(__name__)

VQMS_MAGIC = b"VQMS\x00\x00\x00\x00"
_VQMS_VERSION = 1


@dataclass(eq=False)
class MsvqCodebook:
    """Stage-1 codebook and its per-cell stage-2 codebooks; compared by
    identity, like `Codebook`."""

    stage1: Codebook
    stage2: list  # one Codebook per stage-1 cell, in index order
    l: int
    q1: int
    q2: int

    def __post_init__(self):
        if len(self.stage2) != self.stage1.size:
            raise ContractViolationError(
                "stage-2 codebook count must equal stage-1 codeword count"
            )

    @property
    def stored_codewords(self) -> int:
        return self.stage1.size + sum(cb.size for cb in self.stage2)


def msvq_complexity(q1: int, q2: int, l: int) -> tuple[int, int]:
    """Closed-form (search operations, codebook size) per quantized vector."""
    if q1 < 0 or q2 < 0 or l < 1:
        raise ContractViolationError("resolutions must be >= 0, l >= 1")
    if max(q1, q2, q1 + q2) * l > 62:
        raise ContractViolationError("complexity overflows (q*l > 62)")
    so = 2 ** (q1 * l) + 2 ** (q2 * l)
    cs = 2 ** (q1 * l) + 2 ** ((q1 + q2) * l)
    return so, cs


def _fill_codebook(members, size, anchor, rms):
    """Build a size-preserving codebook for an under-populated cell: the
    stage-1 anchor, the distinct members, then perturbed duplicates."""
    rows = [np.asarray(anchor, dtype=np.float64)]
    if len(members):
        rows += [r for r in np.unique(members, axis=0)][: size - 1]
    cw = np.empty((size, len(anchor)))
    base = len(rows)
    for i in range(size):
        if i < base:
            cw[i] = rows[i]
        else:
            k = 1 + (i - base) // base
            cw[i] = rows[i % base] + 1e-3 * rms * k * (1 if i % 2 else -1)
    return cw


def train_msvq(
    vectors,
    q1: int,
    q2: int,
    trainer: str = CLASSICAL,
    stop: LloydStop = None,
    seed: int = 0,
    trials: int = 1,
) -> MsvqCodebook:
    """Train stage 1 on all vectors, then one stage-2 codebook per cell.

    Every stage-2 codebook contains its cell's stage-1 codeword (it replaces
    the least-used trained codeword), so refinement can never reconstruct a
    vector worse than the stage-1-only choice. A cell with fewer members
    than its stage-2 codebook size is repaired by perturbed duplication (a
    warning is logged); q2 = 0 degenerates to plain VQ at q1 exactly.
    """
    check_trainer(trainer)
    vecs = _as_vectors(vectors)
    stop = stop or LloydStop()
    l = vecs.shape[1]
    train = train_classical if trainer == CLASSICAL else train_modified
    stage1 = train(vecs, q1, trials, stop, seed)
    idx1 = _nearest(vecs, stage1.codewords)
    size2 = codebook_size(l, q2)
    rms = float(np.sqrt(np.mean(vecs**2)))
    stage2 = []
    for k in range(stage1.size):
        members = vecs[idx1 == k]
        anchor = stage1.codewords[k]
        if q2 == 0:
            usage = np.array([len(members)], dtype=np.uint64)
            stage2.append(Codebook(l, 0, anchor[None, :].copy(), usage))
            continue
        if len(members) >= size2:
            sub = train(members, q2, trials, stop, [int(seed), k + 1])
            cw = sub.codewords.copy()
            if not (cw == anchor).all(axis=1).any():
                cw[int(np.argmin(sub.usage_counts))] = anchor
        else:
            log.warning(
                "stage-1 cell %d has %d members for a %d-codeword stage-2 "
                "codebook; filling by perturbed duplication",
                k, len(members), size2,
            )
            cw = _fill_codebook(members, size2, anchor, rms)
        if len(members):
            mi = _nearest(members, cw)
            usage = np.bincount(mi, minlength=size2).astype(np.uint64)
        else:
            usage = np.zeros(size2, dtype=np.uint64)
        stage2.append(Codebook(l, q2, cw, usage))
    return MsvqCodebook(stage1, stage2, l, q1, q2)


def quantize_msvq(
    cb: MsvqCodebook, vectors, counter: SearchCounter = None
) -> tuple[np.ndarray, np.ndarray]:
    """(stage-1 indices, stage-2 indices) for a batch of vectors."""
    vecs = _as_vectors(vectors)
    if vecs.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    if vecs.shape[1] != cb.l:
        raise ContractViolationError("vector length != MSVQ vector length")
    i1 = _nearest(vecs, cb.stage1.codewords)
    i2 = np.empty(len(vecs), dtype=np.int64)
    evals = cb.stage1.size * len(vecs)
    for k in np.unique(i1):
        sel = i1 == k
        j = _nearest(vecs[sel], cb.stage2[k].codewords)
        i2[sel] = j
        evals += cb.stage2[k].size * int(sel.sum())
    if counter is not None:
        counter.add(evals, len(vecs))
    return i1, i2


def dequantize_msvq(cb: MsvqCodebook, i1, i2) -> np.ndarray:
    i1 = np.asarray(i1, dtype=np.int64)
    i2 = np.asarray(i2, dtype=np.int64)
    if i1.shape != i2.shape:
        raise ContractViolationError("index sequences differ in length")
    if i1.size == 0:
        return np.zeros((0, cb.l))
    if i1.min() < 0 or i1.max() >= cb.stage1.size:
        raise ContractViolationError("stage-1 index out of range")
    out = np.empty((len(i1), cb.l))
    for k in np.unique(i1):
        sel = i1 == k
        jj = i2[sel]
        if jj.min() < 0 or jj.max() >= cb.stage2[k].size:
            raise ContractViolationError("stage-2 index out of range")
        out[sel] = cb.stage2[k].codewords[jj]
    return out


def save_msvq(cb: MsvqCodebook, path) -> None:
    """VQMS container: magic, version, (q1, q2, l), stage-1 VQCB block, then
    stage-2 VQCB blocks in index order."""
    with open(path, "wb") as fh:
        fh.write(VQMS_MAGIC + struct.pack("<BBBB", _VQMS_VERSION, cb.q1, cb.q2, cb.l))
        save_codebook(cb.stage1, fh)
        for sub in cb.stage2:
            save_codebook(sub, fh)


def load_msvq(path) -> MsvqCodebook:
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:8] != VQMS_MAGIC:
            raise FormatError("bad VQMS header")
        version, q1, q2, l = struct.unpack_from("<BBBB", header, 8)
        if version != _VQMS_VERSION:
            raise FormatError(f"unsupported VQMS version {version}")
        stage1 = load_codebook(fh)
        stage2 = []
        for k in range(codebook_size(l, q1)):
            sub = load_codebook(fh)
            if (sub.l_vq, sub.q_vq) != (l, q2):
                raise FormatError("stage-2 block geometry mismatch")
            stage2.append(sub)
    return MsvqCodebook(stage1, stage2, l, q1, q2)
