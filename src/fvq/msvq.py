"""Two-stage multi-stage vector quantization.

Stage 1 is a coarse codebook over all training vectors; every stage-1 cell
then owns a local refinement codebook trained only on that cell's members.
Quantization searches stage 1 once and then only the selected cell's stage-2
codebook, so the search cost is 2^(q1*l) + 2^(q2*l) distance evaluations per
vector while the stored codeword count is 2^(q1*l) + 2^((q1+q2)*l).

Training and quantization both group a batch by stage-1 index once
(`_cells`: one stable argsort, then one slice per cell), so every cell sees
its rows in batch order, and an empty cell or an empty batch is just a
zero-row slice on the same path.

Reconstruction returns the stage-2 codeword directly (cells hold absolute
positions, not residuals).
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import entropy, vq_core
from .errors import ContractViolationError
from .vq_core import (
    CLASSICAL,
    Codebook,
    LloydStop,
    SearchCounter,
    _as_vectors,
    _field_state,
    _nearest,
    codebook_size,
    quantize_batch,
    train_classical,  # noqa: F401 (patched by bench/tracing.py)
    train_modified,  # noqa: F401
)

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class MsvqCodebook:
    """Stage-1 codebook and its per-cell stage-2 codebooks; immutable and
    compared by identity, like `Codebook`."""

    stage1: Codebook
    stage2: tuple  # one Codebook per stage-1 cell, in index order
    l: int
    q1: int
    q2: int

    __getstate__ = _field_state

    def __post_init__(self):
        object.__setattr__(self, "stage2", tuple(self.stage2))
        want = [(self.l, self.q1)] + [(self.l, self.q2)] * self.stage1.size
        if [(cb.l_vq, cb.q_vq) for cb in [self.stage1, *self.stage2]] != want:
            raise ContractViolationError(
                "MSVQ needs a stage-1 (l, q1) codebook and one stage-2 (l, q2) "
                "codebook per stage-1 codeword"
            )

    @property
    def stored_codewords(self) -> int:
        return self.stage1.size + sum(cb.size for cb in self.stage2)

    @functools.cached_property
    def stage2_table(self) -> entropy.HuffmanTable:
        """Stage-2 table shared by every cell, from the summed usage counts."""
        pooled = np.sum([cb.usage_counts for cb in self.stage2], axis=0)
        return entropy.table_from_counts(pooled, self.stage2[0].size)


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
    rows = np.vstack([anchor, np.unique(members, axis=0)])
    base = len(rows)
    i = np.arange(base, size)
    cw = rows[np.arange(size) % base]
    cw[base:] += (1e-3 * rms * (i // base) * np.where(i % 2, 1, -1))[:, None]
    return cw


def _cells(idx1, cells):
    """Row indices of every stage-1 cell, ascending within each: one stable
    argsort, then one slice per cell (empty for an empty cell)."""
    ends = np.cumsum(np.bincount(idx1, minlength=cells))
    return np.split(np.argsort(idx1, kind="stable"), ends[:-1])


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
    warning is logged). With q2 = 0 each stage-2 codebook is its anchor
    alone, so MSVQ degenerates to plain VQ at q1 exactly.
    """
    train = vq_core.trainer(trainer)
    vecs = _as_vectors(vectors)
    l = vecs.shape[1]
    stage1 = train(vecs, q1, trials, stop, seed)
    idx1 = _nearest(vecs, stage1.codewords)
    size2 = codebook_size(l, q2)
    rms = float(np.sqrt(np.mean(vecs**2)))
    stage2 = []
    for k, rows in enumerate(_cells(idx1, stage1.size)):
        members = vecs[rows]
        anchor = stage1.codewords[k]
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
        usage = np.bincount(_nearest(members, cw), minlength=size2)
        stage2.append(Codebook(l, q2, cw, usage))
    return MsvqCodebook(stage1, stage2, l, q1, q2)


def quantize_msvq(
    cb: MsvqCodebook, vectors, counter: SearchCounter = None
) -> tuple[np.ndarray, np.ndarray]:
    """(stage-1 indices, stage-2 indices) for a batch of vectors. Stage 1
    is one codebook searched whole (`quantize_batch`). A stage-2 codebook
    sees only its cell's vectors (`_cells`), and with up to 2^(l*q1) of them
    a grid each would cost more memory than it saves: they keep `_nearest`,
    through each codebook's own k-d `tree`."""
    vecs = _as_vectors(vectors)
    i1 = quantize_batch(cb.stage1, vecs)  # checks the vector length
    i2 = np.empty(len(vecs), dtype=np.int64)
    evals = cb.stage1.size * len(vecs)
    for sub, rows in zip(cb.stage2, _cells(i1, cb.stage1.size)):
        i2[rows] = _nearest(vecs[rows], sub.codewords, sub.tree)
        evals += sub.size * len(rows)
    if counter is not None:
        counter.add(evals, len(vecs))
    return i1, i2


def dequantize_msvq(cb: MsvqCodebook, i1, i2) -> np.ndarray:
    i1 = np.asarray(i1, dtype=np.int64)
    i2 = np.asarray(i2, dtype=np.int64)
    if i1.shape != i2.shape:
        raise ContractViolationError("index sequences differ in length")
    if i1.min(initial=0) < 0 or i1.max(initial=0) >= cb.stage1.size:
        raise ContractViolationError("stage-1 index out of range")
    # every stage-2 codebook has 2^(l*q2) codewords
    stacked = np.stack([sub.codewords for sub in cb.stage2])
    size2 = stacked.shape[1]
    if i2.min(initial=0) < 0 or i2.max(initial=0) >= size2:
        raise ContractViolationError("stage-2 index out of range")
    # np.take: row gathers by fancy indexing are several times slower
    return np.take(stacked.reshape(-1, cb.l), i1 * size2 + i2, axis=0)
