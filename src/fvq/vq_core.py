"""Vector codebooks, nearest-codeword search, and Lloyd training.

Two trainers are provided. The classical trainer runs independent Lloyd
descents from random data-point initializations and keeps the best final
codebook. The modified trainer chains trials serially: each new trial starts
from the previous trial's output codebook rescaled so its RMS amplitude
matches the training corpus RMS, which kicks the search out of the local
optimum the previous descent settled into; the best codebook seen anywhere in
the chain is returned.

VQ, each MSVQ stage and UPMGQ's G2 are `Codebook`s: values, trained once
and then used unchanged. Codewords and usage counts are read-only copies;
the k-d tree (`tree`), candidate grid (`grid`), lattice table (`lattice`)
and Huffman table (`table`, from the usage counts) are each built on first
use and kept with the codebook, but not pickled with it. `trainer(name)`
gives a trainer.

Nearest-codeword search (`_nearest`) has two paths, chosen by codebook size
K. Below `_TREE_MIN_CODEWORDS` it is brute force: one matrix product per
chunk ranks every codeword by |c|^2 - 2 v.c and the row argmin wins. The
product can round bit-equal codewords an ulp apart, differently by where a
row falls in the batch, so an index whose codeword equals one of lower
index is replaced by that one (`_first_equal`); exact ties, duplicate
codewords included, thus break to the lowest index. From that size on it is
an exact k-d tree search (Friedman, Bentley & Finkel 1977;
`scipy.spatial.cKDTree`, the codebook's own or one built for the search)
for each vector's two nearest codewords. A vector whose two nearest squared
distances differ by at most 1e-9 (|v|^2 + max |c|^2), far above the
rounding of either path, is searched again by brute force. Every index
therefore equals the brute-force one, exact ties and duplicate codewords
included, so the threshold changes speed, not output. The one exception is
a tie within rounding between distinct codewords: the matrix product can
round a one-row batch differently, so such a tie may fall either way.
Non-finite vectors are refused on both paths.

A codebook that compress searches whole, one fixed codebook per frame (VQ,
UPMGQ G2 and MSVQ stage 1, all through `quantize_batch`), is searched by
`_frozen_nearest`. For 512 <= K <= 65536 and l <= 3 it buckets the codewords
(Bentley, Weide & Yao 1980, "Optimal expected-time algorithms for closest
point problems", ACM TOMS): the codebook's grid of about 4 cells per
codeword over their bounding box. Each cell lists, ascending as uint16,
every codeword within r = d0 + diag + sqrt(tol) of its centre x0, where d0
is the distance from x0 to its nearest codeword, diag the cell diagonal and
tol the largest tie tolerance over the box. A vector v in the cell lies
within diag/2 of x0, so its nearest codeword is within d0 + diag/2 of v, any
codeword within v's tie tolerance of that one is within d0 + diag/2 +
sqrt(tol) of v, and both are within r of x0: the list holds the nearest
codeword and all its near ties. The candidates are ranked by |c|^2 - 2 v.c,
padding slots at +inf. Where exactly one of them lies within the tie
tolerance of the best, the best is the nearest codeword by more than the
rounding of any path, so it is the brute-force index. A near tie (more than
one candidate within the tolerance) goes straight to brute force, as the
tree path would after finding the same tie. A vector outside the box, or in
a cell that would list more than `_GRID_SLOTS` codewords, takes `_nearest`
through the codebook's tree, so a duplicate-heavy codebook keeps the tree
for most of its vectors. Every index equals `_nearest`'s. Training and the
MSVQ stage-2 searches build trees of their own.

A codebook whose codewords are all non-negative integers, in at most 3
dimensions, also has a `lattice`: the nearest-codeword index, as uint16, of
every integer point of the box [0, 2 m_a + 1] on each axis a, where m_a is
the largest codeword coordinate on that axis, found by `_nearest` over those
points. It is built only when the box holds at most
`_LATTICE_MAX_POINTS` points; otherwise it is None. UPMGQ's G2 is such a
codebook, and its vectors are integers too. `quantize_batch` reads a vector
whose coordinates are integers inside the box from the table, and sends
every other vector to `_frozen_nearest`. The table holds the brute-force
index: with integer coordinates below 2^18, |c|^2 - 2 v.c and |v - c|^2 are
integers below 2^53, exact in float64 in any summation order, so bit-equal
distances are exact ties and distinct ones differ by at least 1. The
rounding exception above cannot arise, and every path gives the lowest
index among the exactly nearest codewords.

Where training needs the distance to the chosen codeword (`_assign`), it is
computed from the index alone, as (-2 v.c_j + |c_j|^2) + |v|^2 clamped at 0,
whichever path found j; distortions, stop decisions and empty-cell repairs
therefore do not depend on the path or on the matrix kernel's rounding.

On the k-d tree path a Lloyd descent searches again only the vectors whose
distance bounds overlap (`_bounded_nearest`; one lower bound per vector as
in Hamerly 2010, "Making k-means even faster", SDM). Each vector keeps u,
its exact distance |v - c_a| to its own codeword a, and lo, a lower bound on
its distance to every other codeword: the second distance of its last tree
query (the first, where brute force settled a near tie), lowered after each
update by the largest move of any other codeword (empty-cell repairs
included), since |v - c_k'| >= |v - c_k| - |c_k' - c_k|. The triangle
inequality gives a second bound, sep[a] - u, where sep[a] is the distance
from c_a to its nearest other codeword. With b the larger of the two,
every other codeword is at least b from v, so a vector with b^2 - u^2
above twice the near-tie tolerance is nearer to c_a than to any other
codeword by more than either search path's rounding: the brute-force index
is a, and the vector keeps it. Both bounds carry a relative margin of
`_BOUND_SLACK` against their own rounding. Every other vector goes through
the tree search above, so each index, and with it every trained codebook,
equals a descent that searches every vector.

Distortion is squared Euclidean distance per vector. The per-iteration
distortion trace of every descent is non-increasing (up to the small,
documented exception when an empty-cell repair fires). Empty cells are
repaired by splitting the cell with the largest total distortion: the donor
centroid moves by -delta and the empty slot takes centroid +delta, with
delta = 1e-3 * corpus RMS, preserving codebook size.

All randomness is routed through numpy Generators keyed on (seed, trial), so
training is bit-reproducible for a fixed seed.
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial import cKDTree

from . import entropy
from .errors import ContractViolationError

CLASSICAL = "classical"
MODIFIED = "modified"

# Brute-force search forms its distance matrix one product of at most this
# many multiply-adds (rows x codewords x l) at a time. 2^18 is OpenBLAS's
# threading cutoff (4 x 65,536), so each product runs on the calling thread
# and never wakes the BLAS pool, whose idle worker would then spin on another
# core; and the block (2^18 / l float64 entries, 1 MiB at l = 2) stays in L2.
_PRODUCT_MADDS = 1 << 18

# Smallest codebook searched with a k-d tree. Median of 9 calls on 2 vCPUs,
# random codebooks, n = 1,000 / 10,080 / 34,560 vectors: at K = 512 the tree
# is faster for every l = 1..4 and n (1.2x to 8.6x); at K = 256 it is slower
# in 5 of 12 cases (l = 2, n = 10,080: brute 6.9 ms, tree 8.9 ms); at
# K = 4096, l = 2, n = 10,080: brute 194 ms, tree 11.9 ms.
_TREE_MIN_CODEWORDS = 512

# Codebooks that `_frozen_nearest` searches through a candidate grid: from
# the tree threshold up to the largest size whose indices fit uint16, in at
# most 3 dimensions (in more, the ball a cell lists holds too many).
_GRID_MAX_CODEWORDS = 1 << 16
_GRID_MAX_DIM = 3
_GRID_CELLS_PER_CODEWORD = 4
# Candidates one grid cell may list. A cell with more (where codewords are
# sparse or duplicated) lists none and its vectors take the tree path, so a
# grid's list never takes more than 64 bytes per cell, whatever the codebook.
_GRID_SLOTS = 32
# Cells per k-d tree query while a grid is built (points per search while
# a lattice is built), and candidate slots per chunk of a grid search: the
# transient arrays stay a few MiB.
_GRID_BUILD_CELLS = 4096
_GRID_SEARCH_SLOTS = 1 << 16

# Integer codebooks that `quantize_batch` reads from a lattice table: in at
# most 3 dimensions, over a box of at most this many integer points (512 KiB
# of uint16 indices).
_LATTICE_MAX_POINTS = 1 << 18

# Relative gap, against |v|^2 + max |c|^2, under which the two nearest
# codewords count as tied and the brute-force search decides.
_NEAR_TIE = 1e-9

# Relative margin on the bounds of `_bounded_nearest` against the rounding
# of the distances and moves they are built from.
_BOUND_SLACK = 1e-12

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
    complexity formulas count. It stays that count on every search path,
    although the k-d tree computes far fewer distances and the grid fewer
    still (the codewords a vector's cell lists: about 6 on average in a
    4096-word l = 2 codebook). It is the model's count, not the work
    actually done."""

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
    iterations: int
    final_distortion: float
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


def _field_state(codebook) -> dict:
    """A frozen codebook's pickled state: its fields only, so a used
    codebook pickles as it did fresh and builds its cached values again on
    first use after loading."""
    return {f.name: getattr(codebook, f.name) for f in fields(codebook)}


@dataclass(frozen=True, eq=False)
class Codebook:
    """A VQ codebook, immutable (module docstring); compared by identity,
    since its fields are arrays."""

    l_vq: int
    q_vq: int
    codewords: np.ndarray  # (2**(l_vq*q_vq), l_vq) float64, read-only
    usage_counts: np.ndarray = None  # (2**(l_vq*q_vq),) uint64, read-only
    training_meta: TrainingMeta = None

    def __post_init__(self):
        expected = codebook_size(self.l_vq, self.q_vq)
        codewords = np.array(self.codewords, dtype=np.float64)
        if codewords.shape != (expected, self.l_vq):
            raise ContractViolationError(
                f"codebook must be {expected} x {self.l_vq}, "
                f"got {codewords.shape}"
            )
        if not np.all(np.isfinite(codewords)):
            raise ContractViolationError("codewords must be finite")
        counts = np.zeros(expected, dtype=np.uint64)
        if self.usage_counts is not None:
            counts = np.array(self.usage_counts, dtype=np.uint64)
        if counts.shape != (expected,):
            raise ContractViolationError("usage_counts shape mismatch")
        for name, a in (("codewords", codewords), ("usage_counts", counts)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    __getstate__ = _field_state

    def __setstate__(self, state):
        vars(self).update(state)
        self.codewords.setflags(write=False)
        self.usage_counts.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def stored_codewords(self) -> int:
        return self.size

    @functools.cached_property
    def table(self) -> entropy.HuffmanTable:
        """Huffman table of this codebook's indices, from its usage counts."""
        return entropy.table_from_counts(self.usage_counts, self.size)

    @functools.cached_property
    def tree(self) -> cKDTree:
        """k-d tree over the codewords; None for a codebook small enough
        that `_nearest` searches it by brute force."""
        small = self.size < _TREE_MIN_CODEWORDS
        return None if small else cKDTree(self.codewords)

    @functools.cached_property
    def grid(self):
        """Candidate grid of `_frozen_nearest`; None where the codebook has
        no tree, is too large or too wide, or every cell lists too many."""
        if (self.tree is None or self.size > _GRID_MAX_CODEWORDS
                or self.l_vq > _GRID_MAX_DIM):
            return None
        return _build_grid(self.codewords, self.tree)

    @functools.cached_property
    def lattice(self):
        """Nearest-codeword index of every integer point of the box
        [0, 2 max c + 1] per axis, as uint16 of that shape; None unless
        every codeword is a non-negative integer, l_vq <= 3 and the box
        has at most `_LATTICE_MAX_POINTS` points (module docstring)."""
        cw = self.codewords
        if (self.size > _GRID_MAX_CODEWORDS or self.l_vq > _GRID_MAX_DIM
                or (cw < 0).any() or (cw != np.floor(cw)).any()):
            return None
        shape = tuple(2 * int(m) + 2 for m in cw.max(axis=0))
        n = math.prod(shape)
        if n > _LATTICE_MAX_POINTS:
            return None
        table = np.empty(n, dtype=np.uint16)
        for a in range(0, n, _GRID_BUILD_CELLS):
            flat = np.arange(a, min(a + _GRID_BUILD_CELLS, n))
            points = np.stack(np.unravel_index(flat, shape), axis=1)
            table[flat] = _nearest(points.astype(np.float64), cw, self.tree)
        return table.reshape(shape)


def codebook_size(l_vq: int, q_vq: int) -> int:
    # q_vq = 0 (a single codeword) is allowed for degenerate stages.
    if l_vq < 1 or q_vq < 0:
        raise ContractViolationError("l_vq must be positive, q_vq >= 0")
    if l_vq * q_vq > 62:
        raise ContractViolationError("codebook size overflows (l_vq*q_vq > 62)")
    return 1 << (l_vq * q_vq)


def _as_vectors(vectors) -> np.ndarray:
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim != 2:
        raise ContractViolationError(
            f"vectors must be a 2-D array, got shape {vecs.shape}"
        )
    return vecs


def nearest_codeword(codebook: Codebook, vector, counter: SearchCounter = None) -> int:
    """Index of the squared-Euclidean-nearest codeword; ties break low."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (codebook.l_vq,):
        raise ContractViolationError(
            f"vector length {vector.shape} != l_vq {codebook.l_vq}"
        )
    _check_finite(vector)
    # one vector never repays building a k-d tree
    idx = _brute_nearest(vector[None, :], codebook.codewords)
    if counter is not None:
        counter.add(codebook.size, 1)
    return int(idx[0])


def _brute_nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """argmin over c of |c|^2 - 2 v.c (|v|^2 is constant per row), one
    matrix product per chunk of rows, each within `_PRODUCT_MADDS`."""
    idx = np.empty(len(vectors), dtype=np.int64)
    cw_sq = np.einsum("kl,kl->k", codewords, codewords)
    chunk = max(1, _PRODUCT_MADDS // max(codewords.size, 1))
    for a in range(0, len(vectors), chunk):
        g = vectors[a : a + chunk] @ codewords.T
        g *= -2.0
        g += cw_sq[None, :]
        idx[a : a + chunk] = np.argmin(g, axis=1)
    first = _first_equal(codewords)
    return idx if first is None else np.take(first, idx)


def _first_equal(codewords: np.ndarray):
    """For every codeword the lowest index of a codeword equal to it, or
    None when they are all distinct."""
    # equal codewords share their first coordinate, and one sort of it
    # clears most codebooks
    x = np.sort(codewords[:, 0])
    if not (x[1:] == x[:-1]).any():
        return None
    order = np.lexsort(codewords.T)
    ranked = codewords[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    if starts.all():
        return None
    # lexsort is stable, so each run of equal codewords starts at its lowest
    # index
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _check_finite(vectors: np.ndarray) -> None:
    if not np.isfinite(vectors).all():
        raise ContractViolationError("vectors must be finite")


def _tie_tolerance(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    return _NEAR_TIE * (np.einsum("nl,nl->n", vectors, vectors)
                        + np.einsum("kl,kl->k", codewords, codewords).max())


def _nearest(vectors: np.ndarray, codewords: np.ndarray, tree=None):
    """Nearest-codeword index for every vector, exactly the brute-force
    one (ties low) on both search paths; see the module docstring. The
    tree path searches `tree`, the codewords' k-d tree, or builds one."""
    _check_finite(vectors)
    if len(codewords) < _TREE_MIN_CODEWORDS:
        return _brute_nearest(vectors, codewords)
    tree = cKDTree(codewords) if tree is None else tree
    return _tree_nearest(vectors, codewords, tree)[0]


def _tree_nearest(vectors, codewords, tree):
    """The k-d tree path of `_nearest`, plus for every vector a lower bound
    on its distance to each codeword other than the one it gets."""
    d, j = tree.query(vectors, k=2)
    sq = d * d
    idx = np.ascontiguousarray(j[:, 0])
    lo = np.ascontiguousarray(d[:, 1])
    tol = _tie_tolerance(vectors, codewords)
    near = np.flatnonzero(sq[:, 1] - sq[:, 0] <= tol)
    idx[near] = _brute_nearest(vectors[near], codewords)
    # brute force may pick the tree's second word, so bound by the first
    lo[near] = d[near, 0]
    return idx, lo


@dataclass(eq=False)
class _Grid:
    """Candidate codewords per cell of a grid over the codewords' bounding
    box [lo, hi] (module docstring)."""

    lo: np.ndarray  # (l,)
    hi: np.ndarray  # (l,)
    shape: tuple  # cells per axis; 1 on an axis where lo == hi
    scale: np.ndarray  # (l,) cells per unit length, 0 on a flat axis
    counts: np.ndarray  # (cells,) uint8 candidates listed; 0 if too many
    table: np.ndarray  # (slots, cells) uint16 candidates, ascending

    def locate(self, vectors):
        """(cell of every vector, whether it lies outside the box)."""
        u = vectors - self.lo
        u *= self.scale
        np.clip(u, 0, np.subtract(self.shape, 1), out=u)
        cell = np.ravel_multi_index(tuple(u.astype(np.intp).T), self.shape)
        outside = ((vectors < self.lo) | (vectors > self.hi)).any(axis=1)
        return cell, outside


def _build_grid(codewords, tree):
    """Candidate grid over `codewords`, built through their k-d `tree`; None
    when every cell lists too many candidates."""
    k, l = codewords.shape
    lo, hi = codewords.min(axis=0), codewords.max(axis=0)
    extent = hi - lo
    target = _GRID_CELLS_PER_CODEWORD * k
    g = math.ceil(target ** (1 / l))
    while g > 1 and (g - 1) ** l >= target:
        g -= 1
    shape = tuple(int(s) for s in np.where(extent > 0, g, 1))
    width = extent / shape
    corner_sq = np.maximum(lo * lo, hi * hi).sum()
    # every point of a cell is within half a diagonal of its centre, and
    # every point of the box has a tie tolerance of at most `tol`
    cw_sq = np.einsum("kl,kl->k", codewords, codewords)
    tol = _NEAR_TIE * (corner_sq + cw_sq.max())
    reach = math.sqrt(width @ width) + math.sqrt(tol)
    margin = _BOUND_SLACK * math.sqrt(corner_sq)
    n_cells = math.prod(shape)
    counts = np.empty(n_cells, dtype=np.uint8)
    table = np.empty((_GRID_SLOTS, n_cells), dtype=np.uint16)
    for a in range(0, n_cells, _GRID_BUILD_CELLS):
        cells = np.arange(a, min(a + _GRID_BUILD_CELLS, n_cells))
        centres = np.stack(np.unravel_index(cells, shape), axis=1) + 0.5
        centres *= width
        centres += lo
        # the _GRID_SLOTS + 1 nearest hold every codeword within r, or show
        # that there are too many to list
        d, j = tree.query(centres, k=_GRID_SLOTS + 1)
        r = (d[:, 0] + reach) * (1.0 + _BOUND_SLACK) + margin
        listed = d <= r[:, None]
        n = listed.sum(axis=1)
        counts[cells] = np.where(n <= _GRID_SLOTS, n, 0)
        j[~listed] = k
        j.sort(axis=1)
        j[j == k] = 0  # padding: masked out by the count when searched
        table[:, cells] = j[:, :_GRID_SLOTS].T
    if not counts.any():
        return None
    slots = int(counts.max())
    scale = np.divide(shape, extent, out=np.zeros(l), where=extent > 0)
    return _Grid(lo, hi, shape, scale, counts, table[:slots].copy())


def _frozen_nearest(vectors: np.ndarray, codewords: np.ndarray, grid, tree):
    """`_nearest` for a codebook that stays fixed across many searches (the
    frame searches of compress): through its candidate `grid` (or None) and
    k-d `tree`, the same indices either way (module docstring)."""
    if grid is None:
        return _nearest(vectors, codewords, tree)
    _check_finite(vectors)
    n = len(vectors)
    idx = np.empty(n, dtype=np.int64)
    tied = np.empty(n, dtype=bool)
    far = np.empty(n, dtype=bool)
    tol = _tie_tolerance(vectors, codewords)
    cw_sq = np.einsum("kl,kl->k", codewords, codewords)
    axes = np.ascontiguousarray(codewords.T)
    slots = len(grid.table)
    pad = np.arange(slots)[:, None]
    # slot-major (slots, rows) arrays keep numpy's inner loops long
    chunk = max(1, _GRID_SEARCH_SLOTS // slots)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        cell, outside = grid.locate(vectors[a:b])
        # np.take is several times slower with uint16 indices than with intp
        cand = np.take(grid.table, cell, axis=1).astype(np.intp)
        # |c|^2 - 2 v.c over the cell's candidates; padding can neither win
        # nor tie
        f = np.take(cw_sq, cand)
        for ax, v in enumerate(vectors[a:b].T * -2.0):
            term = np.take(axes[ax], cand)
            term *= v
            f += term
        listed = np.take(grid.counts, cell)
        np.putmask(f, pad >= listed, np.inf)
        best = np.argmin(f, axis=0)[None]
        near = np.take_along_axis(f, best, axis=0)[0] + tol[a:b]
        idx[a:b] = np.take_along_axis(cand, best, axis=0)[0]
        tied[a:b] = np.count_nonzero(f <= near, axis=0) != 1
        far[a:b] = outside | (listed == 0)
    # the candidates ranked for a far vector need not hold its nearest
    # codeword, so whether it showed a tie or not, `_nearest` decides
    rows = np.flatnonzero(tied & ~far)
    idx[rows] = _brute_nearest(vectors[rows], codewords)
    rows = np.flatnonzero(far)
    idx[rows] = _nearest(vectors[rows], codewords, tree)
    return idx


def _assign(vectors: np.ndarray, codewords: np.ndarray, idx=None):
    """Nearest-codeword index (searched unless given) and squared distance
    for every vector; the distance comes from the index alone (module
    docstring)."""
    if idx is None:
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


def _bounded_nearest(vectors, old, new, idx, lo):
    """`_nearest(vectors, new)` after the codewords moved from `old` to
    `new`, given each vector's index `idx` and lower bound `lo` for `old`.
    Only rows whose bounds overlap are searched again; `idx` and `lo` are
    updated in place (module docstring)."""
    step = new - old
    move = np.sqrt(np.einsum("kl,kl->k", step, step))
    top = int(np.argmax(move))
    second = np.delete(move, top).max(initial=0.0)
    # largest move of any codeword other than the row's own
    lo -= np.where(idx == top, second, move[top])
    np.maximum(lo, 0.0, out=lo)
    diff = vectors - np.take(new, idx, axis=0)
    u = np.sqrt(np.einsum("nl,nl->n", diff, diff))
    u *= 1.0 + _BOUND_SLACK
    gap = 2.0 * _tie_tolerance(vectors, new)
    b = lo * (1.0 - _BOUND_SLACK)
    rows = np.flatnonzero((b - u) * (b + u) <= gap)
    if rows.size == 0:
        return idx, lo
    tree = cKDTree(new)
    # every other codeword is at least sep[a] - u from a vector of cell a
    owners = np.flatnonzero(np.bincount(idx[rows], minlength=len(new)))
    sep = np.zeros(len(new))
    sep[owners] = tree.query(new[owners], k=2)[0][:, 1]
    u = u[rows]
    b = np.maximum(b[rows], (sep[idx[rows]] - u) * (1.0 - _BOUND_SLACK))
    rows = rows[(b - u) * (b + u) <= gap[rows]]
    idx[rows], lo[rows] = _tree_nearest(vectors[rows], new, tree)
    return idx, lo


def _descent(vectors, init_codewords, stop: LloydStop, corpus_rms):
    """Full Lloyd descent from a given initialization.

    Returns (codewords, final distortion, trace, usage, repairs). The trace
    holds the assignment distortion of every visited codebook including the
    initial one. On the k-d tree path each assignment after the first is
    `_bounded_nearest`'s.
    """
    cw = np.array(init_codewords, dtype=np.float64)
    lo = None
    if len(cw) >= _TREE_MIN_CODEWORDS:
        _check_finite(vectors)
        idx, lo = _tree_nearest(vectors, cw, cKDTree(cw))
    else:
        idx = _nearest(vectors, cw)
    idx, dist = _assign(vectors, cw, idx)
    d = float(dist.mean())
    trace = [d]
    repairs = 0
    for _ in range(stop.max_iterations):
        new, rep = _recenter(vectors, idx, dist, cw, corpus_rms)
        repairs += rep
        if lo is None:
            idx = _nearest(vectors, new)
        else:
            idx, lo = _bounded_nearest(vectors, cw, new, idx, lo)
        cw = new
        idx, dist = _assign(vectors, cw, idx)
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


def _best_of_trials(vectors, q_vq, trials, stop, seed, init):
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
    meta = TrainingMeta(len(trace) - 1, d, trial_ds, trace, repairs)
    return Codebook(l_vq, q_vq, cw, usage, meta)


def trainer(name: str):
    """`train_<name>`, looked up when called, so a wrapper set on it is used."""
    if name not in (CLASSICAL, MODIFIED):
        raise ContractViolationError(f"unknown trainer {name!r}")
    return globals()[f"train_{name}"]


def train_classical(
    vectors, q_vq: int, trials: int, stop: LloydStop = None, seed: int = 0
) -> Codebook:
    """Independent Lloyd trials in parallel form: best final codebook wins."""

    def init(t, vecs, size, key, rms, prev):
        return _init_codewords(vecs, size, np.random.default_rng(key + [t]))

    return _best_of_trials(vectors, q_vq, trials, stop, seed, init)


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

    return _best_of_trials(vectors, q_vq, trials, stop, seed, init)


def quantize_batch(
    codebook: Codebook, vectors, counter: SearchCounter = None
) -> np.ndarray:
    """Nearest-codeword index for every vector."""
    vecs = _as_vectors(vectors)
    if vecs.shape[1] != codebook.l_vq:
        raise ContractViolationError("vector length != codebook l_vq")
    if codebook.lattice is None:
        idx = _frozen_nearest(vecs, codebook.codewords, codebook.grid,
                              codebook.tree)
    else:
        idx = _lattice_nearest(vecs, codebook)
    if counter is not None:
        counter.add(codebook.size * len(vecs), len(vecs))
    return idx


def _lattice_nearest(vectors, codebook):
    """`quantize_batch` through the codebook's `lattice`: one table read
    for every vector with integer coordinates inside the box,
    `_frozen_nearest` for the others."""
    _check_finite(vectors)
    lattice = codebook.lattice
    # clipped into the box, only such a vector survives the cast unchanged
    points = np.clip(vectors, 0, np.subtract(lattice.shape, 1))
    points = points.astype(np.intp)
    hit = (points == vectors).all(axis=1)
    flat = np.ravel_multi_index(tuple(points.T), lattice.shape)
    idx = np.take(lattice, flat).astype(np.int64)
    rows = np.flatnonzero(~hit)
    if rows.size:
        idx[rows] = _frozen_nearest(vectors[rows], codebook.codewords,
                                    codebook.grid, codebook.tree)
    return idx


def dequantize_batch(codebook: Codebook, indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.min(initial=0) < 0 or indices.max(initial=0) >= codebook.size:
        raise ContractViolationError("codeword index out of range")
    return codebook.codewords[indices]


def vq_gain(q0: int, q_vq: int) -> float:
    """Quantizer bit-width gain Q0 / Q_VQ."""
    return q0 / q_vq
