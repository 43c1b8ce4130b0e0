import dataclasses
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from fvq import artifacts, entropy, frontend, msvq, pipeline, upmgq, vq_core
from fvq.artifacts import load_codebook, save_codebook
from fvq.errors import ContractViolationError, FormatError
from fvq.iqstream import IQStream
from fvq.vectorizer import VectorBatch, VectorLayout
from fvq.vq_core import (
    Codebook,
    LloydStop,
    SearchCounter,
    dequantize_batch,
    lloyd_iterate,
    nearest_codeword,
    quantize_batch,
    train_classical,
    train_modified,
)
from tests.conftest import seeded_codebooks


def _brute_force_nearest(codewords, vector):
    # independent oracle: explicit per-codeword scan with direct arithmetic
    best_d = None
    best_k = -1
    for k, cw in enumerate(codewords):
        d = 0.0
        for a, b in zip(cw, vector):
            d += (a - b) * (a - b)
        if best_d is None or d < best_d:
            best_d = d
            best_k = k
    return best_k


def _random_codebook(l_vq, q_vq, seed=0):
    rng = np.random.default_rng(seed)
    size = vq_core.codebook_size(l_vq, q_vq)
    return Codebook(l_vq, q_vq, rng.standard_normal((size, l_vq)))


def _two_cluster_vectors(n_per, seed, spread=0.05):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) * spread + [1.0, 1.0]
    b = rng.standard_normal((n_per, 2)) * spread + [-1.0, -1.0]
    return np.concatenate([a, b])


class TestNearest:
    def test_exact_codeword(self):
        cb = _random_codebook(2, 2, seed=1)
        assert nearest_codeword(cb, cb.codewords[7]) == 7

    def test_tie_breaks_low(self):
        cw = np.zeros((16, 2))
        cw[:, 0] = np.arange(16)
        cw[3] = [1.0, 0.0]
        cw[9] = [-1.0, 0.0]
        cw[0] = [100.0, 100.0]
        cw[1] = [100.0, -100.0]
        cw[2] = [-100.0, 100.0]
        for k in range(4, 16):
            cw[k] = [200.0 + k, 0.0]
        cb = Codebook(2, 2, cw)
        assert nearest_codeword(cb, np.zeros(2)) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_duplicate_codewords_tie_low(self, seed):
        # the matrix product may round bit-equal codewords an ulp apart
        vectors, codewords = _search_case(4, 511, 300, "duplicates", 0, seed)
        idx = vq_core._brute_nearest(vectors, codewords)
        lowest = [np.flatnonzero((codewords == codewords[j]).all(axis=1))[0]
                  for j in idx]
        np.testing.assert_array_equal(idx, lowest)
        alone = [vq_core._brute_nearest(v[None], codewords)[0] for v in vectors]
        np.testing.assert_array_equal(idx, alone)

    def test_against_brute_force_oracle(self):
        cb = _random_codebook(3, 2, seed=2)
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((10**4, 3))
        fast = quantize_batch(cb, vectors)
        for i in range(0, len(vectors), 97):
            assert fast[i] == _brute_force_nearest(cb.codewords, vectors[i])
        # and the single-vector path agrees everywhere with the batch path
        for i in range(0, len(vectors), 293):
            assert nearest_codeword(cb, vectors[i]) == fast[i]

    def test_dimension_mismatch(self):
        cb = _random_codebook(2, 2)
        with pytest.raises(ContractViolationError):
            nearest_codeword(cb, np.zeros(3))

    def test_counter_counts_codebook_size(self):
        cb = _random_codebook(2, 3)
        counter = SearchCounter()
        nearest_codeword(cb, np.zeros(2), counter)
        assert counter.distance_evals == cb.size
        assert counter.items == 1


def _forced(path):
    """Patch the search threshold so every `_nearest` search of plain
    codewords takes `path`: "brute" or "tree"."""
    never = np.iinfo(np.int64).max
    return mock.patch.object(
        vq_core, "_TREE_MIN_CODEWORDS", {"brute": never, "tree": 0}[path]
    )


def _grid_and_tree(codewords):
    """A codebook's grid and tree, built from bare codewords of any count
    (a `Codebook` has 2^(l*q)); no grid above `_GRID_MAX_DIM`."""
    tree = cKDTree(codewords)
    if codewords.shape[1] > vq_core._GRID_MAX_DIM:
        return None, tree
    return vq_core._build_grid(codewords, tree), tree


def _search_case(l, k, n, kind, equal_rows, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        # UPMGQ-style: integer codebook, half-integer vectors, exact ties
        codewords = rng.integers(0, 6, (k, l)).astype(np.float64)
        vectors = rng.integers(-2, 14, (n, l)) / 2.0
    else:
        codewords = rng.standard_normal((k, l)) * 30.0
        vectors = rng.standard_normal((n, l)) * 30.0
    if kind == "duplicates":
        codewords[rng.integers(0, k, k // 2)] = codewords[rng.integers(0, k, k // 2)]
    m = min(equal_rows, n)
    vectors[:m] = codewords[rng.integers(0, k, m)]
    return vectors, codewords


def _grid_case(l, k, n, kind, equal_rows, edge_rows, seed):
    """Vectors for a grid search: `_search_case`'s, except that integer
    codewords are mostly distinct (so cells list them) and "flat" codewords
    share their first coordinate, plus rows on the grid's cell edges and
    rows just outside its box."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        span = 2 * int(np.ceil(k ** (1 / l)))
        codewords = rng.integers(0, span, (k, l)).astype(np.float64)
        vectors = rng.integers(-2, 2 * span + 2, (n, l)) / 2.0
    elif kind == "flat":
        vectors, codewords = _search_case(l, k, n, "gaussian", 0, seed)
        codewords[:, 0] = 1.5
        vectors[::2, 0] = 1.5
    else:
        vectors, codewords = _search_case(l, k, n, kind, 0, seed)
    m = min(equal_rows, n)
    vectors[:m] = codewords[rng.integers(0, k, m)]
    grid, tree = _grid_and_tree(codewords)
    if grid is None:
        return vectors, codewords, grid, tree
    step = (grid.hi - grid.lo) / grid.shape
    edges = grid.lo + rng.integers(0, np.add(grid.shape, 1), (edge_rows, l)) * step
    outside = np.stack([np.nextafter(grid.lo, -np.inf),
                        np.nextafter(grid.hi, np.inf),
                        grid.lo - step, grid.hi + 3 * step])
    vectors = np.concatenate([vectors, edges, outside, [grid.lo, grid.hi]])
    return vectors, codewords, grid, tree


class TestSearchPaths:
    """The k-d tree, grid and brute-force paths give the same bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        l=st.integers(1, 4),
        k=st.sampled_from([1, 2, 5, 64, 511, 512, 513, 1024, 2048]),
        n=st.integers(0, 300),
        kind=st.sampled_from(["gaussian", "duplicates", "integer"]),
        equal_rows=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # bit-equal codewords the matrix product rounded an ulp apart
    @example(l=4, k=511, n=38, kind="duplicates", equal_rows=0, seed=1304298)
    def test_tree_equals_brute(self, l, k, n, kind, equal_rows, seed):
        vectors, codewords = _search_case(l, k, n, kind, equal_rows, seed)
        with _forced("brute"):
            b_idx, b_dist = vq_core._assign(vectors, codewords)
        with _forced("tree"):
            t_idx, t_dist = vq_core._assign(vectors, codewords)
        d_idx, d_dist = vq_core._assign(vectors, codewords)
        # every size gridded where the dimension allows; the tree elsewhere
        grid, tree = _grid_and_tree(codewords)
        with _forced("tree"):
            g_idx = vq_core._frozen_nearest(vectors, codewords, grid, tree)
        for idx, dist in ((t_idx, t_dist), (d_idx, d_dist)):
            assert idx.dtype == b_idx.dtype == np.int64
            assert idx.tobytes() == b_idx.tobytes()
            assert dist.tobytes() == b_dist.tobytes()
        assert g_idx.dtype == np.int64
        assert g_idx.tobytes() == b_idx.tobytes()
        assert (b_dist >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(1, 3),
        k=st.sampled_from([512, 1024, 4096]),
        n=st.integers(0, 400),
        kind=st.sampled_from(["gaussian", "duplicates", "integer", "flat"]),
        equal_rows=st.integers(0, 40),
        edge_rows=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_equals_brute(self, l, k, n, kind, equal_rows, edge_rows, seed):
        vectors, codewords, grid, tree = _grid_case(
            l, k, n, kind, equal_rows, edge_rows, seed
        )
        with _forced("brute"):
            want = vq_core._nearest(vectors, codewords)
        got = vq_core._frozen_nearest(vectors, codewords, grid, tree)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        q, rem = divmod(k.bit_length() - 1, l)
        if rem == 0:  # a size a Codebook can have
            idx = quantize_batch(Codebook(l, q, codewords), vectors)
            assert idx.tobytes() == want.tobytes()

    def test_large_codebook_against_oracle(self):
        rng = np.random.default_rng(41)
        codewords = rng.uniform(-64, 64, (4096, 2))
        vectors = rng.standard_normal((100_000, 2)) * 24
        idx = quantize_batch(Codebook(2, 6, codewords), vectors)
        # independent oracle: |v - c|^2 from the differences, no matrix product
        for a in range(0, len(vectors), 1000):
            v = vectors[a : a + 1000]
            d = np.subtract.outer(v[:, 0], codewords[:, 0]) ** 2
            d += np.subtract.outer(v[:, 1], codewords[:, 1]) ** 2
            np.testing.assert_array_equal(idx[a : a + 1000], d.argmin(axis=1))

    def test_repair_heavy_training_is_path_independent(self):
        rng = np.random.default_rng(43)
        vectors = np.round(rng.standard_normal((600, 3)) * 3) / 2
        pickles = []
        for path in ("tree", "brute"):
            with _forced(path):
                cb = train_modified(vectors, 3, 2, LloydStop(40), seed=5)
            pickles.append(pickle.dumps(cb))
        assert cb.size == 512 and cb.training_meta.repair_events > 0
        assert pickles[0] == pickles[1]

    def test_memory_bounded_per_vector(self):
        rng = np.random.default_rng(47)
        cb = Codebook(2, 6, rng.uniform(-8, 8, (4096, 2)))
        vectors = rng.standard_normal((100_000, 2)) * 4
        tracemalloc.start()
        try:
            quantize_batch(cb, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * len(vectors)

    def test_grid_searches_few_vectors_again(self):
        rng = np.random.default_rng(52)
        cb = Codebook(2, 6, rng.uniform(-8, 8, (4096, 2)))
        vectors = rng.uniform(-8, 8, (20_000, 2))
        searched = []
        tree_nearest = vq_core._tree_nearest

        def counted(v, c, tree):
            searched.append(len(v))
            return tree_nearest(v, c, tree)

        with mock.patch.object(vq_core, "_tree_nearest", counted):
            idx = quantize_batch(cb, vectors)
        want = vq_core._tree_nearest(vectors, cb.codewords, cb.tree)[0]
        assert idx.tobytes() == want.tobytes()
        assert sum(searched) < 0.01 * len(vectors)

    def test_grid_built_once_per_codebook(self, monkeypatch):
        rng = np.random.default_rng(53)
        cb = Codebook(2, 5, rng.uniform(-8, 8, (1024, 2)))
        vectors = rng.uniform(-9, 9, (2000, 2))  # some outside the box
        idx = quantize_batch(cb, vectors)
        grid = cb.grid
        assert grid is not None

        def rebuilt(*args):
            raise AssertionError("grid built again")

        monkeypatch.setattr(vq_core, "_build_grid", rebuilt)
        for _ in range(3):
            assert quantize_batch(cb, vectors).tobytes() == idx.tobytes()
        assert cb.grid is grid
        monkeypatch.undo()
        # equal content is another codebook, with a grid of its own
        twin = Codebook(2, 5, cb.codewords)
        assert twin.grid is not grid
        assert quantize_batch(twin, vectors).tobytes() == idx.tobytes()

    @pytest.mark.parametrize("l, q, tree, grid", [
        (2, 4, False, False),  # 256 words: brute force
        (2, 5, True, True),
        (4, 3, True, False),  # 4096 words in 4 dimensions: tree only
    ])
    def test_search_structures_by_geometry(self, l, q, tree, grid):
        size = vq_core.codebook_size(l, q)
        cb = Codebook(l, q, np.random.default_rng(q).normal(size=(size, l)))
        assert (cb.tree is not None) == tree
        assert (cb.grid is not None) == grid

    def test_grid_retains_little_memory(self):
        cw = np.random.default_rng(54).uniform(-8, 8, (4096, 2))
        tree = cKDTree(cw)  # built first, so not counted below
        tracemalloc.start()
        try:
            grid = vq_core._build_grid(cw, tree)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.table.dtype == np.uint16
        # 16,384 cells of one two-byte slot per candidate of the longest
        # list (about 18 here)
        assert grid.counts.size == 16_384
        assert retained < 1 << 20
        assert peak < 8 << 20

    def test_tree_built_once_per_codebook(self, monkeypatch):
        rng = np.random.default_rng(48)
        cw = rng.uniform(-8, 8, (512, 3))
        cb = Codebook(3, 3, cw)
        tree = cb.tree

        def rebuilt(*args):
            raise AssertionError("tree built again")

        monkeypatch.setattr(vq_core, "cKDTree", rebuilt)
        for _ in range(3):
            quantize_batch(cb, rng.uniform(-9, 9, (500, 3)))
        assert cb.tree is tree
        # the tree keeps the content it was built from: the codebook holds
        # a read-only copy of the caller's codewords
        cw[0, 0] += 1.0
        assert tree.data[0, 0] == cb.codewords[0, 0] == cw[0, 0] - 1.0


def _reference_descent(vectors, init_codewords, stop, corpus_rms):
    """Plain Lloyd descent: every vector is searched again each iteration."""
    cw = np.array(init_codewords, dtype=np.float64)
    idx, dist = vq_core._assign(vectors, cw)
    d = float(dist.mean())
    trace = [d]
    repairs = 0
    for _ in range(stop.max_iterations):
        cw, rep = vq_core._recenter(vectors, idx, dist, cw, corpus_rms)
        repairs += rep
        idx, dist = vq_core._assign(vectors, cw)
        d_new = float(dist.mean())
        trace.append(d_new)
        if d <= 0 or (d - d_new) / d < stop.rel_improvement_eps:
            d = d_new
            break
        d = d_new
    usage = np.bincount(idx, minlength=len(cw)).astype(np.uint64)
    return cw, d, trace, usage, repairs


def _descent_case(l, k, n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        # integer grid: equidistant codewords give exact ties
        vectors = rng.integers(-3, 4, (n, l)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.standard_normal((max(2, n // 8), l)) * 5.0
        vectors = base[rng.integers(0, len(base), n)]
    else:
        vectors = rng.standard_normal((n, l)) * [5.0, 1.0, 0.5, 2.0][:l]
    init = vectors[rng.choice(n, k, replace=False)].copy()
    if kind == "repairs":
        # far codewords own no vector, so their cells are repaired
        init[rng.integers(0, k, max(1, k // 4))] = 1e3
    return vectors, init


class TestBoundedDescent:
    """The bounded descent visits exactly the reference's codebooks."""

    @settings(max_examples=80, deadline=None)
    @given(
        l=st.integers(1, 4),
        k=st.sampled_from([1, 2, 3, 8, 16, 64]),
        extra=st.integers(0, 400),
        kind=st.sampled_from(["gaussian", "integer", "duplicates", "repairs"]),
        iters=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # repaired codewords either side of a lone member: a rounding-level tie
    @example(l=2, k=64, extra=217, kind="repairs", iters=3, seed=13599717)
    def test_equals_reference_descent(self, l, k, extra, kind, iters, seed):
        vectors, init = _descent_case(l, k, k + extra, kind, seed)
        stop = LloydStop(iters, 1e-9)
        rms = float(np.sqrt(np.mean(vectors**2)))
        # the same search path without bounds: brute force over all rows can
        # break a rounding-level tie differently from the one-row matrix
        # product that settles a lone near tie on the tree path
        with _forced("tree"):
            want = _reference_descent(vectors, init, stop, rms)
            got = vq_core._descent(vectors, init, stop, rms)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:3] == want[1:3]
        assert got[3].tobytes() == want[3].tobytes()
        assert got[4] == want[4]

    def test_forced_repairs_covered(self):
        vectors, init = _descent_case(2, 64, 600, "repairs", 3)
        rms = float(np.sqrt(np.mean(vectors**2)))
        with _forced("tree"):
            assert vq_core._descent(vectors, init, LloydStop(20), rms)[4] > 0

    def test_skips_most_searches(self):
        rng = np.random.default_rng(49)
        vectors = rng.standard_normal((20_000, 2)) * 8
        init = vectors[rng.choice(len(vectors), 512, replace=False)]
        searched = []
        tree_nearest = vq_core._tree_nearest

        def counted(v, c, tree):
            searched.append(len(v))
            return tree_nearest(v, c, tree)

        with mock.patch.object(vq_core, "_tree_nearest", counted):
            trace = vq_core._descent(vectors, init, LloydStop(30, 1e-9),
                                     8.0)[2]
        assert searched[0] == len(vectors)
        assert len(trace) > 20
        assert sum(searched[1:]) < 0.5 * (len(trace) - 1) * len(vectors)

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("train", [train_modified, train_classical])
    def test_trainers_equal_reference(self, train, trials):
        rng = np.random.default_rng(50)
        vectors = np.round(rng.standard_normal((3000, 2)) * 4) / 2
        stop = LloydStop(30)
        with mock.patch.object(vq_core, "_descent", _reference_descent):
            want = pickle.dumps(train(vectors, 5, trials, stop, seed=8))
        assert pickle.dumps(train(vectors, 5, trials, stop, seed=8)) == want

    def test_lower_bound_holds_with_ties(self):
        vectors, codewords = _search_case(2, 600, 3000, "integer", 20, 51)
        idx, lo = vq_core._tree_nearest(vectors, codewords, cKDTree(codewords))
        d = np.sqrt(((vectors[:, None, :] - codewords[None]) ** 2).sum(-1))
        d[np.arange(len(vectors)), idx] = np.inf
        assert (lo <= d.min(axis=1) * (1 + 1e-12)).all()


def _lattice_case(l, q, top, dup_rows, tie_rows, seed):
    """A non-negative integer codebook of 2^(l*q) words up to `top`, with
    `dup_rows` duplicated words, and vectors of every kind: integer ones
    inside the lattice box, midpoints of codeword pairs (exact ties),
    integer ones past the box or below 0, and non-integer ones."""
    rng = np.random.default_rng(seed)
    k = 1 << (l * q)
    codewords = rng.integers(0, top + 1, (k, l)).astype(np.float64)
    copies = rng.integers(0, k, (2, dup_rows))
    codewords[copies[0]] = codewords[copies[1]]
    edge = 2 * top + 2  # the box holds 0 .. edge - 1 per axis
    pairs = codewords[rng.integers(0, k, (tie_rows, 2))]
    vectors = np.concatenate([
        rng.integers(0, edge, (200, l)),
        pairs.sum(axis=1) / 2.0,
        rng.integers(edge, 2 * edge + 3, (20, l)),
        rng.integers(-4, 0, (20, l)),
        rng.integers(0, edge, (40, l))
        + rng.choice([0.5, 1e-9, -0.25], (40, l)),
        codewords[rng.integers(0, k, 20)],
        [np.zeros(l), np.full(l, edge - 1.0), np.full(l, float(edge)),
         np.full(l, -0.0)],
    ]).astype(np.float64)
    # integer rows with one coordinate past the box or negative (the 20
    # codeword rows)
    vectors[-24:-4, rng.integers(0, l)] = rng.choice([-1.0, edge], 20)
    return codewords, rng.permutation(vectors)


class TestLatticeSearch:
    """A non-negative integer codebook is searched through its lattice."""

    @settings(max_examples=80, deadline=None)
    @given(
        lq=st.sampled_from([(1, 1), (1, 4), (1, 9), (1, 10), (2, 1), (2, 3),
                            (2, 5), (3, 1), (3, 2), (3, 3)]),
        top=st.integers(0, 30),
        dup_rows=st.integers(0, 64),
        tie_rows=st.integers(0, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_brute_force(self, lq, top, dup_rows, tie_rows, seed):
        l, q = lq
        codewords, vectors = _lattice_case(l, q, top, dup_rows, tie_rows, seed)
        cb = Codebook(l, q, codewords)
        assert cb.lattice is not None and cb.lattice.dtype == np.uint16
        want = vq_core._brute_nearest(vectors, codewords)
        got = quantize_batch(cb, vectors)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    def test_box_bounded_by_the_largest_codeword(self):
        cw = np.array([[0.0, 3.0], [5.0, 1.0], [2.0, 2.0], [4.0, 0.0]])
        cb = Codebook(2, 1, cw)
        assert cb.lattice.shape == (12, 8)
        points = np.indices(cb.lattice.shape).reshape(2, -1).T.astype(float)
        want = vq_core._brute_nearest(points, cw)
        np.testing.assert_array_equal(cb.lattice.reshape(-1), want)

    def test_build_memory_bounded(self):
        # 160,000 points against a codebook searched by brute force: the
        # build searches them a chunk at a time
        cw = np.random.default_rng(10).integers(0, 200, (256, 2))
        cw[0] = 199
        cb = Codebook(2, 4, cw)
        tracemalloc.start()
        try:
            lattice = cb.lattice
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lattice.size == 400 * 400
        assert peak < 16 << 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_refused(self, bad):
        cw = np.random.default_rng(8).integers(0, 40, (1024, 2))
        cb = Codebook(2, 5, cw)
        assert cb.lattice is not None
        vectors = np.ones((10, 2))
        vectors[3, 1] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            quantize_batch(cb, vectors)

    @pytest.mark.parametrize("change", [
        "non-integer", "negative", "box too large", "four dimensions",
    ])
    def test_no_lattice(self, change):
        rng = np.random.default_rng(9)
        l = 4 if change == "four dimensions" else 2
        cw = rng.integers(0, 20, (1 << (2 * l), l)).astype(np.float64)
        if change == "non-integer":
            cw[7, 1] += 0.5
        elif change == "negative":
            cw[7, 1] = -1.0
        elif change == "box too large":
            cw[7, 1] = 2.0**20
        cb = Codebook(l, 2, cw)
        assert cb.lattice is None
        vectors = rng.integers(0, 40, (300, l)).astype(np.float64)
        got = quantize_batch(cb, vectors)
        assert got.tobytes() == vq_core._brute_nearest(vectors, cw).tobytes()


@pytest.mark.parametrize("q_vq", [2, 5])  # 16 words: brute force; 1024: k-d tree
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda cb, v: nearest_codeword(cb, v[1]),
        lambda cb, v: quantize_batch(cb, v),
        lambda cb, v: lloyd_iterate(v, cb),
        lambda cb, v: train_classical(v, cb.q_vq, 1, seed=1),
        lambda cb, v: train_modified(v, cb.q_vq, 2, seed=1),
    ],
    ids=["nearest_codeword", "quantize_batch", "lloyd_iterate",
         "train_classical", "train_modified"],
)
def test_non_finite_vector_refused(call, bad, q_vq):
    cb = _random_codebook(2, q_vq, seed=6)
    vectors = np.random.default_rng(7).standard_normal((2 * cb.size, 2))
    vectors[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="finite"):
            call(cb, vectors)


@pytest.mark.parametrize(
    "bad", [np.array([1.0, 2.0]), np.zeros((0, 3))], ids=["1-D", "empty l=3"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda cb, v: quantize_batch(cb, v),
        lambda cb, v: lloyd_iterate(v, cb),
        lambda cb, v: train_classical(v, cb.q_vq, 1, seed=1),
        lambda cb, v: train_modified(v, cb.q_vq, 2, seed=1),
        lambda cb, v: msvq.train_msvq(v, 1, 1, seed=1),
        lambda cb, v: msvq.quantize_msvq(
            seeded_codebooks(pipeline.MsvqSpec(2, 2, 2)), v
        ),
    ],
    ids=["quantize_batch", "lloyd_iterate", "train_classical",
         "train_modified", "train_msvq", "quantize_msvq"],
)
def test_batch_shape_refused(call, bad):
    # every batch is a 2-D array of l = 2 vectors
    with pytest.raises(ContractViolationError):
        call(_random_codebook(2, 2, seed=6), bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: entropy.build_huffman([0.25] * 4),
        lambda: _random_codebook(2, 2),
        lambda: seeded_codebooks(pipeline.MsvqSpec(2, 2, 2)),
        lambda: seeded_codebooks(pipeline.UpmgqSpec(-1, 3, 2, 2, 6)),
        lambda: IQStream(np.ones(4, dtype=complex)),
        lambda: VectorBatch(2, np.ones((2, 2)), VectorLayout.METHOD1),
        lambda: frontend.ScaleFactors(32, 8, np.ones(3)),
        lambda: upmgq.UpmgqIndices(
            np.zeros(4, np.uint8), np.zeros(2, np.int64), np.zeros(4, np.int64)
        ),
    ],
    ids=["HuffmanTable", "Codebook", "MsvqCodebook", "UpmgqCodebook",
         "IQStream", "VectorBatch", "ScaleFactors", "UpmgqIndices"],
)
def test_artifact_equality_is_identity(build):
    # their fields are arrays: == must answer, not raise
    a, b = build(), build()
    assert a == a
    assert (a == b) is False
    assert a != b
    assert len({a, b}) == 2


class TestLloydIterate:
    def test_fixed_point(self):
        vectors = _two_cluster_vectors(200, seed=1, spread=0.0)
        # codebook already at the two point masses, rest far away
        cw = np.array(
            [[1.0, 1.0], [-1.0, -1.0], [50.0, 50.0], [60.0, -60.0]]
        )
        cb = Codebook(2, 1, cw)
        out, d = lloyd_iterate(vectors, cb)
        np.testing.assert_allclose(out.codewords[:2], cw[:2])
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_two_point_masses_converge(self):
        rng = np.random.default_rng(4)
        vectors = np.concatenate(
            [np.full((5000, 1), -1.0), np.full((5000, 1), 1.0)]
        )
        rng.shuffle(vectors)
        cb = Codebook(1, 1, np.array([[-0.1], [0.1]]))
        for _ in range(5):
            cb, d = lloyd_iterate(vectors, cb)
        np.testing.assert_allclose(
            np.sort(cb.codewords.ravel()), [-1.0, 1.0], atol=1e-3
        )

    def test_distortion_non_increasing(self):
        vectors = np.random.default_rng(5).standard_normal((2000, 2))
        cb = _random_codebook(2, 2, seed=6)
        prev = None
        for _ in range(8):
            cb, d = lloyd_iterate(vectors, cb)
            if prev is not None:
                assert d <= prev * (1 + 1e-12)
            prev = d

    def test_empty_batch_rejected(self):
        cb = _random_codebook(2, 1)
        with pytest.raises(ContractViolationError):
            lloyd_iterate(np.zeros((0, 2)), cb)


class TestTrainers:
    def test_deterministic_single_trial(self):
        vectors = np.random.default_rng(7).standard_normal((600, 2))
        a = train_classical(vectors, 3, 1, None, seed=5)
        b = train_classical(vectors, 3, 1, None, seed=5)
        np.testing.assert_array_equal(a.codewords, b.codewords)

    def test_modified_single_trial_equals_classical(self):
        vectors = np.random.default_rng(8).standard_normal((600, 2))
        a = train_classical(vectors, 3, 1, None, seed=9)
        b = train_modified(vectors, 3, 1, None, seed=9)
        np.testing.assert_array_equal(a.codewords, b.codewords)

    def test_classical_returns_best_trial(self):
        vectors = np.random.default_rng(9).standard_normal((800, 2))
        cb = train_classical(vectors, 3, 8, None, seed=1)
        meta = cb.training_meta
        assert meta.final_distortion == min(meta.trial_distortions)

    def test_modified_no_worse_than_first_trial(self):
        vectors = _two_cluster_vectors(500, seed=10)
        cb = train_modified(vectors, 3, 4, None, seed=2)
        meta = cb.training_meta
        assert meta.final_distortion <= meta.trial_distortions[0]

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ContractViolationError):
            train_classical(np.zeros((3, 2)), 2, 1, None, 0)

    def test_codebook_size_preserved_with_repairs(self):
        # duplicate-heavy corpus forces empty cells during training
        base = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        vectors = np.tile(base, (200, 1))
        cb = train_classical(vectors, 3, 2, None, seed=3)
        assert cb.codewords.shape == (64, 2)
        assert np.all(np.isfinite(cb.codewords))
        assert int(cb.usage_counts.sum()) == len(vectors)

    def test_usage_counts_sum_to_corpus(self):
        vectors = np.random.default_rng(11).standard_normal((900, 2))
        cb = train_modified(vectors, 3, 3, None, seed=4)
        assert int(cb.usage_counts.sum()) == 900

    def test_distortion_trace_monotone(self):
        vectors = np.random.default_rng(12).standard_normal((1500, 2))
        for train in (train_classical, train_modified):
            cb = train(vectors, 3, 2, None, seed=5)
            trace = np.array(cb.training_meta.distortion_trace)
            rises = trace[1:] - trace[:-1] * (1 + 1e-9)
            assert (rises <= 0).all()

    def test_modified_beats_classical_on_concentrated_corpus(self):
        # two tight clusters of unequal spread and mass: data-sampled inits
        # overpack the dense cluster and Lloyd cannot migrate codewords
        # across the gap, so independent trials keep landing in the same
        # kind of local optimum; the serial rescaled restarts escape it
        def corpus(seed):
            rng = np.random.default_rng(seed)
            dense = rng.standard_normal((640, 2)) * 0.08 + [0.6, 0.6]
            sparse = rng.standard_normal((160, 2)) * 0.24 + [1.8, 1.8]
            return np.concatenate([dense, sparse])

        diffs = []
        for seed in range(20):
            vectors = corpus(seed)
            c = train_classical(vectors, 3, 3, None, seed=seed)
            m = train_modified(vectors, 3, 3, None, seed=seed)
            diffs.append(
                m.training_meta.final_distortion
                - c.training_meta.final_distortion
            )
        assert np.median(diffs) <= 0

    def test_stop_criterion_limits_iterations(self):
        vectors = np.random.default_rng(13).standard_normal((800, 2))
        stop = LloydStop(max_iterations=2, rel_improvement_eps=1e-12)
        cb = train_classical(vectors, 3, 1, stop, seed=6)
        assert cb.training_meta.iterations <= 2


class TestQuantize:
    def test_codewords_round_trip_exactly(self):
        cb = _random_codebook(2, 3, seed=14)
        idx = quantize_batch(cb, cb.codewords)
        np.testing.assert_array_equal(idx, np.arange(cb.size))
        np.testing.assert_array_equal(dequantize_batch(cb, idx), cb.codewords)

    def test_empty_batch(self):
        cb = _random_codebook(2, 2)
        assert quantize_batch(cb, np.zeros((0, 2))).size == 0
        assert dequantize_batch(cb, np.zeros(0, np.int64)).shape == (0, 2)

    def test_vq_gain(self):
        assert vq_core.vq_gain(15, 6) == 2.5

    def test_dequantize_range_checked(self):
        cb = _random_codebook(2, 2)
        with pytest.raises(ContractViolationError):
            dequantize_batch(cb, [cb.size])

    def test_counter_exact(self):
        cb = _random_codebook(2, 3)
        counter = SearchCounter()
        quantize_batch(cb, np.zeros((10, 2)), counter)
        assert counter.evals_per_item == cb.size


class TestCodebookValue:
    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(17)
        cw, counts = rng.normal(size=(8, 1)), np.arange(8)
        cb = Codebook(1, 3, cw, counts)
        for array in (cb.codewords, cb.usage_counts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 5
        cw[0], counts[0] = 99.0, 99
        assert cb.codewords[0, 0] != 99.0 and cb.usage_counts[0] == 0
        assert Codebook(1, 3, cw).usage_counts.tolist() == [0] * 8

    @pytest.mark.parametrize("field", ["codewords", "usage_counts", "q_vq"])
    def test_fields_cannot_be_rebound(self, field):
        cb = _random_codebook(2, 3, seed=18)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cb, field, getattr(cb, field))

    @pytest.mark.parametrize("spec, field", [
        (pipeline.MsvqSpec(2, 2, 2), "stage2"),
        (pipeline.MsvqSpec(2, 2, 2), "q1"),
        (pipeline.UpmgqSpec(-1, 3, 2, 2, 6), "theta"),
        (pipeline.UpmgqSpec(-1, 3, 2, 2, 6), "high_vq"),
    ], ids=["msvq stage2", "msvq q1", "upmgq theta", "upmgq high_vq"])
    def test_composite_fields_cannot_be_rebound(self, spec, field):
        cb = seeded_codebooks(spec, seed=19)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cb, field, getattr(cb, field))

    def test_msvq_stage2_is_a_tuple(self):
        cb = seeded_codebooks(pipeline.MsvqSpec(2, 2, 2), seed=20)
        assert isinstance(cb.stage2, tuple) and len(cb.stage2) == 16

    @pytest.mark.parametrize("spec", [
        pipeline.VqSpec(2, 6), pipeline.MsvqSpec(3, 3, 2),
        pipeline.UpmgqSpec(-1, 5, 2, 3, 6),
    ], ids=["vq", "msvq", "upmgq"])
    def test_used_codebook_pickles_as_fresh(self, spec):
        # the tree, grid and tables built on first use are not pickled
        cb = seeded_codebooks(spec, seed=21)
        fresh = pickle.dumps(cb)
        prof = pipeline.CompressionProfile(quantizer=spec)
        stream = IQStream(np.random.default_rng(22).normal(size=600) * 8 + 0j)
        pipeline.compress(stream, prof, cb)
        assert pickle.dumps(cb) == fresh

    def test_unpickled_arrays_are_read_only(self):
        cb = _random_codebook(2, 6, seed=23)
        cb.table, cb.grid
        back = pickle.loads(pickle.dumps(cb))
        for array in (back.codewords, back.usage_counts):
            with pytest.raises(ValueError):
                array[0] = 5
        np.testing.assert_array_equal(back.codewords, cb.codewords)
        np.testing.assert_array_equal(
            back.table.code_lengths, cb.table.code_lengths
        )


class TestCodebookIo:
    def test_round_trip(self, tmp_path):
        cw = _random_codebook(2, 3, seed=15).codewords
        cb = Codebook(2, 3, cw, np.arange(len(cw)))
        p = tmp_path / "cb.vqcb"
        save_codebook(cb, p, 15)
        loaded = load_codebook(p)
        assert (loaded.l_vq, loaded.q_vq) == (2, 3)
        np.testing.assert_array_equal(loaded.usage_counts, cb.usage_counts)
        np.testing.assert_allclose(
            loaded.codewords, cb.codewords.astype(np.float32), rtol=0
        )

    def test_file_stable_after_first_save(self, tmp_path):
        cb = _random_codebook(2, 2, seed=16)
        p1 = tmp_path / "a.vqcb"
        p2 = tmp_path / "b.vqcb"
        save_codebook(cb, p1, 15)
        save_codebook(load_codebook(p1), p2, 15)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vqcb"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_codebook(p)

    def test_trailing_byte_refused(self, tmp_path):
        p = tmp_path / "t.vqcb"
        save_codebook(_random_codebook(1, 2, seed=17), p, 15)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="geometry gives 63 bytes, file has 64"):
            load_codebook(p)

    def test_truncated(self, tmp_path):
        cb = _random_codebook(1, 2, seed=17)
        p = tmp_path / "t.vqcb"
        save_codebook(cb, p, 15)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_codebook(p)

    # header bytes: version 8, l_vq 9, q_vq 10, count 11..14; codewords at 15
    @pytest.mark.parametrize("at, value", [
        (9, b"\x00"),  # l_vq = 0
        (9, b"\x08\x08"),  # l_vq * q_vq = 64
        (15, np.float32(np.nan).tobytes()),  # a NaN codeword
    ], ids=["l_vq 0", "l_vq*q_vq 64", "NaN codeword"])
    def test_hostile_header_refused(self, tmp_path, at, value):
        p = tmp_path / "h.vqcb"
        save_codebook(_random_codebook(2, 2, seed=18), p, 15)
        blob = bytearray(p.read_bytes())
        blob[at : at + len(value)] = value
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_codebook(p)

    def test_file_size_checked_before_body(self, tmp_path):
        # 2^24 declared codewords of l = 1: a 192 MiB body in a 15-byte file
        p = tmp_path / "big.vqcb"
        count = (1 << 24).to_bytes(4, "little")
        p.write_bytes(artifacts.VQCB + bytes([1, 1, 24]) + count)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load_codebook(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
