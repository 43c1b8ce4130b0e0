import hashlib
import logging

import numpy as np
import pytest

from fvq import msvq as ms
from fvq.artifacts import VQMS, encode, load_codebook, save_codebook
from fvq.pipeline import MsvqSpec
from fvq.errors import ContractViolationError, FormatError
from fvq.vq_core import (
    Codebook,
    SearchCounter,
    quantize_batch,
    train_classical,
)
from tests.conftest import seeded_codebooks


def _corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2)) * [3.0, 1.0]


def _point_masses(n, distinct, seed):
    """n vectors drawn from `distinct` integer points: Lloyd's repair finds
    no distortion to split, so some stage-1 cells stay empty."""
    rng = np.random.default_rng(seed)
    points = rng.integers(-3, 4, (distinct, 2)).astype(float)
    return points[rng.integers(0, distinct, n)]


class TestComplexity:
    def test_table_values(self):
        assert ms.msvq_complexity(3, 3, 2) == (128, 4160)
        assert ms.msvq_complexity(2, 3, 2) == (80, 1040)
        assert ms.msvq_complexity(3, 4, 2) == (320, 16448)

    def test_degenerate_second_stage(self):
        q1 = 3
        so, cs = ms.msvq_complexity(q1, 0, 2)
        assert so == 2 ** (q1 * 2) + 1
        assert cs == 2 * 2 ** (q1 * 2)

    def test_overflow_guard(self):
        with pytest.raises(ContractViolationError):
            ms.msvq_complexity(32, 32, 2)


class TestTraining:
    def test_shapes_and_total_size(self):
        cb = ms.train_msvq(_corpus(9000, seed=1), 3, 3, seed=2)
        assert cb.stage1.size == 64
        assert len(cb.stage2) == 64
        assert all(c.size == 64 for c in cb.stage2)
        assert cb.stored_codewords == 4160

    def test_underpopulated_cell_repair_warns(self, caplog):
        # tiny corpus: stage-1 cells cannot all hold 64 distinct members
        with caplog.at_level(logging.WARNING, logger="fvq.msvq"):
            cb = ms.train_msvq(_corpus(300, seed=3), 2, 3, seed=4)
        assert cb.stored_codewords == 16 + 16 * 64
        assert any("perturbed duplication" in r.message for r in caplog.records)

    def test_q2_zero_collapses_to_stage1(self):
        vectors = _corpus(2000, seed=5)
        cb = ms.train_msvq(vectors, 3, 0, seed=6)
        i1, i2 = ms.quantize_msvq(cb, vectors)
        assert set(np.unique(i2)) <= {0}
        np.testing.assert_array_equal(
            i1, quantize_batch(cb.stage1, vectors)
        )


# name -> (corpus, q1, q2, seed, SHA-256 of the `save_codebook` bytes)
PINNED = {
    "q2 0": (lambda: _corpus(2000, seed=5), 3, 0, 6,
             "792670ce83014271be3a189d5dee460a29f7508b13a15aaab12aa8df4fd6faae"),
    "under-populated": (lambda: _corpus(300, seed=3), 2, 3, 4,
                        "0456cf8d490fcb776342dd58e5690c1664b70458600253c14961e88c439ce838"),
    "empty cell q2 0": (lambda: _point_masses(400, 10, seed=1), 2, 0, 2,
                        "472e0d5b5437770e06e7f112f9807681dc397b73303de09f5322454f6cf108e3"),
    "empty cell": (lambda: _point_masses(400, 10, seed=1), 2, 1, 2,
                   "96b4ee0bce5c8b9f5c18c38ed9b1808b38da0e1636becb7e3ba7f953830dc2d4"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_trained_bytes_pinned(name, tmp_path):
    # a refactor of training must leave every digest here as it is
    corpus, q1, q2, seed, sha = PINNED[name]
    cb = ms.train_msvq(corpus(), q1, q2, seed=seed)
    members = [int(sub.usage_counts.sum()) for sub in cb.stage2]
    size2 = cb.stage2[0].size
    # each case covers what its name says
    assert ("q2 0" in name) == (q2 == 0)
    assert ("under" in name) == any(0 < m < size2 for m in members)
    assert ("empty" in name) == (0 in members)
    path = tmp_path / "cb.vqms"
    save_codebook(cb, path, 15)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


class TestQuantize:
    def test_search_cost_equals_formula(self):
        cb = ms.train_msvq(_corpus(9000, seed=7), 3, 3, seed=8)
        counter = SearchCounter()
        ms.quantize_msvq(cb, _corpus(500, seed=9), counter)
        assert counter.evals_per_item == 128

    def test_exact_reconstruction_of_reachable_codeword(self):
        cb = ms.train_msvq(_corpus(9000, seed=10), 2, 2, seed=11)
        target = cb.stage2[5].codewords[3]
        i1, i2 = ms.quantize_msvq(cb, target[None, :])
        rec = ms.dequantize_msvq(cb, i1, i2)
        if i1[0] == 5:  # reachable through its own cell
            np.testing.assert_allclose(rec[0], target)
        # either way reconstruction error cannot exceed stage-1-only error
        d2 = np.sum((rec[0] - target) ** 2)
        d1 = np.sum((cb.stage1.codewords[i1[0]] - target) ** 2)
        assert d2 <= d1 + 1e-12

    @pytest.mark.parametrize("n", [800, 0])
    def test_refinement_never_worse_than_stage1(self, n):
        cb = ms.train_msvq(_corpus(9000, seed=12), 3, 2, seed=13)
        vectors = _corpus(n, seed=14)
        i1, i2 = ms.quantize_msvq(cb, vectors)
        rec2 = ms.dequantize_msvq(cb, i1, i2)
        assert rec2.shape == (n, 2)
        rec1 = cb.stage1.codewords[i1]
        d2 = np.sum((vectors - rec2) ** 2, axis=1)
        d1 = np.sum((vectors - rec1) ** 2, axis=1)
        assert np.all(d2 <= d1 + 1e-12)

    def test_msvq_distortion_not_below_plain_vq(self):
        # multi-stage optimization cannot beat single-stage at equal rate
        train = _corpus(20000, seed=15)
        evalv = _corpus(4000, seed=16)
        plain = train_classical(train, 2, 2, None, seed=17)
        two_stage = ms.train_msvq(train, 1, 1, trials=2, seed=17)
        pi = quantize_batch(plain, evalv)
        d_plain = np.mean(np.sum((evalv - plain.codewords[pi]) ** 2, axis=1))
        i1, i2 = ms.quantize_msvq(two_stage, evalv)
        rec = ms.dequantize_msvq(two_stage, i1, i2)
        d_ms = np.mean(np.sum((evalv - rec) ** 2, axis=1))
        assert d_ms >= d_plain * 0.98

    def test_index_bounds_checked(self):
        cb = ms.train_msvq(_corpus(5000, seed=18), 2, 2, seed=19)
        with pytest.raises(ContractViolationError):
            ms.dequantize_msvq(cb, [16], [0])
        with pytest.raises(ContractViolationError):
            ms.dequantize_msvq(cb, [0], [99])


@pytest.mark.parametrize("case", [
    "stage-2 sizes mixed", "stage-1 l", "stage-2 l", "too few stage-2",
])
def test_mixed_stage_geometry_refused(case):
    rng = np.random.default_rng(21)

    def cb(l, q):
        return Codebook(l, q, rng.normal(size=(2 ** (l * q), l)))

    stage1, stage2 = cb(2, 1), [cb(2, 1) for _ in range(4)]
    if case == "stage-2 sizes mixed":
        stage2[2] = cb(2, 2)  # 16 words among 4-word codebooks
    elif case == "stage-1 l":
        stage1 = cb(1, 2)  # 4 words, but of one component
    elif case == "stage-2 l":
        stage2[0] = cb(1, 2)
    else:
        stage2 = stage2[:3]
    with pytest.raises(ContractViolationError, match="MSVQ needs"):
        ms.MsvqCodebook(stage1, stage2, l=2, q1=1, q2=1)


def _per_cell_dequantize(cb, i1, i2):
    """Reference: each stage-1 cell's stage-2 codebook indexed on its own."""
    out = np.empty((len(i1), cb.l))
    for k in np.unique(i1):
        sel = i1 == k
        out[sel] = cb.stage2[k].codewords[i2[sel]]
    return out


class TestDequantize:
    @pytest.mark.parametrize("spec", [MsvqSpec(3, 3, 2), MsvqSpec(1, 2, 3),
                                      MsvqSpec(2, 0, 2)])
    def test_gather_equals_per_cell_loop(self, spec):
        cb = seeded_codebooks(spec, seed=24)
        rng = np.random.default_rng(25)
        i1 = rng.integers(0, cb.stage1.size, 5000)
        i2 = rng.integers(0, cb.stage2[0].size, 5000)
        got = ms.dequantize_msvq(cb, i1, i2)
        assert got.dtype == np.float64 and got.shape == (5000, spec.l)
        assert got.tobytes() == _per_cell_dequantize(cb, i1, i2).tobytes()

    @pytest.mark.parametrize("i1, i2, stage", [
        ([0, 64], [0, 0], "stage-1"),
        ([-1, 0], [0, 0], "stage-1"),
        ([0, 63], [0, 64], "stage-2"),
        ([5, 7], [-1, 3], "stage-2"),
    ])
    def test_out_of_range_refused(self, i1, i2, stage):
        cb = seeded_codebooks(MsvqSpec(3, 3, 2), seed=26)
        with pytest.raises(ContractViolationError, match=stage):
            ms.dequantize_msvq(cb, i1, i2)


class TestIo:
    def test_container_round_trip(self, tmp_path):
        cb = ms.train_msvq(_corpus(9000, seed=20), 2, 2, seed=21)
        path = tmp_path / "cb.vqms"
        save_codebook(cb, path, 15)
        loaded = load_codebook(path)
        assert (loaded.q1, loaded.q2, loaded.l) == (2, 2, 2)
        np.testing.assert_allclose(
            loaded.stage1.codewords,
            cb.stage1.codewords.astype(np.float32),
        )
        assert len(loaded.stage2) == 16
        for a, b in zip(loaded.stage2, cb.stage2):
            np.testing.assert_array_equal(a.usage_counts, b.usage_counts)

    def test_trailing_byte_refused(self, tmp_path):
        path = tmp_path / "cb.vqms"
        save_codebook(seeded_codebooks(MsvqSpec(1, 1, 2), seed=24), path, 15)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="geometry gives 407 bytes, file has 408"):
            load_codebook(path)

    def test_stage_2_blocks_must_have_q2_geometry(self, tmp_path):
        # a q2 = 0 header over 4-codeword stage-2 blocks
        rng = np.random.default_rng(22)
        path = tmp_path / "cb.vqms"
        path.write_bytes(VQMS + bytes([1, 1, 0, 2]) + b"".join(
            encode(Codebook(2, 1, rng.normal(size=(4, 2))), 15)
            for _ in range(5)
        ))
        with pytest.raises(FormatError, match="geometry gives 215 bytes"):
            load_codebook(path)

    def test_stage_1_block_must_match_header(self, tmp_path):
        # a q1 = 1 header over a 16-codeword (q = 2) stage-1 block
        rng = np.random.default_rng(23)
        path = tmp_path / "cb.vqms"
        path.write_bytes(
            VQMS + bytes([1, 1, 1, 2])
            + encode(Codebook(2, 2, rng.normal(size=(16, 2))), 15)
            + b"".join(encode(Codebook(2, 1, rng.normal(size=(4, 2))), 15)
                       for _ in range(4))
        )
        with pytest.raises(FormatError, match="geometry gives 407 bytes"):
            load_codebook(path)

    # offsets into a (q1, q2, l) = (1, 1, 2) file: header 12 bytes, then
    # five 79-byte VQCB blocks (stage 1 at 12, stage 2 from 91)
    @pytest.mark.parametrize("at, value", [
        (8, 2),  # the VQMS version
        (12 + 8, 2),  # the stage-1 block's version
        (91 + 4, 1),  # a stage-2 block's magic padding
        (91 + 79 + 10, 2),  # a stage-2 block's q_vq
        (91 + 11, 5),  # a stage-2 block's codeword count
    ], ids=["version", "stage-1 version", "stage-2 magic", "stage-2 q_vq",
            "stage-2 count"])
    def test_block_header_edit_of_the_same_length_refused(self, tmp_path,
                                                          at, value):
        path = tmp_path / "cb.vqms"
        save_codebook(seeded_codebooks(MsvqSpec(1, 1, 2), seed=25), path, 15)
        blob = bytearray(path.read_bytes())
        blob[at] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not the bytes"):
            load_codebook(path)
