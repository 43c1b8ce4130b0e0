import logging

import numpy as np
import pytest

from fvq import msvq as ms
from fvq.errors import ContractViolationError, FormatError
from fvq.vq_core import Codebook, SearchCounter, quantize_batch, train_classical


def _corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2)) * [3.0, 1.0]


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

    def test_refinement_never_worse_than_stage1(self):
        cb = ms.train_msvq(_corpus(9000, seed=12), 3, 2, seed=13)
        vectors = _corpus(800, seed=14)
        i1, i2 = ms.quantize_msvq(cb, vectors)
        rec2 = ms.dequantize_msvq(cb, i1, i2)
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


class TestIo:
    def test_container_round_trip(self, tmp_path):
        cb = ms.train_msvq(_corpus(9000, seed=20), 2, 2, seed=21)
        path = tmp_path / "cb.vqms"
        ms.save_msvq(cb, path)
        loaded = ms.load_msvq(path)
        assert (loaded.q1, loaded.q2, loaded.l) == (2, 2, 2)
        np.testing.assert_allclose(
            loaded.stage1.codewords,
            cb.stage1.codewords.astype(np.float32),
        )
        assert len(loaded.stage2) == 16
        for a, b in zip(loaded.stage2, cb.stage2):
            np.testing.assert_array_equal(a.usage_counts, b.usage_counts)

    def test_stage_2_blocks_must_have_q2_geometry(self, tmp_path):
        # a q2 = 0 header over 4-codeword stage-2 blocks
        rng = np.random.default_rng(22)
        stage1 = Codebook(2, 1, rng.normal(size=(4, 2)))
        stage2 = [Codebook(2, 1, rng.normal(size=(4, 2))) for _ in range(4)]
        path = tmp_path / "cb.vqms"
        ms.save_msvq(ms.MsvqCodebook(stage1, stage2, 2, 1, 0), path)
        with pytest.raises(FormatError, match="stage-2"):
            ms.load_msvq(path)
