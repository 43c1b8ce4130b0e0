import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fvq
from fvq import pipeline
from fvq import upmgq as ug
from fvq.errors import ContractViolationError, FormatError
from fvq.iqstream import IQStream
from fvq.vq_core import SearchCounter
from tests.conftest import seeded_codebooks


def _scaled_stream(n=4096, sigma=22.0, seed=0):
    rng = np.random.default_rng(seed)
    return IQStream(
        sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    )


class TestExpand:
    def test_paper_example_17p5(self):
        assert ug.expand(17.5, 0) == (1, 17.0, 0.5)

    def test_zero(self):
        assert ug.expand(0.0, 0) == (1, 0.0, 0.0)

    def test_negative_theta(self):
        sign, high, low = ug.expand(-3.25, -1)
        assert sign == -1
        assert high == 3.0
        assert low == 0.25

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            ug.expand(math.inf, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e12,
            max_value=1e12,
        ),
        theta=st.integers(-8, 8),
    )
    def test_identity_exact(self, s, theta):
        sign, high, low = ug.expand(s, theta)
        assert sign * (high + low) == s
        assert 0.0 <= low < math.ldexp(1.0, theta) or (
            low == 0.0 and high == abs(s)
        )
        # high is an integer multiple of 2^theta
        assert math.floor(math.ldexp(high, -theta)) == math.ldexp(high, -theta)


class TestLevelStatistics:
    def test_sign_level_half(self):
        stats = ug.level_statistics(_scaled_stream(60000, seed=1))
        assert stats.sign_negative_p == pytest.approx(0.5, abs=0.01)

    def test_low_levels_bernoulli_high_levels_zero(self):
        stats = ug.level_statistics(
            _scaled_stream(60000, sigma=22.0, seed=2), levels=range(-6, 12)
        )
        by_level = dict(zip(stats.levels.tolist(), stats.p_one))
        assert by_level[-6] == pytest.approx(0.5, abs=0.01)
        assert by_level[-2] == pytest.approx(0.5, abs=0.01)
        assert by_level[11] < 0.01

    def test_constant_one(self):
        s = IQStream(np.ones(128) + 0j)
        stats = ug.level_statistics(s, levels=range(-4, 5))
        by_level = dict(zip(stats.levels.tolist(), stats.p_one))
        # imaginary components are zero: exactly half the components carry
        # the value 1.0, which sets level 0 and nothing else
        assert by_level[0] == 0.5
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert by_level[k] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            ug.level_statistics(IQStream(np.zeros(0, complex)))


def _cfg(theta=0, q_high=4, l=2, q_low=4):
    return ug.UpmgqConfig(theta=theta, q_high=q_high, l_upmgq=l, q_low=q_low)


class TestTraining:
    def test_codebook_sizes_match_complexity_table(self):
        s = _scaled_stream(20000, seed=3)
        cb = ug.train_upmgq(s, _cfg(0, 4, 2, 4), seed=4)
        assert cb.high_vq.size + len(cb.low_sq) == 272
        cb = ug.train_upmgq(s, _cfg(-1, 5, 2, 3), seed=4)
        assert cb.high_vq.size + len(cb.low_sq) == 1032

    def test_g2_codewords_on_lattice(self):
        cb = ug.train_upmgq(_scaled_stream(20000, seed=5), _cfg(0, 4, 2, 4),
                            seed=6)
        assert np.all(cb.high_vq.codewords >= 0)
        assert np.array_equal(
            cb.high_vq.codewords, np.round(cb.high_vq.codewords)
        )

    def test_low_grid_inside_range(self):
        for theta in (-2, 0, 3):
            cb = ug.train_upmgq(
                _scaled_stream(20000, seed=7), _cfg(theta, 3, 2, 4), seed=8
            )
            assert np.all(cb.low_sq > 0)
            assert np.all(cb.low_sq < math.ldexp(1.0, theta))


class TestQuantize:
    def test_sign_pattern_preserved(self):
        s = _scaled_stream(3000, seed=9)
        cfg = _cfg()
        cb = ug.train_upmgq(s, cfg, seed=10)
        ind = ug.quantize_upmgq(cb, cfg, s)
        out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
        comps_in = np.concatenate([s.samples.real, s.samples.imag])
        comps_out = np.concatenate([out.samples.real, out.samples.imag])
        # zero maps to +1; no exact zeros occur in this corpus
        np.testing.assert_array_equal(comps_in < 0, comps_out < 0)

    def test_exact_round_trip_on_grid_points(self):
        cfg = _cfg(0, 2, 2, 2)
        s = _scaled_stream(4000, sigma=3.0, seed=11)
        cb = ug.train_upmgq(s, cfg, seed=12)
        # build a stream whose high parts are codewords and lows are grid
        # points
        cw = cb.high_vq.codewords[1]
        lows = cb.low_sq[[0, 1]]
        comps = np.array([cw[0] + lows[0], cw[1] + lows[1]])
        probe = IQStream(np.array([complex(comps[0], comps[1])]))
        ind = ug.quantize_upmgq(cb, cfg, probe)
        out = ug.dequantize_upmgq(cb, cfg, ind, probe.sample_rate)
        np.testing.assert_allclose(out.samples, probe.samples, atol=1e-12)

    def test_error_bound(self):
        cfg = _cfg(0, 4, 2, 4)
        s = _scaled_stream(6000, seed=13)
        cb = ug.train_upmgq(s, cfg, seed=14)
        ind = ug.quantize_upmgq(cb, cfg, s)
        out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
        # per-component error < G3 half step + max G2 cell radius
        batch = ug._high_batch(s, cfg.theta, cfg.l_upmgq)
        from fvq.vq_core import _assign

        idx, dist = _assign(batch.vectors, cb.high_vq.codewords)
        max_cell_radius = float(np.sqrt(dist.max()))
        half_step = math.ldexp(1.0, cfg.theta) / 2**cfg.q_low / 2
        err = np.abs(
            np.concatenate([s.samples.real, s.samples.imag])
            - np.concatenate([out.samples.real, out.samples.imag])
        )
        assert err.max() < half_step + max_cell_radius + 1e-9

    def test_raising_q_low_never_hurts(self):
        s = _scaled_stream(6000, seed=15)
        evm = []
        for q_low in (2, 3, 4, 5):
            cfg = _cfg(0, 4, 2, q_low)
            cb = ug.train_upmgq(s, cfg, seed=16)
            ind = ug.quantize_upmgq(cb, cfg, s)
            out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
            evm.append(fvq.evm_td(s, out))
        assert all(b <= a + 1e-9 for a, b in zip(evm, evm[1:]))

    def test_counters_match_formulas(self):
        for theta, q_high, q_low, expect in (
            (0, 4, 3, 264), (0, 4, 4, 272), (0, 4, 5, 288),
            (-1, 5, 2, 1028), (-1, 5, 3, 1032), (-1, 5, 4, 1040),
        ):
            cfg = _cfg(theta, q_high, 2, q_low)
            assert ug.upmgq_complexity(cfg) == (expect, expect)

    def test_instrumented_counter(self):
        cfg = _cfg(0, 3, 2, 3)
        s = _scaled_stream(1024, seed=17)
        cb = ug.train_upmgq(s, cfg, seed=18)
        counter = SearchCounter()
        ug.quantize_upmgq(cb, cfg, s, counter)
        # G2 searched per vector, G3 per component
        n_vec = math.ceil(2 * len(s) / cfg.l_upmgq)
        n_comp = 2 * len(s)
        assert counter.distance_evals == 64 * n_vec + 8 * n_comp


class TestGain:
    def test_plug_in(self):
        assert ug.cr_upmgq(8.0, 2, 4.0, 15) == pytest.approx(15 / 9)

    def test_sign_only_limit(self):
        assert ug.cr_upmgq(0.0, 2, 0.0, 15) == 15.0

    def test_q_low_zero_complexity(self):
        cfg = _cfg(0, 4, 2, 0)
        so, cs = ug.upmgq_complexity(cfg)
        assert so == cs == 2 ** (4 * 2) + 1


class TestIo:
    def test_container_round_trip(self, tmp_path):
        cfg = _cfg(-1, 3, 2, 3)
        s = _scaled_stream(9000, seed=19)
        cb = ug.train_upmgq(s, cfg, seed=20)
        path = tmp_path / "cb.upmg"
        ug.save_upmgq(cb, cfg, path)
        loaded, loaded_cfg = ug.load_upmgq(path)
        assert loaded_cfg == cfg
        np.testing.assert_allclose(
            loaded.high_vq.codewords, cb.high_vq.codewords
        )  # integers survive float32 exactly
        np.testing.assert_array_equal(
            loaded.huffman_high.code_lengths, cb.huffman_high.code_lengths
        )
        np.testing.assert_allclose(
            loaded.low_sq, cb.low_sq.astype(np.float32)
        )

    @pytest.mark.parametrize("case", [
        "lengths all 0", "lengths all 1", "lengths all 70",
        "NaN grid point", "grid point off the midpoints",
    ])
    def test_hostile_container_refused(self, tmp_path, case):
        spec = pipeline.UpmgqSpec(theta=-1, q_high=3, l=2, q_low=2)
        cb, cfg = seeded_codebooks(spec, seed=3), spec.config(15)
        path = tmp_path / "cb.upmg"
        ug.save_upmgq(cb, cfg, path)
        ug.load_upmgq(path)  # the untouched file loads
        blob = bytearray(path.read_bytes())
        k = cb.high_vq.size
        lengths = {"lengths all 0": 0, "lengths all 1": 1,
                   "lengths all 70": 70}
        if case in lengths:
            blob[-k:] = bytes([lengths[case]]) * k
        else:
            value = math.nan if case == "NaN grid point" else 0.3
            at = len(blob) - k - 4 * len(cb.low_sq)
            blob[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            ug.load_upmgq(path)
