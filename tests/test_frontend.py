import math
from fractions import Fraction

import numpy as np
import pytest

import fvq
from fvq import frontend
from fvq.errors import ContractViolationError
from fvq.iqstream import IQStream


def _rand_stream(n, seed=0, rate=Fraction(15_360_000)):
    rng = np.random.default_rng(seed)
    return IQStream(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate)


class TestCpRemoval:
    def test_gain_is_1p125(self):
        assert frontend.cp_removal_gain(1024, 128) == 1.125
        s = _rand_stream(3 * 1152)
        out = frontend.remove_cp(s, 1024, 128)
        assert len(s) / len(out) == 1.125

    def test_zero_cp_identity(self):
        s = _rand_stream(2048)
        out = frontend.remove_cp(s, 1024, 0)
        assert np.array_equal(out.samples, s.samples)
        assert frontend.cp_removal_gain(1024, 0) == 1.0

    def test_single_symbol_definition(self):
        s = _rand_stream(1152)
        out = frontend.remove_cp(s, 1024, 128)
        assert np.array_equal(out.samples, s.samples[128:])

    def test_divisibility_enforced(self):
        with pytest.raises(ContractViolationError):
            frontend.remove_cp(_rand_stream(1000), 1024, 128)

    def test_reinsert_round_trip_exact(self):
        cfg = fvq.WaveformConfig(num_symbols=3, snr_db=math.inf, seed=5)
        s = fvq.generate(cfg)
        stripped = frontend.remove_cp(s, 1024, 128)
        back = frontend.reinsert_cp(stripped, 1024, 128)
        assert np.array_equal(back.samples, s.samples)

    def test_reinsert_head_equals_tail(self):
        s = _rand_stream(1024)
        out = frontend.reinsert_cp(s, 1024, 128)
        assert len(out) == 1152
        assert np.array_equal(out.samples[:128], out.samples[-128:])

    def test_reinsert_zero_cp_identity(self):
        s = _rand_stream(1024)
        assert np.array_equal(
            frontend.reinsert_cp(s, 1024, 0).samples, s.samples
        )


class TestResample:
    def test_identity_when_factors_equal(self):
        s = _rand_stream(4096)
        spec = frontend.ResamplerSpec(1, 1)
        out = frontend.resample(s, spec, frontend.DECIMATE)
        assert np.array_equal(out.samples, s.samples)

    def test_rejects_k_greater_l_decimate(self):
        with pytest.raises(ContractViolationError):
            frontend.resample(
                _rand_stream(100), frontend.ResamplerSpec(8, 5),
                frontend.DECIMATE,
            )

    def test_factors_reduced_by_gcd(self):
        spec = frontend.ResamplerSpec(10, 16)
        assert (spec.up_factor, spec.down_factor) == (5, 8)

    def test_output_length_and_rate(self):
        s = _rand_stream(1024, rate=Fraction(15_360_000))
        spec = frontend.ResamplerSpec(5, 8)
        out = frontend.resample(s, spec, frontend.DECIMATE)
        assert len(out) == 640
        assert out.sample_rate == Fraction(9_600_000)
        back = frontend.resample(out, spec, frontend.INTERPOLATE)
        assert len(back) == 1024
        assert back.sample_rate == s.sample_rate

    def test_decimation_gain(self):
        assert frontend.ResamplerSpec(5, 8).decimation_gain == pytest.approx(1.6)

    def test_round_trip_distortion_small_in_band(self):
        # 5/8 on an LTE-like corpus stays near the paper's ~1% EVM level
        s = fvq.generate(fvq.WaveformConfig(num_symbols=16, snr_db=5.0, seed=3))
        spec = frontend.ResamplerSpec(5, 8)
        dec = frontend.resample(s, spec, frontend.DECIMATE)
        rec = frontend.resample(dec, spec, frontend.INTERPOLATE)
        rec = rec.with_samples(rec.samples[: len(s)])
        from fvq import metrics

        band = fvq.waveform.subcarrier_indices(1024, 600)
        a = frontend.remove_cp(s, 1024, 128)
        b = frontend.remove_cp(rec, 1024, 128)
        assert metrics.evm_fd(a, b, band, 1024) < 2.0

    def test_periodic_round_trip_cp_removed_downlink(self):
        # each CP-removed symbol is one period; resampled circularly, only
        # the 60 dB Kaiser passband ripple is left in band
        from fvq import metrics

        s = fvq.generate(fvq.WaveformConfig(
            num_symbols=8, snr_db=math.inf, seed=3, link="downlink_ofdm"
        ))
        x = frontend.remove_cp(s, 1024, 128)
        spec = frontend.ResamplerSpec(5, 8)
        dec = frontend.resample(x, spec, frontend.DECIMATE, period=1024)
        assert len(dec) == 8 * 640
        assert dec.sample_rate == s.sample_rate * Fraction(5, 8)
        rec = frontend.resample(dec, spec, frontend.INTERPOLATE, period=640)
        assert len(rec) == len(x)
        band = fvq.waveform.subcarrier_indices(1024, 600)
        assert metrics.evm_fd(x, rec, band, 1024) < 0.1

    def test_periodic_equals_linear_on_repeated_period(self):
        # the periodic output is the linear resampler's steady state on the
        # period repeated end to end
        from scipy import signal

        spec = frontend.ResamplerSpec(5, 8)
        s = _rand_stream(2 * 1024, seed=8)
        out = frontend.resample(s, spec, frontend.DECIMATE, period=1024)
        taps = frontend.design_lowpass(spec, 5, 8)
        for k in range(2):
            period = s.samples[1024 * k : 1024 * (k + 1)]
            linear = signal.resample_poly(np.tile(period, 5), 5, 8, window=taps)
            np.testing.assert_allclose(
                out.samples[640 * k : 640 * (k + 1)],
                linear[2 * 640 : 3 * 640], rtol=0, atol=1e-12,
            )

    def test_periodic_needs_whole_integer_periods(self):
        spec = frontend.ResamplerSpec(5, 8)
        with pytest.raises(ContractViolationError):  # 1020 * 5/8 = 637.5
            frontend.resample(_rand_stream(2040), spec, frontend.DECIMATE,
                              period=1020)
        with pytest.raises(ContractViolationError):  # ragged last period
            frontend.resample(_rand_stream(1500), spec, frontend.DECIMATE,
                              period=1024)


class TestBlockScaling:
    def test_factor_ceil_in_range(self):
        samples = np.full(32, 0.5 + 0.5j)
        samples[3] = 100.3 + 0j
        out, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        assert sf.factors.tolist() == [101]

    def test_factor_saturates(self):
        samples = np.full(32, 300.0 + 0j)
        _, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        assert sf.factors.tolist() == [255]

    def test_all_zero_block_gets_factor_one(self):
        _, sf = frontend.block_scale(IQStream(np.zeros(32, complex)), 32, 8, 6)
        assert sf.factors.tolist() == [1]

    def test_factor_count_and_partial_block(self):
        s = _rand_stream(100)
        _, sf = frontend.block_scale(s, 32, 8, 6)
        assert len(sf.factors) == 4  # ceil(100/32)

    def test_side_info_rate_and_block_duration(self):
        # one factor per 32 samples; at 9.6 MHz a block spans 3.33 us
        s = _rand_stream(640, rate=Fraction(15_360_000) * Fraction(5, 8))
        _, sf = frontend.block_scale(s, 32, 8, 6)
        assert len(sf.factors) == 20
        duration_us = 32 / float(s.sample_rate) * 1e6
        assert duration_us == pytest.approx(3.33, abs=0.01)

    def test_round_trip_relative_error(self):
        s = _rand_stream(1000, seed=9)
        scaled, sf = frontend.block_scale(s, 32, 8, 6)
        back = frontend.block_unscale(scaled, sf, 6)
        err = np.abs(back.samples - s.samples) / np.abs(s.samples)
        assert err.max() < 1e-6

    def test_never_amplifies_past_range(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-200, 200, 256) + 1j * rng.uniform(-200, 200, 256)
        scaled, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        in_range = np.abs(samples.real) <= 255
        comp_max = np.maximum(
            np.abs(scaled.samples.real), np.abs(scaled.samples.imag)
        )
        # blocks whose amplitude fits in q_bs bits never exceed 2^q_vq - 1
        amp = np.maximum(np.abs(samples.real), np.abs(samples.imag))
        blocks = amp.reshape(-1, 32).max(axis=1)
        for b, a in enumerate(blocks):
            if math.ceil(a) <= 255:
                assert comp_max[32 * b : 32 * (b + 1)].max() <= 63.0 + 1e-9

    def test_factor_width_invariant(self):
        s = _rand_stream(320, seed=4)
        _, sf = frontend.block_scale(s, 32, 5, 6)
        assert sf.factors.max() <= 2**5 - 1
        assert sf.factors.min() >= 1

    def test_unscale_count_mismatch(self):
        s = _rand_stream(64)
        scaled, sf = frontend.block_scale(s, 32, 8, 6)
        bad = frontend.ScaleFactors(32, 8, sf.factors[:1])
        with pytest.raises(ContractViolationError):
            frontend.block_unscale(scaled, bad, 6)

    def test_uniform_rescale_when_saturated(self):
        samples = np.full(64, 1000.0 + 1000.0j)
        scaled, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        assert set(sf.factors.tolist()) == {255}
        np.testing.assert_allclose(scaled.samples, samples * 63 / 255)

    def test_single_block_factor_one(self):
        samples = np.full(16, 0.0 + 0j)
        scaled, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        back = frontend.block_unscale(scaled, sf, 6)
        np.testing.assert_array_equal(back.samples, samples)
