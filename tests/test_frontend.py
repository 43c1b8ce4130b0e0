import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import signal

import fvq
from fvq import frontend
from fvq.errors import ContractViolationError
from fvq.iqstream import IQStream


def _rand_stream(n, seed=0, rate=Fraction(15_360_000)):
    rng = np.random.default_rng(seed)
    return IQStream(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate)


def _complex_resample(samples, spec, up, down, period=None):
    """Reference: the resampler as one complex resample_poly call, with the
    Kaiser prototype designed afresh."""
    max_rate = max(up, down)
    n_taps = spec.filter_taps * max_rate
    if n_taps % 2 == 0:
        n_taps += 1
    beta = signal.kaiser_beta(spec.stopband_atten_db)
    taps = signal.firwin(n_taps, 1.0 / max_rate, window=("kaiser", beta))
    if period is None:
        return signal.resample_poly(samples, up, down, window=taps)
    half_span = (len(taps) - 1) // 2 / up
    pad = down * math.ceil((half_span + 1) / down)
    wrap = np.arange(-pad, period + pad) % period
    rows = samples.reshape(-1, period)[:, wrap]
    out = signal.resample_poly(rows, up, down, axis=1, window=taps)
    start = pad * up // down
    return out[:, start : start + period * up // down].ravel()


def _signal_kinds(n, seed):
    """Complex, all-zero (both signs), purely real and purely imaginary."""
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    return {
        "complex": re + 1j * im,
        "zero": np.zeros(n, complex),
        "negative-zero": np.full(n, complex(-0.0, -0.0)),
        "real": re + 0j,
        "imaginary": 1j * im,  # real parts are +0 and -0
    }


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


RATIOS = [(5, 8), (3, 4), (2, 3), (1, 2), (4, 5)]


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

    def test_reinsert_prefix_longer_than_symbol_refused(self):
        # a cyclic prefix is a copy of the symbol's tail, so at most l_sym
        with pytest.raises(ContractViolationError, match="geometry"):
            frontend.reinsert_cp(_rand_stream(8), 4, 5)


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

    @pytest.mark.parametrize("direction", [frontend.DECIMATE,
                                           frontend.INTERPOLATE])
    @pytest.mark.parametrize("filter_taps", [31, 127])
    @pytest.mark.parametrize("k,l", RATIOS)
    def test_bit_identical_to_complex_filter(self, k, l, filter_taps,
                                             direction):
        # I and Q filtered as real rows give the complex filter's bits
        spec = frontend.ResamplerSpec(k, l, filter_taps)
        up, down = (k, l) if direction == frontend.DECIMATE else (l, k)
        n_taps = filter_taps * max(k, l)
        # shorter than the filter, and several filter spans long
        for n in (1, 7, n_taps // 2, 3 * n_taps + 5):
            for x in _signal_kinds(n, seed=n).values():
                out = frontend.resample(IQStream(x), spec, direction)
                _assert_same_bits(
                    out.samples, _complex_resample(x, spec, up, down)
                )
        # periods shorter than the circular pad, and LTE-sized ones
        for period in (down, 3 * down, 128 * down):
            for n_periods in range(1, 15) if period < 128 * down else (1, 3):
                n = period * n_periods
                for x in _signal_kinds(n, seed=n).values():
                    out = frontend.resample(IQStream(x), spec, direction,
                                            period=period)
                    _assert_same_bits(
                        out.samples,
                        _complex_resample(x, spec, up, down, period),
                    )

    def test_filter_designed_once_per_spec(self):
        spec = frontend.ResamplerSpec(5, 8)
        taps = frontend.design_lowpass(spec, 5, 8)
        assert frontend.design_lowpass(frontend.ResamplerSpec(5, 8), 5, 8) \
            is taps
        # reduced by gcd to the same design
        assert frontend.design_lowpass(frontend.ResamplerSpec(10, 16), 5, 8) \
            is taps
        with pytest.raises(ValueError):
            taps[0] = 1.0
        for other in (frontend.ResamplerSpec(5, 8, filter_taps=31),
                      frontend.ResamplerSpec(5, 8, stopband_atten_db=80.0)):
            assert not np.array_equal(
                frontend.design_lowpass(other, 5, 8), taps
            )

    def test_periodic_needs_whole_integer_periods(self):
        spec = frontend.ResamplerSpec(5, 8)
        with pytest.raises(ContractViolationError):  # 1020 * 5/8 = 637.5
            frontend.resample(_rand_stream(2040), spec, frontend.DECIMATE,
                              period=1020)
        with pytest.raises(ContractViolationError):  # ragged last period
            frontend.resample(_rand_stream(1500), spec, frontend.DECIMATE,
                              period=1024)


def _one_call(samples, spec, up, down, period=None):
    """Reference: the resampler's stacked real rows (every period's I rows,
    then its Q rows) through one resample_poly call."""
    taps = frontend.design_lowpass(spec, up, down)
    if period is None:
        rows = samples[np.newaxis]
    else:
        half_span = (len(taps) - 1) // 2 / up
        pad = down * math.ceil((half_span + 1) / down)
        rows = samples.reshape(-1, period)[:, np.arange(-pad, period + pad)
                                           % period]
    rails = signal.resample_poly(np.concatenate([rows.real, rows.imag]), up,
                                 down, axis=-1, window=taps)
    if period is not None:
        start = pad * up // down
        rails = rails[:, start : start + period * up // down]
    out = np.empty((len(rows), rails.shape[1]), dtype=complex)
    out.real, out.imag = rails[: len(rows)], rails[len(rows) :]
    return out.ravel()


@pytest.fixture
def see_cpus(monkeypatch):
    """Make the resampler see `n` CPUs; the real count is read again after
    the test."""
    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        frontend._cpu_count.cache_clear()

    yield see
    frontend._cpu_count.cache_clear()


class TestRowGroups:
    """The rows are filtered in one group per CPU with the bits of one
    call over all of them."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("direction", [frontend.DECIMATE,
                                           frontend.INTERPOLATE])
    @pytest.mark.parametrize("period", [None, 1024])
    def test_same_bits_as_one_call(self, see_cpus, monkeypatch, cpus,
                                   direction, period):
        spec = frontend.ResamplerSpec(5, 8)
        up, down = (5, 8) if direction == frontend.DECIMATE else (8, 5)
        if direction == frontend.INTERPOLATE and period is not None:
            period = 640
        # 2 rails on the linear path; 2 x 5 = 10 periodic rows, which 3
        # groups do not divide
        x = _rand_stream(5 * 1024, seed=cpus).samples
        want = _one_call(x, spec, up, down, period)
        see_cpus(cpus)
        resample_poly = signal.resample_poly
        groups = []

        def spy(x, *args, **kwargs):
            groups.append(len(x))
            return resample_poly(x, *args, **kwargs)

        monkeypatch.setattr(signal, "resample_poly", spy)
        out = frontend.resample(IQStream(x), spec, direction, period=period)
        rows = 2 if period is None else 2 * len(x) // period
        assert sorted(groups, reverse=True) == [
            len(g) for g in np.array_split(np.empty(rows), min(cpus, rows))
        ]
        _assert_same_bits(out.samples, want)

    def test_concurrent_callers_get_serial_results(self, see_cpus):
        see_cpus(3)
        spec = frontend.ResamplerSpec(5, 8)
        inputs = [_rand_stream(14 * 1024, seed=s) for s in range(4)]
        want = [_one_call(x.samples, spec, 5, 8, 1024) for x in inputs]
        got = [[] for _ in inputs]
        start = threading.Barrier(4)

        def work(i):
            start.wait()
            for _ in range(5):
                got[i].append(frontend.resample(
                    inputs[i], spec, frontend.DECIMATE, period=1024
                ).samples)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for outs, w in zip(got, want):
            assert len(outs) == 5
            for out in outs:
                _assert_same_bits(out, w)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rail", ["I", "Q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad, rail):
        samples = _rand_stream(100).samples
        samples[37] = complex(bad, 0.5) if rail == "I" else complex(0.5, bad)
        with pytest.raises(ContractViolationError, match="must be finite"):
            frontend.block_scale(IQStream(samples), 32, 8, 6)

    def test_single_block_factor_one(self):
        samples = np.full(16, 0.0 + 0j)
        scaled, sf = frontend.block_scale(IQStream(samples), 32, 8, 6)
        back = frontend.block_unscale(scaled, sf, 6)
        np.testing.assert_array_equal(back.samples, samples)
