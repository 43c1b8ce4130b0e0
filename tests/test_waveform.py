import math

import numpy as np
import pytest

import fvq
from fvq import waveform
from fvq.errors import ContractViolationError


def test_empty_stream():
    cfg = fvq.WaveformConfig(num_symbols=0)
    assert len(fvq.generate(cfg)) == 0


def test_stream_length_14_symbols():
    cfg = fvq.WaveformConfig(fft_size=1024, cp_length=128, num_symbols=14)
    assert len(fvq.generate(cfg)) == 14 * 1152 == 16128


def test_rejects_too_many_subcarriers():
    with pytest.raises(ContractViolationError):
        fvq.WaveformConfig(fft_size=256, used_subcarriers=300)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("num_symbols", True), ("snr_db", "5"), ("modulation", 5),
])
def test_value_of_the_wrong_type_refused(field, value):
    with pytest.raises(ContractViolationError, match=f"{field} must be"):
        fvq.WaveformConfig(**{field: value})


def test_numpy_scalars_allowed():
    cfg = fvq.WaveformConfig(num_symbols=np.int64(2), snr_db=np.float32(5.0))
    assert len(fvq.generate(cfg)) == 2 * cfg.symbol_length


def test_unit_power_noiseless():
    for link in ("downlink_ofdm", "uplink_scfdm"):
        s = fvq.generate(
            fvq.WaveformConfig(num_symbols=10, snr_db=math.inf, link=link, seed=2)
        )
        assert s.power == pytest.approx(1.0, abs=1e-6)


def test_cp_consistency_exact():
    s = fvq.generate(
        fvq.WaveformConfig(num_symbols=6, snr_db=math.inf, seed=4)
    )
    sym = s.samples.reshape(6, 1152)
    assert np.array_equal(sym[:, :128], sym[:, -128:])


def test_spectral_occupancy_downlink():
    cfg = fvq.WaveformConfig(
        num_symbols=4, snr_db=math.inf, link="downlink_ofdm", seed=7
    )
    s = fvq.generate(cfg)
    body = s.samples.reshape(4, 1152)[:, 128:]
    spec = np.abs(np.fft.fft(body, axis=1)) ** 2
    used = waveform.subcarrier_indices(1024, 600)
    unused = np.setdiff1d(np.arange(1024), used)
    peak = spec.max()
    assert spec[:, unused].max() < peak * 10 ** (-60 / 10)


def test_measured_snr():
    # >= 1e5 samples; compare generator's own signal and noise components
    cfg = fvq.WaveformConfig(num_symbols=90, snr_db=5.0, seed=9)
    noisy = fvq.generate(cfg)
    assert len(noisy) >= 10**5
    clean_cfg = fvq.WaveformConfig(num_symbols=90, snr_db=math.inf, seed=9)
    clean = fvq.generate(clean_cfg)
    noise = noisy.samples - clean.samples
    snr = 10 * np.log10(clean.power / np.mean(np.abs(noise) ** 2))
    assert snr == pytest.approx(5.0, abs=0.2)


def test_add_awgn_inf_identity():
    s = fvq.generate(fvq.WaveformConfig(num_symbols=2, seed=1))
    out = fvq.add_awgn(s, math.inf, seed=42)
    assert np.array_equal(out.samples, s.samples)


def test_add_awgn_zero_db_noise_power():
    s = fvq.generate(
        fvq.WaveformConfig(num_symbols=90, snr_db=math.inf, seed=3)
    )
    out = fvq.add_awgn(s, 0.0, seed=5)
    noise = out.samples - s.samples
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.02)


def test_add_awgn_deterministic():
    s = fvq.generate(fvq.WaveformConfig(num_symbols=3, seed=6))
    a = fvq.add_awgn(s, 10.0, seed=77)
    b = fvq.add_awgn(s, 10.0, seed=77)
    assert np.array_equal(a.samples, b.samples)


def test_add_awgn_empty_rejected():
    empty = fvq.IQStream(np.zeros(0, dtype=complex))
    with pytest.raises(ContractViolationError):
        fvq.add_awgn(empty, 5.0, seed=1)


def test_generate_deterministic():
    cfg = fvq.WaveformConfig(num_symbols=5, snr_db=7.5, seed=123)
    assert np.array_equal(fvq.generate(cfg).samples, fvq.generate(cfg).samples)


def test_noise_decoupled_from_signal():
    # same seed, different SNR: identical underlying signal component
    noisy = fvq.generate(fvq.WaveformConfig(num_symbols=3, snr_db=0.0, seed=8))
    clean = fvq.generate(
        fvq.WaveformConfig(num_symbols=3, snr_db=math.inf, seed=8)
    )
    noise = noisy.samples - clean.samples
    assert np.mean(np.abs(noise) ** 2) > 0.5  # real noise was injected


def test_static_multipath_power_preserved():
    s = fvq.generate(fvq.WaveformConfig(num_symbols=6, snr_db=5.0, seed=2))
    out = waveform.apply_static_multipath(s, seed=4)
    assert len(out) == len(s)
    assert out.power == pytest.approx(s.power, rel=1e-9)
