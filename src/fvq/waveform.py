"""OFDM / SC-FDM baseband test-signal generation.

Downlink symbols are plain OFDM: Gray-mapped QAM subcarriers -> IFFT ->
cyclic prefix. Uplink symbols are DFT-precoded before subcarrier mapping
(SC-FDM), which keeps the time-domain sample distribution closer to the
underlying constellation, as in LTE.

Used subcarriers sit symmetrically around DC with DC itself unused, so the
occupied band is a contiguous low-pass region and rational decimation with a
cutoff at the new Nyquist edge leaves it intact.

The noiseless stream is normalized to exactly unit average power before noise
injection. All randomness comes from numpy's PCG64 generator; Gaussian noise
uses Generator.standard_normal, which is the ziggurat algorithm. Corpora are
therefore bit-reproducible from (config, seed) alone.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_types
from .iqstream import DEFAULT_SAMPLE_RATE_HZ, IQStream

# Sub-seed tags so the data stream and the noise stream are decoupled: the
# noiseless signal for a given seed is unchanged when snr_db changes.
_DATA_TAG = 0x5149_4441  # "IQDA"
_NOISE_TAG = 0x5149_4E4F  # "IQNO"


class Modulation(str, enum.Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"


class Link(str, enum.Enum):
    DOWNLINK_OFDM = "downlink_ofdm"
    UPLINK_SCFDM = "uplink_scfdm"


# Per-axis amplitude levels in Gray order (adjacent levels differ in one bit
# of the axis label), normalized to unit average symbol energy.
_AXIS_LEVELS = {
    Modulation.QPSK: np.array([-1.0, 1.0]) / math.sqrt(2.0),
    Modulation.QAM16: np.array([-3.0, -1.0, 1.0, 3.0]) / math.sqrt(10.0),
    Modulation.QAM64: np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])
    / math.sqrt(42.0),
}


@dataclass
class WaveformConfig:
    fft_size: int = 1024
    cp_length: int = 128
    used_subcarriers: int = 600
    modulation: Modulation = Modulation.QAM64
    snr_db: float = math.inf
    num_symbols: int = 14
    seed: int = 0
    link: Link = Link.UPLINK_SCFDM

    def __post_init__(self):
        check_types(self, vars(self))
        self.modulation = Modulation(self.modulation)
        self.link = Link(self.link)
        if self.fft_size < 1:
            raise ContractViolationError("fft_size must be positive")
        if self.used_subcarriers < 1 or self.used_subcarriers > self.fft_size:
            raise ContractViolationError(
                "used_subcarriers must be in 1..fft_size"
            )
        if self.cp_length < 0 or self.cp_length >= self.fft_size:
            raise ContractViolationError("cp_length must be in 0..fft_size-1")
        if self.num_symbols < 0:
            raise ContractViolationError("num_symbols must be >= 0")
        if self.seed < 0:
            raise ContractViolationError("seed must be >= 0")

    @property
    def symbol_length(self) -> int:
        return self.fft_size + self.cp_length


def subcarrier_indices(fft_size: int, used_subcarriers: int) -> np.ndarray:
    """FFT bin indices of the utilized band: symmetric around DC, DC unused.

    The positive half gets ceil(used/2) bins starting at bin 1; the negative
    half gets the remainder ending at bin fft_size-1.
    """
    if used_subcarriers > fft_size:
        raise ContractViolationError("used_subcarriers exceeds fft_size")
    n_pos = (used_subcarriers + 1) // 2
    n_neg = used_subcarriers // 2
    pos = np.arange(1, n_pos + 1)
    neg = np.arange(fft_size - n_neg, fft_size)
    return np.concatenate([pos, neg])


def _derived_seed(seed: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(tag,))


def _draw_qam(rng, shape, modulation) -> np.ndarray:
    levels = _AXIS_LEVELS[modulation]
    i = levels[rng.integers(0, len(levels), size=shape)]
    q = levels[rng.integers(0, len(levels), size=shape)]
    return i + 1j * q


def generate(config: WaveformConfig) -> IQStream:
    """Generate a CP-OFDM (downlink) or SC-FDM (uplink) sample stream.

    Deterministic for a fixed config; the noiseless signal has average power
    exactly 1.0 and AWGN is then added at config.snr_db (math.inf disables
    noise).
    """
    n_sym = config.num_symbols
    rate = DEFAULT_SAMPLE_RATE_HZ * config.fft_size // 1024
    if n_sym == 0:
        return IQStream(np.zeros(0, dtype=np.complex128), rate)

    rng = np.random.Generator(
        np.random.PCG64(_derived_seed(config.seed, _DATA_TAG))
    )
    syms = _draw_qam(rng, (n_sym, config.used_subcarriers), config.modulation)
    if config.link is Link.UPLINK_SCFDM:
        # DFT precoding across the allocated subcarriers.
        syms = np.fft.fft(syms, axis=1) / math.sqrt(config.used_subcarriers)

    grid = np.zeros((n_sym, config.fft_size), dtype=np.complex128)
    grid[:, subcarrier_indices(config.fft_size, config.used_subcarriers)] = syms
    body = np.fft.ifft(grid, axis=1)

    tail = body[:, config.fft_size - config.cp_length :]
    body = np.concatenate([tail, body], axis=1)
    samples = body.ravel()
    samples = samples / math.sqrt(np.mean(np.abs(samples) ** 2))

    clean = IQStream(samples, rate)
    if math.isinf(config.snr_db):
        return clean
    noise_seed = _derived_seed(config.seed, _NOISE_TAG)
    return _add_awgn_seeded(clean, config.snr_db, noise_seed)


def add_awgn(stream: IQStream, snr_db: float, seed: int) -> IQStream:
    """Add circularly-symmetric complex Gaussian noise at snr_db relative to
    the stream's measured power. snr_db = math.inf returns an identical copy.
    """
    return _add_awgn_seeded(stream, snr_db, np.random.SeedSequence(int(seed)))


def _add_awgn_seeded(stream, snr_db, seed_seq) -> IQStream:
    if len(stream) == 0:
        raise ContractViolationError("cannot add noise to an empty stream")
    if math.isinf(snr_db):
        if snr_db < 0:
            raise ContractViolationError("snr_db = -inf is not meaningful")
        return stream.with_samples(stream.samples.copy())
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    p_noise = stream.power * 10.0 ** (-snr_db / 10.0)
    scale = math.sqrt(p_noise / 2.0)
    noise = scale * (
        rng.standard_normal(len(stream)) + 1j * rng.standard_normal(len(stream))
    )
    return stream.with_samples(stream.samples + noise)


def apply_static_multipath(
    stream: IQStream, seed: int, num_taps: int = 3, decay_db: float = 6.0
) -> IQStream:
    """Convolve with a fixed (non-fading) multipath response, then renormalize.

    Corpus flavoring for channel-mismatch studies: tap magnitudes follow an
    exponential decay of decay_db per tap, phases are drawn once from the
    seed. No time variation or Doppler.
    """
    if len(stream) == 0:
        raise ContractViolationError("empty stream")
    if num_taps < 1:
        raise ContractViolationError("num_taps must be >= 1")
    rng = np.random.default_rng([int(seed), 0x4D50])
    mags = 10.0 ** (-decay_db * np.arange(num_taps) / 20.0)
    phases = np.exp(2j * np.pi * rng.random(num_taps))
    h = mags * phases
    h /= np.linalg.norm(h)
    out = np.convolve(stream.samples, h)[: len(stream)]
    out /= math.sqrt(np.mean(np.abs(out) ** 2) / max(stream.power, 1e-300))
    return stream.with_samples(out)
