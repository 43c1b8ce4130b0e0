"""Lossy-lite DSP stages around the quantizer and their inverses.

Cyclic-prefix removal/reinsertion, rational-rate resampling (upsample by K,
low-pass, downsample by L), and per-block scaling (AGC) with quantized
integer scale factors.

The resampler low-pass is a linear-phase windowed-sinc FIR with a Kaiser
window. The prototype is designed at the upsampled rate with filter_taps taps
per polyphase branch, i.e. filter_taps * max(K, L) taps total, cutoff at the
narrower of the two Nyquist edges. Group delay is compensated inside the
polyphase engine so input and output streams align sample-for-sample.

A CP-removed downlink stream is a run of whole symbols, each one period of a
band-limited signal, with nothing to absorb the filter transient where two
symbols meet. `resample` therefore takes an optional period: each period is
extended circularly by at least the filter's half-span (wrapping as many
periods as that needs) and resampled on its own, so the output is the exact
rate change of every symbol's periodic extension.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import ContractViolationError
from .iqstream import IQStream

DECIMATE = "decimate"
INTERPOLATE = "interpolate"


@dataclass
class ResamplerSpec:
    """Rational rate-change spec: output rate = input rate * K/L (decimate)."""

    up_factor: int
    down_factor: int
    filter_taps: int = 127
    stopband_atten_db: float = 60.0

    def __post_init__(self):
        if self.up_factor < 1 or self.down_factor < 1:
            raise ContractViolationError("rate factors must be positive")
        g = math.gcd(self.up_factor, self.down_factor)
        self.up_factor //= g
        self.down_factor //= g
        if self.filter_taps < 1 or self.filter_taps % 2 == 0:
            raise ContractViolationError("filter_taps must be odd and positive")
        if self.stopband_atten_db <= 0:
            raise ContractViolationError("stopband_atten_db must be positive")

    @property
    def decimation_gain(self) -> float:
        """Rate-reduction factor L/K."""
        return self.down_factor / self.up_factor


@dataclass(eq=False)
class ScaleFactors:
    """Per-block integer gains; factor count = ceil(M / n_bs)."""

    n_bs: int
    q_bs: int
    factors: np.ndarray

    def __post_init__(self):
        if self.n_bs < 1 or self.q_bs < 1:
            raise ContractViolationError("n_bs and q_bs must be positive")
        self.factors = np.asarray(self.factors, dtype=np.uint64)
        if self.factors.size and (
            int(self.factors.min()) < 1
            or int(self.factors.max()) > 2**self.q_bs - 1
        ):
            raise ContractViolationError(
                f"scale factors must lie in 1..2^{self.q_bs}-1"
            )


def remove_cp(stream: IQStream, l_sym: int, l_cp: int) -> IQStream:
    """Drop the first l_cp samples of every (l_sym + l_cp)-sample symbol."""
    if l_sym < 1 or l_cp < 0:
        raise ContractViolationError("bad symbol geometry")
    step = l_sym + l_cp
    if len(stream) % step:
        raise ContractViolationError(
            f"stream length {len(stream)} not divisible by {step}"
        )
    if l_cp == 0:
        return stream.with_samples(stream.samples.copy())
    body = stream.samples.reshape(-1, step)[:, l_cp:]
    return stream.with_samples(body.ravel())


def reinsert_cp(stream: IQStream, l_sym: int, l_cp: int) -> IQStream:
    """Prepend each l_sym-sample symbol's tail as its cyclic prefix."""
    if l_sym < 1 or l_cp < 0:
        raise ContractViolationError("bad symbol geometry")
    if len(stream) % l_sym:
        raise ContractViolationError(
            f"stream length {len(stream)} not divisible by {l_sym}"
        )
    if l_cp == 0:
        return stream.with_samples(stream.samples.copy())
    body = stream.samples.reshape(-1, l_sym)
    out = np.concatenate([body[:, -l_cp:], body], axis=1)
    return stream.with_samples(out.ravel())


def cp_removal_gain(l_sym: int, l_cp: int) -> float:
    return (l_sym + l_cp) / l_sym


def design_lowpass(spec: ResamplerSpec, up: int, down: int) -> np.ndarray:
    """Windowed-sinc Kaiser prototype for one rate-change direction."""
    max_rate = max(up, down)
    n_taps = spec.filter_taps * max_rate
    if n_taps % 2 == 0:
        n_taps += 1
    beta = signal.kaiser_beta(spec.stopband_atten_db)
    return signal.firwin(n_taps, 1.0 / max_rate, window=("kaiser", beta))


def resample(
    stream: IQStream, spec: ResamplerSpec, direction: str, period: int = None
) -> IQStream:
    """Rational resampling; decimate uses (K, L), interpolate swaps them.

    Output length is ceil(M * up / down) with the filter's group delay
    compensated, so a decimate -> interpolate round trip aligns with the
    input sample-for-sample after trimming to the original length.

    With `period`, the stream must be whole periods of that many samples and
    period * up / down must be an integer; each period is resampled
    circularly (see the module docstring) to exactly period * up / down
    samples.
    """
    if len(stream) == 0:
        raise ContractViolationError("cannot resample an empty stream")
    if direction == DECIMATE:
        up, down = spec.up_factor, spec.down_factor
        if up > down:
            raise ContractViolationError("decimation requires K < L")
    elif direction == INTERPOLATE:
        up, down = spec.down_factor, spec.up_factor
    else:
        raise ContractViolationError(f"unknown direction {direction!r}")
    if period is not None and (
        period < 1 or len(stream) % period or period * up % down
    ):
        raise ContractViolationError(
            f"periodic resampling needs whole {period}-sample periods and an "
            f"integer period * {up}/{down}"
        )
    new_rate = stream.sample_rate * Fraction(up, down)
    if up == down:
        return stream.with_samples(stream.samples.copy(), new_rate)
    taps = design_lowpass(spec, up, down)
    if period is None:
        out = signal.resample_poly(stream.samples, up, down, window=taps)
        return stream.with_samples(out, new_rate)
    # Circular extension: `pad` input samples each side, a multiple of down
    # so the kept output block starts on an output sample, and at least one
    # sample past the half-span of the filter at the input rate.
    half_span = (len(taps) - 1) // 2 / up
    pad = down * math.ceil((half_span + 1) / down)
    wrap = np.arange(-pad, period + pad) % period
    rows = stream.samples.reshape(-1, period)[:, wrap]
    out = signal.resample_poly(rows, up, down, axis=1, window=taps)
    start = pad * up // down
    out = out[:, start : start + period * up // down]
    return stream.with_samples(out.ravel(), new_rate)


def block_scale(
    stream: IQStream, n_bs: int, q_bs: int, q_vq: int
) -> tuple[IQStream, ScaleFactors]:
    """Scale each n_bs-sample block so its peak component maps near 2^q_vq - 1.

    The per-block amplitude A(b) is the largest |I| or |Q| in the block; the
    transmitted factor is S(b) = ceil(A(b)) clamped to 1..2^q_bs - 1 (an
    all-zero block gets S(b) = 1), and samples are multiplied by
    (2^q_vq - 1) / S(b). The final partial block is scaled like any other.
    """
    if q_bs < 1 or q_vq < 1 or n_bs < 1:
        raise ContractViolationError("n_bs, q_bs, q_vq must be positive")
    m = len(stream)
    n_blocks = -(-m // n_bs)
    peak = np.maximum(np.abs(stream.samples.real), np.abs(stream.samples.imag))
    padded = np.zeros(n_blocks * n_bs)
    padded[:m] = peak
    amp = padded.reshape(n_blocks, n_bs).max(axis=1)
    factors = np.clip(np.ceil(amp), 1, 2**q_bs - 1).astype(np.uint64)
    gain = (2**q_vq - 1) / factors.astype(np.float64)
    out = stream.samples * np.repeat(gain, n_bs)[:m]
    return stream.with_samples(out), ScaleFactors(n_bs, q_bs, factors)


def block_unscale(
    stream: IQStream, factors: ScaleFactors, q_vq: int
) -> IQStream:
    """Invert block_scale: multiply each block by S(b) / (2^q_vq - 1)."""
    if q_vq < 1:
        raise ContractViolationError("q_vq must be positive")
    m = len(stream)
    n_blocks = -(-m // factors.n_bs)
    if n_blocks != len(factors.factors):
        raise ContractViolationError(
            f"factor count {len(factors.factors)} does not match "
            f"{n_blocks} blocks"
        )
    gain = factors.factors.astype(np.float64) / (2**q_vq - 1)
    out = stream.samples * np.repeat(gain, factors.n_bs)[:m]
    return stream.with_samples(out)
