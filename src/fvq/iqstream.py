"""Complex baseband sample container and the IQF1 file format.

IQF1 layout (all integers little-endian):

    offset  size  field
    0       8     magic  b"IQF1\\x00\\x00\\x00\\x00"
    8       4     sample count M (uint32)
    12      8     sample-rate numerator (uint64)
    20      8     sample-rate denominator (uint64)
    28      8*M   M pairs of float32 (I, Q)
"""

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError, FormatError

IQF1_MAGIC = b"IQF1\x00\x00\x00\x00"

# LTE 10 MHz sampling rate (1024-point FFT grid), the default rate of a
# stream and the rate of a generated corpus on a 1024-point grid.
DEFAULT_SAMPLE_RATE_HZ = 15_360_000


@dataclass(eq=False)
class IQStream:
    """Complex baseband samples and their rate, nothing else: what made a
    stream is recorded in the resolved profile (the CLI's .meta.json
    sidecar), not in the stream. Compared by identity, since its samples
    are an array."""

    samples: np.ndarray
    sample_rate: Fraction = Fraction(DEFAULT_SAMPLE_RATE_HZ)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ContractViolationError("IQStream samples must be 1-D")
        if not isinstance(self.sample_rate, Fraction):
            self.sample_rate = Fraction(self.sample_rate)

    def __len__(self):
        return len(self.samples)

    @property
    def power(self) -> float:
        """Mean |sample|^2, 0.0 for an empty stream."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def with_samples(self, samples, sample_rate=None) -> "IQStream":
        rate = self.sample_rate if sample_rate is None else sample_rate
        return IQStream(samples, rate)


def write_iqf1(stream: IQStream, path) -> None:
    m = len(stream)
    if m >= 2**32:
        raise ContractViolationError("IQF1 holds at most 2^32-1 samples")
    rate = stream.sample_rate
    header = IQF1_MAGIC + struct.pack(
        "<IQQ", m, rate.numerator, rate.denominator
    )
    interleaved = np.empty(2 * m, dtype="<f4")
    interleaved[0::2] = stream.samples.real
    interleaved[1::2] = stream.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved.tobytes())


def read_iqf1(path) -> IQStream:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 28:
        raise FormatError(f"{path}: truncated IQF1 header")
    if data[:8] != IQF1_MAGIC:
        raise FormatError(f"{path}: bad IQF1 magic")
    m, num, den = struct.unpack_from("<IQQ", data, 8)
    if den == 0:
        raise FormatError(f"{path}: zero sample-rate denominator")
    body = data[28:]
    if len(body) != 8 * m:
        raise FormatError(
            f"{path}: expected {8 * m} payload bytes, found {len(body)}"
        )
    interleaved = np.frombuffer(body, dtype="<f4")
    if not np.isfinite(interleaved).all():
        raise FormatError(f"{path}: samples must be finite")
    samples = interleaved[0::2].astype(np.float64) + 1j * interleaved[
        1::2
    ].astype(np.float64)
    return IQStream(samples, Fraction(int(num), int(den)))
