"""Compression/decompression chain composition and the CPZ1 bitstream.

Stage order on the compress side: cyclic-prefix removal (downlink only) ->
decimation -> block scaling -> quantization -> entropy coding.
`frontend_stages` lists the pre-quantizer stages a profile enables, in that
order; each gives its `gain`, its output length and rate (`size`), `forward`
(block scaling appends section kind 1 there) and `inverse`. `decompress`
walks the sizes forward from the header's M and rate, refuses a header whose
M_dec they do not reach or whose permutation seed is not the profile's
vector_seed, and checks each stage's input length on the way back.

CPZ1 frame layout (little-endian):

    offset  size  field
    0       4     magic b"CPZ1"
    4       1     version (1)
    5       1     section count
    6       2     reserved
    8       8     profile digest (uint64)
    16      8     original sample count M
    24      8     post-frontend sample count M_dec
    32      8     sample-rate numerator
    40      8     sample-rate denominator
    48      8     vectorizer permutation seed
    56      8     raw-mode scale (float64, 0 when unused)
    64      20*n  section descriptors {kind u8, pad u8[3], item count u64,
                  bit length u64}
    ...           section payloads, each padded to a byte boundary

Per-section padding bits are zeros and are counted in the descriptors, not in
compression-ratio accounting; the fixed header is O(1) per stream and is
excluded from CR as well.

Theorem-style rate accounting: the composed ratio is
1 / (1/(CR_CPR * CR_DEC * CR_Q) + side-info term). The block-scaling side
information is emitted per N_BS *decimated* samples, so the side term used
for the runtime accounting check is B_BS / (2 Q0 N_BS CR_CPR CR_DEC), where
B_BS is the emitted bits per scale factor: Q_BS with entropy coding off, the
Huffman-coded factor section (in-section table included) over the factor
count with it on, just as CR_EC uses the emitted L_HUFF. `theorem_cr`
exposes the textbook composition with a fixed Q_BS-bit side term expressed
per N_BS input samples.

With CP removal the resampler treats each l_sym-sample symbol as one period
(see `frontend.resample`), which needs l_sym * K / L to be an integer.

Quantizers. Everything that differs between vq, msvq, upmgq and raw sits in
the profile's quantizer spec, behind one interface that `compress`,
`decompress`, `train_for_profile` and the CLI call: `check` (codebook type
and geometry), `train` (the artifact; None for raw), `quantize` (append the
kind's sections to a Bitstream and fill in its vector count, stored
codewords and search counters), `dequantize` (sections back to the
block-scaled stream) and `gain_stats` (the quantizer's gains in the CR
accounting). Codebook files are `artifacts`' alone. VQ and MSVQ share
`_IndexQuantizer`. Adding a quantizer is one spec class plus its
`_QUANTIZER_KINDS` entry.

Sections. One codec writes (`_section`) and reads (`_read_section`) every
quantizer section, the raw samples and fixed-width scale factors. Its table
is None for fixed `width`-bit codes, a codebook's `table`, or IN_SECTION
for a table serialized ahead of the codes (UPMGQ's G3 under `g3_entropy`).
A quantizer lists its streams as (section kind, code width, components per
code, table); UPMGQ's signs (G1) are a 1-bit fixed stream.
"""

import hashlib
import json
import logging
import math
import struct
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import entropy as ec
from . import frontend, msvq, upmgq, vq_core
from .bitio import (
    concat_bits,
    pack_bit_array,
    pack_fixed,
    unpack_bit_array,
    unpack_fixed,
)
from .errors import (
    ContractViolationError,
    DigestMismatchError,
    MalformedBitstreamError,
    check_types,
)
from .iqstream import IQStream
from .metrics import EvalReport, complexity_counters, evm_fd, evm_td
from .msvq import MsvqCodebook, dequantize_msvq, quantize_msvq
from .upmgq import (
    UpmgqCodebook,
    UpmgqConfig,
    UpmgqIndices,
    dequantize_upmgq,
    quantize_upmgq,
)
from .vectorizer import VectorBatch, VectorLayout, devectorize, vectorize
from .vq_core import Codebook, SearchCounter
from .waveform import subcarrier_indices

log = logging.getLogger(__name__)

CPZ1_MAGIC = b"CPZ1"
_CPZ1_VERSION = 1

DOWNLINK = "downlink"
UPLINK = "uplink"

SEC_SCALE = 1
SEC_VQ_IDX = 2
SEC_MSVQ_I1 = 3
SEC_MSVQ_I2 = 4
SEC_SIGN = 5
SEC_G2 = 6
SEC_G3 = 7
SEC_RAW = 8


def _vectors(x: IQStream, profile, l: int) -> np.ndarray:
    return vectorize(x, profile.vector_method, l, profile.vector_seed).vectors


def _require(codebooks, cls, kind: str):
    if not isinstance(codebooks, cls):
        raise ContractViolationError(f"{kind} profile needs a {cls.__name__}")


class _IndexQuantizer:
    """VQ and MSVQ: vectors of `l` components, searched stage by stage, one
    index section per stage. A subclass gives `streams` (per stage, as in
    `_read_streams`; with entropy coding off the codebook is not read),
    `search` (every stage's indices) and `reconstruct` (vectors from them)."""

    min_q0 = 1

    def __post_init__(self):
        # the CR accounting divides by the summed index width
        if sum(w for _, w, _, _ in self.streams(None, False)) == 0:
            raise ContractViolationError(
                f"{self.kind} quantizer has no index bits"
            )

    def quantize(self, x, profile, cb, bits, counter):
        vecs = _vectors(x, profile, self.l)
        indices = self.search(cb, vecs, counter)
        _write_streams(bits, self.streams(cb, profile.entropy_coding), indices)
        bits.stats.n_vectors = len(vecs)
        bits.stats.stored_codewords = cb.stored_codewords
        if counter is not None:
            bits.stats.search_counters[self.kind] = counter

    def dequantize(self, bits, profile, cb, rate):
        indices = _read_streams(bits, self.streams(cb, profile.entropy_coding))
        batch = VectorBatch(
            self.l, self.reconstruct(cb, *indices), profile.vector_method,
            permutation_seed=profile.vector_seed,
            original_count=2 * bits.m_dec,
        )
        return devectorize(batch, rate)

    def gain_stats(self, stats, q0):
        streams = self.streams(None, False)
        width = sum(w for _, w, _, _ in streams)
        idx_bits = sum(stats.section_bits[k] for k, _, _, _ in streams)
        stats.l_huff_emitted = idx_bits / max(stats.n_vectors, 1)
        cr_ec = width / stats.l_huff_emitted if stats.l_huff_emitted > 0 else 1.0
        stats.quantizer_gain = q0 * self.l / width * cr_ec  # CR_VQ * CR_EC


@dataclass
class VqSpec(_IndexQuantizer):
    l_vq: int = 2
    q_vq: int = 6

    kind = "vq"

    @property
    def scale_bits(self):
        return self.q_vq

    @property
    def l(self):
        return self.l_vq

    def streams(self, cb, use_ec):
        table = cb.table if use_ec else None
        return [(SEC_VQ_IDX, self.l_vq * self.q_vq, self.l_vq, table)]

    def check(self, cb):
        _require(cb, Codebook, self.kind)
        if (cb.l_vq, cb.q_vq) != (self.l_vq, self.q_vq):
            raise ContractViolationError(
                f"codebook geometry ({cb.l_vq},{cb.q_vq}) != "
                f"profile ({self.l_vq},{self.q_vq})"
            )

    def train(self, x, profile, trainer, trials, stop, seed):
        train = vq_core.trainer(trainer)
        cb = train(_vectors(x, profile, self.l), self.q_vq, trials, stop, seed)
        meta = cb.training_meta
        for t, d in enumerate(meta.trial_distortions):
            marker = " (rescaled init)" if trainer == vq_core.MODIFIED and t else ""
            log.info("trial %d: distortion %.6g%s", t, d, marker)
        log.info("final distortion %.6g after %d iterations",
                 meta.final_distortion, meta.iterations)
        return cb

    def search(self, cb, vecs, counter):
        return [vq_core.quantize_batch(cb, vecs, counter)]

    def reconstruct(self, cb, idx):
        return vq_core.dequantize_batch(cb, idx)


@dataclass
class MsvqSpec(_IndexQuantizer):
    q1: int = 3
    q2: int = 3
    l: int = 2

    kind = "msvq"

    @property
    def scale_bits(self):
        return self.q1 + self.q2

    def streams(self, cb, use_ec):
        t1, t2 = (cb.stage1.table, cb.stage2_table) if use_ec else (None, None)
        return [(SEC_MSVQ_I1, self.q1 * self.l, self.l, t1),
                (SEC_MSVQ_I2, self.q2 * self.l, self.l, t2)]

    def check(self, cb):
        _require(cb, MsvqCodebook, self.kind)
        if (cb.q1, cb.q2, cb.l) != (self.q1, self.q2, self.l):
            raise ContractViolationError("MSVQ geometry mismatch")

    def train(self, x, profile, trainer, trials, stop, seed):
        cb = msvq.train_msvq(
            _vectors(x, profile, self.l), self.q1, self.q2, trainer, stop,
            seed, trials,
        )
        log.info("stage-1 distortion %.6g; %d stage-2 codebooks",
                 cb.stage1.training_meta.final_distortion, len(cb.stage2))
        return cb

    def search(self, cb, vecs, counter):
        return quantize_msvq(cb, vecs, counter)

    def reconstruct(self, cb, i1, i2):
        return dequantize_msvq(cb, i1, i2)


@dataclass
class UpmgqSpec(UpmgqConfig):
    """UPMGQ geometry (validated by `UpmgqConfig`) plus the chain's block
    scaling range and the G3 entropy-coding switch."""

    q_scale: int = 6  # block-scaling dynamic range (bits)
    g3_entropy: bool = False

    kind = "upmgq"
    min_q0 = 1

    @property
    def scale_bits(self):
        return self.q_scale

    def check(self, cb):
        _require(cb, UpmgqCodebook, self.kind)
        got = (cb.theta, cb.high_vq.q_vq, cb.high_vq.l_vq, cb.q_low)
        if got != (self.theta, self.q_high, self.l, self.q_low):
            raise ContractViolationError("UPMGQ geometry mismatch")

    def train(self, x, profile, trainer, trials, stop, seed):
        cb = upmgq.train_upmgq(x, self, trainer, stop, seed, trials,
                               profile.vector_method, profile.vector_seed)
        log.info("G2 distortion %.6g", cb.high_vq.training_meta.final_distortion)
        return cb

    def streams(self, cb, use_ec):
        """G1 (signs), G2 and G3, listed like `_IndexQuantizer` streams."""
        return [
            (SEC_SIGN, 1, 1, None),
            (SEC_G2, self.q_high * self.l, self.l,
             cb.high_vq.table if use_ec else None),
            (SEC_G3, self.q_low, 1, IN_SECTION if self.g3_entropy else None),
        ]

    def quantize(self, x, profile, cb, bits, counter):
        g2, g3 = (None, None) if counter is None else (
            SearchCounter(), SearchCounter()
        )
        ind = quantize_upmgq(cb, self, x, g2, g3, profile.vector_method,
                             profile.vector_seed)
        codes = ind.sign_negative, ind.g2_indices, ind.g3_codes
        _write_streams(bits, self.streams(cb, profile.entropy_coding), codes)
        stats = bits.stats
        stats.n_vectors = len(ind.g2_indices)
        stats.stored_codewords = cb.high_vq.size + (1 << cb.q_low)
        if counter is not None:
            counter.add(g2.distance_evals, g2.items)
            counter.add(g3.distance_evals, g3.items)
            stats.search_counters.update(upmgq_g2=g2, upmgq_g3=g3)

    def dequantize(self, bits, profile, cb, rate):
        codes = _read_streams(bits, self.streams(cb, profile.entropy_coding))
        return dequantize_upmgq(cb, self, UpmgqIndices(*codes), rate,
                                profile.vector_method, profile.vector_seed)

    def gain_stats(self, stats, q0):
        n_comp = max(stats.section_bits.get(SEC_SIGN, 0), 1)
        stats.l_high = stats.section_bits[SEC_G2] / max(stats.n_vectors, 1)
        stats.l_low = stats.section_bits[SEC_G3] / n_comp
        stats.quantizer_gain = upmgq.cr_upmgq(stats.l_high, self.l, stats.l_low, q0)


@dataclass
class RawSpec:
    """Test hook: q0-bit fixed-point passthrough, no codebook."""

    kind = "raw"
    min_q0 = 2  # at q0 = 1 the passthrough's one level would scale by 0

    @property
    def scale_bits(self):
        return 15

    def check(self, cb):
        if cb is not None:
            raise ContractViolationError("raw profile takes no codebook")

    def train(self, x, profile, trainer, trials, stop, seed):
        return None

    def quantize(self, x, profile, cb, bits, counter):
        comps = _vectors(x, profile, 1).ravel()  # in the vector layout
        if not np.isfinite(comps).all():
            raise ContractViolationError("samples must be finite")
        peak = float(np.max(np.abs(comps))) if comps.size else 0.0
        half = 1 << (profile.q0 - 1)
        bits.raw_scale = (half - 1) / peak if peak > 0 else 1.0
        # clipped before the offset, so a 63-bit code cannot overflow
        codes = np.round(comps * bits.raw_scale).astype(np.int64)
        codes = np.clip(codes, -half, half - 1) + half
        bits.sections.append(_section(SEC_RAW, codes, profile.q0, None))
        bits.stats.n_vectors = len(codes)

    def dequantize(self, bits, profile, cb, rate):
        if not 0.0 < bits.raw_scale < math.inf:
            raise MalformedBitstreamError(
                f"raw-mode scale {bits.raw_scale} is not positive and finite"
            )
        (codes,) = _read_streams(bits, [(SEC_RAW, profile.q0, 1, None)])
        comps = (codes - (1 << (profile.q0 - 1))) / bits.raw_scale
        batch = VectorBatch(1, comps, profile.vector_method,
                            permutation_seed=profile.vector_seed,
                            original_count=2 * bits.m_dec)
        return devectorize(batch, rate)

    def gain_stats(self, stats, q0):
        stats.quantizer_gain = 1.0


@dataclass
class BlockScalingSpec:
    n_bs: int = 32
    q_bs: int = 8

    def __post_init__(self):
        if self.n_bs < 1 or not 1 <= self.q_bs <= 64:
            raise ContractViolationError("need n_bs >= 1 and q_bs in 1..64")


_QUANTIZER_KINDS = {"vq": VqSpec, "msvq": MsvqSpec, "upmgq": UpmgqSpec,
                    "raw": RawSpec}


@dataclass
class CompressionProfile:
    link: str = UPLINK
    l_sym: int = 1024
    l_cp: int = 128
    used_subcarriers: int = 600
    cp_removal: bool = False
    decimation: frontend.ResamplerSpec = None
    block_scaling: BlockScalingSpec = None
    quantizer: object = field(default_factory=VqSpec)
    entropy_coding: bool = True
    vector_method: VectorLayout = VectorLayout.METHOD1
    vector_seed: int = 0
    q0: int = 15

    def __post_init__(self):
        if self.link not in (DOWNLINK, UPLINK):
            raise ContractViolationError(f"unknown link {self.link!r}")
        if self.cp_removal and self.link != DOWNLINK:
            raise ContractViolationError(
                "cyclic-prefix removal is a downlink-only stage (uplink "
                "symbol timing is unknown at the radio unit)"
            )
        self.vector_method = VectorLayout(self.vector_method)
        low = self.quantizer.min_q0
        if not low <= self.q0 <= 63:
            raise ContractViolationError(
                f"q0 must be in {low}..63 for a {self.quantizer.kind} quantizer"
            )
        if not 0 <= self.vector_seed < 1 << 64:
            raise ContractViolationError("vector_seed must be in 0..2^64-1")
        if self.l_sym < 1:
            raise ContractViolationError("l_sym must be positive")
        frontend_stages(self)  # each stage refuses a geometry it cannot run

    def utilized_band(self) -> np.ndarray:
        return subcarrier_indices(self.l_sym, self.used_subcarriers)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quantizer"]["kind"] = self.quantizer.kind
        d["vector_method"] = self.vector_method.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CompressionProfile":
        """A profile from its JSON object; a field of the wrong type or shape
        (`check_types`), or a missing or unknown key, is a contract
        violation."""
        block, d = d, dict(d)
        try:
            for name, spec in (("decimation", frontend.ResamplerSpec),
                               ("block_scaling", BlockScalingSpec)):
                if d.get(name) is not None:
                    d[name] = spec(**d[name])
            if "quantizer" in d:
                q = dict(d["quantizer"])
                kind = q.pop("kind", None)
                if kind not in _QUANTIZER_KINDS:
                    raise ContractViolationError(f"unknown quantizer {kind!r}")
                d["quantizer"] = _QUANTIZER_KINDS[kind](**q)
            return check_types(cls(**d), block)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"malformed profile: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> int:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return int.from_bytes(
            hashlib.blake2b(canon.encode(), digest_size=8).digest(), "little"
        )


@dataclass
class StageStats:
    """Per-stage bit accounting for one compress call."""

    m_in: int = 0
    m_dec: int = 0
    n_vectors: int = 0
    quantizer_gain: float = 1.0  # CR_VQ * CR_EC, or the Eq.-(10)-style gain
    l_huff_emitted: float = 0.0  # bits per quantized vector, as emitted
    l_high: float = 0.0  # UPMGQ: emitted G2 bits per vector
    l_low: float = 0.0  # UPMGQ: emitted G3 bits per component
    side_info_bits: int = 0
    payload_bits: int = 0
    section_bits: dict = field(default_factory=dict)
    search_counters: dict = field(default_factory=dict)
    stored_codewords: int = 0

    @property
    def cr_measured(self) -> float:
        if self.payload_bits == 0:
            return float("inf")
        return 2 * self.q0 * self.m_in / self.payload_bits

    q0: int = 15


@dataclass
class Section:
    kind: int
    item_count: int
    bit_length: int
    payload: bytes


@dataclass
class Bitstream:
    profile_digest: int
    m_in: int
    m_dec: int
    sample_rate: Fraction
    perm_seed: int
    raw_scale: float
    sections: list
    stats: StageStats = None  # attached accounting, not serialized

    def section(self, kind: int, count: int = None) -> Section:
        """The section of `kind`; with `count`, it must hold that many items,
        the count the header implies."""
        by_kind = {s.kind: s for s in self.sections}
        if kind not in by_kind:
            raise MalformedBitstreamError(f"missing section kind {kind}")
        sec = by_kind[kind]
        if count is not None and sec.item_count != count:
            raise MalformedBitstreamError(
                f"section kind {kind} holds {sec.item_count} items, "
                f"expected {count}"
            )
        return sec

    def to_bytes(self) -> bytes:
        head = CPZ1_MAGIC + struct.pack(
            "<BBHQQQQQQd",
            _CPZ1_VERSION,
            len(self.sections),
            0,
            self.profile_digest,
            self.m_in,
            self.m_dec,
            self.sample_rate.numerator,
            self.sample_rate.denominator,
            self.perm_seed,
            self.raw_scale,
        )
        parts = [head]
        for s in self.sections:
            if len(s.payload) != -(-s.bit_length // 8):
                raise ContractViolationError("section payload/bit length skew")
            parts.append(
                struct.pack("<B3xQQ", s.kind, s.item_count, s.bit_length)
            )
        for s in self.sections:
            parts.append(s.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < 64:
            raise MalformedBitstreamError("truncated CPZ1 header")
        if data[:4] != CPZ1_MAGIC:
            raise MalformedBitstreamError("bad CPZ1 magic")
        (version, n_sections, _pad, digest, m_in, m_dec, num, den,
         perm_seed, raw_scale) = struct.unpack_from("<BBHQQQQQQd", data, 4)
        if version != _CPZ1_VERSION:
            raise MalformedBitstreamError(f"unsupported CPZ1 version {version}")
        if den == 0:
            raise MalformedBitstreamError("zero sample-rate denominator")
        off = 64
        descs = []
        for _ in range(n_sections):
            if off + 20 > len(data):
                raise MalformedBitstreamError("truncated section descriptors")
            kind, count, bits = struct.unpack_from("<B3xQQ", data, off)
            if kind in (d[0] for d in descs):
                raise MalformedBitstreamError(f"duplicate section kind {kind}")
            descs.append((kind, count, bits))
            off += 20
        sections = []
        for kind, count, bits in descs:
            nbytes = -(-bits // 8)
            payload = data[off : off + nbytes]
            if len(payload) != nbytes:
                raise MalformedBitstreamError(
                    f"section kind {kind} truncated: expected {nbytes} bytes"
                )
            sections.append(Section(kind, count, bits, payload))
            off += nbytes
        if off != len(data):
            raise MalformedBitstreamError("trailing bytes after last section")
        return cls(
            digest, m_in, m_dec, Fraction(int(num), int(den)),
            perm_seed, raw_scale, sections,
        )


IN_SECTION = "in-section"  # a `table` the section carries ahead of its codes


def _section(kind, symbols, width, table) -> Section:
    """Section `kind` holding `symbols`, each below 2^width, as fixed
    `width`-bit codes (`table` None), as codes of a shared Huffman `table`,
    or (IN_SECTION) under a table built from their counts and serialized
    ahead of the codes."""
    head = b""
    if table is None:
        payload, nbits = pack_fixed(symbols, width)
    else:
        if table is IN_SECTION:
            table = ec.build_huffman(ec.estimate_pmf(symbols, 1 << width))
            head = ec.serialize_table(table)
        payload, nbits = ec.encode(table, symbols)
    return Section(kind, len(symbols), 8 * len(head) + nbits, head + payload)


def _read_section(bits, kind, count, width, table) -> np.ndarray:
    """The int64 symbols `_section` wrote; the section must hold `count`, and
    an in-section table must cover 2^width symbols."""
    payload = bits.section(kind, count).payload
    if table is None:
        return unpack_fixed(payload, width, count).astype(np.int64)
    if table is IN_SECTION:
        table, consumed = ec.parse_table(payload)
        if table.alphabet_size != 1 << width:
            raise MalformedBitstreamError(
                f"section kind {kind} has a table of {table.alphabet_size} "
                f"symbols for {width}-bit codes"
            )
        payload = payload[consumed:]
    return ec.decode(table, payload, count)


def _write_streams(bits, streams, symbols):
    for (kind, width, _, table), s in zip(streams, symbols):
        bits.sections.append(_section(kind, s, width, table))


def _read_streams(bits, streams):
    """Each (kind, width, components per code, table) stream's symbols: one
    per code over the header's 2 M_dec components. A code wider than 0 bits
    takes at least one, so no header count sizes an allocation unchecked."""
    counts = [-(-2 * bits.m_dec // per) for _, _, per, _ in streams]
    for (kind, width, _, _), count in zip(streams, counts):
        if width and bits.section(kind).bit_length < count:
            raise MalformedBitstreamError(f"header M_dec {bits.m_dec} implies "
                                          f"more codes than section {kind} has bits")
    return [_read_section(bits, kind, count, width, table)
            for (kind, width, _, table), count in zip(streams, counts)]


class _CpRemoval:
    label = "CPR"

    def __init__(self, l_sym, l_cp):
        self.l_sym, self.l_cp = l_sym, l_cp
        self.gain = frontend.cp_removal_gain(l_sym, l_cp)

    def size(self, m, rate):
        if m % (self.l_sym + self.l_cp):
            raise MalformedBitstreamError(f"M={m} is not whole symbols")
        return m // (self.l_sym + self.l_cp) * self.l_sym, rate

    def forward(self, x, bits):
        return frontend.remove_cp(x, self.l_sym, self.l_cp)

    def inverse(self, x, m, bits):
        return frontend.reinsert_cp(x, self.l_sym, self.l_cp)


class _Resampling:
    label = "DEC"

    def __init__(self, spec, period):
        self.spec, self.period = spec, period  # period: l_sym with CP removal
        self.gain = spec.decimation_gain
        if period is not None and period * spec.up_factor % spec.down_factor:
            raise ContractViolationError(
                f"per-symbol resampling needs l_sym * K / L to be an integer; "
                f"got {period} * {spec.up_factor} / {spec.down_factor}"
            )

    def size(self, m, rate):
        if m == 0:
            raise MalformedBitstreamError("an empty stream is never resampled")
        k, l = self.spec.up_factor, self.spec.down_factor
        return -(-m * k // l), rate * Fraction(k, l)

    def forward(self, x, bits):
        return frontend.resample(x, self.spec, frontend.DECIMATE, self.period)

    def inverse(self, x, m, bits):
        period = self.period
        if period is not None:
            period = period * self.spec.up_factor // self.spec.down_factor
        y = frontend.resample(x, self.spec, frontend.INTERPOLATE, period)
        return y.with_samples(y.samples[:m])


class _BlockScaling:
    """Section kind 1 holds the factors: q_bs bits each, or with entropy
    coding an in-section table (S_min and S_max in q_bs bits each, then one
    8-bit code length per value S_min..S_max) followed by the Huffman-coded
    factors. `scale_bits` is the quantizer's dynamic range."""

    label = "BS"
    gain = 1.0

    def __init__(self, spec, scale_bits, use_ec):
        self.spec, self.scale_bits, self.use_ec = spec, scale_bits, use_ec

    def size(self, m, rate):
        return m, rate

    def forward(self, x, bits):
        x, factors = frontend.block_scale(
            x, self.spec.n_bs, self.spec.q_bs, self.scale_bits
        )
        if bits is None:
            return x
        f, q_bs = factors.factors, self.spec.q_bs
        if not self.use_ec or f.size == 0:
            sec = _section(SEC_SCALE, f, q_bs, None)
        else:
            lo, hi = int(f.min()), int(f.max())
            offsets = f.astype(np.int64) - lo
            table = ec.build_huffman(ec.estimate_pmf(offsets, hi - lo + 1))
            payload, nbits = concat_bits([
                pack_fixed([lo, hi], q_bs),
                pack_fixed(table.code_lengths, 8),
                ec.encode(table, offsets),
            ])
            sec = Section(SEC_SCALE, len(f), nbits, payload)
        bits.sections.append(sec)
        bits.stats.side_info_bits = sec.bit_length
        return x

    def inverse(self, x, m, bits):
        """Any inconsistency in the factor section is a malformed stream."""
        q_bs, n_blocks = self.spec.q_bs, -(-m // self.spec.n_bs)
        if not self.use_ec or n_blocks == 0:
            f = _read_section(bits, SEC_SCALE, n_blocks, q_bs, None)
            if (f == 0).any():
                raise MalformedBitstreamError("zero block-scale factor")
        else:
            sec = bits.section(SEC_SCALE, n_blocks)
            flat = unpack_bit_array(sec.payload, sec.bit_length)

            def read(start, width, count):
                if start + width * count > flat.size:
                    raise MalformedBitstreamError("truncated scale-factor table")
                field = flat[start : start + width * count]
                return unpack_fixed(pack_bit_array(field), width, count)

            lo, hi = (int(v) for v in read(0, q_bs, 2))
            if not 1 <= lo <= hi:
                raise MalformedBitstreamError(
                    f"scale factor range [{lo}, {hi}] outside 1..2^{q_bs}-1"
                )
            table = ec.table_from_lengths(read(2 * q_bs, 8, hi - lo + 1))
            codes = pack_bit_array(flat[2 * q_bs + 8 * (hi - lo + 1) :])
            f = ec.decode(table, codes, n_blocks) + lo
        factors = frontend.ScaleFactors(self.spec.n_bs, q_bs, f)
        return frontend.block_unscale(x, factors, self.scale_bits)


def frontend_stages(profile: CompressionProfile) -> list:
    """The profile's pre-quantizer stages in compress order."""
    stages = []
    if profile.cp_removal:
        stages.append(_CpRemoval(profile.l_sym, profile.l_cp))
    if profile.decimation is not None:
        period = profile.l_sym if profile.cp_removal else None
        stages.append(_Resampling(profile.decimation, period))
    if profile.block_scaling is not None:
        stages.append(_BlockScaling(
            profile.block_scaling, profile.quantizer.scale_bits,
            profile.entropy_coding,
        ))
    return stages


def frontend_transform(stream: IQStream, profile: CompressionProfile) -> IQStream:
    """Run the pre-quantizer stages only (CP removal, decimation, block
    scaling); this is the domain codebooks are trained in."""
    for stage in frontend_stages(profile):
        stream = stage.forward(stream, None)
    return stream


def compress(
    stream: IQStream,
    profile: CompressionProfile,
    codebooks=None,
    counter: SearchCounter = None,
) -> Bitstream:
    """Run the full chain and emit a framed bitstream with attached stats."""
    q = profile.quantizer
    q.check(codebooks)
    stats = StageStats(m_in=len(stream), q0=profile.q0)
    bits = Bitstream(
        profile.digest(), len(stream), 0, stream.sample_rate,
        profile.vector_seed, 0.0, [], stats,
    )
    x = stream
    for stage in frontend_stages(profile):
        x = stage.forward(x, bits)
    bits.m_dec = stats.m_dec = len(x)
    q.quantize(x, profile, codebooks, bits, counter)

    stats.section_bits = {s.kind: s.bit_length for s in bits.sections}
    stats.payload_bits = sum(stats.section_bits.values())
    q.gain_stats(stats, profile.q0)
    return bits


def theorem_cr(
    cr_cpr: float,
    cr_dec: float,
    cr_vq: float,
    cr_ec: float,
    q_bs: int = 0,
    n_bs: int = 1,
    q0: int = 15,
) -> float:
    """Composed rate trade-off with the side-information term expressed per
    n_bs input samples; disabled stages contribute gain 1 and q_bs = 0."""
    inner = cr_cpr * cr_dec * cr_vq * cr_ec
    return 1.0 / (1.0 / inner + q_bs / (2.0 * q0 * n_bs))


def compression_ratio(profile: CompressionProfile, stats: StageStats) -> float:
    """Eq.-(5)-style composition from the stage gains and the side term in
    the module docstring; it must match the measured payload-bit ratio
    2*q0*M / payload within 0.5% on every run."""
    gain = math.prod(s.gain for s in frontend_stages(profile))
    side = 0.0
    bs = profile.block_scaling
    if bs is not None:
        per_factor = stats.side_info_bits / max(-(-stats.m_dec // bs.n_bs), 1)
        side = per_factor / (2.0 * profile.q0 * bs.n_bs * gain)
    return 1.0 / (1.0 / (gain * stats.quantizer_gain) + side)


def _sized(x: IQStream, m: int) -> IQStream:
    if len(x) != m:
        raise MalformedBitstreamError(f"{len(x)} samples where {m} were sent")
    return x


def decompress(data: bytes, profile: CompressionProfile, codebooks=None) -> IQStream:
    """Inverse chain from CPZ1 bytes; output has the original count and rate."""
    profile.quantizer.check(codebooks)
    bits = Bitstream.from_bytes(bytes(data))
    if bits.profile_digest != profile.digest():
        raise DigestMismatchError(
            "bitstream was produced under a different profile"
        )
    stages = frontend_stages(profile)
    sizes = [(bits.m_in, bits.sample_rate)]
    for stage in stages:
        sizes.append(stage.size(*sizes[-1]))
    if sizes[-1][0] != bits.m_dec:
        raise MalformedBitstreamError(
            f"header M_dec {bits.m_dec} != {sizes[-1][0]}, from M {bits.m_in}"
        )
    if bits.perm_seed != profile.vector_seed:
        raise MalformedBitstreamError(
            f"header permutation seed {bits.perm_seed} != the profile's "
            f"vector_seed {profile.vector_seed}"
        )
    x = profile.quantizer.dequantize(bits, profile, codebooks, sizes[-1][1])
    for i in reversed(range(len(stages))):
        x = stages[i].inverse(_sized(x, sizes[i + 1][0]), sizes[i][0], bits)
    return _sized(x, bits.m_in)


def train_for_profile(
    stream: IQStream,
    profile: CompressionProfile,
    trainer: str = vq_core.MODIFIED,
    trials: int = 2,
    stop: vq_core.LloydStop = None,
    seed: int = 0,
):
    """Train the codebook artifact the profile's quantizer needs, on the
    profile's post-frontend domain (None for the raw passthrough)."""
    return profile.quantizer.train(
        frontend_transform(stream, profile), profile, trainer, trials, stop,
        seed,
    )


def evaluate_chain(
    stream: IQStream,
    profile: CompressionProfile,
    codebooks=None,
    counter: SearchCounter = None,
) -> EvalReport:
    """Compress + decompress one stream and measure EVM/CR (and SO/CS when a
    counter is supplied)."""
    bits = compress(stream, profile, codebooks, counter)
    out = decompress(bits.to_bytes(), profile, codebooks)
    stats = bits.stats
    td = evm_td(stream, out)
    step = profile.l_sym + profile.l_cp
    if len(stream) % step == 0 and len(stream) > 0:
        fd_in = frontend.remove_cp(stream, profile.l_sym, profile.l_cp)
        fd_out = frontend.remove_cp(out, profile.l_sym, profile.l_cp)
        fd = evm_fd(fd_in, fd_out, profile.utilized_band(), profile.l_sym)
    else:
        fd = float("nan")
    so = cs = 0
    if counter is not None:
        so, cs = complexity_counters(stats)
    return EvalReport(
        evm_td_pct=td,
        evm_fd_pct=fd,
        cr_formula=compression_ratio(profile, stats),
        cr_measured=stats.cr_measured,
        cr_measured_no_side_info=2 * profile.q0 * stats.m_in
        / max(stats.payload_bits - stats.side_info_bits, 1),
        so_measured=so,
        cs_measured=cs,
        l_huff=stats.l_huff_emitted,
        l_high=stats.l_high,
        l_low=stats.l_low,
        profile_digest=f"{profile.digest():016x}",
    )
