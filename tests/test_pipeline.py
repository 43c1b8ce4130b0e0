import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvq
from bench import workloads
from fvq import entropy as ec
from fvq import frontend, pipeline
from fvq.bitio import pack_bit_array, pack_fixed, unpack_bit_array, unpack_fixed
from fvq.errors import (
    ContractViolationError,
    DigestMismatchError,
    MalformedBitstreamError,
)
from fvq.pipeline import (
    Bitstream,
    BlockScalingSpec,
    CompressionProfile,
    MsvqSpec,
    RawSpec,
    UpmgqSpec,
    VqSpec,
    compression_ratio,
    theorem_cr,
)
from tests.conftest import make_corpus, seeded_codebooks


class TestProfile:
    def test_uplink_cp_removal_forbidden(self):
        with pytest.raises(ContractViolationError):
            CompressionProfile(link="uplink", cp_removal=True)

    def test_json_round_trip(self):
        prof = CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8),
            quantizer=MsvqSpec(3, 3, 2),
        )
        back = CompressionProfile.from_dict(
            json.loads(prof.to_json())
        )
        assert back == prof
        assert back.digest() == prof.digest()

    def test_digest_changes_with_parameters(self):
        a = CompressionProfile(quantizer=VqSpec(2, 4))
        b = CompressionProfile(quantizer=VqSpec(2, 5))
        assert a.digest() != b.digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ContractViolationError):
            CompressionProfile.from_dict({"nonsense": 1})

    @pytest.mark.parametrize("quantizer", [
        {"kind": "vq", "l_vq": 2, "q_vq": 0},
        {"kind": "msvq", "q1": 0, "q2": 0, "l": 2},
    ])
    def test_index_quantizer_without_index_bits_refused(self, quantizer):
        # the CR accounting divides by the summed index width
        with pytest.raises(ContractViolationError, match="no index bits"):
            CompressionProfile.from_dict({"quantizer": quantizer})

    @pytest.mark.parametrize("geometry", [
        {"q_high": 0}, {"l": 0}, {"q_low": -1},
    ])
    def test_bad_upmgq_geometry_refused(self, geometry):
        with pytest.raises(ContractViolationError):
            CompressionProfile.from_dict(
                {"quantizer": {"kind": "upmgq", **geometry}}
            )

    @pytest.mark.parametrize("profile", [
        {"quantizer": {"l_vq": 2, "q_vq": 4}},
        {"quantizer": {"kind": "vq", "l_vq": 2, "nonsense": 1}},
        {"decimation": {"up_factor": 5, "down_factor": 8, "nonsense": 1}},
        {"decimation": {"up_factor": 5}},
        {"block_scaling": {"n_bs": 32, "nonsense": 1}},
        {"block_scaling": "yes"},
        {"quantizer": "vq"},
        {"vector_method": "nope"},
        {"block_scaling": {"n_bs": 0}},
        {"block_scaling": {"q_bs": 0}},
        {"block_scaling": {"q_bs": 65}},
    ], ids=lambda d: json.dumps(d))
    def test_malformed_profile_refused(self, profile):
        with pytest.raises(ContractViolationError):
            CompressionProfile.from_dict(profile)

    @pytest.mark.parametrize("profile", [
        {"vector_seed": -1}, {"vector_seed": 1 << 64}, {"vector_seed": "x"},
        {"q0": 0}, {"q0": 64}, {"q0": 256},
        {"l_sym": 0}, {"l_sym": -1024},
        {"link": "downlink", "cp_removal": True, "l_sym": 0},
    ], ids=lambda d: json.dumps(d))
    def test_value_that_cannot_run_refused(self, profile):
        # each of these used to end in struct.error, OverflowError or
        # ZeroDivisionError inside the chain
        with pytest.raises(ContractViolationError):
            CompressionProfile.from_dict(profile)

    @pytest.mark.parametrize("profile", [
        {"entropy_coding": 5}, {"q0": 2.0},
        {"link": "downlink", "cp_removal": 0},
        {"quantizer": {"kind": "vq", "l_vq": 2.0, "q_vq": 4}},
        {"block_scaling": {"n_bs": 32, "q_bs": True}},
    ], ids=lambda d: json.dumps(d))
    def test_value_of_the_wrong_json_type_refused(self, profile):
        # each of these compared equal to, or as, a value of the right type
        with pytest.raises(ContractViolationError, match="must be"):
            CompressionProfile.from_dict(profile)

    @pytest.mark.parametrize("profile", [
        {"vector_seed": 0}, {"vector_seed": (1 << 64) - 1},
        {"q0": 1}, {"q0": 63}, {"l_sym": 1},
    ], ids=lambda d: json.dumps(d))
    def test_bounds_allowed(self, profile):
        prof = CompressionProfile.from_dict(profile)
        assert CompressionProfile.from_dict(prof.to_dict()) == prof

    def test_widest_scale_factor_allowed(self):
        assert CompressionProfile.from_dict(
            {"block_scaling": {"q_bs": 64}}
        ).block_scaling == BlockScalingSpec(32, 64)

    def test_fractional_decimated_symbol_refused(self):
        # CP-removed symbols are resampled one by one: 1020 * 5/8 = 637.5
        with pytest.raises(ContractViolationError):
            CompressionProfile(
                link="downlink", l_sym=1020, cp_removal=True,
                decimation=fvq.ResamplerSpec(5, 8),
            )
        CompressionProfile(link="downlink", l_sym=1020,
                           decimation=fvq.ResamplerSpec(5, 8))


class TestTheoremFormula:
    def test_closed_form_identities(self):
        assert frontend.cp_removal_gain(1024, 128) == 1.125
        assert fvq.ResamplerSpec(5, 8).decimation_gain == pytest.approx(1.6)
        assert fvq.vq_core.vq_gain(15, 6) == 2.5

    def test_eq5_compositions(self):
        assert theorem_cr(1.125, 1.6, 2.5, 1.0) == pytest.approx(4.5)
        assert theorem_cr(1.125, 1.6, 2.5, 1.0, q_bs=8, n_bs=32, q0=15) == (
            pytest.approx(4.337, abs=0.001)
        )

    def test_disabled_stages_contribute_one(self):
        assert theorem_cr(1.0, 1.0, 1.0, 1.0) == 1.0


class TestRawPassthrough:
    def test_cr_exactly_one(self):
        prof = CompressionProfile(
            link="uplink", quantizer=RawSpec(), entropy_coding=False
        )
        s = make_corpus(4, seed=31)
        bits = pipeline.compress(s, prof)
        assert bits.stats.cr_measured == 1.0
        assert compression_ratio(prof, bits.stats) == pytest.approx(1.0)
        out = pipeline.decompress(bits.to_bytes(), prof)
        assert fvq.evm_td(s, out) < 0.02

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q0", [2, 15, 62, 63])
    def test_every_code_width_round_trips(self, q0):
        # the peak maps to the top code, 2^q0 - 1, with no int64 overflow
        # (and -peak to code 1, or 0 where half - 1 rounds to half)
        prof = CompressionProfile(
            link="uplink", quantizer=RawSpec(), entropy_coding=False, q0=q0
        )
        s = fvq.IQStream(np.array([0.5 + 0.25j, -1.0 + 1.0j, 0.1 - 0.3j]))
        frame = pipeline.compress(s, prof)
        codes = unpack_fixed(frame.section(pipeline.SEC_RAW).payload, q0, 6)
        assert codes.max() == (1 << q0) - 1 and codes.min() <= 1
        out = pipeline.decompress(frame.to_bytes(), prof)
        step = 2.0 / ((1 << q0) - 2)  # two codes per unit of peak, less one
        assert np.abs(out.samples - s.samples).max() <= step

    def test_one_bit_code_refused(self):
        # its one level would scale every sample by 0, a frame decompress
        # refuses; other quantizers take q0 = 1 (TestProfile)
        with pytest.raises(ContractViolationError, match="q0 must be in 2"):
            CompressionProfile(
                link="uplink", quantizer=RawSpec(), entropy_coding=False, q0=1
            )

    @pytest.mark.parametrize("scale", [0.0, math.nan, math.inf, -1.0])
    def test_hostile_raw_scale_is_malformed(self, scale):
        # the README worked example's frame with its raw-mode scale replaced
        prof = CompressionProfile(
            link="uplink", quantizer=RawSpec(), entropy_coding=False
        )
        s = fvq.IQStream(np.array([0.5 + 0.25j, -1.0 + 0.75j]))
        frame = pipeline.compress(s, prof)
        frame.raw_scale = scale
        with pytest.raises(MalformedBitstreamError, match="raw-mode scale"):
            pipeline.decompress(frame.to_bytes(), prof)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        # no block scaling precedes the raw quantizer to refuse it first
        prof = CompressionProfile(
            link="uplink", quantizer=RawSpec(), entropy_coding=False
        )
        s = fvq.IQStream(np.array([0.5 + 0.25j, complex(bad, 0.0), -1.0j]))
        with pytest.raises(ContractViolationError, match="must be finite"):
            pipeline.compress(s, prof)

    def test_quantizer_bypass_limited_by_decimation(self):
        # raw quantizer: chain EVM equals the frontend-only round trip
        spec = fvq.ResamplerSpec(5, 8)
        prof = CompressionProfile(
            link="uplink", decimation=spec, quantizer=RawSpec(),
            entropy_coding=False,
        )
        s = make_corpus(8, seed=32)
        out = pipeline.decompress(pipeline.compress(s, prof).to_bytes(), prof)
        dec = frontend.resample(s, spec, frontend.DECIMATE)
        rec = frontend.resample(dec, spec, frontend.INTERPOLATE)
        frontend_only = fvq.evm_td(
            s, rec.with_samples(rec.samples[: len(s)])
        )
        chain = fvq.evm_td(s, out)
        assert chain == pytest.approx(frontend_only, rel=0.02)


def _layout_profile(quantizer, method, **chain):
    return CompressionProfile(link="uplink", quantizer=quantizer,
                              vector_method=method, vector_seed=5, **chain)


class TestVectorLayout:
    """UPMGQ and raw take their components in the profile's vector layout,
    as VQ and MSVQ do."""

    @pytest.mark.parametrize("quantizer", [
        UpmgqSpec(theta=-1, q_high=3, l=2, q_low=2, q_scale=6), RawSpec(),
    ], ids=["upmgq", "raw"])
    def test_sections_differ_across_layouts(self, quantizer):
        s = make_corpus(4, seed=36)
        cb = seeded_codebooks(quantizer, seed=4)
        payloads = []
        for method in fvq.VectorLayout:
            prof = _layout_profile(
                quantizer, method, decimation=fvq.ResamplerSpec(5, 8),
                block_scaling=BlockScalingSpec(32, 8),
            )
            frame = pipeline.compress(s, prof, cb)
            payloads.append({sec.kind: sec.payload for sec in frame.sections
                             if sec.kind != pipeline.SEC_SCALE})
        kinds = ([pipeline.SEC_SIGN, pipeline.SEC_G2, pipeline.SEC_G3]
                 if cb else [pipeline.SEC_RAW])
        for kind in kinds:
            assert len({p[kind] for p in payloads}) == 3, kind

    @pytest.mark.parametrize("method", list(fvq.VectorLayout))
    def test_upmgq_round_trips_exactly(self, method):
        # components whose high parts are codewords and whose lows are G3
        # midpoints, laid out by `method`, come back exactly
        spec = UpmgqSpec(theta=-1, q_high=2, l=3, q_low=2, q_scale=6)
        cb = seeded_codebooks(spec, seed=4)
        rng = np.random.default_rng(7)
        n = 2 * 102  # whole G2 vectors of 3
        high = cb.high_vq.codewords[rng.integers(0, cb.high_vq.size, n // 3)]
        sign = 1.0 - 2.0 * rng.integers(0, 2, n)
        comps = sign * (high.ravel() * 0.5 + cb.low_sq[rng.integers(0, 4, n)])
        s = fvq.devectorize(fvq.VectorBatch(3, comps, method, 5, n))
        prof = _layout_profile(spec, method)
        out = pipeline.decompress(pipeline.compress(s, prof, cb).to_bytes(),
                                  prof, cb)
        np.testing.assert_array_equal(out.samples, s.samples)

    @pytest.mark.parametrize("method", list(fvq.VectorLayout))
    def test_raw_round_trips_exactly(self, method):
        # integer components with a peak of 2^(q0-1) - 1 are their own codes
        rng = np.random.default_rng(8)
        comps = rng.integers(-127, 128, 2 * 101).astype(np.float64)
        comps[7] = 127.0
        s = fvq.IQStream(comps[:101] + 1j * comps[101:])
        prof = _layout_profile(RawSpec(), method, entropy_coding=False, q0=8)
        out = pipeline.decompress(pipeline.compress(s, prof).to_bytes(), prof)
        np.testing.assert_array_equal(out.samples, s.samples)


class TestRoundTrip:
    def test_readme_worked_example_bytes(self):
        prof = CompressionProfile(
            link="uplink", quantizer=RawSpec(), entropy_coding=False
        )
        s = fvq.IQStream(np.array([0.5 + 0.25j, -1.0 + 0.75j]))
        assert pipeline.compress(s, prof).to_bytes() == bytes.fromhex(
            "43 50 5a 31 01 01 00 00 05 32 e0 37 db f0 fd bd"
            "02 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00"
            "00 60 ea 00 00 00 00 00 01 00 00 00 00 00 00 00"
            "00 00 00 00 00 00 00 00 00 00 00 00 80 ff cf 40"
            "08 00 00 00 04 00 00 00 00 00 00 00 3c 00 00 00"
            "00 00 00 00 c0 00 00 06 80 06 ff f0"
        )

    def test_vq_chain(self, uplink_corpus, small_uplink_profile,
                      small_vq_codebook):
        bits = pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        )
        out = pipeline.decompress(bits.to_bytes(), small_uplink_profile,
                                  small_vq_codebook)
        assert len(out) == len(uplink_corpus)
        assert out.sample_rate == uplink_corpus.sample_rate
        assert fvq.evm_td(uplink_corpus, out) < 40.0

    @pytest.mark.parametrize("use_ec", [True, False], ids=["ec", "fixed"])
    def test_msvq_without_stage_2_bits_is_stage_1_vq(self, uplink_corpus,
                                                     use_ec):
        # q2 = 0: one stage-2 codeword per cell, so its index takes 0 bits
        chain = dict(
            link="uplink", decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8), entropy_coding=use_ec,
        )
        prof = CompressionProfile(quantizer=MsvqSpec(2, 0, 2), **chain)
        cb = pipeline.train_for_profile(uplink_corpus, prof, trials=1, seed=7)
        bits = pipeline.compress(uplink_corpus, prof, cb)
        assert bits.stats.section_bits[pipeline.SEC_MSVQ_I2] == 0
        out = pipeline.decompress(bits.to_bytes(), prof, cb)
        vq_prof = CompressionProfile(quantizer=VqSpec(2, 2), **chain)
        vq_bits = pipeline.compress(uplink_corpus, vq_prof, cb.stage1)
        vq_out = pipeline.decompress(vq_bits.to_bytes(), vq_prof, cb.stage1)
        np.testing.assert_array_equal(out.samples, vq_out.samples)

    def test_serialization_round_trip(self, uplink_corpus,
                                      small_uplink_profile, small_vq_codebook):
        bits = pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        )
        blob = bits.to_bytes()
        again = Bitstream.from_bytes(blob)
        assert again.to_bytes() == blob
        out = pipeline.decompress(blob, small_uplink_profile, small_vq_codebook)
        assert len(out) == len(uplink_corpus)

    def test_deterministic_bitstreams(self, uplink_corpus,
                                      small_uplink_profile, small_vq_codebook):
        a = pipeline.compress(uplink_corpus, small_uplink_profile,
                              small_vq_codebook).to_bytes()
        b = pipeline.compress(uplink_corpus, small_uplink_profile,
                              small_vq_codebook).to_bytes()
        assert a == b

    def test_downlink_chain_with_cp(self):
        prof = CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8),
            quantizer=VqSpec(2, 4), entropy_coding=True,
        )
        s = make_corpus(12, seed=33, link="downlink_ofdm")
        cb = pipeline.train_for_profile(s, prof, trials=1, seed=2)
        blob = pipeline.compress(s, prof, cb).to_bytes()
        out = pipeline.decompress(blob, prof, cb)
        assert len(out) == len(s)

    def test_method3_round_trips_via_header_seed(self, uplink_corpus):
        prof = CompressionProfile(
            link="uplink",
            quantizer=VqSpec(2, 4), entropy_coding=True,
            vector_method="method3_random", vector_seed=99,
        )
        cb = pipeline.train_for_profile(uplink_corpus, prof, trials=1, seed=3)
        bits = pipeline.compress(uplink_corpus, prof, cb)
        assert bits.perm_seed == 99
        out = pipeline.decompress(bits.to_bytes(), prof, cb)
        assert len(out) == len(uplink_corpus)

    def test_truncated_stream_rejected(self, uplink_corpus,
                                       small_uplink_profile, small_vq_codebook):
        blob = pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        ).to_bytes()
        with pytest.raises(MalformedBitstreamError):
            pipeline.decompress(blob[:-10], small_uplink_profile,
                                small_vq_codebook)

    def test_digest_mismatch_rejected(self, uplink_corpus,
                                      small_uplink_profile, small_vq_codebook):
        blob = pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        ).to_bytes()
        other = CompressionProfile(
            link="uplink",
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8),
            quantizer=VqSpec(2, 4), entropy_coding=False,
        )
        with pytest.raises(DigestMismatchError):
            pipeline.decompress(blob, other, small_vq_codebook)

    def test_geometry_mismatch_rejected(self, uplink_corpus,
                                        small_uplink_profile):
        wrong = fvq.Codebook(2, 3, np.zeros((64, 2)))
        with pytest.raises(ContractViolationError):
            pipeline.compress(uplink_corpus, small_uplink_profile, wrong)


    def test_downlink_cp_removal_raw_round_trip_transparent(self):
        # noiseless symbols through CP removal and 5/8 decimation with the
        # 15-bit passthrough: only the passband ripple and q0 rounding remain
        prof = CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8), quantizer=RawSpec(),
            entropy_coding=False,
        )
        s = fvq.generate(fvq.WaveformConfig(
            num_symbols=6, snr_db=math.inf, seed=35, link="downlink_ofdm"
        ))
        out = pipeline.decompress(pipeline.compress(s, prof).to_bytes(), prof)
        band = prof.utilized_band()
        evm = fvq.evm_fd(frontend.remove_cp(s, 1024, 128),
                         frontend.remove_cp(out, 1024, 128), band, 1024)
        assert evm < 0.1


class TestHeaderSizes:
    """decompress walks the stage sizes forward from the header's M and rate
    and refuses a header they do not fit."""

    def test_m_dec_contradicting_m_is_malformed(self):
        prof = CompressionProfile(
            link="uplink", decimation=fvq.ResamplerSpec(5, 8),
            quantizer=RawSpec(), entropy_coding=False,
        )
        rng = np.random.default_rng(36)
        s = fvq.IQStream(rng.standard_normal(800) + 1j * rng.standard_normal(800))
        frame = pipeline.compress(s, prof)
        assert (frame.m_in, frame.m_dec) == (800, 500)
        # M_dec raised by 7, with a raw section holding 7 more samples
        frame.m_dec += 7
        sec = frame.section(pipeline.SEC_RAW)
        codes = unpack_fixed(sec.payload, prof.q0, sec.item_count)
        zero = np.full(7, 1 << (prof.q0 - 1))
        codes = np.concatenate([codes[:500], zero, codes[500:], zero])
        payload, nbits = pack_fixed(codes, prof.q0)
        frame.sections = [
            pipeline.Section(pipeline.SEC_RAW, len(codes), nbits, payload)
        ]
        with pytest.raises(MalformedBitstreamError, match="M_dec"):
            pipeline.decompress(frame.to_bytes(), prof)

    def test_empty_decimated_frame_is_malformed(self):
        # compress refuses to resample an empty stream, so no such frame is
        # valid; decompress must not reach the resampler's contract check
        prof = CompressionProfile(
            link="uplink", decimation=fvq.ResamplerSpec(5, 8),
            quantizer=RawSpec(), entropy_coding=False,
        )
        frame = pipeline.compress(fvq.IQStream(np.full(16, 0.5 + 0.5j)), prof)
        frame.m_in = frame.m_dec = 0
        frame.sections = [pipeline.Section(pipeline.SEC_RAW, 0, 0, b"")]
        with pytest.raises(MalformedBitstreamError, match="empty"):
            pipeline.decompress(frame.to_bytes(), prof)

    def test_m_not_whole_symbols_is_malformed(self):
        prof = CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8), quantizer=RawSpec(),
            entropy_coding=False,
        )
        frame = pipeline.compress(make_corpus(2, link="downlink_ofdm"), prof)
        frame.m_in += 1
        with pytest.raises(MalformedBitstreamError, match="whole symbols"):
            pipeline.decompress(frame.to_bytes(), prof)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_compress_fills_the_stats_the_benchmark_reads(name):
    profile = workloads.WORKLOADS[name].profile
    frame = make_corpus(
        2, snr_db=20.0, seed=37, link=workloads.WAVEFORM_LINK[profile.link]
    )
    cb = seeded_codebooks(profile.quantizer, seed=41)
    bits = pipeline.compress(frame, profile, cb, fvq.SearchCounter())
    st = bits.stats
    assert st.m_dec == Bitstream.from_bytes(bits.to_bytes()).m_dec > 0
    assert st.n_vectors > 0
    assert st.side_info_bits == bits.section(pipeline.SEC_SCALE).bit_length > 0
    if profile.quantizer.kind == "upmgq":
        assert st.l_high > 0
    else:
        assert st.l_huff_emitted > 0
    assert st.search_counters
    assert all(c.distance_evals > 0 for c in st.search_counters.values())


@pytest.mark.parametrize("quantizer", [
    VqSpec(1, 2), MsvqSpec(1, 1, 1), UpmgqSpec(0, 2, 1, 1, 4),
], ids=["vq", "msvq", "upmgq"])
def test_unknown_trainer_refused(quantizer):
    prof = CompressionProfile(quantizer=quantizer)
    with pytest.raises(ContractViolationError, match="unknown trainer"):
        pipeline.train_for_profile(
            make_corpus(1, seed=3), prof, trainer="bogus", trials=1
        )


def _scale_bits(blob):
    sec = Bitstream.from_bytes(blob).section(pipeline.SEC_SCALE)
    return sec, unpack_bit_array(sec.payload, sec.bit_length)


def _replace_scale_section(blob, bits=None, item_count=None):
    frame = Bitstream.from_bytes(blob)
    sec = frame.section(pipeline.SEC_SCALE)
    if bits is not None:
        sec.payload = pack_bit_array(bits)
        sec.bit_length = len(bits)
    if item_count is not None:
        sec.item_count = item_count
    return frame.to_bytes()


def _set_field(bits, start, width, value):
    out = bits.copy()
    out[start : start + width] = [(value >> (width - 1 - i)) & 1
                                  for i in range(width)]
    return out


class TestScaleSection:
    """Section kind 1 with entropy coding: S_min, S_max (q_bs = 8 bits
    each), one 8-bit code length per value in the range, then the codes."""

    @pytest.fixture
    def coded(self, uplink_corpus, small_uplink_profile, small_vq_codebook):
        return pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        ).to_bytes()

    def test_coded_factors_decode_exactly(
        self, uplink_corpus, small_uplink_profile, small_vq_codebook, coded
    ):
        fixed_prof = CompressionProfile(
            **{**vars(small_uplink_profile), "entropy_coding": False}
        )
        fixed = pipeline.compress(uplink_corpus, fixed_prof, small_vq_codebook)
        assert fixed.section(pipeline.SEC_SCALE).bit_length == (
            8 * fixed.section(pipeline.SEC_SCALE).item_count
        )
        sec, _ = _scale_bits(coded)
        assert sec.item_count == fixed.section(pipeline.SEC_SCALE).item_count
        assert sec.bit_length < 0.5 * fixed.stats.side_info_bits
        a = pipeline.decompress(coded, small_uplink_profile, small_vq_codebook)
        b = pipeline.decompress(fixed.to_bytes(), fixed_prof,
                                small_vq_codebook)
        np.testing.assert_array_equal(a.samples, b.samples)

    def _corrupt(self, coded, case):
        sec, bits = _scale_bits(coded)
        lo, hi = (int(v) for v in unpack_fixed(pack_bit_array(bits[:16]), 8, 2))
        n = hi - lo + 1
        assert n >= 2  # the corpus spans more than one factor value
        if case == "truncated range":
            return _replace_scale_section(coded, bits[:12])
        if case == "truncated table":
            return _replace_scale_section(coded, bits[: 16 + 8 * n - 4])
        if case == "truncated codes":
            return _replace_scale_section(coded, bits[: 16 + 8 * n + 1])
        if case == "kraft violated":
            out = bits.copy()
            out[16 : 16 + 8 * n] = 0  # n zero-length codes: Kraft sum n
            return _replace_scale_section(coded, out)
        if case == "overlong code":
            return _replace_scale_section(coded, _set_field(bits, 16, 8, 200))
        if case == "range starts at zero":
            out = _set_field(_set_field(bits, 0, 8, 0), 8, 8, hi - lo)
            return _replace_scale_section(coded, out)
        if case == "range inverted":
            return _replace_scale_section(coded, _set_field(bits, 0, 8, hi + 1))
        if case == "count mismatch":
            return _replace_scale_section(coded, item_count=sec.item_count + 1)
        raise AssertionError(case)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(
        self, uplink_corpus, small_uplink_profile, small_vq_codebook, bad
    ):
        samples = uplink_corpus.samples.copy()
        samples[100] = complex(bad, 0.0)
        with pytest.raises(ContractViolationError, match="must be finite"):
            pipeline.compress(uplink_corpus.with_samples(samples),
                              small_uplink_profile, small_vq_codebook)

    def test_zero_fixed_factor_is_malformed(
        self, uplink_corpus, small_uplink_profile, small_vq_codebook
    ):
        prof = CompressionProfile(
            **{**vars(small_uplink_profile), "entropy_coding": False}
        )
        blob = pipeline.compress(uplink_corpus, prof, small_vq_codebook)
        _, bits = _scale_bits(blob.to_bytes())
        bad = _replace_scale_section(blob.to_bytes(), _set_field(bits, 0, 8, 0))
        with pytest.raises(MalformedBitstreamError):
            pipeline.decompress(bad, prof, small_vq_codebook)

    @pytest.mark.parametrize("case,message", [
        ("truncated range", "truncated"), ("truncated table", "truncated"),
        ("truncated codes", "exhausted"), ("kraft violated", "Kraft"),
        ("overlong code", "64 bits"), ("range starts at zero", "range"),
        ("range inverted", "range"), ("count mismatch", "expected"),
    ])
    def test_hostile_section_is_malformed(
        self, small_uplink_profile, small_vq_codebook, coded, case, message
    ):
        bad = self._corrupt(coded, case)
        with pytest.raises(MalformedBitstreamError, match=message):
            pipeline.decompress(bad, small_uplink_profile, small_vq_codebook)


UPMGQ = dict(theta=0, q_high=3, l=2, q_low=3, q_scale=5)


class TestHostileIndexCount:
    """A section whose descriptor claims 2^40 items is refused from the
    header's sample count, not decoded into an 8 TiB array."""

    @pytest.mark.parametrize("quantizer,kind", [
        (VqSpec(2, 4), pipeline.SEC_VQ_IDX),
        (MsvqSpec(2, 2, 2), pipeline.SEC_MSVQ_I1),
        (MsvqSpec(2, 2, 2), pipeline.SEC_MSVQ_I2),
        (UpmgqSpec(**UPMGQ), pipeline.SEC_SIGN),
        (UpmgqSpec(**UPMGQ), pipeline.SEC_G2),
        (UpmgqSpec(**UPMGQ), pipeline.SEC_G3),
        (UpmgqSpec(**{**UPMGQ, "q_low": 0}), pipeline.SEC_G3),
    ], ids=["vq-2", "msvq-3", "msvq-4", "upmgq-5", "upmgq-6", "upmgq-7",
            "upmgq-q_low-0-7"])
    @pytest.mark.parametrize("use_ec", [True, False], ids=["ec", "fixed"])
    def test_huge_count_is_malformed(self, uplink_corpus, quantizer, kind,
                                     use_ec):
        prof = CompressionProfile(
            link="uplink", decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8), quantizer=quantizer,
            entropy_coding=use_ec,
        )
        cb = seeded_codebooks(quantizer, seed=8)
        frame = pipeline.compress(uplink_corpus, prof, cb)
        frame.section(kind).item_count = 2**40
        with pytest.raises(MalformedBitstreamError, match="expected"):
            pipeline.decompress(frame.to_bytes(), prof, cb)


# decompresses a frame whose header and section counts all claim 2^34
# components' worth of codes, under an address-space limit of what the
# process already maps plus 512 MiB
_HUGE_COUNT_CHILD = """
import os, resource, sys
import numpy as np
import fvq
from fvq import pipeline
from fvq.errors import MalformedBitstreamError
from tests.conftest import seeded_codebooks

q = pipeline.MsvqSpec(q1=0, q2=2, l=2)
prof = pipeline.CompressionProfile(
    link="uplink", quantizer=q, entropy_coding=sys.argv[1] == "ec"
)
cb = seeded_codebooks(q, seed=8)
rng = np.random.default_rng(9)
frame = pipeline.compress(
    fvq.IQStream(rng.standard_normal(256) + 1j * rng.standard_normal(256)),
    prof, cb,
)
frame.m_in = frame.m_dec = 2**34
for sec in frame.sections:
    sec.item_count = 2**34
data = frame.to_bytes()
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
limit = mapped + (512 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    pipeline.decompress(data, prof, cb)
except MalformedBitstreamError as exc:
    print("refused:", exc)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
@pytest.mark.parametrize("use_ec", ["ec", "fixed"])
def test_huge_sample_count_is_refused_before_any_section_is_read(use_ec):
    # stage 1 has one codeword, so its codes take 0 bits (entropy-coded or
    # not) and only stage 2's section bounds the count the header implies
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    run = subprocess.run(
        [sys.executable, "-c", _HUGE_COUNT_CHILD, use_ec], cwd=root, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("refused: header M_dec 17179869184")


class TestHostileG3Table:
    def test_table_alphabet_other_than_q_low_is_malformed(self,
                                                          uplink_corpus):
        quantizer = UpmgqSpec(**{**UPMGQ, "q_low": 2, "g3_entropy": True})
        prof = CompressionProfile(
            link="uplink", decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8), quantizer=quantizer,
        )
        cb = seeded_codebooks(quantizer, seed=8)
        frame = pipeline.compress(uplink_corpus, prof, cb)
        sec = frame.section(pipeline.SEC_G3)
        table, consumed = ec.parse_table(sec.payload)
        codes = ec.decode(table, sec.payload[consumed:], sec.item_count)
        # an 8-symbol table for a 4-point grid, its codes past the grid
        codes = codes + 4
        table = ec.build_huffman(ec.estimate_pmf(codes, 8))
        head = ec.serialize_table(table)
        payload, nbits = ec.encode(table, codes)
        sec.payload, sec.bit_length = head + payload, 8 * len(head) + nbits
        with pytest.raises(MalformedBitstreamError, match="table of 8 symbols"):
            pipeline.decompress(frame.to_bytes(), prof, cb)


class TestFixedWidth:
    def test_width_zero_packs_zeros_into_no_bits(self):
        assert pack_fixed(np.zeros(5, dtype=np.int64), 0) == (b"", 0)
        np.testing.assert_array_equal(unpack_fixed(b"", 0, 5), np.zeros(5))

    def test_width_zero_refuses_a_non_zero_value(self):
        with pytest.raises(ContractViolationError, match="does not fit"):
            pack_fixed([0, 1], 0)


class TestSectionCodec:
    """`_section` and `_read_section` over the three table modes."""

    @staticmethod
    def _frame(mode, width, symbols):
        table = {
            "fixed": None, "in-section": pipeline.IN_SECTION,
            "shared": ec.table_from_counts(np.arange(1 << width), 1 << width),
        }[mode]
        sec = pipeline._section(pipeline.SEC_G3, symbols, width, table)
        frame = Bitstream(0, 0, 0, 1, 0, 0.0, [sec])
        return Bitstream.from_bytes(frame.to_bytes()), table

    @pytest.mark.parametrize("mode", ["fixed", "shared", "in-section"])
    @pytest.mark.parametrize("width", [0, 1, 6])
    def test_round_trip(self, mode, width):
        symbols = np.random.default_rng(width).integers(0, 1 << width, 301)
        frame, table = self._frame(mode, width, symbols)
        out = pipeline._read_section(frame, pipeline.SEC_G3, 301, width, table)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, symbols)
        with pytest.raises(MalformedBitstreamError, match="expected"):
            pipeline._read_section(frame, pipeline.SEC_G3, 300, width, table)

    def test_one_bit_fixed_section_packs_as_bit_array(self):
        signs = np.random.default_rng(3).integers(0, 2, 301)
        sec = pipeline._section(pipeline.SEC_SIGN, signs, 1, None)
        assert (sec.payload, sec.bit_length) == (pack_bit_array(signs), 301)


class TestAccounting:
    def test_formula_matches_measured_within_half_percent(
        self, uplink_corpus, small_uplink_profile, small_vq_codebook
    ):
        bits = pipeline.compress(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        )
        formula = compression_ratio(small_uplink_profile, bits.stats)
        assert abs(formula - bits.stats.cr_measured) < 0.005 * bits.stats.cr_measured

    def test_known_stage_product(self, uplink_corpus):
        # no EC, no scaling: CR = CPR * DEC * VQ exactly up to ceil effects
        prof = CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8),
            quantizer=VqSpec(2, 6), entropy_coding=False,
        )
        s = make_corpus(12, seed=34, link="downlink_ofdm")
        cb = pipeline.train_for_profile(s, prof, trials=1, seed=4)
        bits = pipeline.compress(s, prof, cb)
        assert compression_ratio(prof, bits.stats) == pytest.approx(
            1.125 * 1.6 * 2.5, rel=1e-3
        )
        assert bits.stats.cr_measured == pytest.approx(4.5, rel=1e-3)

    def test_upmgq_accounting(self, uplink_corpus):
        prof = CompressionProfile(
            link="uplink",
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8),
            quantizer=UpmgqSpec(theta=0, q_high=3, l=2, q_low=3, q_scale=5),
            entropy_coding=True,
        )
        cb = pipeline.train_for_profile(uplink_corpus, prof, trials=1, seed=5)
        bits = pipeline.compress(uplink_corpus, prof, cb)
        formula = compression_ratio(prof, bits.stats)
        assert abs(formula - bits.stats.cr_measured) < 0.005 * bits.stats.cr_measured
        out = pipeline.decompress(bits.to_bytes(), prof, cb)
        assert len(out) == len(uplink_corpus)

    def test_upmgq_g3_entropy_flag(self, uplink_corpus):
        prof = CompressionProfile(
            link="uplink",
            quantizer=UpmgqSpec(theta=0, q_high=3, l=2, q_low=3, q_scale=5,
                                g3_entropy=True),
            entropy_coding=True,
        )
        cb = pipeline.train_for_profile(uplink_corpus, prof, trials=1, seed=6)
        bits = pipeline.compress(uplink_corpus, prof, cb)
        out = pipeline.decompress(bits.to_bytes(), prof, cb)
        assert len(out) == len(uplink_corpus)

    def test_msvq_chain_accounting(self, uplink_corpus):
        prof = CompressionProfile(
            link="uplink",
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=BlockScalingSpec(32, 8),
            quantizer=MsvqSpec(2, 2, 2), entropy_coding=True,
        )
        cb = pipeline.train_for_profile(uplink_corpus, prof, trials=1, seed=7)
        counter = fvq.SearchCounter()
        rep = pipeline.evaluate_chain(uplink_corpus, prof, cb, counter)
        assert abs(rep.cr_formula - rep.cr_measured) < 0.005 * rep.cr_measured
        assert rep.so_measured == 2**4 + 2**4
        assert rep.cs_measured == 2**4 + 2**8

    def test_eval_report_json(self, uplink_corpus, small_uplink_profile,
                              small_vq_codebook):
        rep = pipeline.evaluate_chain(
            uplink_corpus, small_uplink_profile, small_vq_codebook
        )
        blob = rep.to_json()
        parsed = __import__("json").loads(blob)
        assert parsed["schema"] == "fvq-eval-2"
        assert parsed["evm_fd_pct"] == pytest.approx(rep.evm_fd_pct)
