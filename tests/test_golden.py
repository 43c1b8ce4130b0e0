"""Golden CPZ1 frames: the SHA-256 of the bytes `compress` emits, and of the
samples `decompress` rebuilds from them, for every quantizer kind.

Codebooks come from a seeded rng (`seeded_codebooks`), not from training,
so only a change to the chain itself moves a digest. A refactor that must
keep the bitstream must leave every digest here as it is.
"""

import hashlib

import pytest

import fvq
from fvq import pipeline
from fvq.pipeline import (
    BlockScalingSpec,
    CompressionProfile,
    MsvqSpec,
    RawSpec,
    UpmgqSpec,
    VqSpec,
)
from tests.conftest import make_corpus, seeded_codebooks


def _uplink(quantizer, ec):
    return CompressionProfile(
        link="uplink",
        decimation=fvq.ResamplerSpec(5, 8),
        block_scaling=BlockScalingSpec(32, 8),
        quantizer=quantizer,
        entropy_coding=ec,
    )


UPMGQ = dict(theta=-1, q_high=3, l=2, q_low=2, q_scale=4)

DOWNLINK_VQ = CompressionProfile(
    link="downlink", cp_removal=True,
    decimation=fvq.ResamplerSpec(5, 8),
    block_scaling=BlockScalingSpec(32, 8),
    quantizer=VqSpec(2, 4), entropy_coding=True,
)

# name -> (profile, frame SHA-256, decoded-sample SHA-256)
GOLDEN = {
    "vq ec": (
        _uplink(VqSpec(2, 4), True),
        "96b1d3e5b2e0f83fbb0be33a0a09e88d5c2b05e3d65f833958bcdea76abdee9e",
        "35c2ca526cd5689ef0b0ac07681f9474142be855c6a91a85e6d5df03e9115261",
    ),
    "vq fixed": (
        _uplink(VqSpec(2, 4), False),
        "66a1de53c53070c4301e52d44245d03df0814e43b771411dab4611161070eef6",
        "35c2ca526cd5689ef0b0ac07681f9474142be855c6a91a85e6d5df03e9115261",
    ),
    "msvq ec": (
        _uplink(MsvqSpec(2, 2, 2), True),
        "ec7fd558bd246a11e7044602b3307d7a600aa076925e9cb0f68488b96ccced52",
        "2d66eb856a4388a3375b055f64a10e74634f87c911ece13057ce3a74c022fadd",
    ),
    "msvq fixed": (
        _uplink(MsvqSpec(2, 2, 2), False),
        "09ac109f363b19d2a2f5ae21044f7c75aabbc1e40d5cfa4fc5b1cf8bc7418e16",
        "2d66eb856a4388a3375b055f64a10e74634f87c911ece13057ce3a74c022fadd",
    ),
    "upmgq ec": (
        _uplink(UpmgqSpec(**UPMGQ), True),
        "557d18418abd5592c164d55312655629ba2ceaa52034d2aa734458e6ca7987cb",
        "f052562408f1e18a0d404ef512c501221d7f96d427b597d12bebb419cd81928d",
    ),
    "upmgq fixed": (
        _uplink(UpmgqSpec(**UPMGQ), False),
        "e215bfcdf9e806713f71ec93cd89d60aac72203550d4d14b87d18eb16cc710d9",
        "f052562408f1e18a0d404ef512c501221d7f96d427b597d12bebb419cd81928d",
    ),
    "upmgq g3 entropy": (
        _uplink(UpmgqSpec(**UPMGQ, g3_entropy=True), True),
        "fa4be39f75557eace7da5e7320b550b78acd7595c0c4fa7083199624a319b71f",
        "f052562408f1e18a0d404ef512c501221d7f96d427b597d12bebb419cd81928d",
    ),
    "upmgq q_low 0": (
        _uplink(UpmgqSpec(**{**UPMGQ, "q_low": 0}), True),
        "de0cad7940d16d542385550ccb3fc89153c5bf60663e60a816ecb9f7febef3a6",
        "ccf22eb8a776a98b989fd4d82687f64f4c5511cbecc88487c9a54f41350d37d0",
    ),
    # an in-section G3 table over a one-symbol alphabet: zero-length codes
    "upmgq q_low 0 g3 entropy": (
        _uplink(UpmgqSpec(**{**UPMGQ, "q_low": 0, "g3_entropy": True}), True),
        "89c42d3041dda04833b864fe6356a1e11ecbca7ea7d06d7bfb658c933b6620c4",
        "ccf22eb8a776a98b989fd4d82687f64f4c5511cbecc88487c9a54f41350d37d0",
    ),
    "raw ec": (
        _uplink(RawSpec(), True),
        "d1ccd8a607dd5c15a74358dbeb924a78838843784fd41fae22e6ab0ee37a1b09",
        "e7152a69ba8e9791e2cf46b3c5cf9e34608f5bdc0f98c3929806328b33af5425",
    ),
    "raw fixed": (
        _uplink(RawSpec(), False),
        "7281851123d10ccf8ff2e3b1206a509dca09c224ce8ebd18538d960b682e3da3",
        "e7152a69ba8e9791e2cf46b3c5cf9e34608f5bdc0f98c3929806328b33af5425",
    ),
    "downlink vq cp": (
        DOWNLINK_VQ,
        "d7ba7b1d616958f9a926b8198e6ada387e6cf989993b35241ce352fd53eafbb3",
        "8f6101dabf2d60ad06ada3e5aa16cb97d3381b23b81a451aa4468a009ae776f3",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_frame(name):
    profile, frame_sha, samples_sha = GOLDEN[name]
    link = "downlink_ofdm" if profile.link == "downlink" else "uplink_scfdm"
    stream = make_corpus(2, snr_db=20.0, seed=29, link=link)
    codebooks = seeded_codebooks(profile.quantizer, seed=31)
    data = pipeline.compress(stream, profile, codebooks).to_bytes()
    out = pipeline.decompress(data, profile, codebooks)
    assert (_sha(data), _sha(out.samples.tobytes())) == (frame_sha, samples_sha)
