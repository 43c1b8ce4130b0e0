import numpy as np
import pytest

import fvq
from fvq import pipeline

def make_corpus(num_symbols, snr_db=5.0, seed=0, link="uplink_scfdm",
                modulation="qam64"):
    return fvq.generate(
        fvq.WaveformConfig(
            num_symbols=num_symbols, snr_db=snr_db, seed=seed, link=link,
            modulation=modulation,
        )
    )


def seeded_codebooks(quantizer, seed=0):
    """Codebooks of `quantizer`'s geometry drawn from a seeded rng instead of
    trained, so tests that pin bytes do not move when training changes.

    Codewords are spread over the block-scaled range (+-2^scale_bits) and
    usage counts are random, so the Huffman tables are not uniform."""
    rng = np.random.default_rng(seed)
    span = 2.0 ** quantizer.scale_bits

    def codebook(l, q, values):
        n = 2 ** (l * q)
        return fvq.Codebook(l, q, values((n, l)), rng.integers(0, 50, n))

    def spread(shape):
        return rng.uniform(-span, span, shape)

    if isinstance(quantizer, pipeline.VqSpec):
        return codebook(quantizer.l_vq, quantizer.q_vq, spread)
    if isinstance(quantizer, pipeline.MsvqSpec):
        q = quantizer
        stage1 = codebook(q.l, q.q1, spread)
        # each cell refines around its stage-1 codeword
        cell = span / 2 ** q.q1
        stage2 = [
            codebook(
                q.l, q.q2, lambda shape, c=c: c + rng.uniform(-cell, cell, shape)
            )
            for c in stage1.codewords
        ]
        return fvq.MsvqCodebook(stage1, stage2, q.l, q.q1, q.q2)
    if isinstance(quantizer, pipeline.UpmgqSpec):
        q = quantizer
        # high parts over 2^theta are non-negative integers
        levels = int(span * 2.0 ** -q.theta)
        high = codebook(
            q.l, q.q_high,
            lambda shape: rng.integers(0, levels, shape).astype(np.float64),
        )
        return fvq.UpmgqCodebook(high, q.theta, q.q_low)
    return None


@pytest.fixture(scope="session")
def uplink_corpus():
    return make_corpus(24, seed=11)


@pytest.fixture(scope="session")
def small_uplink_profile():
    """Cheap uplink chain (small codebook) for pipeline-level tests."""
    return pipeline.CompressionProfile(
        link="uplink",
        decimation=fvq.ResamplerSpec(5, 8),
        block_scaling=pipeline.BlockScalingSpec(32, 8),
        quantizer=pipeline.VqSpec(2, 4),
        entropy_coding=True,
    )


@pytest.fixture(scope="session")
def small_vq_codebook(uplink_corpus, small_uplink_profile):
    return pipeline.train_for_profile(
        uplink_corpus, small_uplink_profile, trials=2, seed=3
    )
