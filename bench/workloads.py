"""The benchmark's workloads and the corpora each one generates.

Every codebook is trained as the acceptance suite's criterion 7 trains these
quantizers: 48 symbols of 64QAM at 5 dB from waveform seed 301, trainer seed
7, with train_for_profile's own defaults for everything else (modified
trainer, 2 trials, LloydStop()). The frames a run compresses come from the
run's seed and cycle through other modulations and SNRs, as in the paper's
mismatch study, so index statistics and Huffman code lengths differ from
frame to frame and from training.
"""

import math
from dataclasses import dataclass

import numpy as np

import fvq
from fvq.pipeline import (
    BlockScalingSpec,
    CompressionProfile,
    MsvqSpec,
    UpmgqSpec,
    VqSpec,
)

TRAIN_SYMBOLS = 48
TRAIN_WAVEFORM_SEED = 301
TRAIN_MODULATION = "qam64"
TRAIN_SNR_DB = 5.0
TRAINER_SEED = 7

# One LTE subframe: 14 symbols of 1024 + 128 samples.
FRAME_SYMBOLS = 14
FRAME_MIX = (
    ("qpsk", 10.0),
    ("qam16", 20.0),
    ("qam64", 30.0),
    ("qpsk", 30.0),
    ("qam16", 5.0),
    ("qam64", math.inf),
)

# waveform generator link per profile link
WAVEFORM_LINK = {"uplink": "uplink_scfdm", "downlink": "downlink_ofdm"}


@dataclass(frozen=True)
class Workload:
    name: str
    profile: CompressionProfile


def _chain(**kw):
    return dict(
        decimation=fvq.ResamplerSpec(5, 8),
        block_scaling=BlockScalingSpec(32, 8),
        entropy_coding=True,
        **kw,
    )


# Why each workload is in the benchmark is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ul_vq_l2q6",
            CompressionProfile(link="uplink", **_chain(quantizer=VqSpec(2, 6))),
        ),
        Workload(
            "dl_msvq_332",
            CompressionProfile(
                link="downlink", cp_removal=True,
                **_chain(quantizer=MsvqSpec(3, 3, 2)),
            ),
        ),
        Workload(
            "ul_upmgq_tm1",
            CompressionProfile(
                link="uplink",
                **_chain(quantizer=UpmgqSpec(
                    theta=-1, q_high=5, l=2, q_low=3, q_scale=6
                )),
            ),
        ),
    )
}


@dataclass
class Corpora:
    train: fvq.IQStream
    frames: list  # of IQStream, one per FRAME_MIX entry


def make_corpora(workload: Workload, seed: int) -> Corpora:
    """Training corpus from the fixed seed; frames from the run's seed."""
    train = fvq.generate(
        fvq.WaveformConfig(
            num_symbols=TRAIN_SYMBOLS,
            modulation=TRAIN_MODULATION,
            snr_db=TRAIN_SNR_DB,
            seed=TRAIN_WAVEFORM_SEED,
            link=WAVEFORM_LINK[workload.profile.link],
        )
    )
    frame_seeds = np.random.SeedSequence([seed, 0x46524D]).generate_state(
        len(FRAME_MIX)
    )
    frames = [
        fvq.generate(
            fvq.WaveformConfig(
                num_symbols=FRAME_SYMBOLS,
                modulation=mod,
                snr_db=snr,
                seed=int(s),
                link=WAVEFORM_LINK[workload.profile.link],
            )
        )
        for (mod, snr), s in zip(FRAME_MIX, frame_seeds)
    ]
    return Corpora(train, frames)
