"""The benchmark's patch sites still see the calls they time and check.

`bench/tracing.py` and `bench/checks.py` wrap fvq functions where the chain
looks them up (``pipeline.quantize_msvq``, ``vq_core.dequantize_batch``).
Importing `bench.tracing` checks that every site still exists; these tests
check that the chain still calls through them, so a refactor that moves a
call off its patched name fails here rather than in every benchmark run.
"""

import numpy as np
import pytest

from bench import checks, tracing, workloads
from fvq import pipeline
from tests.conftest import make_corpus, seeded_codebooks

# the span each quantizer's search is timed under
SEARCH_SPANS = {
    "vq": "vq_core.quantize_batch",
    "msvq": "msvq.quantize_msvq",
    "upmgq": "upmgq.quantize_upmgq",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_trip_through_patch_sites(name):
    profile = workloads.WORKLOADS[name].profile
    kind = profile.quantizer.kind
    frame = make_corpus(
        2, snr_db=20.0, seed=37, link=workloads.WAVEFORM_LINK[profile.link]
    )
    codebooks = seeded_codebooks(profile.quantizer, seed=41)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("op.compress", 0):
        data = pipeline.compress(frame, profile, codebooks).to_bytes()
    assert SEARCH_SPANS[kind] in {s.name for s in tracer.spans}
    with tracing.recording(checks.DECODED_SITES[kind]) as decoded:
        pipeline.decompress(data, profile, codebooks)
    assert len(decoded) == 1
    problems = checks.check_nearest(
        profile, codebooks, frame, decoded, np.random.default_rng(43)
    )
    assert problems == []


# the codebook a quantizer's first Lloyd run trains
FIRST_TRAINED = {
    "vq": lambda artifact: artifact,
    "msvq": lambda artifact: artifact.stage1,
    "upmgq": lambda artifact: artifact.high_vq,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_training_calls_patched_lloyd(name):
    # 6 symbols: the fewest that hold a vector per ul_vq_l2q6 codeword
    profile = workloads.WORKLOADS[name].profile
    corpus = make_corpus(6, seed=3, link=workloads.WAVEFORM_LINK[profile.link])
    with tracing.recording(tracing.TRAINING_SITES) as calls:
        artifact = pipeline.train_for_profile(corpus, profile, trials=1)
    assert calls
    first = FIRST_TRAINED[profile.quantizer.kind](artifact)
    assert first.training_meta is calls[0][1].training_meta
