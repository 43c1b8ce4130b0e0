"""The benchmark's run of one workload and the metrics it reports; the
entry point and its options are in run.py."""

import collections
import contextlib
import math
import os
import pickle
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from bench import checks, tracing, workloads
from fvq import pipeline, vq_core

SETUP_REPEATS = 15
# train again from the same seed until this much training has been timed
TRAIN_SECONDS = 8.0
MIN_ROUNDS = 3
# a traced operation's span against the harness's own clock around the call
SPAN_TOLERANCE_S = 1e-3
SPAN_TOLERANCE_REL = 0.01


class Run:
    """One workload run: its corpora, codebook, checked reference round
    trips, and the tally of operations attempted and failed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.profile = workload.profile
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_times = []
        self.train_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.corpora = workloads.make_corpora(workload, seed)
            self.setup_times.append(time.perf_counter() - t0)
        self.frames = self.corpora.frames
        self.samples_per_round = sum(len(f) for f in self.frames)

    def _tally(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def train(self, tracer):
        """Train once from the fixed seed, timed. The first training's Lloyd
        runs and artifact are checked; every later one must give the same
        artifact, byte for byte once pickled."""
        r = len(self.train_times)
        with tracing.recording(tracing.TRAINING_SITES) as lloyd_calls:
            t0 = time.perf_counter()
            with tracer.root("op.train", -1 - r) as span:
                codebooks = pipeline.train_for_profile(
                    self.corpora.train, self.profile,
                    seed=workloads.TRAINER_SEED,
                )
            t1 = time.perf_counter()
        tracer.measured.append((span, t0, t1))
        self.train_times.append(t1 - t0)
        artifact = pickle.dumps(codebooks)
        if r == 0:
            self.codebooks = codebooks
            self.artifact = artifact
            iters = [cb.training_meta.iterations for _, cb in lloyd_calls]
            self.lloyd_iters = sum(iters)
            self.lloyd_iters_max = max(iters, default=0)
            problems = checks.check_training(
                self.profile, self.corpora.train, codebooks, lloyd_calls
            )
        else:
            problems = ([] if artifact == self.artifact
                        else ["artifact differs from the first training"])
        self._tally(f"training {r}", problems)

    def check_pass(self):
        """Round-trip every frame once and check it; the outputs become the
        reference the timed rounds must reproduce."""
        self.reference = []
        self.stats = []
        nbits = err = energy = 0.0
        sites = checks.DECODED_SITES[self.profile.quantizer.kind]
        for i, frame in enumerate(self.frames):
            bits = pipeline.compress(
                frame, self.profile, self.codebooks, vq_core.SearchCounter()
            )
            data = bits.to_bytes()
            with tracing.recording(sites) as decoded:
                out = pipeline.decompress(data, self.profile, self.codebooks)
            problems, b, e, s = checks.check_frame(self.profile, frame, bits, data, out)
            problems += checks.check_nearest(
                self.profile, self.codebooks, frame, decoded,
                np.random.default_rng([self.seed, i, 0x4E43]),
            )
            self._tally(f"frame {i}", problems)
            nbits, err, energy = nbits + b, err + e, energy + s
            self.reference.append((data, out.samples))
            self.stats.append(bits.stats)
        self.cr = 2 * self.profile.q0 * self.samples_per_round / nbits
        self.evm_fd_pct = 100.0 * math.sqrt(err / energy)

    def round(self, tracer):
        """Round-trip every frame once, each call timed; returns per frame
        (compress MS/s, decompress MS/s, round-trip seconds)."""
        ops = []
        for i, frame in enumerate(self.frames):
            op = self.attempted
            t0 = time.perf_counter()
            with tracer.root("op.compress", op) as c_span:
                data = pipeline.compress(
                    frame, self.profile, self.codebooks, vq_core.SearchCounter()
                ).to_bytes()
            t1 = time.perf_counter()
            with tracer.root("op.decompress", op) as d_span:
                out = pipeline.decompress(data, self.profile, self.codebooks)
            t2 = time.perf_counter()
            tracer.measured += [(c_span, t0, t1), (d_span, t1, t2)]
            ops.append((len(frame) / 1e6 / (t1 - t0),
                        len(frame) / 1e6 / (t2 - t1), t2 - t0))
            ref_data, ref_samples = self.reference[i]
            same = data == ref_data and np.array_equal(out.samples, ref_samples)
            self._tally(f"frame {i} op {op}",
                        [] if same else ["round trip differs from the checked one"])
        return ops


def median(values, i):
    return statistics.median(r[i] for r in values)



def end_to_end(run, ops):
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "train_s": (statistics.median(run.train_times), "s"),
        "compress_msps": (median(ops, 0), "MS/s"),
        "decompress_msps": (median(ops, 1), "MS/s"),
        "cr": (run.cr, "x"),
        "evm_fd_pct": (run.evm_fd_pct, "%"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }


# per-layer self-time metrics: metric name -> span name; per frame unless
# the span runs in training
FRAME_SPANS = {
    "vq_core.quantize_batch_s": "vq_core.quantize_batch",
    "vq_core.dequantize_batch_s": "vq_core.dequantize_batch",
    "msvq.quantize_msvq_s": "msvq.quantize_msvq",
    "msvq.dequantize_msvq_s": "msvq.dequantize_msvq",
    "upmgq.quantize_upmgq_s": "upmgq.quantize_upmgq",
    "upmgq.dequantize_upmgq_s": "upmgq.dequantize_upmgq",
    "entropy.encode_s": "entropy.encode",
    "entropy.decode_s": "entropy.decode",
    "entropy.table_build_s": "entropy.table_build",
    "frontend.resample_decimate_s": "frontend.resample_decimate",
    "frontend.resample_interpolate_s": "frontend.resample_interpolate",
    "frontend.block_scale_s": "frontend.block_scale",
    "frontend.block_unscale_s": "frontend.block_unscale",
    "frontend.remove_cp_s": "frontend.remove_cp",
    "frontend.reinsert_cp_s": "frontend.reinsert_cp",
    "vectorizer.vectorize_s": "vectorizer.vectorize",
    "vectorizer.devectorize_s": "vectorizer.devectorize",
    "bitio.pack_s": "bitio.pack",
    "bitio.unpack_s": "bitio.unpack",
    "pipeline.compress_self_s": "pipeline.compress",
    "pipeline.decompress_self_s": "pipeline.decompress",
    "pipeline.frame_bytes_s": "pipeline.frame_bytes",
}
TRAIN_SPANS = {
    "vq_core.train_s": "vq_core.train",
    "msvq.train_msvq_s": "msvq.train_msvq",
    "upmgq.train_upmgq_s": "upmgq.train_upmgq",
}


def per_layer(run, tracer, n_ops, overhead_pct):
    """Layer metrics: self times from the traced spans, search work, bits
    and decoded symbols from the checked round trips' accounts."""
    secs, counts = tracer.totals(("op.compress", "op.decompress"))
    train_secs, _ = tracer.totals(("op.train",))
    out = {m: (secs[span] / n_ops, "s/frame") for m, span in FRAME_SPANS.items()}
    out.update({m: (train_secs[span] / len(run.train_times), "s/train")
                for m, span in TRAIN_SPANS.items()})

    n_frames = len(run.stats)
    evals = collections.Counter()
    n_vec = index_bits = side_bits = n_factors = 0
    n_bs = run.profile.block_scaling.n_bs
    for st in run.stats:
        for k, c in st.search_counters.items():
            evals[k] += c.distance_evals
        n_vec += st.n_vectors
        per_vec = st.l_high if run.profile.quantizer.kind == "upmgq" else st.l_huff_emitted
        index_bits += per_vec * st.n_vectors
        side_bits += st.side_info_bits
        n_factors += -(-st.m_dec // n_bs)
    out.update({
        "vq_core.distance_evals": (evals["vq"] / n_frames, "count/frame"),
        "msvq.distance_evals": (evals["msvq"] / n_frames, "count/frame"),
        "upmgq.distance_evals": (
            (evals["upmgq_g2"] + evals["upmgq_g3"]) / n_frames, "count/frame"),
        "vq_core.lloyd_iters": (run.lloyd_iters, "count/train"),
        "entropy.decoded_symbols": (
            counts["entropy.decode"] / n_ops, "count/frame"),
        "entropy.bits_per_vector": (index_bits / n_vec, "bit/vector"),
        "pipeline.side_bits_per_factor": (side_bits / n_factors, "bit/factor"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out


def machine_info(threads):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (run, metrics, run-level problems, the
    tracer holding the traced spans). Metrics map name -> (value, unit).

    The first training gives the codebook the rounds use. Further trainings
    are spread over the rounds, so they meet the same drift in machine speed
    as the round trips do. With `trace`, untraced and traced rounds
    alternate for twice `seconds`, so the drift reaches both sides of the
    overhead alike, and every training is traced."""
    run = Run(workload, seed)
    timing = tracing.Tracer()  # root spans only: no patch site is installed
    traced = tracing.Tracer()

    def train():
        with traced.installed() if trace else contextlib.nullcontext():
            run.train(traced if trace else timing)

    train()
    run.check_pass()
    ops, traced_ops = [], []  # (MS/s, MS/s, s) of every round trip
    span = seconds * (1 + trace)
    round_s = 0.0  # time spent in rounds, trainings left out
    while len(ops) < MIN_ROUNDS * len(run.frames) or round_s < span:
        t0 = time.perf_counter()
        ops += run.round(timing)
        if trace:
            with traced.installed():
                traced_ops += run.round(traced)
        round_s += time.perf_counter() - t0
        while sum(run.train_times) < TRAIN_SECONDS * min(1.0, round_s / span):
            train()
    run.round_log = {"untraced": ops, "traced": traced_ops}
    if not trace:
        return run, end_to_end(run, ops), [], traced
    overhead = 100.0 * (median(traced_ops, 2) / median(ops, 2) - 1)
    metrics = per_layer(run, traced, len(traced_ops), overhead)
    return run, metrics, traced.consistency_errors() + span_errors(traced), traced


def span_errors(tracer):
    """Traced spans against the harness's own clock.

    Each operation's root span must lie inside the perf_counter interval the
    harness took around the same call and last as long, within tolerance, so
    the self times of the operation's spans add up to the measured call. The
    self times the per-layer metrics report for frame operations must add up
    to the measured frame operations as a whole, so no span's time goes
    unreported or is counted twice."""
    errors = []
    own = tracer.self_times()
    roots = tracer.roots()
    subtree = collections.Counter()
    for i, r in enumerate(roots):
        subtree[r] += own[i]
    frame_ops = ("op.compress", "op.decompress")
    measured_frames = 0.0
    for r, t0, t1 in tracer.measured:
        s = tracer.spans[r]
        if not t0 <= s.start <= s.end <= t1:
            errors.append(f"{s.name} {s.frame}: span leaves the measured call")
        if not abs(subtree[r] - (t1 - t0)) <= (
            SPAN_TOLERANCE_S + SPAN_TOLERANCE_REL * (t1 - t0)
        ):
            errors.append(
                f"{s.name} {s.frame}: self times add to {subtree[r]!r} s, "
                f"the call measured {t1 - t0!r} s"
            )
        if s.name in frame_ops:
            measured_frames += t1 - t0
    secs, _ = tracer.totals(frame_ops)
    unreported = set(secs) - set(FRAME_SPANS.values()) - set(frame_ops)
    if unreported:
        errors.append(f"spans no metric reports: {sorted(unreported)}")
    reported = sum(secs[span] for span in FRAME_SPANS.values())
    if not abs(reported - measured_frames) <= SPAN_TOLERANCE_REL * measured_frames:
        errors.append(
            f"per-layer self times add to {reported!r} s, the traced frame "
            f"operations measured {measured_frames!r} s"
        )
    return errors
