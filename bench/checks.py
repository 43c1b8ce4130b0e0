"""Correctness checks made in the benchmark, not read off fvq's own accounts.

Each check returns a list of problems; an empty list is a pass. Expected
values come from brute-force NumPy searches, from the CPZ1 section
descriptors parsed here, and from the benchmark's own FFT, never from
figures recorded by an earlier run.
"""

import math
import struct

import numpy as np

from fvq import metrics, pipeline, vq_core
from fvq.iqstream import IQStream
from fvq.vectorizer import vectorize

# quantizer input vectors checked against a brute-force search, per frame
NEAREST_SAMPLE = 256
CR_TOLERANCE = 0.005
EVM_TOLERANCE = 1e-9
DISTORTION_TOLERANCE = 1e-9


def _pairwise(vecs, codewords):
    return ((vecs[:, None, :] - codewords[None, :, :]) ** 2).sum(axis=2)


def nearest_mismatches(vecs, codewords, carried) -> int:
    """Vectors whose carried index is not the brute-force nearest codeword.

    The program ranks by |c|^2 - 2 v.c, which rounds differently from
    |v - c|^2; an index within that rounding of the minimum passes if it is
    the lowest index at its own distance (exact ties go low)."""
    carried = np.asarray(carried, dtype=np.int64)
    if carried.size == 0:
        return 0
    if carried.min() < 0 or carried.max() >= len(codewords):
        return int(carried.size)
    d = _pairwise(vecs, codewords)
    rows = np.arange(len(vecs))
    best = d.argmin(axis=1)
    d_car = d[rows, carried]
    tol = 1e-9 * ((vecs**2).sum(axis=1) + (codewords**2).sum(axis=1).max())
    lowest = np.argmax(d == d_car[:, None], axis=1)
    ok = (carried == best) | ((d_car - d[rows, best] <= tol) & (lowest == carried))
    return int((~ok).sum())


def _sample(rng, n):
    return np.sort(rng.choice(n, size=min(n, NEAREST_SAMPLE), replace=False))


def check_nearest(profile, codebooks, frame, decoded, rng) -> list:
    """The indices the frame carries against a brute-force search over the
    quantizer's input. `decoded` holds the calls recorded at DECODED_SITES
    while the frame was decompressed: the decoder's reading of the frame."""
    q = profile.quantizer
    if len(decoded) != 1:
        return [f"decoder made {len(decoded)} dequantize calls, expected 1"]
    args = decoded[0][0]
    x = pipeline.frontend_transform(frame, profile)
    problems = []
    if q.kind == "vq":
        idx = np.asarray(args[1])
        vecs = vectorize(x, profile.vector_method, q.l_vq, profile.vector_seed).vectors
        if len(idx) != len(vecs):
            return [f"{len(idx)} VQ indices for {len(vecs)} vectors"]
        pos = _sample(rng, len(vecs))
        bad = nearest_mismatches(vecs[pos], codebooks.codewords, idx[pos])
        if bad:
            problems.append(f"VQ: {bad}/{len(pos)} indices not nearest")
    elif q.kind == "msvq":
        i1, i2 = np.asarray(args[1]), np.asarray(args[2])
        vecs = vectorize(x, profile.vector_method, q.l, profile.vector_seed).vectors
        if len(i1) != len(vecs) or len(i2) != len(vecs):
            return [f"{len(i1)}/{len(i2)} MSVQ indices for {len(vecs)} vectors"]
        pos = _sample(rng, len(vecs))
        bad1 = nearest_mismatches(vecs[pos], codebooks.stage1.codewords, i1[pos])
        bad2 = 0
        for k in np.unique(i1[pos]):
            sel = pos[i1[pos] == k]
            bad2 += nearest_mismatches(
                vecs[sel], codebooks.stage2[k].codewords, i2[sel]
            )
        if bad1 or bad2:
            problems.append(
                f"MSVQ: {bad1} stage-1 and {bad2} stage-2 of {len(pos)} "
                "indices not nearest"
            )
    elif q.kind == "upmgq":
        ind = args[2]
        comps = np.concatenate([x.samples.real, x.samples.imag])
        mag = np.abs(comps)
        step = math.ldexp(1.0, q.theta)
        high = np.floor(mag / step)
        low = mag - high * step
        n_vec = -(-comps.size // q.l)
        padded = np.zeros(n_vec * q.l)
        padded[: comps.size] = high
        vecs = padded.reshape(n_vec, q.l)
        if len(ind.g2_indices) != n_vec or len(ind.g3_codes) != comps.size:
            return ["UPMGQ index groups do not match the input size"]
        pos = _sample(rng, n_vec)
        bad2 = nearest_mismatches(
            vecs[pos], codebooks.high_vq.codewords, ind.g2_indices[pos]
        )
        cpos = _sample(rng, comps.size)
        grid = codebooks.low_sq
        g3 = np.argmin(np.abs(low[cpos, None] - grid[None, :]), axis=1)
        bad3 = int(np.sum(g3 != ind.g3_codes[cpos]))
        bad_sign = int(np.sum(
            ind.sign_negative[cpos].astype(bool) != (comps[cpos] < 0)
        ))
        if bad2 or bad3 or bad_sign:
            problems.append(
                f"UPMGQ: {bad2} G2, {bad3} G3 and {bad_sign} sign codes of "
                f"{len(pos)}/{len(cpos)} not nearest"
            )
    else:
        problems.append(f"no nearest-codeword check for {q.kind!r}")
    return problems


def section_bits(data: bytes) -> tuple:
    """(original sample count M, sum of section bit lengths) from the CPZ1
    header and section descriptors."""
    if len(data) < 64 or data[:4] != b"CPZ1":
        raise ValueError("not a CPZ1 frame")
    n_sections = data[5]
    (m,) = struct.unpack_from("<Q", data, 16)
    bits = 0
    for i in range(n_sections):
        _, _, bit_length = struct.unpack_from("<B3xQQ", data, 64 + 20 * i)
        bits += bit_length
    return m, bits


def utilized_band(fft_size, used):
    """FFT bins of the used subcarriers: symmetric about DC, DC unused."""
    n_pos = (used + 1) // 2
    return np.r_[1 : n_pos + 1, fft_size - used // 2 : fft_size]


def _symbols(profile, stream):
    """Stream as one row per symbol with its CP dropped."""
    step = profile.l_sym + profile.l_cp
    return stream.samples.reshape(-1, step)[:, profile.l_cp :]


def check_frame(profile, frame, bits, data, out) -> tuple:
    """Frame-bytes, length, rate, CR and EVM checks for one round trip.

    Returns (problems, section bits, band error energy, band signal
    energy); the energies come from the benchmark's own FFT of every
    symbol, CP dropped, over the utilized band."""
    problems = []
    if pipeline.Bitstream.from_bytes(data).to_bytes() != data:
        problems.append("frame does not re-serialize to the same bytes")
    if len(out) != len(frame) or out.sample_rate != frame.sample_rate:
        problems.append(
            f"output {len(out)} samples at {out.sample_rate}, input "
            f"{len(frame)} at {frame.sample_rate}"
        )
        return problems, 0, math.nan, math.nan
    m, nbits = section_bits(data)
    if m != len(frame) or nbits <= 0:
        problems.append(f"header says M={m} with {nbits} section bits")
        return problems, nbits, math.nan, math.nan
    cr = 2 * profile.q0 * m / nbits
    cr_formula = pipeline.compression_ratio(profile, bits.stats)
    if abs(cr_formula / cr - 1) > CR_TOLERANCE:
        problems.append(f"compression_ratio {cr_formula} vs descriptors {cr}")
    band = utilized_band(profile.l_sym, profile.used_subcarriers)
    a, b = _symbols(profile, frame), _symbols(profile, out)
    fa = np.fft.fft(a, axis=1)[:, band]
    fb = np.fft.fft(b, axis=1)[:, band]
    err = float(np.sum(np.abs(fa - fb) ** 2))
    energy = float(np.sum(np.abs(fa) ** 2))
    evm = 100.0 * math.sqrt(err / energy)
    evm_lib = metrics.evm_fd(
        IQStream(a.ravel()), IQStream(b.ravel()), band, profile.l_sym
    )
    if not abs(evm_lib - evm) <= EVM_TOLERANCE * evm:
        problems.append(f"metrics.evm_fd {evm_lib} vs benchmark FFT {evm}")
    return problems, nbits, err, energy


def _min_distances(vecs, codewords):
    chunk = max(1, 2_000_000 // max(codewords.size, 1))
    out = np.empty(len(vecs))
    for a in range(0, len(vecs), chunk):
        out[a : a + chunk] = _pairwise(vecs[a : a + chunk], codewords).min(axis=1)
    return out


def check_lloyd(vectors, codebook) -> list:
    """Invariants of one vq_core training call.

    The distortion trace may rise only when empty-cell repairs fired: with R
    repairs of step delta = 1e-3 * corpus RMS, no codeword moves more than
    sqrt(l) * R * delta in one update, which bounds a rise from distortion D
    by 2 sqrt(l D) R delta + l (R delta)^2."""
    vecs = np.asarray(getattr(vectors, "vectors", vectors), dtype=np.float64)
    meta = codebook.training_meta
    problems = []
    if meta is None:
        return ["trained codebook carries no training metadata"]
    trace = np.asarray(meta.distortion_trace, dtype=np.float64)
    l = vecs.shape[1]
    move = meta.repair_events * 1e-3 * math.sqrt(float(np.mean(vecs**2)))
    allowed = (DISTORTION_TOLERANCE * trace[:-1]
               + 2 * np.sqrt(l * trace[:-1]) * move + l * move**2)
    rises = np.flatnonzero(np.diff(trace) > allowed)
    if rises.size:
        problems.append(
            f"distortion rises at iterations {rises.tolist()} "
            f"({meta.repair_events} repairs)"
        )
    if int(codebook.usage_counts.sum()) != len(vecs):
        problems.append(
            f"usage counts sum to {int(codebook.usage_counts.sum())}, "
            f"{len(vecs)} training vectors"
        )
    d = float(np.mean(_min_distances(vecs, codebook.codewords)))
    if not abs(d - meta.final_distortion) <= DISTORTION_TOLERANCE * max(d, 1e-300):
        problems.append(
            f"final distortion {meta.final_distortion} vs brute force {d}"
        )
    return problems


def check_training(profile, train_stream, artifact, lloyd_calls) -> list:
    """Every Lloyd run inside train_for_profile, and the artifact's usage
    counts against the training-vector count."""
    if not lloyd_calls:
        return ["train_for_profile made no vq_core training call"]
    problems = []
    for args, codebook in lloyd_calls:
        problems += check_lloyd(args[0], codebook)
    q = profile.quantizer
    x = pipeline.frontend_transform(train_stream, profile)
    if q.kind == "upmgq":
        n = -(-2 * len(x) // q.l)
        usage = {"G2": artifact.high_vq.usage_counts}
    else:
        l = q.l_vq if q.kind == "vq" else q.l
        n = len(vectorize(x, profile.vector_method, l, profile.vector_seed).vectors)
        if q.kind == "vq":
            usage = {"codebook": artifact.usage_counts}
        else:
            usage = {
                "stage 1": artifact.stage1.usage_counts,
                "stage 2": np.concatenate([c.usage_counts for c in artifact.stage2]),
            }
    for what, counts in usage.items():
        if int(np.sum(counts)) != n:
            problems.append(
                f"{what} usage counts sum to {int(np.sum(counts))}, "
                f"{n} training vectors"
            )
    return problems


# where the decoder reads the indices a frame carries, per quantizer kind
DECODED_SITES = {
    "vq": [(vq_core, "dequantize_batch")],
    "msvq": [(pipeline, "dequantize_msvq")],
    "upmgq": [(pipeline, "dequantize_upmgq")],
}
