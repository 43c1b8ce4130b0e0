"""Distortion and complexity measurement.

Time-domain EVM is the RMS error over RMS signal in percent. Frequency-domain
EVM applies the same form per fft_size-sample symbol after an FFT, restricted
to the utilized-band bin set, aggregated over all symbols. The pipeline
guarantees sample alignment (filter delays are compensated in the front end),
so no cross-correlation search is performed here; misalignment is a bug, not
something the metric should hide.
"""

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ContractViolationError
from .iqstream import IQStream

REPORT_SCHEMA = "fvq-eval-2"


def _evm_pct(a: np.ndarray, b: np.ndarray, where: str) -> float:
    """100 * sqrt(sum |a - b|^2 / sum |a|^2), for equal-length a and b."""
    if len(a) != len(b):
        raise ContractViolationError(
            f"length mismatch: {len(a)} vs {len(b)}"
        )
    energy = float(np.sum(np.abs(a) ** 2))
    if energy == 0.0:
        raise ContractViolationError(f"zero energy in {where}")
    err = float(np.sum(np.abs(a - b) ** 2))
    return 100.0 * np.sqrt(err / energy)


def evm_td(input_stream: IQStream, output_stream: IQStream) -> float:
    """100 * sqrt(sum |in - out|^2 / sum |in|^2)."""
    return _evm_pct(input_stream.samples, output_stream.samples, "the input")


def evm_fd(
    input_stream: IQStream,
    output_stream: IQStream,
    band,
    fft_size: int,
) -> float:
    """EVM over per-symbol FFT bins restricted to the utilized band.

    Streams must contain whole fft_size-sample symbols with CP already
    stripped.
    """
    band = np.asarray(band, dtype=np.int64)
    if band.size == 0:
        raise ContractViolationError("empty utilized band")
    if band.min() < 0 or band.max() >= fft_size:
        raise ContractViolationError("band index outside 0..fft_size-1")
    a, b = input_stream.samples, output_stream.samples
    if len(a) == 0 or len(a) % fft_size or len(b) != len(a):
        raise ContractViolationError(
            f"stream lengths {len(a)} and {len(b)} are not one multiple "
            f"of fft_size"
        )
    fa = np.fft.fft(a.reshape(-1, fft_size), axis=1)[:, band]
    fb = np.fft.fft(b.reshape(-1, fft_size), axis=1)[:, band]
    return _evm_pct(fa, fb, "the utilized band")


@dataclass
class EvalReport:
    """EVM / CR / complexity for one (codebook, corpus, profile) triple."""

    evm_td_pct: float
    evm_fd_pct: float
    cr_formula: float
    cr_measured: float
    cr_measured_no_side_info: float = 0.0
    so_measured: int = 0
    cs_measured: int = 0
    l_huff: float = 0.0
    l_high: float = 0.0
    l_low: float = 0.0
    profile_digest: str = ""
    schema: str = REPORT_SCHEMA

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def complexity_counters(run) -> tuple[int, int]:
    """(search operations per quantized unit, stored codeword count) from an
    instrumented run.

    `run` is any object exposing per-section SearchCounters via
    `search_counters` (a dict of section name -> SearchCounter) and a
    `stored_codewords` integer. Scalar sections amortize per component,
    vector sections per vector, so the sum reproduces the closed-form
    search-operation counts exactly.
    """
    so = 0.0
    for counter in run.search_counters.values():
        so += counter.evals_per_item
    so_int = int(round(so))
    if abs(so - so_int) > 1e-9:
        raise ContractViolationError(
            f"non-integral search-operation count {so}"
        )
    return so_int, int(run.stored_codewords)


@dataclass
class MismatchMatrix:
    """EVM of every (training codebook, evaluation corpus) pair plus the
    per-column degradation relative to the matched diagonal."""

    train_labels: list
    eval_labels: list
    evm_fd: np.ndarray  # (train, eval) percent
    evm_td: np.ndarray

    def relative_pct(self) -> np.ndarray:
        """Per-column relative degradation vs the diagonal entry, percent."""
        rel = np.zeros_like(self.evm_fd)
        for j, lab in enumerate(self.eval_labels):
            i = self.train_labels.index(lab)
            diag = self.evm_fd[i, j]
            rel[:, j] = 100.0 * (self.evm_fd[:, j] - diag) / diag
        return rel

    def write_csv(self, path) -> None:
        rel = self.relative_pct()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["train\\eval"]
                + [f"evm_{c}" for c in self.eval_labels]
                + [f"rel_{c}_pct" for c in self.eval_labels]
            )
            for i, row_label in enumerate(self.train_labels):
                w.writerow(
                    [row_label]
                    + [f"{v:.4f}" for v in self.evm_fd[i]]
                    + [f"{v:.2f}" for v in rel[i]]
                )


def mismatch_matrix(codebooks: dict, corpora: dict, profile) -> MismatchMatrix:
    """Evaluate every trained codebook against every corpus with one profile.

    `codebooks` maps label -> codebook artifact, `corpora` maps label ->
    IQStream; matched pairs share a label. Evaluation runs the full
    compress/decompress chain of the profile.
    """
    from .pipeline import evaluate_chain

    train_labels = list(codebooks)
    eval_labels = list(corpora)
    for lab in eval_labels:
        if lab not in codebooks:
            raise ContractViolationError(
                f"no matched codebook for corpus {lab!r}"
            )
    fd = np.zeros((len(train_labels), len(eval_labels)))
    td = np.zeros_like(fd)
    for i, tl in enumerate(train_labels):
        for j, el in enumerate(eval_labels):
            report = evaluate_chain(corpora[el], profile, codebooks[tl])
            fd[i, j] = report.evm_fd_pct
            td[i, j] = report.evm_td_pct
    return MismatchMatrix(train_labels, eval_labels, fd, td)
