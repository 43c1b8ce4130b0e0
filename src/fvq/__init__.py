"""Vector-quantization based fronthaul I/Q compression toolkit."""

from .errors import (
    ContractViolationError,
    DigestMismatchError,
    FormatError,
    FvqError,
    MalformedBitstreamError,
)
from .iqstream import IQStream, read_iqf1, write_iqf1
from .waveform import Link, Modulation, WaveformConfig, add_awgn, generate
from .frontend import (
    ResamplerSpec,
    ScaleFactors,
    block_scale,
    block_unscale,
    reinsert_cp,
    remove_cp,
    resample,
)
from .vectorizer import VectorBatch, VectorLayout, devectorize, orthant_entropy, vectorize
from .vq_core import (
    Codebook,
    LloydStop,
    SearchCounter,
    lloyd_iterate,
    nearest_codeword,
    quantize_batch,
    dequantize_batch,
    train_classical,
    train_modified,
)
from .msvq import MsvqCodebook, msvq_complexity, quantize_msvq, dequantize_msvq, train_msvq
from .upmgq import (
    UpmgqCodebook,
    UpmgqConfig,
    cr_upmgq,
    expand,
    level_statistics,
    quantize_upmgq,
    dequantize_upmgq,
    train_upmgq,
    upmgq_complexity,
)
from .entropy import HuffmanTable, build_huffman, decode, ec_gain, encode, estimate_pmf
from .artifacts import load_codebook, save_codebook
from .pipeline import (
    Bitstream,
    CompressionProfile,
    compress,
    compression_ratio,
    decompress,
    evaluate_chain,
    theorem_cr,
)
from .metrics import EvalReport, evm_fd, evm_td, mismatch_matrix

__version__ = "0.1.0"
