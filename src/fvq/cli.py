"""Batch command-line surface.

Subcommands: gen, train, compress, decompress, eval, sweep, stats. Every
command takes a JSON profile (--profile) holding the compression-chain
parameters plus optional "waveform", "training", "eval" and "sweep" blocks,
and repeatable --set key=value overrides using dotted paths into that JSON
(values parse as JSON when possible). Each output artifact gets a
<name>.meta.json sidecar with the fully resolved configuration so any run is
reproducible from its logged snapshot.

Exit codes: 0 ok, 2 usage, 3 data/format error, 4 contract violation.
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, pipeline, upmgq, vectorizer, vq_core, waveform
from .errors import ContractViolationError, FormatError
from .iqstream import read_iqf1, write_iqf1

log = logging.getLogger("fvq")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4


def _parse_set(value):
    if "=" not in value:
        raise argparse.ArgumentTypeError(f"--set needs key=value, got {value!r}")
    key, raw = value.split("=", 1)
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return key, parsed


def _positive_count(value):
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _apply_overrides(config: dict, overrides):
    for key, value in overrides:
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ContractViolationError(f"cannot override through {part!r}")
        node[parts[-1]] = value
    return config


def _load_config(args) -> dict:
    config = {}
    if args.profile:
        try:
            with open(args.profile) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{args.profile}: {exc}") from exc
        if not isinstance(config, dict):
            raise FormatError(f"{args.profile}: profile must be a JSON object")
    _apply_overrides(config, args.set or [])
    if args.seed is not None:
        config.setdefault("waveform", {})["seed"] = args.seed
        config.setdefault("training", {})["seed"] = args.seed
    return config


def _profile_from(config: dict) -> pipeline.CompressionProfile:
    chain = {
        k: v
        for k, v in config.items()
        if k not in ("waveform", "training", "eval", "sweep")
    }
    return pipeline.CompressionProfile.from_dict(chain)


def _waveform_config(block: dict) -> tuple[waveform.WaveformConfig, str]:
    block = dict(block or {})
    if isinstance(block.get("snr_db"), str):
        block["snr_db"] = float(block["snr_db"])
    if block.get("snr_db") is None:
        block["snr_db"] = math.inf
    channel = block.pop("channel", "awgn")
    cfg = waveform.WaveformConfig(**block)
    return cfg, channel


def _gen_corpus(block: dict):
    cfg, channel = _waveform_config(block)
    stream = waveform.generate(cfg)
    if channel == "multipath":
        stream = waveform.apply_static_multipath(stream, cfg.seed)
    elif channel != "awgn":
        raise ContractViolationError(f"unknown channel {channel!r}")
    stream.meta["channel"] = channel
    return stream


def _corpus_pair(wf: dict, block: dict):
    """(train, eval) corpora from one waveform block; the eval corpus's seed
    is the train seed plus the block's eval_seed_offset (default 7777)."""
    wf_eval = dict(wf)
    wf_eval["seed"] = int(wf.get("seed", 0)) + int(
        block.get("eval_seed_offset", 7777)
    )
    return _gen_corpus(wf), _gen_corpus(wf_eval)


def _write_sidecar(out_path, command, config):
    with open(f"{out_path}.meta.json", "w") as fh:
        json.dump(
            {"command": command, "resolved_config": config}, fh, indent=2,
            sort_keys=True, default=str,
        )


def cmd_gen(args) -> int:
    config = _load_config(args)
    stream = _gen_corpus(config.get("waveform", {}))
    write_iqf1(stream, args.out)
    _write_sidecar(args.out, "gen", config)
    power = stream.power
    print(f"wrote {args.out}: {len(stream)} samples @ {stream.sample_rate} Hz, "
          f"mean power {power:.6f}")
    snr = config.get("waveform", {}).get("snr_db")
    if snr is not None and not math.isinf(float(snr)) and len(stream):
        clean_cfg = dict(config["waveform"])
        clean_cfg["snr_db"] = math.inf
        clean = _gen_corpus(clean_cfg)
        noise = stream.samples - clean.samples
        p_noise = float(np.mean(np.abs(noise) ** 2))
        measured = 10 * math.log10(clean.power / p_noise) if p_noise else math.inf
        print(f"measured SNR {measured:.2f} dB (requested {float(snr):.2f})")
    return EXIT_OK


def _trainer_opts(config):
    """`train_for_profile` keywords for only the keys "training" sets."""
    casts = {"trainer": str, "trials": int, "seed": int,
             "max_iterations": int, "rel_improvement_eps": float}
    try:
        block = dict(config.get("training", {}))
        opts = {k: cast(block[k]) for k, cast in casts.items() if k in block}
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(
            f"malformed training block: {exc}"
        ) from exc
    stop = {k: opts.pop(k) for k in ("max_iterations", "rel_improvement_eps")
            if k in opts}
    if stop:
        opts["stop"] = vq_core.LloydStop(**stop)
    return opts


def cmd_train(args) -> int:
    config = _load_config(args)
    profile = _profile_from(config)
    stream = read_iqf1(getattr(args, "in"))
    artifact = pipeline.train_for_profile(
        stream, profile, **_trainer_opts(config)
    )
    profile.quantizer.save(artifact, args.out, profile.q0)
    _write_sidecar(args.out, "train", config)
    print(f"wrote {args.out}")
    return EXIT_OK


def _print_stage_table(profile, stats):
    cr_formula = pipeline.compression_ratio(profile, stats)
    print(f"  CR (stage formula) : {cr_formula:.4f}")
    print(f"  CR (measured bits) : {stats.cr_measured:.4f}")
    gains = {s.label: s.gain for s in pipeline.frontend_stages(profile)}
    print(f"  stage gains        : CPR {gains.get('CPR', 1.0):.4f} x DEC "
          f"{gains.get('DEC', 1.0):.4f} x Q {stats.quantizer_gain:.4f}")
    print(f"  payload bits       : {stats.payload_bits} "
          f"(side info {stats.side_info_bits})")


def cmd_compress(args) -> int:
    config = _load_config(args)
    profile = _profile_from(config)
    stream = read_iqf1(getattr(args, "in"))
    codebook = profile.quantizer.load(args.codebook) if args.codebook else None
    bits = pipeline.compress(stream, profile, codebook)
    with open(args.out, "wb") as fh:
        fh.write(bits.to_bytes())
    _write_sidecar(args.out, "compress", config)
    print(f"wrote {args.out}: {len(stream)} samples compressed")
    _print_stage_table(profile, bits.stats)
    return EXIT_OK


def cmd_decompress(args) -> int:
    config = _load_config(args)
    profile = _profile_from(config)
    with open(getattr(args, "in"), "rb") as fh:
        data = fh.read()
    codebook = profile.quantizer.load(args.codebook) if args.codebook else None
    stream = pipeline.decompress(data, profile, codebook)
    write_iqf1(stream, args.out)
    _write_sidecar(args.out, "decompress", config)
    print(f"wrote {args.out}: {len(stream)} samples")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Mismatch matrix: train per labeled corpus, evaluate all pairs."""
    config = _load_config(args)
    profile = _profile_from(config)
    block = config.get("eval")
    if not block or "corpora" not in block:
        raise ContractViolationError('profile needs an "eval" block with "corpora"')
    opts = _trainer_opts(config)
    train_corpora, eval_corpora = {}, {}
    for label, wf in block["corpora"].items():
        train_corpora[label], eval_corpora[label] = _corpus_pair(wf, block)

    labels = list(block["corpora"])
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        trained = pool.map(
            lambda lab: pipeline.train_for_profile(
                train_corpora[lab], profile, **opts
            ),
            labels,
        )
        codebooks = dict(zip(labels, trained))
    matrix = metrics.mismatch_matrix(codebooks, eval_corpora, profile)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "mismatch.csv")
    matrix.write_csv(csv_path)
    if args.report == "json":
        with open(os.path.join(args.out, "mismatch.json"), "w") as fh:
            json.dump(
                {
                    "schema": metrics.REPORT_SCHEMA,
                    "train_labels": matrix.train_labels,
                    "eval_labels": matrix.eval_labels,
                    "evm_fd_pct": matrix.evm_fd.tolist(),
                    "evm_td_pct": matrix.evm_td.tolist(),
                    "relative_pct": matrix.relative_pct().tolist(),
                },
                fh, indent=2,
            )
    _write_sidecar(csv_path, "eval", config)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Rate-distortion sweep over quantizer settings from the profile."""
    config = _load_config(args)
    block = config.get("sweep") or {"points": []}
    points = block.get("points", [])
    opts = _trainer_opts(config)
    rows = []
    header = [
        "label", "quantizer", "entropy_coding", "cr_formula", "cr_measured",
        "evm_td_pct", "evm_fd_pct", "so", "cs",
    ]
    if points:
        train_corpus, eval_corpus = _corpus_pair(
            config.get("waveform", {}), block
        )

        def run_point(point):
            prof = _profile_from({
                **config, **point.get("profile", {}),
                "quantizer": point["quantizer"],
            })
            codebook = pipeline.train_for_profile(train_corpus, prof, **opts)
            counter = vq_core.SearchCounter()
            report = pipeline.evaluate_chain(
                eval_corpus, prof, codebook, counter
            )
            return [
                point.get("label", prof.quantizer.kind),
                json.dumps(point["quantizer"], sort_keys=True),
                prof.entropy_coding,
                f"{report.cr_formula:.4f}",
                f"{report.cr_measured:.4f}",
                f"{report.evm_td_pct:.4f}",
                f"{report.evm_fd_pct:.4f}",
                report.so_measured,
                report.cs_measured,
            ]

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(run_point, points))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    _write_sidecar(args.out, "sweep", config)
    print(f"wrote {args.out} ({len(rows)} points)")
    return EXIT_OK


def cmd_stats(args) -> int:
    """Orthant-entropy and level-statistics reports for the profile corpus."""
    config = _load_config(args)
    profile = _profile_from(config)
    if getattr(args, "in"):
        stream = read_iqf1(getattr(args, "in"))
    else:
        stream = _gen_corpus(config.get("waveform", {}))
    os.makedirs(args.out, exist_ok=True)

    lengths = config.get("stats", {}).get("vector_lengths", [1, 2, 3, 4])
    ent_path = os.path.join(args.out, "orthant_entropy.csv")
    with open(ent_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "l_vq", "entropy_bits"])
        for method in vectorizer.VectorLayout:
            for l_vq in lengths:
                batch = vectorizer.vectorize(stream, method, int(l_vq), seed=1)
                w.writerow(
                    [method.value, l_vq,
                     f"{vectorizer.orthant_entropy(batch):.6f}"]
                )

    scaled = pipeline.frontend_transform(stream, profile)
    stats = upmgq.level_statistics(scaled)
    lev_path = os.path.join(args.out, "level_statistics.csv")
    with open(lev_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "p_one"])
        w.writerow(["sign", f"{stats.sign_negative_p:.6f}"])
        for k, p in zip(stats.levels, stats.p_one):
            w.writerow([int(k), f"{p:.6f}"])
    _write_sidecar(ent_path, "stats", config)
    print(f"wrote {ent_path}")
    print(f"wrote {lev_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvq",
        description="Vector-quantization fronthaul compression toolkit",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=False, threads=False):
        p.add_argument("--profile", help="JSON profile path")
        p.add_argument("--set", action="append", type=_parse_set,
                       metavar="KEY=VALUE", help="override profile entries")
        p.add_argument("--seed", type=int, default=None)
        if threads:
            p.add_argument("--threads", type=_positive_count, default=1)
        if needs_in:
            p.add_argument("--in", required=True, help="input path")
        p.add_argument("--out", required=True, help="output path")

    common(sub.add_parser("gen", help="generate a corpus (IQF1)"))
    common(sub.add_parser("train", help="train a codebook artifact"),
           needs_in=True)
    p = sub.add_parser("compress", help="compress an IQF1 file to CPZ1")
    common(p, needs_in=True)
    p.add_argument("--codebook", help="codebook artifact path")
    p = sub.add_parser("decompress", help="decompress a CPZ1 file to IQF1")
    common(p, needs_in=True)
    p.add_argument("--codebook", help="codebook artifact path")
    p = sub.add_parser("eval", help="mismatch matrices")
    common(p, threads=True)
    p.add_argument("--report", choices=("csv", "json"), default="csv")
    common(sub.add_parser("sweep", help="rate-distortion sweep CSV"),
           threads=True)
    p = sub.add_parser("stats", help="orthant entropy / level statistics")
    p.add_argument("--in", required=False, help="optional corpus (IQF1)")
    common(p)
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except ContractViolationError as exc:
        log.error("contract violation: %s", exc)
        return EXIT_CONTRACT
    except (FormatError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
