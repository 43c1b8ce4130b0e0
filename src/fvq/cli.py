"""Batch command-line surface.

Subcommands: gen, train, compress, decompress, eval, sweep, stats. Every
command takes a JSON profile (--profile) holding the compression-chain
parameters plus optional "waveform", "training", "eval" and "sweep" blocks,
and repeatable --set key=value overrides using dotted paths into that JSON
(values parse as JSON when possible). Each output artifact gets a
<name>.meta.json sidecar with the fully resolved configuration so any run is
reproducible from its logged snapshot.

Every command parses the whole resolved profile (`_parse`) before any work
starts, under one rule (`_block`): a value of the wrong type or shape, or a
missing or unknown key, in the chain, in any block or in any sweep point is
a contract violation. Nothing after parsing runs under that rule.

Corpora follow the chain: every corpus (the "waveform" block's train/eval
pair and each "eval" corpus) takes its symbol geometry and link from the
chain's l_sym, l_cp, used_subcarriers and link. A corpus block holds only
the conditions of the corpus, and a sweep point may not change the
geometry or the link, since every point runs on the one corpus pair.

Exit codes: 0 ok, 2 usage, 3 data/format error, 4 contract violation.
"""

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from . import artifacts, metrics, pipeline, upmgq, vectorizer, vq_core, waveform
from .errors import ContractViolationError, FormatError, has_type
from .iqstream import read_iqf1, write_iqf1

log = logging.getLogger("fvq")

EXIT_OK = 0
EXIT_DATA = 3
EXIT_CONTRACT = 4

_BLOCKS = ("waveform", "training", "eval", "sweep")
_TRAINING = {"trainer": str, "trials": int, "seed": int,
             "max_iterations": int, "rel_improvement_eps": float}
_EVAL = {"corpora": dict, "eval_seed_offset": int}
_SWEEP = {"points": list, "eval_seed_offset": int}
_POINT = {"label": str, "quantizer": dict, "profile": dict}
_CHANNELS = ("awgn", "multipath")
# WaveformConfig fields a corpus block may not set -> the chain key that does
_CHAIN_DECIDES = {"fft_size": "l_sym", "cp_length": "l_cp",
                  "used_subcarriers": "used_subcarriers", "link": "link"}
_LINKS = {pipeline.UPLINK: waveform.Link.UPLINK_SCFDM,
          pipeline.DOWNLINK: waveform.Link.DOWNLINK_OFDM}


def _parse_set(value):
    if "=" not in value:
        raise argparse.ArgumentTypeError(f"--set needs key=value, got {value!r}")
    key, raw = value.split("=", 1)
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return key, parsed


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


def _block(what, parse, *args):
    """parse(*args) under the one rule for outside input: a value of the
    wrong type or shape, or a missing or unknown key, is a contract
    violation."""
    try:
        return parse(*args)
    except ContractViolationError:
        raise
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise ContractViolationError(f"malformed {what}: {exc!r}") from exc


def _typed(block, types) -> dict:
    """block, if each key is in `types` and holds a value of its type."""
    for key, value in block.items():
        if not has_type(value, types[key]):
            raise TypeError(f"{key} must be {types[key].__name__}")
    return block


def _waveforms(block, seed_offset, profile):
    """The (train, eval) (WaveformConfig, channel) pair of a corpus block on
    the chain `profile`'s symbol geometry and link: the eval seed is the
    train seed plus `seed_offset`, and a null or absent snr_db is
    noiseless."""
    block = {**block}
    for key in sorted(block.keys() & _CHAIN_DECIDES):
        raise ContractViolationError(
            f"a corpus block cannot set {key!r}: corpora take the chain's "
            f"{_CHAIN_DECIDES[key]!r}"
        )
    channel = block.pop("channel", "awgn")
    if channel not in _CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if block.get("snr_db") is None:
        block["snr_db"] = math.inf
    cfg = waveform.WaveformConfig(
        fft_size=profile.l_sym, cp_length=profile.l_cp,
        used_subcarriers=profile.used_subcarriers, link=_LINKS[profile.link],
        **block,
    )
    shifted = dataclasses.replace(cfg, seed=cfg.seed + seed_offset)
    return (cfg, channel), (shifted, channel)


def _training(block) -> dict:
    """`train_for_profile` keywords for only the keys "training" sets."""
    opts = {**_typed(block, _TRAINING)}
    vq_core.trainer(opts.get("trainer", vq_core.MODIFIED))
    stop = {k: opts.pop(k) for k in ("max_iterations", "rel_improvement_eps")
            if k in opts}
    if stop:
        opts["stop"] = vq_core.LloydStop(**stop)
    return opts


def _point(point, chain):
    """(label, quantizer JSON, profile) of one sweep point: the chain with
    the point's "profile" keys and its quantizer."""
    q = _typed(point, _POINT)["quantizer"]
    chain_keys = point.get("profile", {}).keys()
    for key in sorted(chain_keys & set(_CHAIN_DECIDES.values())):
        raise ContractViolationError(
            f"a sweep point cannot set {key!r}: every point runs on the "
            "corpora of the top-level chain"
        )
    profile = pipeline.CompressionProfile.from_dict(
        {**chain, **point.get("profile", {}), "quantizer": q}
    )
    return point.get("label", profile.quantizer.kind), q, profile


def _eval_corpora(block, profile) -> dict:
    """label -> (train, eval) waveform pair for each "eval" corpus."""
    offset = _typed(block, _EVAL).get("eval_seed_offset", 7777)
    return {label: _waveforms(wf, offset, profile)
            for label, wf in block["corpora"].items()}


def _parse(config: dict) -> SimpleNamespace:
    """Every block of a resolved config, parsed completely (`_block`)."""
    chain = {k: v for k, v in config.items() if k not in _BLOCKS}
    profile = _block("profile", pipeline.CompressionProfile.from_dict, chain)
    sweep = _block("sweep block", _typed, config.get("sweep", {}), _SWEEP)
    return SimpleNamespace(
        config=config,
        profile=profile,
        # (train, eval) waveforms, eval seeds shifted by the sweep's offset
        waves=_block("waveform block", _waveforms, config.get("waveform", {}),
                     sweep.get("eval_seed_offset", 7777), profile),
        training=_block("training block", _training,
                        config.get("training", {})),
        corpora=_block("eval block", _eval_corpora,
                       config.get("eval", {"corpora": {}}), profile),
        points=[_block(f"sweep point {i}", _point, p, chain)
                for i, p in enumerate(sweep.get("points", []))],
    )


def _load(args) -> SimpleNamespace:
    config = {}
    if args.profile:
        try:
            with open(args.profile) as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{args.profile}: {exc}") from exc
        if not isinstance(config, dict):
            raise FormatError(f"{args.profile}: profile must be a JSON object")
    return _parse(_apply_overrides(config, args.set or []))


def _gen_corpus(wave):
    cfg, channel = wave
    stream = waveform.generate(cfg)
    if channel == "multipath":
        stream = waveform.apply_static_multipath(stream, cfg.seed)
    stream.meta["channel"] = channel
    return stream


def _pooled(fn, items) -> list:
    """list(map(fn, items)) on as many threads as this process has CPUs."""
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        return list(pool.map(fn, items))


def _write_sidecar(out_path, command, config):
    with open(f"{out_path}.meta.json", "w") as fh:
        json.dump({"command": command, "resolved_config": config}, fh,
                  indent=2, sort_keys=True, default=str)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_gen(args) -> int:
    run = _load(args)
    stream = _gen_corpus(run.waves[0])
    write_iqf1(stream, args.out)
    _write_sidecar(args.out, "gen", run.config)
    print(f"wrote {args.out}: {len(stream)} samples @ {stream.sample_rate} Hz, "
          f"mean power {stream.power:.6f}")
    cfg, channel = run.waves[0]
    if not math.isinf(cfg.snr_db) and len(stream):
        clean = _gen_corpus((dataclasses.replace(cfg, snr_db=math.inf), channel))
        noise = stream.samples - clean.samples
        p_noise = float(np.mean(np.abs(noise) ** 2))
        measured = 10 * math.log10(clean.power / p_noise) if p_noise else math.inf
        print(f"measured SNR {measured:.2f} dB (requested {cfg.snr_db:.2f})")
    return EXIT_OK


def cmd_train(args) -> int:
    run = _load(args)
    stream = read_iqf1(getattr(args, "in"))
    artifact = pipeline.train_for_profile(stream, run.profile, **run.training)
    artifacts.save_codebook(artifact, args.out, run.profile.q0)
    _write_sidecar(args.out, "train", run.config)
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
    run = _load(args)
    stream = read_iqf1(getattr(args, "in"))
    codebook = artifacts.load_codebook(args.codebook) if args.codebook else None
    bits = pipeline.compress(stream, run.profile, codebook)
    with open(args.out, "wb") as fh:
        fh.write(bits.to_bytes())
    _write_sidecar(args.out, "compress", run.config)
    print(f"wrote {args.out}: {len(stream)} samples compressed")
    _print_stage_table(run.profile, bits.stats)
    return EXIT_OK


def cmd_decompress(args) -> int:
    run = _load(args)
    with open(getattr(args, "in"), "rb") as fh:
        data = fh.read()
    codebook = artifacts.load_codebook(args.codebook) if args.codebook else None
    stream = pipeline.decompress(data, run.profile, codebook)
    write_iqf1(stream, args.out)
    _write_sidecar(args.out, "decompress", run.config)
    print(f"wrote {args.out}: {len(stream)} samples")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Mismatch matrix: train per labeled corpus, evaluate all pairs."""
    run = _load(args)
    if "eval" not in run.config:
        raise ContractViolationError('profile needs an "eval" block with "corpora"')
    corpora = {label: [_gen_corpus(w) for w in waves]
               for label, waves in run.corpora.items()}
    trained = _pooled(lambda pair: pipeline.train_for_profile(
        pair[0], run.profile, **run.training), corpora.values())
    matrix = metrics.mismatch_matrix(
        dict(zip(corpora, trained)),
        {label: pair[1] for label, pair in corpora.items()}, run.profile,
    )
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "mismatch.csv")
    matrix.write_csv(csv_path)
    if args.report == "json":
        with open(os.path.join(args.out, "mismatch.json"), "w") as fh:
            json.dump(dict(
                schema=metrics.REPORT_SCHEMA,
                train_labels=matrix.train_labels,
                eval_labels=matrix.eval_labels,
                evm_fd_pct=matrix.evm_fd.tolist(),
                evm_td_pct=matrix.evm_td.tolist(),
                relative_pct=matrix.relative_pct().tolist(),
            ), fh, indent=2)
    _write_sidecar(csv_path, "eval", run.config)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Rate-distortion sweep over quantizer settings from the profile."""
    run = _load(args)
    rows = []
    if run.points:
        train_corpus, eval_corpus = map(_gen_corpus, run.waves)

        def run_point(point):
            label, quantizer, prof = point
            codebook = pipeline.train_for_profile(train_corpus, prof,
                                                  **run.training)
            counter = vq_core.SearchCounter()
            r = pipeline.evaluate_chain(eval_corpus, prof, codebook, counter)
            return [
                label, json.dumps(quantizer, sort_keys=True),
                prof.entropy_coding,
                *(f"{x:.4f}" for x in (r.cr_formula, r.cr_measured,
                                       r.evm_td_pct, r.evm_fd_pct)),
                r.so_measured, r.cs_measured,
            ]

        rows = _pooled(run_point, run.points)
    _write_csv(args.out, [
        "label", "quantizer", "entropy_coding", "cr_formula", "cr_measured",
        "evm_td_pct", "evm_fd_pct", "so", "cs",
    ], rows)
    _write_sidecar(args.out, "sweep", run.config)
    print(f"wrote {args.out} ({len(rows)} points)")
    return EXIT_OK


def cmd_stats(args) -> int:
    """Orthant-entropy and level-statistics reports for the profile corpus."""
    run = _load(args)
    path = getattr(args, "in")
    stream = read_iqf1(path) if path else _gen_corpus(run.waves[0])
    os.makedirs(args.out, exist_ok=True)

    ent_path = os.path.join(args.out, "orthant_entropy.csv")
    entropy = vectorizer.orthant_entropy
    _write_csv(ent_path, ["method", "l_vq", "entropy_bits"], [
        [method.value, l_vq,
         f"{entropy(vectorizer.vectorize(stream, method, l_vq, seed=1)):.6f}"]
        for method in vectorizer.VectorLayout for l_vq in (1, 2, 3, 4)
    ])
    stats = upmgq.level_statistics(
        pipeline.frontend_transform(stream, run.profile)
    )
    lev_path = os.path.join(args.out, "level_statistics.csv")
    _write_csv(lev_path, ["level", "p_one"], [
        ["sign", f"{stats.sign_negative_p:.6f}"],
        *([int(k), f"{p:.6f}"] for k, p in zip(stats.levels, stats.p_one)),
    ])
    _write_sidecar(ent_path, "stats", run.config)
    print(f"wrote {ent_path}")
    print(f"wrote {lev_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvq",
        description="Vector-quantization fronthaul compression toolkit",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(required=True)

    def common(p, command, needs_in=False):
        p.set_defaults(command=command)
        p.add_argument("--profile", help="JSON profile path")
        p.add_argument("--set", action="append", type=_parse_set,
                       metavar="KEY=VALUE", help="override profile entries")
        if needs_in:
            p.add_argument("--in", required=True, help="input path")
        p.add_argument("--out", required=True, help="output path")

    common(sub.add_parser("gen", help="generate a corpus (IQF1)"), cmd_gen)
    common(sub.add_parser("train", help="train a codebook artifact"),
           cmd_train, needs_in=True)
    p = sub.add_parser("compress", help="compress an IQF1 file to CPZ1")
    common(p, cmd_compress, needs_in=True)
    p.add_argument("--codebook", help="codebook artifact path")
    p = sub.add_parser("decompress", help="decompress a CPZ1 file to IQF1")
    common(p, cmd_decompress, needs_in=True)
    p.add_argument("--codebook", help="codebook artifact path")
    p = sub.add_parser("eval", help="mismatch matrices")
    common(p, cmd_eval)
    p.add_argument("--report", choices=("csv", "json"), default="csv")
    common(sub.add_parser("sweep", help="rate-distortion sweep CSV"),
           cmd_sweep)
    p = sub.add_parser("stats", help="orthant entropy / level statistics")
    p.add_argument("--in", required=False, help="optional corpus (IQF1)")
    common(p, cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        return args.command(args)
    except ContractViolationError as exc:
        log.error("contract violation: %s", exc)
        return EXIT_CONTRACT
    except (FormatError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
