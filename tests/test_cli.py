import copy
import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fvq
from fvq import artifacts, cli, pipeline, waveform
from fvq.errors import FormatError
from fvq.iqstream import IQF1_MAGIC, read_iqf1
from fvq.pipeline import SEC_VQ_IDX, Bitstream
from tests.conftest import make_corpus, seeded_codebooks


@pytest.fixture
def profile_path(tmp_path):
    profile = {
        "link": "uplink",
        "cp_removal": False,
        "decimation": {"up_factor": 5, "down_factor": 8},
        "block_scaling": {"n_bs": 32, "q_bs": 8},
        "quantizer": {"kind": "vq", "l_vq": 2, "q_vq": 4},
        "entropy_coding": True,
        "waveform": {
            "num_symbols": 10, "snr_db": 5.0, "seed": 5, "modulation": "qam64",
        },
        "training": {"trainer": "modified", "trials": 2, "seed": 1},
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_deterministic_rerun(self, profile_path, tmp_path):
        a, b = tmp_path / "a.iqf", tmp_path / "b.iqf"
        assert _run("gen", "--profile", profile_path, "--out", a) == 0
        assert _run("gen", "--profile", profile_path, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_symbols_valid_empty(self, profile_path, tmp_path):
        out = tmp_path / "empty.iqf"
        assert _run(
            "gen", "--profile", profile_path,
            "--set", "waveform.num_symbols=0", "--out", out,
        ) == 0
        assert len(read_iqf1(out)) == 0

    def test_snr_stat_printed(self, profile_path, tmp_path, capsys):
        out = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "measured SNR" in captured

    @pytest.mark.parametrize("override", [
        "waveform.bogus=1", 'waveform.num_symbols="x"',
        'waveform.modulation="qam256"', 'waveform.link="sideways"',
        'waveform.snr_db="abc"', "waveform=5", "waveform.seed=-1",
    ])
    def test_malformed_waveform_exit_code_4(self, profile_path, tmp_path,
                                            override):
        assert _run("gen", "--profile", profile_path, "--set", override,
                    "--out", tmp_path / "c.iqf") == 4

    def test_sidecar_written(self, profile_path, tmp_path):
        out = tmp_path / "c.iqf"
        _run("gen", "--profile", profile_path, "--out", out)
        meta = json.loads((tmp_path / "c.iqf.meta.json").read_text())
        assert meta["command"] == "gen"
        assert meta["resolved_config"]["waveform"]["num_symbols"] == 10


QUANTIZERS = [
    {"kind": "vq", "l_vq": 2, "q_vq": 4},
    {"kind": "msvq", "q1": 2, "q2": 2, "l": 2},
    {"kind": "upmgq", "theta": 0, "q_high": 3, "l": 2, "q_low": 3,
     "q_scale": 5},
]


class TestTrainCompressDecompress:
    def test_full_cycle(self, profile_path, tmp_path, capsys):
        corpus = tmp_path / "c.iqf"
        cb = tmp_path / "cb.vqcb"
        cpz = tmp_path / "c.cpz"
        rec = tmp_path / "rec.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        assert _run("train", "--profile", profile_path, "--in", corpus,
                    "--out", cb) == 0
        assert _run("compress", "--profile", profile_path, "--codebook", cb,
                    "--in", corpus, "--out", cpz) == 0
        out = capsys.readouterr().out
        assert "CR (stage formula)" in out and "CR (measured bits)" in out
        a = [l for l in out.splitlines() if "CR (stage formula)" in l][0]
        b = [l for l in out.splitlines() if "CR (measured bits)" in l][0]
        assert abs(float(a.split(":")[1]) - float(b.split(":")[1])) < 0.05
        assert _run("decompress", "--profile", profile_path, "--codebook", cb,
                    "--in", cpz, "--out", rec) == 0
        assert len(read_iqf1(rec)) == len(read_iqf1(corpus))

    def test_trained_artifact_stable(self, profile_path, tmp_path):
        corpus = tmp_path / "c.iqf"
        cb1, cb2 = tmp_path / "cb1.vqcb", tmp_path / "cb2.vqcb"
        _run("gen", "--profile", profile_path, "--out", corpus)
        _run("train", "--profile", profile_path, "--in", corpus, "--out", cb1)
        _run("train", "--profile", profile_path, "--in", corpus, "--out", cb2)
        assert cb1.read_bytes() == cb2.read_bytes()

    @pytest.mark.parametrize("quantizer", QUANTIZERS,
                             ids=[q["kind"] for q in QUANTIZERS])
    def test_full_cycle_each_kind(self, profile_path, tmp_path, capsys,
                                  quantizer):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = quantizer
        profile_path.write_text(json.dumps(config))
        corpus = tmp_path / "c.iqf"
        cb, cb_again = tmp_path / "cb.bin", tmp_path / "cb_again.bin"
        cpz = tmp_path / "c.cpz"
        rec = tmp_path / "rec.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        for out in (cb, cb_again):
            assert _run("train", "--profile", profile_path, "--in", corpus,
                        "--out", out) == 0
        assert cb.read_bytes() == cb_again.read_bytes()
        assert _run("compress", "--profile", profile_path, "--codebook", cb,
                    "--in", corpus, "--out", cpz) == 0
        out = capsys.readouterr().out
        assert "CR (stage formula)" in out and "CR (measured bits)" in out
        a = [l for l in out.splitlines() if "CR (stage formula)" in l][0]
        b = [l for l in out.splitlines() if "CR (measured bits)" in l][0]
        assert abs(float(a.split(":")[1]) - float(b.split(":")[1])) < 0.05
        assert _run("decompress", "--profile", profile_path, "--codebook", cb,
                    "--in", cpz, "--out", rec) == 0
        assert len(read_iqf1(rec)) == len(read_iqf1(corpus))

    def test_corrupt_input_exit_code_3(self, profile_path, tmp_path):
        bad = tmp_path / "bad.cpz"
        bad.write_bytes(b"garbage")
        cb = tmp_path / "cb.vqcb"
        corpus = tmp_path / "c.iqf"
        _run("gen", "--profile", profile_path, "--out", corpus)
        _run("train", "--profile", profile_path, "--in", corpus, "--out", cb)
        rc = _run("decompress", "--profile", profile_path, "--codebook", cb,
                  "--in", bad, "--out", tmp_path / "x.iqf")
        assert rc == 3

    def test_hostile_index_count_exit_code_3(self, profile_path, tmp_path):
        corpus, cb = tmp_path / "c.iqf", tmp_path / "cb.vqcb"
        cpz, bad = tmp_path / "c.cpz", tmp_path / "bad.cpz"
        _run("gen", "--profile", profile_path, "--out", corpus)
        _run("train", "--profile", profile_path, "--in", corpus, "--out", cb)
        _run("compress", "--profile", profile_path, "--codebook", cb,
             "--in", corpus, "--out", cpz)
        frame = Bitstream.from_bytes(cpz.read_bytes())
        frame.section(SEC_VQ_IDX).item_count = 2**40
        bad.write_bytes(frame.to_bytes())
        rc = _run("decompress", "--profile", profile_path, "--codebook", cb,
                  "--in", bad, "--out", tmp_path / "x.iqf")
        assert rc == 3

    def test_hostile_raw_scale_exit_code_3(self, profile_path, tmp_path):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = {"kind": "raw"}
        profile_path.write_text(json.dumps(config))
        corpus, cpz = tmp_path / "c.iqf", tmp_path / "c.cpz"
        bad = tmp_path / "bad.cpz"
        _run("gen", "--profile", profile_path, "--out", corpus)
        assert _run("compress", "--profile", profile_path, "--in", corpus,
                    "--out", cpz) == 0
        frame = Bitstream.from_bytes(cpz.read_bytes())
        frame.raw_scale = 0.0
        bad.write_bytes(frame.to_bytes())
        rc = _run("decompress", "--profile", profile_path, "--in", bad,
                  "--out", tmp_path / "x.iqf")
        assert rc == 3

    def _compress_with_edited_upmg(self, profile_path, tmp_path, edit):
        """Exit code of compress with a seeded UPMG codebook whose file bytes
        `edit(blob, codebook)` changes in place."""
        config = json.loads(profile_path.read_text())
        config["quantizer"] = QUANTIZERS[2]
        profile_path.write_text(json.dumps(config))
        profile = cli._parse(config).profile
        cb = seeded_codebooks(profile.quantizer, seed=4)
        path, corpus = tmp_path / "cb.upmg", tmp_path / "c.iqf"
        artifacts.save_codebook(cb, path, profile.q0)
        blob = bytearray(path.read_bytes())
        edit(blob, cb)
        path.write_bytes(bytes(blob))
        _run("gen", "--profile", profile_path, "--out", corpus)
        return _run("compress", "--profile", profile_path, "--codebook", path,
                    "--in", corpus, "--out", tmp_path / "c.cpz")

    def test_hostile_upmgq_code_lengths_exit_code_3(self, profile_path,
                                                    tmp_path):
        def edit(blob, cb):
            # every G2 code one bit long: a Kraft sum of 32
            blob[-cb.high_vq.size:] = b"\x01" * cb.high_vq.size

        assert self._compress_with_edited_upmg(profile_path, tmp_path, edit) == 3

    def test_hostile_upmgq_header_exit_code_3(self, profile_path, tmp_path):
        def edit(blob, cb):
            blob[10] = 0  # q_high

        assert self._compress_with_edited_upmg(profile_path, tmp_path, edit) == 3

    def test_missing_codebook_exit_code_4(self, profile_path, tmp_path):
        corpus = tmp_path / "c.iqf"
        _run("gen", "--profile", profile_path, "--out", corpus)
        rc = _run("compress", "--profile", profile_path, "--in", corpus,
                  "--out", tmp_path / "c.cpz")
        assert rc == 4

    @pytest.mark.parametrize("override", [
        "quantizer.nonsense=1", "quantizer=\"vq\"", "vector_method=\"nope\"",
        "block_scaling.n_bs=0",
    ])
    def test_malformed_profile_exit_code_4(self, profile_path, tmp_path,
                                           override):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--set", override,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 4

    @pytest.mark.parametrize("overrides", [
        ['quantizer={"kind": "raw"}', "q0=1"],
        ["vector_seed=-1"],
        ["vector_seed=18446744073709551616"],
        ['quantizer={"kind": "raw"}', "q0=64"],
        ['link="downlink"', "cp_removal=true", "l_sym=0"],
    ], ids=lambda o: " ".join(o))
    def test_profile_value_that_cannot_run_exit_code_4(
        self, profile_path, tmp_path, overrides
    ):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        sets = [arg for o in overrides for arg in ("--set", o)]
        rc = _run("compress", "--profile", profile_path, *sets,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 4

    def test_upmgq_q0_beyond_a_byte_exit_code_4(self, profile_path, tmp_path):
        # the UPMG header stores q0 in one byte
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        assert _run("train", "--profile", profile_path, "--in", corpus,
                    "--set", f"quantizer={json.dumps(QUANTIZERS[2])}",
                    "--set", "q0=256", "--out", tmp_path / "cb.upmg") == 4

    def test_vq_without_index_bits_exit_code_4(self, profile_path, tmp_path):
        corpus, cb = tmp_path / "c.iqf", tmp_path / "cb.vqcb"
        fvq.save_codebook(fvq.Codebook(2, 0, np.zeros((1, 2))), cb, 15)
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", cb,
                  "--set", "quantizer.q_vq=0", "--set", "block_scaling=null",
                  "--in", corpus,
                  "--out", tmp_path / "c.cpz")
        assert rc == 4

    @pytest.mark.parametrize("quantizer", QUANTIZERS[:2],
                             ids=[q["kind"] for q in QUANTIZERS[:2]])
    def test_codebook_trailing_byte_exit_code_3(self, profile_path, tmp_path,
                                                quantizer):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = quantizer
        profile_path.write_text(json.dumps(config))
        profile = cli._parse(config).profile
        path, corpus = tmp_path / "cb.bin", tmp_path / "c.iqf"
        artifacts.save_codebook(seeded_codebooks(profile.quantizer, seed=6),
                                path, profile.q0)
        path.write_bytes(path.read_bytes() + b"\x00")
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", path,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 3

    def test_msvq_stage_1_geometry_exit_code_3(self, profile_path, tmp_path):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = {"kind": "msvq", "q1": 1, "q2": 1, "l": 2}
        profile_path.write_text(json.dumps(config))
        rng = np.random.default_rng(5)
        cb, corpus = tmp_path / "cb.vqms", tmp_path / "c.iqf"
        # the header says q1 = 1; the stage-1 block holds 16 codewords
        cb.write_bytes(
            artifacts.VQMS + bytes([1, 1, 1, 2])
            + artifacts.encode(fvq.Codebook(2, 2, rng.normal(size=(16, 2))), 15)
            + b"".join(
                artifacts.encode(fvq.Codebook(2, 1, rng.normal(size=(4, 2))), 15)
                for _ in range(4)
            )
        )
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", cb,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 3

    @pytest.mark.parametrize("written, profiled", [(1, 0), (2, 1)],
                             ids=["msvq file, vq profile",
                                  "upmgq file, msvq profile"])
    def test_codebook_of_another_kind_exit_code_4(self, profile_path, tmp_path,
                                                  written, profiled):
        # the file loads; the profile's quantizer refuses what it holds
        config = json.loads(profile_path.read_text())
        written_spec = cli._parse(
            {**config, "quantizer": QUANTIZERS[written]}
        ).profile.quantizer
        path, corpus = tmp_path / "cb.bin", tmp_path / "c.iqf"
        cb = seeded_codebooks(written_spec, seed=7)
        artifacts.save_codebook(cb, path, 15)
        assert type(artifacts.load_codebook(path)) is type(cb)
        config["quantizer"] = QUANTIZERS[profiled]
        profile_path.write_text(json.dumps(config))
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", path,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 4

    def test_unknown_trainer_exit_code_4(self, profile_path, tmp_path):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        assert _run("train", "--profile", profile_path, "--in", corpus,
                    "--set", "training.trainer=bogus",
                    "--out", tmp_path / "cb.vqcb") == 4

    @pytest.mark.parametrize("key", ["trials"])
    def test_malformed_training_value_exit_code_4(
        self, profile_path, tmp_path, key
    ):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        assert _run("train", "--profile", profile_path, "--in", corpus,
                    "--set", f'training.{key}="x"',
                    "--out", tmp_path / "cb.vqcb") == 4

    def test_usage_error_exit_code_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--report", "json"],
        ["gen", "--threads", "2"],
        ["compress", "--in", "IN", "--threads", "2"],
        ["sweep", "--report", "json"],
    ], ids=["gen-report", "gen-threads", "compress-threads", "sweep-report"])
    def test_option_of_another_command_exit_code_2(self, tmp_path, argv):
        # --report is read only by eval; no command has --threads
        argv = [tmp_path / "c.iqf" if a == "IN" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            _run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == 2

    def test_stage_table(self, capsys):
        profile = pipeline.CompressionProfile(
            link="downlink", cp_removal=True,
            decimation=fvq.ResamplerSpec(5, 8),
            block_scaling=pipeline.BlockScalingSpec(32, 8),
            quantizer=pipeline.RawSpec(), entropy_coding=False,
        )
        stream = make_corpus(2, seed=3, link="downlink_ofdm")
        cli._print_stage_table(profile, pipeline.compress(stream, profile).stats)
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(":")[0].strip() for l in lines] == [
            "CR (stage formula)", "CR (measured bits)", "stage gains",
            "payload bits",
        ]
        assert lines[2].endswith("CPR 1.1250 x DEC 1.6000 x Q 1.0000")


class TestSweep:
    def test_empty_sweep_header_only(self, profile_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--profile", profile_path, "--out", out) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert rows[0][0] == "label"

    def test_two_point_sweep(self, profile_path, tmp_path):
        config = json.loads(profile_path.read_text())
        config["waveform"]["num_symbols"] = 10
        config["sweep"] = {
            "points": [
                {"label": "vq_l2q3",
                 "quantizer": {"kind": "vq", "l_vq": 2, "q_vq": 3}},
                {"label": "sq_q4",
                 "quantizer": {"kind": "vq", "l_vq": 1, "q_vq": 4}},
            ]
        }
        p = tmp_path / "sweep_profile.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--profile", p, "--out", out) == 0
        rows = _csv_rows(out)
        assert {r["label"] for r in rows} == {"vq_l2q3", "sq_q4"}
        for r in rows:
            assert float(r["cr_measured"]) > 1.0
            rel = abs(float(r["cr_formula"]) - float(r["cr_measured"]))
            assert rel < 0.005 * float(r["cr_measured"])


class TestStats:
    def test_reports_written(self, profile_path, tmp_path):
        out_dir = tmp_path / "stats"
        assert _run("stats", "--profile", profile_path, "--out", out_dir) == 0
        ent = _csv_rows(out_dir / "orthant_entropy.csv")
        methods = {r["method"] for r in ent}
        assert len(methods) == 3
        by_key = {(r["method"], r["l_vq"]): float(r["entropy_bits"]) for r in ent}
        m1 = by_key[("method1_consecutive_same_component", "3")]
        m3 = by_key[("method3_random", "3")]
        assert m1 < m3
        lev = _csv_rows(out_dir / "level_statistics.csv")
        sign_rows = [r for r in lev if r["level"] == "sign"]
        assert abs(float(sign_rows[0]["p_one"]) - 0.5) < 0.05

    def test_method_3_rows_follow_vector_seed(self, profile_path, tmp_path):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        stream = read_iqf1(corpus)
        rows = {}
        for seed in (2, 9):
            out_dir = tmp_path / f"stats{seed}"
            assert _run("stats", "--profile", profile_path, "--in", corpus,
                        "--set", f"vector_seed={seed}", "--out", out_dir) == 0
            rows[seed] = _csv_rows(out_dir / "orthant_entropy.csv")
        for r2, r9 in zip(rows[2], rows[9], strict=True):
            if r2["method"] != "method3_random":
                assert r2 == r9
                continue
            for seed, r in ((2, r2), (9, r9)):
                vecs = fvq.vectorize(stream, r["method"], int(r["l_vq"]), seed)
                assert r["entropy_bits"] == f"{fvq.orthant_entropy(vecs):.6f}"

    def test_constant_input_degenerate(self, profile_path, tmp_path):
        import numpy as np
        from fvq.iqstream import IQStream, write_iqf1

        const = tmp_path / "const.iqf"
        write_iqf1(IQStream(np.ones(1152 * 2, dtype=complex)), const)
        config = json.loads(profile_path.read_text())
        config["decimation"] = None
        config["block_scaling"] = None
        p = tmp_path / "p.json"
        p.write_text(json.dumps(config))
        out_dir = tmp_path / "stats2"
        assert _run("stats", "--profile", p, "--in", const,
                    "--out", out_dir) == 0
        ent = _csv_rows(out_dir / "orthant_entropy.csv")
        for r in ent:
            if r["method"] == "method1_consecutive_same_component":
                assert float(r["entropy_bits"]) == 0.0


class TestEval:
    def test_small_matrix(self, profile_path, tmp_path):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = {"kind": "vq", "l_vq": 2, "q_vq": 3}
        config["eval"] = {
            "corpora": {
                "5dB": {"num_symbols": 8, "snr_db": 5.0, "seed": 41},
                "20dB": {"num_symbols": 8, "snr_db": 20.0, "seed": 42},
            }
        }
        p = tmp_path / "eval_profile.json"
        p.write_text(json.dumps(config))
        out_dir = tmp_path / "eval"
        assert _run("eval", "--profile", p, "--report", "json",
                    "--out", out_dir) == 0
        report = json.loads((out_dir / "mismatch.json").read_text())
        assert report["schema"] == "fvq-eval-2"
        evm = np.array(report["evm_fd_pct"])
        assert evm.shape == (2, 2)
        assert (evm > 0).all()
        rerun_dir = tmp_path / "eval2"
        assert _run("eval", "--profile", p, "--report", "json",
                    "--out", rerun_dir) == 0
        again = json.loads((rerun_dir / "mismatch.json").read_text())
        assert again["evm_fd_pct"] == report["evm_fd_pct"]


def _iqf1(path, floats):
    """An IQF1 file of the given float32 bit patterns (I, Q interleaved)."""
    body = struct.pack(f"<{len(floats)}I", *floats)
    path.write_bytes(IQF1_MAGIC + struct.pack("<IQQ", len(floats) // 2, 1, 1)
                     + body)
    return path


class TestIqf1Samples:
    # quiet NaN, signalling NaN, +inf; tier-1 turns any warning into an error
    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000],
                             ids=["quiet NaN", "signalling NaN", "inf"])
    def test_non_finite_sample_refused(self, tmp_path, bits):
        path = _iqf1(tmp_path / "c.iqf", [0x3F800000, bits, 0, 0])
        with pytest.raises(FormatError, match="finite"):
            read_iqf1(path)

    def test_non_finite_sample_exit_code_3(self, profile_path, tmp_path):
        path = _iqf1(tmp_path / "c.iqf", [0x7F800001, 0])
        assert _run("compress", "--profile", profile_path,
                    "--set", 'quantizer={"kind": "raw"}', "--in", path,
                    "--out", tmp_path / "c.cpz") == 3


PROFILE_DIR = Path(__file__).parent.parent / "profiles"
PROFILES = sorted(PROFILE_DIR.glob("*.json"))


@pytest.mark.parametrize("path", PROFILES, ids=[p.name for p in PROFILES])
def test_shipped_profile_parses(path):
    config = json.loads(path.read_text())
    run = cli._parse(config)
    points = config.get("sweep", {}).get("points", [])
    assert [label for label, _, _ in run.points] == [
        p["label"] for p in points
    ]
    assert run.training["trials"] == config["training"]["trials"]
    assert run.waves[0][0].num_symbols == config["waveform"]["num_symbols"]


# The waveform block each shipped profile spelled out before corpora took
# their geometry and link from the chain.
SPELLED_OUT = {
    "downlink_vq.json": dict(link="downlink_ofdm", modulation="qam64",
                             snr_db=5.0, num_symbols=192, seed=401),
    "sweep_uplink.json": dict(link="uplink_scfdm", modulation="qam64",
                              snr_db=5.0, num_symbols=48, seed=100),
    "uplink_vq.json": dict(link="uplink_scfdm", modulation="qam64",
                           snr_db=5.0, num_symbols=48, seed=100),
}


@pytest.mark.parametrize("path", PROFILES, ids=[p.name for p in PROFILES])
def test_shipped_profile_gen_bytes(path, tmp_path):
    # the corpus the chain decides is the one the profile used to spell out
    want, got = tmp_path / "want.iqf", tmp_path / "got.iqf"
    cfg = waveform.WaveformConfig(fft_size=1024, cp_length=128,
                                  used_subcarriers=600,
                                  **SPELLED_OUT[path.name])
    fvq.write_iqf1(fvq.generate(cfg), want)
    assert _run("gen", "--profile", path, "--out", got) == 0
    assert got.read_bytes() == want.read_bytes()


class TestCorporaFollowTheChain:
    def _corpora(self, config):
        run = cli._parse(config)
        return [cfg for cfg, _ in run.waves] + [
            cfg for pair in run.corpora.values() for cfg, _ in pair
        ]

    def test_downlink_profile_gives_downlink_corpora(self):
        config = json.loads((PROFILE_DIR / "downlink_vq.json").read_text())
        config["eval"] = {"corpora": {"a": {"num_symbols": 2}}}
        corpora = self._corpora(config)
        assert len(corpora) == 4
        assert {c.link for c in corpora} == {waveform.Link.DOWNLINK_OFDM}

    def test_chain_geometry(self, profile_path):
        config = json.loads(profile_path.read_text())
        config.update(l_sym=512, l_cp=64, used_subcarriers=300)
        config["eval"] = {"corpora": {"a": {"num_symbols": 2}}}
        for c in self._corpora(config):
            assert (c.fft_size, c.cp_length, c.used_subcarriers, c.link) == (
                512, 64, 300, waveform.Link.UPLINK_SCFDM)


# A profile holding every block, each key of each block set, so that each
# mutation below reaches a key the commands read.
FULL = {
    "link": "downlink", "l_sym": 1024, "l_cp": 128, "used_subcarriers": 600,
    "cp_removal": True,
    "decimation": {"up_factor": 5, "down_factor": 8, "filter_taps": 127,
                   "stopband_atten_db": 60.0},
    "block_scaling": {"n_bs": 32, "q_bs": 8},
    "quantizer": {"kind": "upmgq", "theta": -1, "q_high": 3, "l": 2,
                  "q_low": 2, "q_scale": 6, "g3_entropy": True},
    "entropy_coding": True, "vector_method": "method3_random",
    "vector_seed": 3, "q0": 15,
    "waveform": {"modulation": "qam16", "snr_db": 5.0, "num_symbols": 2,
                 "seed": 5, "channel": "multipath"},
    "training": {"trainer": "classical", "trials": 1, "seed": 2},
    "eval": {"corpora": {"a": {"num_symbols": 2, "snr_db": 20.0, "seed": 6,
                               "channel": "awgn"}}},
    "sweep": {"points": [
        {"label": "vq", "quantizer": {"kind": "vq", "l_vq": 1, "q_vq": 3}},
        {"label": "msvq", "quantizer": {"kind": "msvq", "q1": 1, "q2": 1,
                                        "l": 2},
         "profile": {"entropy_coding": False, "q0": 12}},
    ]},
}
# the objects inside FULL that the commands parse
BLOCKS = [(), ("decimation",), ("block_scaling",), ("quantizer",),
          ("waveform",), ("training",), ("eval",), ("eval", "corpora", "a"),
          ("sweep",), ("sweep", "points", 1),
          ("sweep", "points", 1, "quantizer"),
          ("sweep", "points", 1, "profile")]
# keys the CLI once read -> the value each defaulted to
DROPPED = {("training", "max_iterations"): 200,
           ("training", "rel_improvement_eps"): 1e-4,
           ("eval", "eval_seed_offset"): 7777,
           ("sweep", "eval_seed_offset"): 7777}
COMMANDS = [["gen"], ["train", "--in", "IN"], ["compress", "--in", "IN"],
            ["decompress", "--in", "IN"], ["eval"], ["sweep"], ["stats"]]

_JSON = {
    bool: st.booleans(),
    int: st.integers(-10**6, 10**6),
    float: st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    str: st.text(max_size=4),
    list: st.lists(st.integers(0, 3), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}


def _wrong_type(value):
    """JSON of a type other than value's; an int counts as a float."""
    own = {type(value)} | ({int} if type(value) is float else set())
    return st.one_of([s for t, s in _JSON.items() if t not in own])


def _run_parse_only(command, config, tmp_dir):
    """Exit code of `command` on `config`, with corpus generation, training
    and every input file unavailable, so only parsing can succeed."""
    path = tmp_dir / "profile.json"
    path.write_text(json.dumps(config))
    argv = [str(tmp_dir / "missing") if a == "IN" else a for a in command]

    def work(*args, **kwargs):
        raise AssertionError("work started before the profile was parsed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "train_for_profile", work)
        mp.setattr(waveform, "generate", work)
        return _run(*argv, "--profile", path, "--out", tmp_dir / "out")


def _node(config, path):
    for key in path:
        config = config[key]
    return config


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parse")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
class TestOneParseRule:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_wrong_type_exit_code_4(self, command, scratch, data):
        config = copy.deepcopy(FULL)
        node = _node(config, data.draw(st.sampled_from(BLOCKS), label="block"))
        key = data.draw(st.sampled_from(sorted(node)), label="key")
        node[key] = data.draw(_wrong_type(node[key]), label="value")
        assert _run_parse_only(command, config, scratch) == 4

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_unknown_key_exit_code_4(self, command, scratch, data):
        config = copy.deepcopy(FULL)
        node = _node(config, data.draw(st.sampled_from(BLOCKS), label="block"))
        key = data.draw(st.text(max_size=4).map("x_".__add__), label="key")
        node[key] = data.draw(st.one_of(list(_JSON.values())), label="value")
        assert _run_parse_only(command, config, scratch) == 4

    @pytest.mark.parametrize("path", [
        ("decimation", "up_factor"), ("eval", "corpora"),
        ("sweep", "points", 1, "quantizer"),
    ], ids=lambda p: ".".join(map(str, p)))
    def test_missing_key_exit_code_4(self, command, scratch, path):
        config = copy.deepcopy(FULL)
        del _node(config, path[:-1])[path[-1]]
        assert _run_parse_only(command, config, scratch) == 4

    @pytest.mark.parametrize("path", DROPPED, ids=lambda p: ".".join(p))
    def test_dropped_key_exit_code_4(self, command, scratch, path, caplog):
        # no longer read, so unknown, even at the value it used to default to
        config = copy.deepcopy(FULL)
        _node(config, path[:-1])[path[-1]] = DROPPED[path]
        assert _run_parse_only(command, config, scratch) == 4
        assert f"KeyError({path[-1]!r})" in caplog.text

    def test_full_profile_parses(self, command, scratch):
        # every command accepts the profile the mutations start from: it
        # stops at its first work or at the missing input file
        try:
            code = _run_parse_only(command, FULL, scratch)
        except AssertionError as exc:
            assert "work started" in str(exc)
        else:
            assert code == 3


@pytest.mark.parametrize("theta", [-129, 128, 200])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_upmgq_theta_beyond_a_byte_exit_code_4(command, scratch, theta):
    # the UPMG header stores theta as an int8: the profile is refused when
    # parsed, before any training
    config = copy.deepcopy(FULL)
    config["quantizer"]["theta"] = theta
    assert _run_parse_only(command, config, scratch) == 4


# corpus key -> (the chain key that decides it, a value agreeing with FULL)
DECIDED = {"fft_size": ("l_sym", 1024), "cp_length": ("l_cp", 128),
           "used_subcarriers": ("used_subcarriers", 600),
           "link": ("link", "downlink_ofdm")}


@pytest.mark.parametrize("key", DECIDED)
@pytest.mark.parametrize("block", [("waveform",), ("eval", "corpora", "a")],
                         ids=lambda b: ".".join(b))
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_corpus_block_geometry_or_link_exit_code_4(command, scratch, block,
                                                    key, caplog):
    # the chain decides them, so a corpus block cannot set them, not even
    # to the value the chain gives
    config = copy.deepcopy(FULL)
    chain_key, value = DECIDED[key]
    _node(config, block)[key] = value
    assert _run_parse_only(command, config, scratch) == 4
    assert f"the chain's {chain_key!r}" in caplog.text


@pytest.mark.parametrize("key", ["link", "l_sym", "l_cp", "used_subcarriers"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_sweep_point_geometry_or_link_exit_code_4(command, scratch, key):
    # every point runs on the one corpus pair the top-level chain decides
    config = copy.deepcopy(FULL)
    config["sweep"]["points"][1]["profile"][key] = FULL[key]
    assert _run_parse_only(command, config, scratch) == 4
