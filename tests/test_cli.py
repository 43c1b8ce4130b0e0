import csv
import json

import numpy as np
import pytest

import fvq
from fvq import cli, pipeline
from fvq.iqstream import read_iqf1
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
            "link": "uplink_scfdm", "num_symbols": 10, "snr_db": 5.0,
            "seed": 5, "modulation": "qam64",
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
        profile = cli._profile_from(config)
        cb = seeded_codebooks(profile.quantizer, seed=4)
        path, corpus = tmp_path / "cb.upmg", tmp_path / "c.iqf"
        profile.quantizer.save(cb, path, profile.q0)
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
        fvq.save_codebook(fvq.Codebook(2, 0, np.zeros((1, 2))), cb)
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", cb,
                  "--set", "quantizer.q_vq=0", "--set", "block_scaling=null",
                  "--in", corpus,
                  "--out", tmp_path / "c.cpz")
        assert rc == 4

    def test_msvq_stage_1_geometry_exit_code_3(self, profile_path, tmp_path):
        config = json.loads(profile_path.read_text())
        config["quantizer"] = {"kind": "msvq", "q1": 1, "q2": 1, "l": 2}
        profile_path.write_text(json.dumps(config))
        rng = np.random.default_rng(5)
        cb, corpus = tmp_path / "cb.vqms", tmp_path / "c.iqf"
        # the header says q1 = 1; the stage-1 block holds 16 codewords
        with open(cb, "wb") as fh:
            fh.write(fvq.msvq.VQMS_MAGIC + bytes([1, 1, 1, 2]))
            fvq.save_codebook(fvq.Codebook(2, 2, rng.normal(size=(16, 2))), fh)
            for _ in range(4):
                fvq.save_codebook(fvq.Codebook(2, 1, rng.normal(size=(4, 2))),
                                  fh)
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        rc = _run("compress", "--profile", profile_path, "--codebook", cb,
                  "--in", corpus, "--out", tmp_path / "c.cpz")
        assert rc == 3

    def test_unknown_trainer_exit_code_4(self, profile_path, tmp_path):
        corpus = tmp_path / "c.iqf"
        assert _run("gen", "--profile", profile_path, "--out", corpus) == 0
        assert _run("train", "--profile", profile_path, "--in", corpus,
                    "--set", "training.trainer=bogus",
                    "--out", tmp_path / "cb.vqcb") == 4

    @pytest.mark.parametrize("key", ["trials", "rel_improvement_eps"])
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
        # --threads is read only by eval and sweep, --report only by eval
        argv = [tmp_path / "c.iqf" if a == "IN" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            _run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_code_2(self, tmp_path, capsys, command,
                                           threads):
        # refused while parsing, before any worker pool starts
        with pytest.raises(SystemExit) as exc:
            _run(command, "--threads", threads, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

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
                "5dB": {"link": "uplink_scfdm", "num_symbols": 8,
                        "snr_db": 5.0, "seed": 41},
                "20dB": {"link": "uplink_scfdm", "num_symbols": 8,
                         "snr_db": 20.0, "seed": 42},
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
