import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fvq
from fvq import pipeline
from fvq import upmgq as ug
from fvq.errors import ContractViolationError, FormatError
from fvq.iqstream import IQStream
from fvq.artifacts import encode, load_codebook, save_codebook
from fvq.vq_core import Codebook, SearchCounter
from tests.conftest import seeded_codebooks


def _scaled_stream(n=4096, sigma=22.0, seed=0):
    rng = np.random.default_rng(seed)
    return IQStream(
        sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    )


class TestExpand:
    def test_paper_example_17p5(self):
        assert ug.expand(17.5, 0) == (1, 17.0, 0.5)

    def test_zero(self):
        assert ug.expand(0.0, 0) == (1, 0.0, 0.0)

    def test_negative_theta(self):
        sign, high, low = ug.expand(-3.25, -1)
        assert sign == -1
        assert high == 3.0
        assert low == 0.25

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            ug.expand(math.inf, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e12,
            max_value=1e12,
        ),
        theta=st.integers(-8, 8),
    )
    def test_identity_exact(self, s, theta):
        sign, high, low = ug.expand(s, theta)
        assert sign * (high + low) == s
        assert 0.0 <= low < math.ldexp(1.0, theta) or (
            low == 0.0 and high == abs(s)
        )
        # high is an integer multiple of 2^theta
        assert math.floor(math.ldexp(high, -theta)) == math.ldexp(high, -theta)


class TestLevelStatistics:
    def test_sign_level_half(self):
        stats = ug.level_statistics(_scaled_stream(60000, seed=1))
        assert stats.sign_negative_p == pytest.approx(0.5, abs=0.01)

    def test_low_levels_bernoulli_high_levels_zero(self):
        stats = ug.level_statistics(
            _scaled_stream(60000, sigma=22.0, seed=2), levels=range(-6, 12)
        )
        by_level = dict(zip(stats.levels.tolist(), stats.p_one))
        assert by_level[-6] == pytest.approx(0.5, abs=0.01)
        assert by_level[-2] == pytest.approx(0.5, abs=0.01)
        assert by_level[11] < 0.01

    def test_constant_one(self):
        s = IQStream(np.ones(128) + 0j)
        stats = ug.level_statistics(s, levels=range(-4, 5))
        by_level = dict(zip(stats.levels.tolist(), stats.p_one))
        # imaginary components are zero: exactly half the components carry
        # the value 1.0, which sets level 0 and nothing else
        assert by_level[0] == 0.5
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert by_level[k] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            ug.level_statistics(IQStream(np.zeros(0, complex)))


def _cfg(theta=0, q_high=4, l=2, q_low=4):
    return ug.UpmgqConfig(theta=theta, q_high=q_high, l=l, q_low=q_low)


class TestTraining:
    def test_codebook_sizes_match_complexity_table(self):
        s = _scaled_stream(20000, seed=3)
        cb = ug.train_upmgq(s, _cfg(0, 4, 2, 4), seed=4)
        assert cb.high_vq.size + len(cb.low_sq) == 272
        cb = ug.train_upmgq(s, _cfg(-1, 5, 2, 3), seed=4)
        assert cb.high_vq.size + len(cb.low_sq) == 1032

    def test_g2_codewords_on_lattice(self):
        cb = ug.train_upmgq(_scaled_stream(20000, seed=5), _cfg(0, 4, 2, 4),
                            seed=6)
        assert np.all(cb.high_vq.codewords >= 0)
        assert np.array_equal(
            cb.high_vq.codewords, np.round(cb.high_vq.codewords)
        )

    def test_low_grid_inside_range(self):
        for theta in (-2, 0, 3):
            cb = ug.train_upmgq(
                _scaled_stream(20000, seed=7), _cfg(theta, 3, 2, 4), seed=8
            )
            assert np.all(cb.low_sq > 0)
            assert np.all(cb.low_sq < math.ldexp(1.0, theta))


class TestQuantize:
    def test_sign_pattern_preserved(self):
        s = _scaled_stream(3000, seed=9)
        cfg = _cfg()
        cb = ug.train_upmgq(s, cfg, seed=10)
        ind = ug.quantize_upmgq(cb, cfg, s)
        out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
        comps_in = np.concatenate([s.samples.real, s.samples.imag])
        comps_out = np.concatenate([out.samples.real, out.samples.imag])
        # zero maps to +1; no exact zeros occur in this corpus
        np.testing.assert_array_equal(comps_in < 0, comps_out < 0)

    def test_exact_round_trip_on_grid_points(self):
        cfg = _cfg(0, 2, 2, 2)
        s = _scaled_stream(4000, sigma=3.0, seed=11)
        cb = ug.train_upmgq(s, cfg, seed=12)
        # build a stream whose high parts are codewords and lows are grid
        # points
        cw = cb.high_vq.codewords[1]
        lows = cb.low_sq[[0, 1]]
        comps = np.array([cw[0] + lows[0], cw[1] + lows[1]])
        probe = IQStream(np.array([complex(comps[0], comps[1])]))
        ind = ug.quantize_upmgq(cb, cfg, probe)
        out = ug.dequantize_upmgq(cb, cfg, ind, probe.sample_rate)
        np.testing.assert_allclose(out.samples, probe.samples, atol=1e-12)

    def test_error_bound(self):
        cfg = _cfg(0, 4, 2, 4)
        s = _scaled_stream(6000, seed=13)
        cb = ug.train_upmgq(s, cfg, seed=14)
        ind = ug.quantize_upmgq(cb, cfg, s)
        out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
        # per-component error < G3 half step + max G2 cell radius
        comps = np.concatenate([s.samples.real, s.samples.imag])
        high = ug._expand_components(comps, cfg.theta)[1]
        vecs = ug._g2_vectors(high, cfg.theta, cfg.l)
        from fvq.vq_core import _assign

        idx, dist = _assign(vecs, cb.high_vq.codewords)
        max_cell_radius = float(np.sqrt(dist.max()))
        half_step = math.ldexp(1.0, cfg.theta) / 2**cfg.q_low / 2
        err = np.abs(
            np.concatenate([s.samples.real, s.samples.imag])
            - np.concatenate([out.samples.real, out.samples.imag])
        )
        assert err.max() < half_step + max_cell_radius + 1e-9

    def test_raising_q_low_never_hurts(self):
        s = _scaled_stream(6000, seed=15)
        evm = []
        for q_low in (2, 3, 4, 5):
            cfg = _cfg(0, 4, 2, q_low)
            cb = ug.train_upmgq(s, cfg, seed=16)
            ind = ug.quantize_upmgq(cb, cfg, s)
            out = ug.dequantize_upmgq(cb, cfg, ind, s.sample_rate)
            evm.append(fvq.evm_td(s, out))
        assert all(b <= a + 1e-9 for a, b in zip(evm, evm[1:]))

    def test_counters_match_formulas(self):
        for theta, q_high, q_low, expect in (
            (0, 4, 3, 264), (0, 4, 4, 272), (0, 4, 5, 288),
            (-1, 5, 2, 1028), (-1, 5, 3, 1032), (-1, 5, 4, 1040),
        ):
            cfg = _cfg(theta, q_high, 2, q_low)
            assert ug.upmgq_complexity(cfg) == (expect, expect)

    def test_instrumented_counter(self):
        cfg = _cfg(0, 3, 2, 3)
        s = _scaled_stream(1024, seed=17)
        cb = ug.train_upmgq(s, cfg, seed=18)
        counter = SearchCounter()
        ug.quantize_upmgq(cb, cfg, s, counter, counter)
        # G2 searched per vector, G3 per component
        n_vec = math.ceil(2 * len(s) / cfg.l)
        n_comp = 2 * len(s)
        assert counter.distance_evals == 64 * n_vec + 8 * n_comp

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.integers(-3, 2),
        q_low=st.sampled_from([0, 1, 2, 3, 5, 8]),
        edges=st.lists(
            st.tuples(st.integers(0, 2**10), st.sampled_from([-1, 0, 1])),
            max_size=16,
        ),
        draws=st.lists(st.floats(-16.0, 16.0), max_size=16),
    )
    def test_g3_codes_are_nearest_midpoints(self, theta, q_low, edges, draws):
        # cell edges k * step and the floats either side of each, the draws,
        # zero and the smallest subnormal against a brute-force argmin that
        # gives ties the lower code
        step = math.ldexp(1.0, theta - q_low)
        comps = [float(np.nextafter(k * step, d * math.inf)) if d else k * step
                 for k, d in edges] + draws + [0.0, 5e-324]
        comps = np.array(comps + [0.0] * (len(comps) % 2))
        cfg = _cfg(theta, 1, 1, q_low)
        g2 = Codebook(1, 1, [[0.0], [1.0]], [1, 1])
        cb = ug.UpmgqCodebook(g2, theta, q_low)
        m = len(comps) // 2
        ind = ug.quantize_upmgq(cb, cfg, IQStream(comps[:m] + 1j * comps[m:]))
        low = ug._expand_components(comps, theta)[2]
        ref = np.argmin(np.abs(low[:, None] - cb.low_sq[None, :]), axis=1)
        np.testing.assert_array_equal(ind.g3_codes, ref)

    def test_g3_memory_does_not_grow_with_the_grid(self):
        # the G3 codes cost O(components) memory, not O(components * 2^q_low)
        s = _scaled_stream(6144, seed=19)
        peaks = []
        for q_low in (3, 8):
            cfg = _cfg(-1, 2, 2, q_low)
            cb = ug.train_upmgq(s, cfg, seed=20)
            tracemalloc.start()
            try:
                ug.quantize_upmgq(cb, cfg, s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20


class TestGain:
    def test_plug_in(self):
        assert ug.cr_upmgq(8.0, 2, 4.0, 15) == pytest.approx(15 / 9)

    def test_sign_only_limit(self):
        assert ug.cr_upmgq(0.0, 2, 0.0, 15) == 15.0

    def test_q_low_zero_complexity(self):
        cfg = _cfg(0, 4, 2, 0)
        so, cs = ug.upmgq_complexity(cfg)
        assert so == cs == 2 ** (4 * 2) + 1


# Trained UPMG files: (theta, q_high, l, q_low), training corpus (samples,
# sigma), seed, trainer, trials and the SHA-256 of the file. A change to how
# the G2 table or the G3 grid is kept must write the same bytes.
PINNED = {
    "theta -1, l 2, q_low 3": ((-1, 5, 2, 3), (9000, 6.0), 21, "modified", 2,
                               "c4ea9e8454b4a24dbe4db57dfdad79db6c82a231d72e2f91389aacfa5fdfcf85"),
    "theta 0, l 1, q_low 0": ((0, 4, 1, 0), (3000, 4.0), 22, "classical", 1,
                              "a008168e911ea9c5b44bbbe6407bbe57d559dbffc304f41a0cab0c334690af41"),
    "theta 0, l 3, q_low 2": ((0, 2, 3, 2), (6000, 2.0), 23, "classical", 2,
                              "1e0daf2a6db3a615efa54725c12095e4bf3cb46a85777069843e1bdcca4a3a9d"),
    "theta -1, l 1, q_low 4": ((-1, 3, 1, 4), (3000, 2.0), 24, "modified", 1,
                               "e0516affc0d35c73a6c7ab6f2b88b022a417104565a52e1de24f735d4960ed8b"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_trained_bytes_pinned(name, tmp_path):
    geometry, (n, sigma), seed, trainer, trials, sha = PINNED[name]
    cb = ug.train_upmgq(_scaled_stream(n, sigma, seed), _cfg(*geometry),
                        trainer, seed=seed, trials=trials)
    path = tmp_path / "cb.upmg"
    save_codebook(cb, path, 15)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


class TestIo:
    def test_container_round_trip(self, tmp_path):
        cfg = _cfg(-1, 3, 2, 3)
        s = _scaled_stream(9000, seed=19)
        cb = ug.train_upmgq(s, cfg, seed=20)
        path = tmp_path / "cb.upmg"
        save_codebook(cb, path, 15)
        loaded = load_codebook(path)
        assert (loaded.theta, loaded.q_low) == (cfg.theta, cfg.q_low)
        assert (loaded.high_vq.l_vq, loaded.high_vq.q_vq) == (cfg.l, cfg.q_high)
        assert path.read_bytes()[8:14] == bytes([1, 0xFF, 3, 2, 3, 15])
        np.testing.assert_allclose(
            loaded.high_vq.codewords, cb.high_vq.codewords
        )  # integers survive float32 exactly
        np.testing.assert_array_equal(
            loaded.high_vq.usage_counts, cb.high_vq.usage_counts
        )
        np.testing.assert_allclose(
            loaded.low_sq, cb.low_sq.astype(np.float32)
        )

    # header bytes: version 8, theta 9, q_high 10, l 11, q_low 12, q0 13
    HEADER_CASES = {
        "q_high 0": (10, 0), "l 0": (11, 0), "q0 0": (13, 0),
        "l*q_high 64": (10, 32), "q_low 40": (12, 40), "q_low 61": (12, 61),
        "q_low 62": (12, 62),
    }

    @pytest.mark.parametrize("case", [
        "lengths all 0", "lengths all 1", "lengths all 70", "lengths all 6",
        "usage count 2^63", "NaN grid point", "grid point off the midpoints",
        "G2 block geometry", *HEADER_CASES,
    ])
    def test_hostile_container_refused(self, tmp_path, case):
        spec = pipeline.UpmgqSpec(theta=-1, q_high=3, l=2, q_low=2)
        cb = seeded_codebooks(spec, seed=3)
        path = tmp_path / "cb.upmg"
        save_codebook(cb, path, 15)
        load_codebook(path)  # the untouched file loads
        blob = bytearray(path.read_bytes())
        k = cb.high_vq.size
        # "all 6" is a valid code, but not the one of the usage counts
        lengths = {"lengths all 0": 0, "lengths all 1": 1,
                   "lengths all 70": 70, "lengths all 6": 6}
        if case in lengths:
            blob[-k:] = bytes([lengths[case]]) * k
        elif case == "usage count 2^63":
            at = 14 + 15 + 4 * k * 2  # the first G2 usage count
            blob[at : at + 8] = (1 << 63).to_bytes(8, "little")
        elif case in self.HEADER_CASES:
            at, value = self.HEADER_CASES[case]
            blob[at] = value
        elif case == "G2 block geometry":
            # a 2-word (l, q) = (1, 1) block, the grid and two valid code
            # lengths, padded to the size the header declares
            small = encode(Codebook(1, 1, [[0.0], [1.0]], [1, 1]), 15)
            grid = cb.low_sq.astype("<f4").tobytes()
            head = blob[:14] + small + grid + b"\x01\x01"
            blob = head + bytes(len(blob) - len(head))
        else:
            value = math.nan if case == "NaN grid point" else 0.3
            at = len(blob) - k - 4 * len(cb.low_sq)
            blob[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_codebook(path)
