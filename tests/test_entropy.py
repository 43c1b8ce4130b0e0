import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fvq
from fvq import entropy as ec
from fvq import pipeline
from fvq.bitio import unpack_bit_array
from fvq.errors import ContractViolationError, MalformedBitstreamError
from tests.conftest import make_corpus, seeded_codebooks


def _entropy(pmf):
    p = np.asarray(pmf)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class TestPmf:
    def test_uniform(self):
        pmf = ec.estimate_pmf([0, 1, 2, 3] * 250, 4)
        np.testing.assert_allclose(pmf, 0.25)

    def test_empty_gives_uniform(self):
        np.testing.assert_allclose(ec.estimate_pmf([], 4), 0.25)

    def test_add_one_arithmetic(self):
        pmf = ec.estimate_pmf([2] * 100, 4)
        assert pmf[2] == pytest.approx(101 / 104)
        assert pmf[0] == pytest.approx(1 / 104)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            ec.estimate_pmf([5], 4)


class TestBuild:
    def test_uniform_four_symbols(self):
        table = ec.build_huffman([0.25] * 4)
        assert table.code_lengths.tolist() == [2, 2, 2, 2]
        assert table.avg_length == 2.0

    def test_dyadic_pmf_exact(self):
        table = ec.build_huffman([0.5, 0.25, 0.125, 0.125])
        assert table.code_lengths.tolist() == [1, 2, 3, 3]
        assert table.avg_length == 1.75 == _entropy([0.5, 0.25, 0.125, 0.125])

    def test_shannon_bound_random_64(self):
        rng = np.random.default_rng(5)
        pmf = rng.random(64)
        pmf /= pmf.sum()
        table = ec.build_huffman(pmf)
        h = _entropy(pmf)
        assert h <= table.avg_length < h + 1

    def test_singleton_alphabet(self):
        table = ec.build_huffman([1.0])
        assert table.code_lengths.tolist() == [0]
        assert table.avg_length == 0.0

    def test_bad_pmf_rejected(self):
        with pytest.raises(ContractViolationError):
            ec.build_huffman([0.5, 0.4])

    def test_code_longer_than_64_bits_refused(self):
        # a geometric PMF over 79 symbols needs a 78-bit code
        pmf = 0.5 ** np.arange(1, 80)
        with pytest.raises(ContractViolationError, match="64 bits"):
            ec.build_huffman(pmf / pmf.sum())

    def test_kraft_on_every_table(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 17, 100):
            pmf = rng.random(n)
            pmf /= pmf.sum()
            table = ec.build_huffman(pmf)
            assert table.kraft_sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=64))
    def test_shannon_bound_property(self, weights):
        pmf = np.array(weights) / np.sum(weights)
        table = ec.build_huffman(pmf)
        h = _entropy(pmf)
        assert h - 1e-9 <= table.avg_length < h + 1


class TestCodec:
    def test_round_trip_large(self):
        rng = np.random.default_rng(7)
        pmf = ec.estimate_pmf(rng.integers(0, 64, 3000), 64)
        table = ec.build_huffman(pmf)
        data = rng.integers(0, 64, 10**5)
        payload, bits = ec.encode(table, data)
        assert bits == int(table.code_lengths[data].sum())
        out = ec.decode(table, payload, len(data))
        np.testing.assert_array_equal(out, data)

    def test_empty(self):
        table = ec.build_huffman([0.25] * 4)
        payload, bits = ec.encode(table, [])
        assert payload == b"" and bits == 0
        assert ec.decode(table, b"", 0).size == 0

    def test_dyadic_bits_per_symbol(self):
        table = ec.build_huffman([0.5, 0.25, 0.125, 0.125])
        rng = np.random.default_rng(3)
        # draw from the dyadic distribution itself
        data = rng.choice(4, size=8000, p=[0.5, 0.25, 0.125, 0.125])
        _, bits = ec.encode(table, data)
        expected = sum(table.code_lengths[s] for s in data)
        assert bits == expected

    def test_truncated_payload_raises(self):
        table = ec.build_huffman([0.25] * 4)
        payload, bits = ec.encode(table, [0, 1, 2, 3] * 8)
        with pytest.raises(MalformedBitstreamError):
            ec.decode(table, payload[:-1], 32)

    def test_count_beyond_payload_bits_raises_before_allocating(self):
        # every code is at least one bit, so 2^40 symbols cannot be in one
        # byte; the count is refused before an 8 TiB output is allocated
        table = ec.build_huffman([0.5, 0.5])
        with pytest.raises(MalformedBitstreamError, match="exhausted"):
            ec.decode(table, b"\xff", 2**40)

    def test_decode_never_past_declared_count(self):
        table = ec.build_huffman([0.25] * 4)
        payload, _ = ec.encode(table, [1, 2])
        out = ec.decode(table, payload, 2)
        np.testing.assert_array_equal(out, [1, 2])

    def test_symbol_outside_alphabet_rejected(self):
        table = ec.build_huffman([0.25] * 4)
        with pytest.raises(ContractViolationError):
            ec.encode(table, [4])

    def test_singleton_round_trip(self):
        table = ec.build_huffman([1.0])
        payload, bits = ec.encode(table, [0] * 10)
        assert bits == 0
        np.testing.assert_array_equal(ec.decode(table, payload, 10), [0] * 10)

    @settings(max_examples=40, deadline=None)
    @given(
        n_sym=st.integers(2, 40),
        data=st.lists(st.integers(0, 39), min_size=0, max_size=300),
        seed=st.integers(0, 999),
    )
    def test_round_trip_property(self, n_sym, data, seed):
        data = [d % n_sym for d in data]
        rng = np.random.default_rng(seed)
        pmf = rng.random(n_sym)
        pmf /= pmf.sum()
        table = ec.build_huffman(pmf)
        payload, _ = ec.encode(table, data)
        np.testing.assert_array_equal(
            ec.decode(table, payload, len(data)), data
        )


def _bit_serial_decode(table, payload, count):
    """Reference decoder: one bit at a time against the canonical first
    code of each length (entropy.decode before it went table-driven)."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = table.code_lengths
    if table.alphabet_size == 1:
        return np.zeros(count, dtype=np.int64)
    if count > 8 * len(payload):
        raise MalformedBitstreamError("bit payload exhausted")
    max_len = int(lengths.max())
    order = np.lexsort((np.arange(len(lengths)), lengths))
    num = np.bincount(lengths, minlength=max_len + 1).tolist()
    first_code = [0] * (max_len + 1)
    first_pos = [0] * (max_len + 1)
    code = pos = 0
    for ln in range(1, max_len + 1):
        first_code[ln] = code
        first_pos[ln] = pos
        code = (code + num[ln]) << 1
        pos += num[ln]
    bits = unpack_bit_array(payload, min(len(payload) * 8, count * max_len))
    out = np.empty(count, dtype=np.int64)
    bi = 0
    for si in range(count):
        code = ln = 0
        while True:
            if bi >= bits.size:
                raise MalformedBitstreamError("bit payload exhausted")
            code = (code << 1) | int(bits[bi])
            bi += 1
            ln += 1
            if ln > max_len:
                raise MalformedBitstreamError("invalid code in bit payload")
            off = code - first_code[ln]
            if 0 <= off < num[ln]:
                out[si] = order[first_pos[ln] + off]
                break
    return out


def _random_lengths(rng, n, skew, drop):
    """Kraft-valid code lengths for `n` symbols, at most 64 bits: grow a
    binary tree by splitting leaves (the deepest one with probability
    `skew`, else a random one), then remove `drop` leaves so the code is
    incomplete."""
    leaves = np.zeros(n + drop, dtype=np.int64)
    for size in range(1, n + drop):
        live = leaves[:size]
        i = int(np.argmax(live)) if rng.random() < skew else rng.integers(size)
        if live[i] == 64:
            i = int(np.argmin(live))
        leaves[i] += 1
        leaves[size] = leaves[i]
    return rng.permutation(leaves)[:n]


def _decode_or_error(decode, table, payload, count):
    try:
        return decode(table, payload, count)
    except MalformedBitstreamError:
        return MalformedBitstreamError


class TestTableDrivenDecode:
    """entropy.decode against the bit-serial reference decoder above."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 80), st.integers(2, 4096)),
        skew=st.floats(0.0, 1.0),
        drop=st.integers(0, 3),
        n_data=st.integers(0, 200),
        variant=st.sampled_from(["valid", "truncated", "garbage", "random"]),
        cut=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bit_serial_decoder(
        self, n, skew, drop, n_data, variant, cut, seed
    ):
        rng = np.random.default_rng(seed)
        lengths = _random_lengths(rng, n, skew, drop)
        table = ec.table_from_lengths(lengths)
        # short codes are drawn more often, as in a trained stream
        weights = 2.0 ** -np.minimum(lengths, 40)
        data = rng.choice(n, size=n_data, p=weights / weights.sum())
        payload, _ = ec.encode(table, data)
        count = len(data)
        if variant == "truncated":
            payload = payload[:-cut]
        elif variant == "garbage":
            payload += rng.bytes(cut)
        elif variant == "random":
            payload = rng.bytes(int(rng.integers(0, 64)))
            count = int(rng.integers(0, 8 * len(payload) + 2))
        expected = _decode_or_error(_bit_serial_decode, table, payload, count)
        got = _decode_or_error(ec.decode, table, payload, count)
        failed = MalformedBitstreamError
        if expected is failed or got is failed:
            assert got is expected
        else:
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        if variant in ("valid", "garbage"):
            np.testing.assert_array_equal(got, data)

    def test_64_bit_codes_round_trip(self):
        # lengths 1, 2, ..., 63, 64, 64: a complete code down to 64 bits
        table = ec.table_from_lengths(list(range(1, 65)) + [64])
        data = np.array([64, 63, 0, 62, 64, 1, 32])
        payload, bits = ec.encode(table, data)
        assert bits == 64 + 64 + 1 + 63 + 64 + 2 + 33
        np.testing.assert_array_equal(ec.decode(table, payload, 7), data)

    def test_invalid_code_raises(self):
        # an incomplete code: "11" and everything after it is no codeword
        table = ec.table_from_lengths([1, 2])
        with pytest.raises(MalformedBitstreamError, match="invalid code"):
            ec.decode(table, b"\x30", 3)

    def test_hostile_payload_memory_linear(self):
        table = ec.table_from_lengths(list(range(1, 65)) + [64])
        payload = np.random.default_rng(4).bytes(4096)
        tracemalloc.start()
        try:
            ec.decode(table, payload, 8 * len(payload))
        except MalformedBitstreamError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # about 33 bytes of scratch per payload bit, where sizing the scratch
        # by count * max_len (64x the payload's bits here) would show
        assert peak < 40 * 8 * len(payload)


def _bit_string(table, indices):
    """Each symbol's code written out as '0'/'1' characters, joined."""
    return "".join(
        format(int(table.codes[s]), "b").zfill(int(table.code_lengths[s]))
        if table.code_lengths[s] else ""
        for s in indices
    )


def _to_bytes(bits):
    """A '0'/'1' string packed MSB-first, zero-padded to whole bytes."""
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))


def _bit_string_encode(table, indices):
    """Reference encoder: the codes as one bit string, packed."""
    bits = _bit_string(table, indices)
    return _to_bytes(bits), len(bits)


# lengths 1, 2, ..., 63, 64, 64: symbol s - 1 has an s-bit code, s <= 64
_ONE_OF_EACH_LENGTH = list(range(1, 65)) + [64]


class TestWordParallelEncode:
    """entropy.encode against the bit-string reference encoder above."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 80), st.integers(2, 4096)),
        skew=st.floats(0.0, 1.0),
        drop=st.integers(0, 3),
        n_data=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bit_string_encoder(self, n, skew, drop, n_data, seed):
        rng = np.random.default_rng(seed)
        lengths = _random_lengths(rng, n, skew, drop) if n > 1 else [0]
        table = ec.table_from_lengths(lengths)
        data = rng.integers(0, n, n_data)
        assert ec.encode(table, data) == _bit_string_encode(table, data)

    @pytest.mark.parametrize("code_bits", [
        [64], [64, 64], [32, 32, 1], [63, 1, 64], [1, 64], [63, 2],
        [60, 60, 8], [33, 31, 64, 1, 63], [5] * 40, list(range(1, 65)),
    ])
    def test_word_boundaries(self, code_bits):
        # codes that end exactly on a 64-bit word boundary and codes that
        # straddle one, from a table with a code of every length 1..64
        table = ec.table_from_lengths(_ONE_OF_EACH_LENGTH)
        data = np.array(code_bits) - 1
        ends = np.cumsum(code_bits)
        starts = ends - code_bits
        straddles = starts // 64 < (ends - 1) // 64
        assert np.any(ends % 64 == 0) or np.any(straddles)
        assert ec.encode(table, data) == _bit_string_encode(table, data)

    def test_one_symbol_alphabet(self):
        table = ec.table_from_lengths([0])
        assert ec.encode(table, [0] * 7) == (b"", 0)

    def test_empty_input(self):
        table = ec.table_from_lengths(_ONE_OF_EACH_LENGTH)
        assert ec.encode(table, []) == (b"", 0)


def _same_outcome(table, payload, count):
    """entropy.decode and the bit-serial reference agree: equal symbols, or
    both raise with the same kind of message. Returns the symbols or the
    kind of error."""
    try:
        expected = _bit_serial_decode(table, payload, count)
    except MalformedBitstreamError as exc:
        kind = "invalid code" if "invalid" in str(exc) else "exhausted"
        with pytest.raises(MalformedBitstreamError, match=kind):
            ec.decode(table, payload, count)
        return kind
    got = ec.decode(table, payload, count)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    return got


class TestCappedDoublingDecode:
    """Decode edge cases of the capped pointer doubling (a jump spans
    `_SPAN` codes) and of the window width, against the bit-serial
    reference decoder."""

    T = ec._SPAN

    @settings(max_examples=150, deadline=None)
    @given(payload=st.binary(max_size=48), width=st.sampled_from([32, 64]),
           data=st.data())
    def test_bit_windows_against_per_bit_reference(self, payload, width, data):
        # every bit start, a ragged tail included; bits past the end read 0
        n = data.draw(st.integers(0, 8 * len(payload)), label="n")
        bits = np.unpackbits(np.frombuffer(payload + bytes(8), np.uint8))
        want = [int("".join(map(str, bits[p : p + width])), 2)
                for p in range(n)]
        got = ec._bit_windows(payload, n, width)
        assert got.dtype == np.dtype(f"uint{width}")
        assert got.tolist() == want

    @pytest.mark.parametrize("count", [1, T - 1, T, T + 1, 2 * T, 3 * T,
                                       5 * T + 7])
    def test_counts_around_the_span(self, count):
        rng = np.random.default_rng(count)
        table = ec.table_from_lengths(_random_lengths(rng, 50, 0.3, 1))
        data = rng.integers(0, 50, count)
        payload, _ = ec.encode(table, data)
        got = _same_outcome(table, payload, count)
        np.testing.assert_array_equal(got, data)
        for cut in (1, 2):
            assert isinstance(_same_outcome(table, payload[:-cut], count), str)
        _same_outcome(table, payload, count + 1)  # the padding read as codes

    @pytest.mark.parametrize("count", [T, 4 * T])
    def test_payload_ends_at_the_last_code(self, count):
        # 2-bit codes fill whole bytes, so the last code ends on the
        # payload's last bit, and no symbol more can be read
        table = ec.table_from_lengths([2, 2, 2, 2])
        data = np.arange(count) % 4
        payload, bits = ec.encode(table, data)
        assert bits == 8 * len(payload)
        got = _same_outcome(table, payload, count)
        np.testing.assert_array_equal(got, data)
        assert _same_outcome(table, payload, count + 1) == "exhausted"

    def test_read_ends_at_the_last_code(self):
        # every code is a longest one, so count * max_len bits are all that
        # is read, and the bytes after them are never looked at
        table = ec.table_from_lengths([1, 2, 3, 3])
        data = np.full(3 * self.T, 3)
        payload, bits = ec.encode(table, data)
        assert bits == 3 * len(data)
        np.testing.assert_array_equal(
            _same_outcome(table, payload + b"\xff" * 8, len(data)), data
        )

    @pytest.mark.parametrize("max_len, width", [(32, 32), (33, 64)])
    def test_window_width_switch(self, max_len, width):
        lengths = list(range(1, max_len)) + [max_len, max_len]
        table = ec.table_from_lengths(lengths)
        assert table._decoder.width == width
        rng = np.random.default_rng(max_len)
        data = rng.permutation(np.repeat(np.arange(len(lengths)), 3))
        payload, _ = ec.encode(table, data)
        np.testing.assert_array_equal(
            _same_outcome(table, payload, len(data)), data
        )
        for seed in range(20):
            payload = np.random.default_rng(seed).bytes(40)
            _same_outcome(table, payload, 16 * seed + 1)
        # an incomplete code: the all-ones longest code dropped, and then
        # written after the data (and a byte more, which the bit-serial
        # decoder reads before it calls the code invalid)
        table = ec.table_from_lengths(lengths[:-1])
        data = data[data < len(lengths) - 1]
        bits = _bit_string(table, data) + "1" * max_len + "0" * 8
        assert _same_outcome(
            table, _to_bytes(bits), len(data) + 1
        ) == "invalid code"

    @pytest.mark.parametrize("at", [T, 2 * T, T + 1, T + 17, 2 * T - 1])
    def test_invalid_code_at_chain_start_and_inside_fill(self, at):
        # an incomplete code: "0" and "10" are codes, "11" is none; symbol
        # `at` is "11", a chain start where `at` is a multiple of the span
        table = ec.table_from_lengths([1, 2])
        payload = _to_bytes("0" * at + "11" + "0" * 40)
        assert _same_outcome(table, payload, at + 10) == "invalid code"
        np.testing.assert_array_equal(
            _same_outcome(table, payload, at), np.zeros(at)
        )


def _built_from_counts(counts):
    """The table of `counts`, built independently of `table_from_counts`."""
    return ec.build_huffman((counts + 1.0) / (counts.sum() + len(counts)))


def _no_builds(monkeypatch):
    def build(pmf):
        raise AssertionError("table built again")

    monkeypatch.setattr(ec, "build_huffman", build)


class TestTableCache:
    """A codebook builds its table once and keeps it; other counts make
    another codebook, with a table of its own."""

    def test_table_built_once_per_codebook(self, monkeypatch):
        quantizer = pipeline.VqSpec(2, 4)
        prof = pipeline.CompressionProfile(quantizer=quantizer)
        cb = seeded_codebooks(quantizer, seed=12)
        frame = pipeline.compress(make_corpus(1, seed=12), prof, cb).to_bytes()
        table = cb.table
        np.testing.assert_array_equal(
            table.code_lengths, _built_from_counts(cb.usage_counts).code_lengths
        )
        _no_builds(monkeypatch)
        for _ in range(3):
            assert cb.table is table
            again = pipeline.compress(make_corpus(1, seed=12), prof, cb)
            assert again.to_bytes() == frame
        assert not table.code_lengths.flags.writeable
        assert not table.codes.flags.writeable
        monkeypatch.undo()
        twin = fvq.Codebook(2, 4, cb.codewords, cb.usage_counts)
        assert twin.table is not table
        np.testing.assert_array_equal(twin.table.codes, table.codes)

    def test_stage2_table_built_once(self, monkeypatch):
        cb = seeded_codebooks(pipeline.MsvqSpec(2, 2, 2), seed=13)
        table = cb.stage2_table
        pooled = np.sum([sub.usage_counts for sub in cb.stage2], axis=0)
        np.testing.assert_array_equal(
            table.code_lengths, _built_from_counts(pooled).code_lengths
        )
        _no_builds(monkeypatch)
        assert cb.stage2_table is table
        assert not table.code_lengths.flags.writeable

    def test_alphabet_size_is_part_of_the_key(self):
        counts = np.arange(5)
        a = ec.table_from_counts(counts, 5)
        b = ec.table_from_counts(counts, 6)
        assert a.alphabet_size == 5 and b.alphabet_size == 6

    @staticmethod
    def _round_trip(quantizer, seed):
        """(profile, codebook, frame) of a coded frame, and its decoded
        samples, for seeded codebooks of `quantizer`."""
        prof = pipeline.CompressionProfile(
            link="uplink", quantizer=quantizer, entropy_coding=True
        )
        cb = seeded_codebooks(quantizer, seed=seed)
        frame = pipeline.compress(make_corpus(1, seed=seed), prof, cb)
        out = pipeline.decompress(frame.to_bytes(), prof, cb)
        return prof, cb, frame, out.samples

    def test_vq_new_counts_new_table(self):
        prof, cb, before, samples = self._round_trip(pipeline.VqSpec(2, 3), 21)
        with pytest.raises(ValueError):
            cb.usage_counts[5] = 10**6
        counts = np.zeros(cb.size)
        counts[5] = 10**6  # codeword 5 gets a 1-bit code
        new = fvq.Codebook(cb.l_vq, cb.q_vq, cb.codewords, counts)
        assert new.table is not cb.table and new.table.code_lengths[5] == 1
        np.testing.assert_array_equal(
            new.table.code_lengths, _built_from_counts(counts).code_lengths
        )
        after = pipeline.compress(make_corpus(1, seed=21), prof, new)
        n = before.section(pipeline.SEC_VQ_IDX).item_count
        np.testing.assert_array_equal(
            ec.decode(new.table, after.section(pipeline.SEC_VQ_IDX).payload, n),
            ec.decode(cb.table, before.section(pipeline.SEC_VQ_IDX).payload, n),
        )
        assert after.to_bytes() != before.to_bytes()
        # each frame decodes under the codebook that coded it
        for frame, book in ((after, new), (before, cb)):
            out = pipeline.decompress(frame.to_bytes(), prof, book)
            np.testing.assert_array_equal(out.samples, samples)

    def test_msvq_stage2_counts_changed(self):
        prof, cb, before, samples = self._round_trip(
            pipeline.MsvqSpec(2, 2, 2), 23
        )
        stage2 = []
        for sub in cb.stage2:
            counts = sub.usage_counts.copy()
            counts[::2] += 500
            stage2.append(fvq.Codebook(sub.l_vq, sub.q_vq, sub.codewords,
                                       counts))
        new = fvq.MsvqCodebook(cb.stage1, stage2, cb.l, cb.q1, cb.q2)
        assert new.stage2_table is not cb.stage2_table
        after = pipeline.compress(make_corpus(1, seed=23), prof, new)
        assert (after.section(pipeline.SEC_MSVQ_I2).payload
                != before.section(pipeline.SEC_MSVQ_I2).payload)
        for frame, book in ((after, new), (before, cb)):
            out = pipeline.decompress(frame.to_bytes(), prof, book)
            np.testing.assert_array_equal(out.samples, samples)


class TestGain:
    def test_uniform_full_alphabet_no_gain(self):
        table = ec.build_huffman([1 / 16] * 16)
        assert ec.ec_gain(table, 2, 2) == pytest.approx(1.0)

    def test_plug_in_values(self):
        table = ec.build_huffman([0.25] * 4)
        table.avg_length = 10.5
        assert ec.ec_gain(table, 2, 6) == pytest.approx(12 / 10.5)

    def test_gain_exceeds_one_on_skewed_stream(self):
        rng = np.random.default_rng(2)
        data = rng.geometric(0.3, 5000) % 32
        table = ec.build_huffman(ec.estimate_pmf(data, 32))
        assert ec.ec_gain(table, 1, 5) > 1.0


class TestSerialization:
    def test_table_round_trip(self):
        pmf = ec.estimate_pmf([0, 0, 1, 2, 2, 2, 3], 5)
        table = ec.build_huffman(pmf)
        blob = ec.serialize_table(table)
        parsed, consumed = ec.parse_table(blob + b"extra")
        assert consumed == len(blob)
        np.testing.assert_array_equal(parsed.code_lengths, table.code_lengths)
        np.testing.assert_array_equal(parsed.codes, table.codes)

    def test_truncated_table_rejected(self):
        with pytest.raises(MalformedBitstreamError):
            ec.parse_table(b"\x05\x00\x00\x00\x01")
