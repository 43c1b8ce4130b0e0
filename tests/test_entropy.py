import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvq import entropy as ec
from fvq.errors import ContractViolationError, MalformedBitstreamError


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
