"""The one codebook-file reader: any bytes either load as the codebook whose
encoding they are, or raise FormatError."""

import pytest
from hypothesis import given, settings, strategies as st

from fvq.artifacts import encode, load_codebook, save_codebook
from fvq.errors import ContractViolationError, FormatError
from fvq.pipeline import MsvqSpec, UpmgqSpec, VqSpec
from tests.conftest import seeded_codebooks

SPECS = {
    "vq": VqSpec(2, 2),
    "msvq": MsvqSpec(1, 1, 2),
    "upmgq": UpmgqSpec(theta=-1, q_high=2, l=2, q_low=2),
}
FILES = {kind: encode(seeded_codebooks(spec, seed=31), 15)
         for kind, spec in SPECS.items()}


def _loads_as_itself_or_is_refused(path, data: bytes):
    path.write_bytes(data)
    try:
        cb = load_codebook(path)
    except FormatError:
        return False
    q0 = data[13] if data.startswith(b"UPMG") else 15  # UPMG keeps its q0
    assert encode(cb, q0) == data
    return True


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts") / "cb.bin"


@pytest.mark.parametrize("kind", list(FILES))
def test_each_kind_round_trips(path, kind):
    assert _loads_as_itself_or_is_refused(path, FILES[kind])
    assert isinstance(load_codebook(path), type(seeded_codebooks(SPECS[kind])))


@pytest.mark.parametrize("kind", list(FILES))
def test_every_byte_flipped(path, kind):
    data = FILES[kind]
    for at in range(len(data)):
        flipped = data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
        _loads_as_itself_or_is_refused(path, flipped)


@st.composite
def _mutated(draw):
    data = bytearray(FILES[draw(st.sampled_from(list(FILES)))])
    how = draw(st.sampled_from(["flip", "truncate", "append"]))
    if how == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        data.append(draw(st.integers(0, 255)))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=_mutated())
def test_mutated_file_loads_as_itself_or_is_refused(path, data):
    _loads_as_itself_or_is_refused(path, data)


@pytest.mark.parametrize("cb", [None, SPECS["vq"]], ids=["raw", "a spec"])
def test_what_no_file_holds_refused(tmp_path, cb):
    with pytest.raises(ContractViolationError, match="no codebook file"):
        save_codebook(cb, tmp_path / "cb.bin", 15)
    assert not (tmp_path / "cb.bin").exists()
