"""Exception hierarchy shared across the package, and the type rule for
configuration values.

ContractViolationError covers bad arguments and geometry mismatches (maps to
CLI exit code 4). FormatError covers unreadable or inconsistent on-disk
artifacts and bitstreams (CLI exit code 3).
"""

import dataclasses
import enum
import numbers


class FvqError(Exception):
    pass


class ContractViolationError(FvqError, ValueError):
    """A precondition or invariant of the public API was violated."""


class FormatError(FvqError):
    """A file or byte stream does not conform to its declared format."""


class MalformedBitstreamError(FormatError):
    """Bitstream is truncated or internally inconsistent."""


class DigestMismatchError(FormatError):
    """Bitstream was produced under a different profile than supplied."""


def has_type(value, t) -> bool:
    """Whether a configuration value has type t, as JSON reads it: an int
    is a float, an enum is its str value, and a bool is neither an int nor
    a float. numpy scalars count as the Python numbers they stand for."""
    if issubclass(t, enum.Enum):
        t = str
    t = {int: numbers.Integral, float: numbers.Real}.get(t, t)
    return isinstance(value, t) and (t is bool or not isinstance(value, bool))


def check_types(obj, values: dict):
    """obj, if each entry of `values` has the annotated type of obj's field
    of that name (a field holding a dataclass is checked against the nested
    dict); a ContractViolationError otherwise. A field left None is not
    checked."""
    for f in dataclasses.fields(obj):
        attr = getattr(obj, f.name)
        if dataclasses.is_dataclass(attr):
            check_types(attr, values.get(f.name, {}))
        elif f.name in values and attr is not None:
            if not has_type(values[f.name], f.type):
                raise ContractViolationError(
                    f"{f.name} must be {f.type.__name__}, "
                    f"got {values[f.name]!r}"
                )
    return obj
