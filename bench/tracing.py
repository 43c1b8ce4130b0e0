"""Spans around the calls that cross fvq's module boundaries.

A patch site is a function of one fvq module as seen from the namespace that
calls it. `pipeline` imports most functions by name, so a site is patched
where it is looked up (``pipeline.quantize_msvq``), not only where it is
defined. A call made inside its own module (``entropy.decode`` reading its
bits) stays part of the caller's span; a call into another module gets a
span of its own, named after the callee's layer.

Spans are recorded only inside an operation opened with `Tracer.root`, kept
in memory, and written out when the run ends. A layer's self time is its
span's duration less the durations of its direct children.
"""

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

from fvq import entropy, frontend, msvq, pipeline, upmgq, vq_core


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    frame: int  # operation id shared by every span of one operation
    count: int = 0  # work items the call was asked for (symbols to decode)


@contextlib.contextmanager
def patched(owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(function)`` for the block;
    class methods are unwrapped and re-wrapped so they stay class methods."""
    orig = vars(owner)[attr]
    if isinstance(orig, classmethod):
        new = classmethod(make_wrapper(orig.__func__))
    else:
        new = make_wrapper(orig)
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


@contextlib.contextmanager
def recording(sites):
    """Record (args, result) of every call made through `sites`, a list of
    (owner, attr) pairs, while the block runs."""
    calls = []

    def make(func):
        @functools.wraps(func)
        def record(*args, **kwargs):
            out = func(*args, **kwargs)
            calls.append((args, out))
            return out

        return record

    with contextlib.ExitStack() as stack:
        for owner, attr in sites:
            stack.enter_context(patched(owner, attr, make))
        yield calls


def _named(name):
    return lambda args, kwargs: name


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _resample_name(args, kwargs):
    return "frontend.resample_" + _arg(args, kwargs, 2, "direction")


def _decode_count(args, kwargs):
    return int(_arg(args, kwargs, 2, "count"))


# every namespace that calls vq_core's Lloyd trainers
TRAINING_SITES = [
    (m, t) for m in (vq_core, msvq, upmgq)
    for t in ("train_modified", "train_classical")
]
_TABLE_BUILDERS = (
    "estimate_pmf", "build_huffman", "table_from_counts",
    "table_from_lengths", "parse_table", "serialize_table",
)

# (owner, attribute, span name from the call's arguments, work count or None)
SITES = (
    [
        (pipeline, "train_for_profile", _named("pipeline.train_for_profile"), None),
        (pipeline, "compress", _named("pipeline.compress"), None),
        (pipeline, "decompress", _named("pipeline.decompress"), None),
        (pipeline.Bitstream, "to_bytes", _named("pipeline.frame_bytes"), None),
        (pipeline.Bitstream, "from_bytes", _named("pipeline.frame_bytes"), None),
        (vq_core, "quantize_batch", _named("vq_core.quantize_batch"), None),
        (vq_core, "dequantize_batch", _named("vq_core.dequantize_batch"), None),
        (pipeline, "quantize_msvq", _named("msvq.quantize_msvq"), None),
        (pipeline, "dequantize_msvq", _named("msvq.dequantize_msvq"), None),
        (msvq, "train_msvq", _named("msvq.train_msvq"), None),
        (pipeline, "quantize_upmgq", _named("upmgq.quantize_upmgq"), None),
        (pipeline, "dequantize_upmgq", _named("upmgq.dequantize_upmgq"), None),
        (upmgq, "train_upmgq", _named("upmgq.train_upmgq"), None),
        (entropy, "encode", _named("entropy.encode"), None),
        (entropy, "decode", _named("entropy.decode"), _decode_count),
        (frontend, "resample", _resample_name, None),
        (frontend, "remove_cp", _named("frontend.remove_cp"), None),
        (frontend, "reinsert_cp", _named("frontend.reinsert_cp"), None),
        (frontend, "block_scale", _named("frontend.block_scale"), None),
        (frontend, "block_unscale", _named("frontend.block_unscale"), None),
        (entropy, "unpack_bit_array", _named("bitio.unpack"), None),
    ]
    + [(m, t, _named("vq_core.train"), None) for m, t in TRAINING_SITES]
    + [(entropy, t, _named("entropy.table_build"), None) for t in _TABLE_BUILDERS]
    + [(upmgq, t, _named("entropy.table_build"), None)
       for t in ("build_huffman", "estimate_pmf")]
    + [(m, f, _named(f"vectorizer.{f}"), None)
       for m in (pipeline, upmgq) for f in ("vectorize", "devectorize")]
    + [(pipeline, f, _named("bitio.pack"), None)
       for f in ("pack_fixed", "pack_bit_array", "concat_bits")]
    + [(pipeline, f, _named("bitio.unpack"), None)
       for f in ("unpack_fixed", "unpack_bit_array")]
)

# every patched function must still be the module's own: a site that names a
# function its owner no longer has fails here, not silently at run time
for _owner, _attr, _, _ in SITES:
    if _attr not in vars(_owner):
        raise ImportError(f"patch site {_owner.__name__}.{_attr} is gone")
del _owner, _attr


class Tracer:
    """Span recorder; patch sites record only while an operation is open."""

    def __init__(self):
        self.spans = []
        self.measured = []  # (root span, t0, t1) the caller timed around it
        self._stack = []
        self._frame = -1

    def _open(self, name, count=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), math.nan, parent, self._frame, count)
        )
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextlib.contextmanager
    def root(self, name, frame):
        """Open operation `frame`; every patched call inside is a span.
        Yields the root span's index."""
        self._frame = frame
        self._open(name)
        try:
            yield self._stack[-1]
        finally:
            self._close()
            self._frame = -1

    def _wrapper(self, name_of, count_of):
        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                if not self._stack:
                    return func(*args, **kwargs)
                count = count_of(args, kwargs) if count_of else 0
                self._open(name_of(args, kwargs), count)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close()

            return traced

        return make

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, name_of, count_of in SITES:
                stack.enter_context(
                    patched(owner, attr, self._wrapper(name_of, count_of))
                )
            yield self

    def self_times(self):
        """Self time of every span: its duration less its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def roots(self):
        """Index of each span's operation root."""
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s.parent < 0 else root[s.parent])
        return root

    def totals(self, root_names):
        """Per span name: summed self time and work count over the
        operations whose root span is named in `root_names`."""
        own = self.self_times()
        roots = self.roots()
        secs, counts = defaultdict(float), defaultdict(int)
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]].name in root_names:
                secs[s.name] += own[i]
                counts[s.name] += s.count
        return secs, counts

    def consistency_errors(self):
        """Spans that leave their parent or overlap a sibling."""
        errors = []
        last_child_end = defaultdict(lambda: -math.inf)
        for i, s in enumerate(self.spans):
            if not s.start <= s.end:
                errors.append(f"span {i} {s.name} ends before it starts")
            if s.parent < 0:
                continue
            p = self.spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} leaves parent {p.name}")
            if s.start < last_child_end[s.parent]:
                errors.append(f"span {i} {s.name} overlaps a sibling")
            last_child_end[s.parent] = s.end
        return errors

    def write(self, path, header):
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            name, start, end, parent, frame, count = astuple(s)
            rows.append([name, start - t0, end - t0, parent, frame, count])
        doc = dict(header, fields=["name", "start_s", "end_s", "parent",
                                   "frame", "count"], spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh)
