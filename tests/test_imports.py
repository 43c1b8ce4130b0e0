"""Every name a module of `fvq` imports is used in that module, unless the
benchmark patches it there (`bench.tracing.SITES`): such an import exists
only so the benchmark can time the calls made through it. Importing `fvq`
starts no thread, and the resampler's thread pool does not keep a process
from exiting."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.tracing import SITES

SRC = Path(__file__).resolve().parent.parent / "src" / "fvq"
PATCH_SITES = {(owner.__name__, attr) for owner, attr, _, _ in SITES}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        name for name in _imported(tree)
        if name not in used and (f"fvq.{path.stem}", name) not in PATCH_SITES
    ]
    assert unused == []


ROOT = SRC.parent.parent

# resamples once on a pool of at least one worker, then returns
_RESAMPLE_ONCE = """
import threading
import numpy as np
from fvq import frontend
from fvq.iqstream import IQStream
frontend._cpu_count = lambda: 2
x = np.random.default_rng(0).standard_normal(4096) + 0j
frontend.resample(IQStream(x), frontend.ResamplerSpec(5, 8), frontend.DECIMATE)
assert any(t.name.startswith("fvq-resample") for t in threading.enumerate())
"""


def _child(code):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_starts_no_thread():
    run = _child("import threading, fvq, fvq.cli\n"
                 "print(threading.active_count())")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1"]


def test_resampler_pool_lets_the_process_exit():
    run = _child(_RESAMPLE_ONCE)
    assert run.returncode == 0, run.stderr
