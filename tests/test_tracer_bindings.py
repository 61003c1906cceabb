"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
module and attribute name.  These tests import it read-only and check that
every name it binds exists in berkdyn, so renaming or deleting a traced
function fails here and not only in a traced benchmark run.  The benchmark's
self-test runs here too: a library change that leaves a layer some workload
exercises without calls fails the suite."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from berkdyn import roots
from berkdyn.fields import FieldElement

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


def test_spans_resolve(tracer):
    for mod_name, path, metric in tracer.SPANS:
        module = importlib.import_module(f"berkdyn.{mod_name}")
        owner, attr = tracer._resolve(module, path)
        assert callable(owner.__dict__.get(attr)), metric


def test_kind_counts_resolve(tracer):
    for path, metric in tracer.KIND_COUNTS:
        cls, attr = path.split(".")
        assert cls == "FieldElement", metric
        assert callable(FieldElement.__dict__.get(attr)), metric


def test_install_wraps_and_uninstall_restores(tracer):
    orig = roots.segment_residue_poly
    t = tracer.Tracer().install()
    try:
        assert roots.segment_residue_poly is not orig
    finally:
        t.uninstall()
    assert roots.segment_residue_poly is orig


def test_benchmark_self_test_passes():
    # every workload at a tiny size, with its oracle and its exercises check
    run = subprocess.run(
        [sys.executable, str(Path(PERFBENCH) / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
