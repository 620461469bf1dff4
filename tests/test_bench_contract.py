"""The benchmark's contract with the package, checked without running the benchmark.

`perfbench/` wraps the names in `tracer.REQUIRED` and recomputes workload
outputs through `check.py`; a refactor that renames one of those names, or
changes what a workload writes, breaks the benchmark silently.  These tests
only read `perfbench/`.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from conecert.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD = "certify-matrix-a4"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def design():
    with open(PERFBENCH / "design.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_traced_name_resolves():
    """Each `module.attr[.method]` in REQUIRED names a function of the package."""
    tracer = _load("tracer")
    for name in tracer.REQUIRED:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"conecert.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert inspect.isfunction(obj), name


def test_matrix_workload_output_passes_the_checker(capsys, design):
    check = _load("check")
    workload = design["workloads"][WORKLOAD]
    assert main([*workload["argv"], "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert check.count_checks(payload) == (workload["checks_per_run"], 0)
    assert check.core_digest(payload) == workload["digests"]["0"]
    assert check.Checker(workload, 0).check(payload) == []
    baseline = workload["traced_baseline"]
    counts = check.output_counts(payload)
    assert counts == {key: baseline[key] for key in counts}
    assert set(counts) == {"verifiers.runs", "verifiers.cells_evaluated"}
