"""Public-surface checks: exports are importable, examples run, docs exist."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.adaptive",
    "repro.analysis",
    "repro.apps",
    "repro.baselines",
    "repro.chaos",
    "repro.cluster",
    "repro.dfs",
    "repro.experiments",
    "repro.inversion",
    "repro.linalg",
    "repro.mapreduce",
    "repro.mpi",
    "repro.scalapack",
    "repro.spark",
    "repro.systemml",
    "repro.telemetry",
    "repro.workloads",
]

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name} in __all__ but missing"

    def test_top_level_quickstart_surface(self):
        import repro

        assert callable(repro.invert)
        assert callable(repro.lu_decompose)
        assert repro.InversionConfig(nb=8, m0=4).mhalf == 2
        assert repro.__version__

    def test_docstrings_on_public_modules(self):
        for package in PACKAGES:
            mod = importlib.import_module(package)
            assert mod.__doc__ and len(mod.__doc__) > 40, f"{package} undocumented"


class TestDocsPresent:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md", "docs/internals.md"]
    )
    def test_doc_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 2000, f"{name} too thin"

    def test_examples_present(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 9


class TestExamplesRun:
    """Smoke-run the two fastest examples end-to-end as subprocesses."""

    @pytest.mark.parametrize(
        "script, expect",
        [
            ("streaming_wordcount.py", "word counts"),
            ("quickstart.py", "matches numpy"),
        ],
    )
    def test_example(self, script, expect):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr[-800:]
        assert expect in proc.stdout


NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from repro import InversionConfig, MatrixInverter

with MatrixInverter(InversionConfig(nb=16)) as inverter:
    a = np.random.default_rng(0).standard_normal((64, 64))
    assert inverter.invert(a).inverse.shape == (64, 64)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_inversion_path_does_not_load_scipy():
    """scipy bundles a second OpenBLAS whose thread pool competes with
    numpy's, so the inversion path must run on numpy alone."""
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    assert proc.stdout.strip() == "[]"


class TestRunAllFast:
    def test_run_all_fast_smoke(self, capsys):
        """The master entry point (`python -m repro experiments --fast`)
        regenerates every artifact without error."""
        from repro.experiments.run_all import main as run_all

        run_all(fast=True)
        out = capsys.readouterr().out
        for artifact in ("Table 1", "Table 3", "Figure 6", "Figure 8",
                         "Section 7.4", "Section 8", "Section 7.5"):
            assert f"[{artifact}" in out, artifact
