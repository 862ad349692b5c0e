"""Package-level sanity: public API surface, version, re-export integrity."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = ["repro.dna", "repro.hashing", "repro.kmers", "repro.mpi", "repro.gpu", "repro.core", "repro.ext", "repro.bench"]


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_docstrings_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim."""
        from repro import count_distributed, count_kmers_exact, load_dataset, paper_config

        reads = load_dataset("ecoli30x", scale=0.05)
        oracle = count_kmers_exact(reads, 17)
        result = count_distributed(
            reads, n_nodes=2, backend="gpu", config=paper_config(mode="supermer")
        )
        result.validate_against(oracle)
        summary = result.summary()
        assert summary["total_kmers"] == oracle.n_total

    def test_cli_module_entry(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"


class TestImportCost:
    def test_cli_import_leaves_networkx_unloaded(self):
        """networkx is only needed to build de Bruijn graphs, not to count."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = "import sys, repro.cli; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
