from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
SRC = Path(__file__).resolve().parents[1] / "src"

from classfile_builder import sample_network_jar, synthetic_jar  # noqa: E402


@pytest.fixture(scope="session")
def sample_jar(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixtures") / "sample-network.jar"
    path.write_bytes(sample_network_jar())
    return path


@pytest.fixture(scope="session")
def medium_jar(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixtures") / "synthetic-medium.jar"
    path.write_bytes(synthetic_jar(n_classes=60, seed=7))
    return path


@pytest.fixture
def src_on_pythonpath(monkeypatch):
    """Child interpreters import jarnet from this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])))
