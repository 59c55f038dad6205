"""Every script under ``scripts/`` loads: a script that imports a name
the package no longer has fails here, not when someone next runs it."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path, monkeypatch):
    # the scripts put the package's src directory on sys.path when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's __main__ guard keeps it from running
    assert callable(getattr(module, "main", None))
