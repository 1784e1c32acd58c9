"""Every console script pyproject.toml declares names a callable that an
installed package can import."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_script_target_is_callable():
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), name
