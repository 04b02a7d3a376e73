"""Package metadata."""

import pathlib

import pytest

import voicesep


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as f:
        meta = tomllib.load(f)
    assert voicesep.__version__ == meta["project"]["version"]
