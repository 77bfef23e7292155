"""Bundled reference matrices for the reproduction checks.

Each matrix was transcribed once into ``data/`` and is guarded by a sha256
manifest. The data directory is resolved and the manifest read once per
process; every load reads and hashes its file again, so a silent edit of a
reference file cannot go unnoticed.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .fileio import matrix_from_text, sha256_of_text

REFERENCE_NAMES = (
    "c6",
    "k7_case1",
    "k8_case2",
    "sign4",
    "sign4_alt",
    "sign4_product",
    "lift8",
)


@functools.cache
def _data_root():
    """The bundled data directory, resolved once per process."""
    return resources.files("goodsign") / "data"


@functools.cache
def reference_checksums() -> Mapping[str, str]:
    """The sha256 manifest, read once per process; every load hashes its file again."""
    return MappingProxyType(json.loads((_data_root() / "checksums.json").read_text()))


def reference_matrix(name: str) -> np.ndarray:
    """Load a bundled matrix by short name, verifying its checksum."""
    if name not in REFERENCE_NAMES:
        raise KeyError(f"unknown reference matrix {name!r}")
    filename = f"{name}.txt"
    text = (_data_root() / filename).read_text()
    expected = reference_checksums()[filename]
    actual = sha256_of_text(text)
    if actual != expected:
        raise ValueError(
            f"checksum mismatch for {filename}: expected {expected}, got {actual}"
        )
    return matrix_from_text(text)
