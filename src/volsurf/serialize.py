"""Canonical JSON writing so identical models produce identical bytes."""

from __future__ import annotations

import json

import numpy as np


def dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def number_array(value, dtype=float) -> np.ndarray:
    """A JSON array of numbers as a numpy array; strings, nulls or objects raise ValueError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"expected an array of numbers, got {value!r:.40}")
    return arr.astype(dtype)
