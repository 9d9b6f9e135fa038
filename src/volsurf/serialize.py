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
    """A JSON array of finite numbers as a numpy array; anything else raises ValueError.

    Strings, nulls and objects are rejected, and so are NaN and +-Infinity,
    which Python's json module reads although JSON has no such numbers.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"expected an array of numbers, got {value!r:.40}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("expected finite numbers, got NaN or Infinity")
    return arr.astype(dtype)


def number(value) -> float:
    """A finite JSON number as a float: the scalar twin of ``number_array``."""
    arr = number_array(value)
    if arr.ndim:
        raise ValueError(f"expected a number, got {value!r:.40}")
    return float(arr)
