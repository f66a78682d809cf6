"""Checkpoint serialization.

Format: a single JSON document ``{"params": {name: {"shape": [...],
"data": [flat values...]}}, "meta": {...}}``. ``meta`` is an arbitrary
JSON-safe dict (model config echo, training provenance).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .tensor import Tensor


def save_checkpoint(path, params: dict[str, Tensor], meta: dict | None = None) -> None:
    doc = {
        "params": {
            name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in params.items()
        },
        "meta": meta or {},
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    params = {}
    for name, entry in doc["params"].items():
        data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        params[name] = Tensor(data, requires_grad=True)
    return params, doc.get("meta", {})
