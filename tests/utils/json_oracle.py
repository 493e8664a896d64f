"""Reference canonical-JSON encoder: the plain recursive ``isinstance``
walk that :func:`repro.utils.jsonutil.to_builtin` must match value for
value (its exact-type fast path is an optimisation, not a new rule)."""

import json
from typing import Any

import numpy as np


def to_builtin(value: Any) -> Any:
    if isinstance(value, dict):
        return {_builtin_key(k): to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_builtin(v) for v in value]
    if isinstance(value, np.ndarray):
        return to_builtin(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _builtin_key(key: Any) -> Any:
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, (int, float)) and not isinstance(key, bool):
        return str(key)
    return key


def canonical_json(value: Any) -> str:
    return json.dumps(
        to_builtin(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
