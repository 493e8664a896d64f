"""Canonical JSON: builtin-only payloads with a stable byte encoding.

Every persisted artifact that participates in hashing or byte-identical
replay (cluster arrival traces, run records, orchestrator manifests)
funnels through :func:`canonical_json`: keys sorted, no whitespace,
``NaN``/``Infinity`` rejected, and every value a builtin type.  numpy
scalars and arrays are converted by :func:`to_builtin` before encoding --
``json.dumps`` serializes ``np.float64`` on some platforms and raises on
others, and even where it works the repr can differ from the builtin
float's, which would silently split cache keys.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np


#: Exact types :func:`to_builtin` returns unchanged.
_LEAVES = frozenset((str, int, float, bool, type(None)))

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def to_builtin(value: Any) -> Any:
    """Recursively convert *value* to JSON-native builtin types.

    numpy scalars become their Python equivalents (``np.float64`` ->
    ``float``, ``np.int64``/``np.bool_`` -> ``int``/``bool``), numpy
    arrays become (nested) lists, tuples become lists, and dict keys are
    stringified the way ``json.dumps`` would.  Anything else is returned
    unchanged -- the encoder raises on genuinely non-serializable values,
    which is the correct failure mode for a schema bug.

    Exact builtin types take a fast path; subclasses and numpy values
    take the ``isinstance`` path below, with the same output.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    if cls is dict:
        return {
            k if type(k) is str else _builtin_key(k):
            v if type(v) in _LEAVES else to_builtin(v)
            for k, v in value.items()
        }
    if cls is list or cls is tuple:
        return [v if type(v) in _LEAVES else to_builtin(v) for v in value]
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
    """Encode *value* as canonical JSON text.

    Sorted keys, compact separators, no NaN/Infinity, builtins only (via
    :func:`to_builtin`).  The same logical document always produces the
    same bytes, so sha256 over the text is a stable content address and
    two replays can be compared with ``==``.
    """
    return _ENCODER.encode(to_builtin(value))
