"""Canonical digests of workload outputs, and the output check.

Every workload pass returns ``{operation: output}``.  Each output (a
figure result, a DSE grid point, a library, a Monte Carlo sample) is
reduced to a canonical JSON form and hashed:

- dataclasses become field dicts, NumPy arrays and scalars become
  Python lists and numbers;
- dict items are sorted by the canonical form of their key;
- floats are written with 10 significant digits, so a digest pins the
  physics while staying independent of last-bit rounding noise (a
  changed result moves far more than that).

The check compares a pass's digests with a reference (the cold pass, or
the digests recorded at the default seed); every operation that raised
or differs is a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

#: Significant digits kept when hashing floats.
FLOAT_DIGITS = 10


def canonical(obj):
    """JSON-ready canonical form of a result object."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), f".{FLOAT_DIGITS}g")
    if isinstance(obj, np.ndarray):
        return [canonical(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = [(json.dumps(canonical(k)), canonical(v))
                 for k, v in obj.items()]
        return [[k, v] for k, v in sorted(items, key=lambda kv: kv[0])]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    """16-hex-digit digest of *obj*'s canonical form."""
    blob = json.dumps(canonical(obj), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digest_outputs(outputs: dict) -> dict[str, str | None]:
    """``{operation: digest}``; an operation that raised maps to None."""
    return {op: None if isinstance(out, BaseException) else digest(out)
            for op, out in outputs.items()}


def failed_operations(digests: dict[str, str | None],
                      *references: dict[str, str | None]) -> list[str]:
    """Operations that raised, or whose digest differs from a reference.

    An operation missing from either side fails too, so a pass that
    silently drops work cannot pass the check.
    """
    names = set(digests)
    for reference in references:
        names |= set(reference)
    return [op for op in sorted(names)
            if digests.get(op) is None
            or any(digests[op] != ref.get(op) for ref in references)]
