"""Plain-text persistence of field states.

Format (one record per line, floats as %.17g so round trips are bit-exact):

    fields v1
    t <time>
    c <count>      followed by <count> value lines
    n <count>      ...
    u <count>      ...
    p <count>      ...
"""

from __future__ import annotations

import numpy as np

from .timestepping import State


class FieldsIOError(Exception):
    pass


def export_fields(state: State, path) -> None:
    try:
        with open(path, "w") as f:
            f.write("fields v1\n")
            f.write(f"t {state.t:.17g}\n")
            for name in ("c", "n", "u", "p"):
                arr = getattr(state, name)
                f.write(f"{name} {arr.shape[0]}\n")
                for v in arr:
                    f.write(f"{v:.17g}\n")
    except OSError as exc:
        raise FieldsIOError(f"cannot write fields to {path}: {exc}") from exc


def load_fields(path) -> State:
    """Read a fields file; an unreadable, short or malformed one raises ``FieldsIOError``."""
    try:
        with open(path) as f:
            tokens = f.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise FieldsIOError(f"cannot read fields from {path}: {exc}") from exc
    if tokens[:3] != ["fields", "v1", "t"] or len(tokens) < 4:
        raise FieldsIOError(f"{path}: not a fields file with a time stamp")
    pos = 4
    arrays = {}
    for name in ("c", "n", "u", "p"):
        head = tokens[pos : pos + 2]
        if len(head) < 2 or head[0] != name or not head[1].isdecimal():
            raise FieldsIOError(f"{path}: expected section '{name} <count>'")
        end = pos + 2 + int(head[1])
        if end > len(tokens):
            raise FieldsIOError(f"{path}: section '{name}' holds fewer than {head[1]} values")
        arrays[name] = tokens[pos + 2 : end]
        pos = end
    try:
        t = float(tokens[3])
        arrays = {name: np.array(values, dtype=np.float64) for name, values in arrays.items()}
    except ValueError as exc:
        raise FieldsIOError(f"{path}: {exc}") from exc
    return State(c=arrays["c"], n=arrays["n"], u=arrays["u"], p=arrays["p"], t=t)


def snapshot_name(m: int) -> str:
    return f"fields_{m:06d}.txt"
