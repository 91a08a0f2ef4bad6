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

from .geometry import read_sections, write_sections
from .timestepping import State


class FieldsIOError(Exception):
    pass


def export_fields(state: State, path) -> None:
    try:
        with open(path, "w") as f:
            f.write(f"fields v1\nt {state.t:.17g}\n")
            write_sections(f, [(name, getattr(state, name)) for name in "cnup"])
    except OSError as exc:
        raise FieldsIOError(f"cannot write fields to {path}: {exc}") from exc


def load_fields(path) -> State:
    """Read a fields file; an unreadable, short or malformed one raises ``FieldsIOError``."""
    preamble, sections = read_sections(path, FieldsIOError, "fields", [(name, 1, np.float64) for name in "cnup"], skip=4)
    if preamble[:3] != ["fields", "v1", "t"]:
        raise FieldsIOError(f"{path}: not a fields file with a time stamp")
    try:
        t = float(preamble[3])
    except ValueError as exc:
        raise FieldsIOError(f"{path}: {exc}") from exc
    return State(*(values[:, 0] for values in sections), t=t)


def snapshot_name(m: int) -> str:
    return f"fields_{m:06d}.txt"
