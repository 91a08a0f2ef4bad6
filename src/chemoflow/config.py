"""Run configuration: JSON schema, defaults, and whole-file validation.

A run is described by one JSON file.  Loading never stops at the first
problem: every schema or semantic error is collected with its key path so the
command line can print all findings at once.  Command-line ``--set`` overrides
are applied to the raw dictionary before validation.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fluid import steady_stokes_velocity
from .model import ModelParams, ResponseSpec, validate_params
from .step_solver import SolverOptions
from .timestepping import TimeGrid, initial_state


class ConfigError(Exception):
    """Carries every validation problem found in a configuration."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(f"{key}: {msg}" for key, msg in self.problems))


DEFAULTS = {
    "mesh": {"radius": 1.0, "target_h": 0.1, "first_ring": 6},
    "time": {"T": 1.0, "N": 16},
    "params": {
        "alpha": 1.0,
        "beta": 1.0,
        "xi": 1.0,
        "b": 1.0,
        "grad_sigma": [0.0, -1.0],
        "f": {"family": "saturating", "f0": 0.1, "f1": 1.0},
        "g": {"family": "saturating", "g1": 0.5},
    },
    "initial": {
        "c": {"preset": "constant", "value": 1.0},
        "n": {"preset": "zero"},
        "u": {"preset": "zero"},
    },
    "solver": asdict(SolverOptions()),
    "output": {"directory": "out", "snapshot_stride": 0, "checkpoints": True},
}

# each numeric setting's rule: None for a positive number, else the least value of an integer
NUMBERS = {
    "mesh.radius": None, "mesh.target_h": None, "mesh.first_ring": 3,
    "time.T": None, "time.N": 1,
    "solver.inner_tol": None, "solver.outer_tol": None, "solver.linear_tol": None,
    "solver.max_inner": 1, "solver.max_outer": 1, "solver.retry_depth": 0,
    "output.snapshot_stride": 0,
}

# the keys each field preset takes besides 'preset', and each response family besides 'family'
SCALAR_PRESETS = {"constant": ("value",), "zero": (), "gaussian": ("amplitude", "center", "width_sq"), "file": ("path",)}
VELOCITY_PRESETS = {"zero": (), "stokes": (), "swirl": ("amplitude", "radius"), "file": ("path",)}
RESPONSE_FAMILIES = {
    "f": {"constant": ("f0", "f1"), "saturating": ("f0", "f1")},
    "g": {"constant": ("g1", "theta"), "saturating": ("g1",)},
}
# the key table of each preset or family choice an override can switch
SWITCHES = {
    "initial.c.preset": SCALAR_PRESETS, "initial.n.preset": SCALAR_PRESETS, "initial.u.preset": VELOCITY_PRESETS,
    "params.f.family": RESPONSE_FAMILIES["f"], "params.g.family": RESPONSE_FAMILIES["g"],
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; ``raw`` is the fully defaulted dictionary,
    ``grid`` and ``options`` its time and solver sections, and ``base_dir``
    the directory that ``file`` preset paths are relative to."""

    raw: dict
    params: ModelParams
    grid: TimeGrid
    options: SolverOptions
    base_dir: Path = Path(".")

    @property
    def mesh(self) -> dict:
        return self.raw["mesh"]

    @property
    def initial(self) -> dict:
        return self.raw["initial"]

    @property
    def output(self) -> dict:
        return self.raw["output"]

    def to_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


def _merge_defaults(raw: dict, defaults: dict, prefix: str, problems: list) -> dict:
    out = {}
    for key, default in defaults.items():
        path = f"{prefix}{key}"
        if key not in raw:
            out[key] = copy.deepcopy(default)
        elif isinstance(default, dict) and not _is_leaf_dict(path):
            if not isinstance(raw[key], dict):
                problems.append((path, f"expected an object, got {type(raw[key]).__name__}"))
                out[key] = copy.deepcopy(default)
            else:
                out[key] = _merge_defaults(raw[key], default, path + ".", problems)
        else:
            out[key] = copy.deepcopy(raw[key])
    for key in raw:
        if key not in defaults:
            problems.append((f"{prefix}{key}", "unknown key"))
    return out


def _is_leaf_dict(path: str) -> bool:
    # preset and response objects take the keys of their preset or family
    return path in ("params.f", "params.g", "initial.c", "initial.n", "initial.u")


def _require_number(val, path, problems, positive=False, minimum=None, integer=False):
    """``val`` if it is a finite number (not a bool) meeting the bounds, else None with a problem at ``path``."""
    # the comparison also rejects nan, and integers too large for a float
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
        problems.append((path, f"expected a finite number, got {val!r}"))
        return None
    if integer and int(val) != val:
        problems.append((path, f"expected an integer, got {val!r}"))
        return None
    if positive and not val > 0:
        problems.append((path, f"must be positive, got {val}"))
        return None
    if minimum is not None and val < minimum:
        problems.append((path, f"must be >= {minimum}, got {val}"))
        return None
    return val


def _require_vector(val, path, problems):
    """``val`` as a tuple of two floats, else None with a problem at ``path`` or at a bad entry."""
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        problems.append((path, f"expected a 2-vector, got {val!r}"))
        return None
    entries = [_require_number(v, f"{path}[{i}]", problems) for i, v in enumerate(val)]
    return None if None in entries else tuple(float(v) for v in entries)


def _unknown_keys(spec: dict, known, path: str, problems: list) -> None:
    problems.extend((f"{path}.{key}", "unknown key") for key in spec if key not in known)


def _validate_field_spec(spec, path, presets, problems, base_dir):
    if not isinstance(spec, dict) or "preset" not in spec:
        problems.append((path, "expected an object with a 'preset' key"))
        return
    preset = spec["preset"]
    if not isinstance(preset, str) or preset not in presets:
        problems.append((f"{path}.preset", f"unknown preset {preset!r}; choose from {tuple(presets)}"))
        return
    _unknown_keys(spec, ("preset", *presets[preset]), path, problems)
    for key in presets[preset]:
        if key == "center" and key in spec:
            _require_vector(spec[key], f"{path}.{key}", problems)
        elif key != "path" and key in spec:
            _require_number(spec[key], f"{path}.{key}", problems, positive=key == "width_sq")
    if preset == "file":
        p = spec.get("path")
        if not isinstance(p, str):
            problems.append((f"{path}.path", "file preset needs a 'path' string"))
        elif not (base_dir / p).exists():
            problems.append((f"{path}.path", f"referenced file does not exist: {p}"))


def load_config(path, overrides=()) -> RunConfig:
    """Parse a JSON config file, apply ``key=value`` overrides, then validate;
    raise ConfigError with all problems (parse position for syntax errors,
    key paths for semantic ones)."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(str(path), f"cannot read: {exc}")]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([(str(path), f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([(str(path), "top level must be a JSON object")])
    return config_from_dict(apply_overrides(raw, overrides), base_dir=path.parent)


def config_from_dict(raw: dict, base_dir=Path(".")) -> RunConfig:
    problems: list = []
    merged = _merge_defaults(raw, DEFAULTS, "", problems)

    numbers = {}
    for path, least in NUMBERS.items():
        section, key = path.split(".")
        numbers[path] = v = _require_number(merged[section][key], path, problems, positive=least is None,
                                            integer=least is not None, minimum=least)
        if v is not None and least is not None:
            merged[section][key] = int(v)
    radius, target_h = numbers["mesh.radius"], numbers["mesh.target_h"]
    if radius and target_h and not target_h < radius:
        problems.append(("mesh.target_h", f"must be smaller than the radius {radius}"))

    if not isinstance(merged["output"]["directory"], str):
        problems.append(("output.directory", "must be a string"))
    if not isinstance(merged["output"]["checkpoints"], bool):
        problems.append(("output.checkpoints", "must be true or false"))

    params = _params_from_dict(merged["params"], problems)
    if params is not None:
        report = validate_params(params)
        for finding in report.errors:
            problems.append((f"params ({finding.code})", finding.message))

    for name in ("c", "n"):
        _validate_field_spec(merged["initial"][name], f"initial.{name}", SCALAR_PRESETS, problems, base_dir)
    _validate_field_spec(merged["initial"]["u"], "initial.u", VELOCITY_PRESETS, problems, base_dir)

    if problems:
        raise ConfigError(problems)
    return RunConfig(merged, params, TimeGrid(**merged["time"]), SolverOptions(**merged["solver"]), Path(base_dir))


def _params_from_dict(d: dict, problems: list):
    """The model parameters, or None when a coefficient is not a number."""
    specs = {}
    for key, families in RESPONSE_FAMILIES.items():
        user = d[key]
        if not isinstance(user, dict):
            problems.append((f"params.{key}", "response spec must be an object"))
            user = {}
        # the user's object over its defaults, merged only here so config_used.json keeps it as written
        specs[key] = spec = {**DEFAULTS["params"][key], **user}
        if isinstance(spec["family"], str) and spec["family"] in families:  # else validate_params reports it
            _unknown_keys(user, ("family", *families[spec["family"]]), f"params.{key}", problems)
    fd, gd = specs["f"], specs["g"]
    numbers = {key: _require_number(d[key], f"params.{key}", problems) for key in ("alpha", "beta", "xi", "b")}
    for key in ("f0", "f1"):
        numbers[key] = _require_number(fd[key], f"params.f.{key}", problems)
    numbers["g1"] = _require_number(gd["g1"], "params.g.g1", problems)
    grad_sigma = _require_vector(d["grad_sigma"], "params.grad_sigma", problems)
    if grad_sigma is None or None in numbers.values():
        return None
    f_extra = {k: v for k, v in fd.items() if k not in ("family", "f0", "f1")}
    g_extra = {k: v for k, v in gd.items() if k not in ("family", "g1")}
    return ModelParams(
        grad_sigma=grad_sigma,
        f_spec=ResponseSpec(fd["family"], f_extra),
        g_spec=ResponseSpec(gd["family"], g_extra),
        **numbers,
    )


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply dotted-path ``key=value`` overrides; values parse as JSON when
    possible and fall back to strings.  An object the path creates starts from
    its defaults, so an override lands on the defaulted configuration.  An
    override that switches a preset or family to another known one drops the
    keys the new one does not take."""
    out = copy.deepcopy(raw)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError([(assignment, "override must look like key.path=value")])
        key, _, value = assignment.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node, default = out, DEFAULTS
        parts = key.split(".")
        for part in parts[:-1]:
            default = default.get(part, {}) if isinstance(default, dict) else {}
            node = node.setdefault(part, copy.deepcopy(default))
            if not isinstance(node, dict):
                raise ConfigError([(key, "override path crosses a non-object value")])
        table = SWITCHES.get(key)
        if table is not None and isinstance(parsed, str) and parsed in table and node.get(parts[-1]) != parsed:
            for extra in [k for k in node if k not in (parts[-1], *table[parsed])]:
                del node[extra]
        node[parts[-1]] = parsed
    return out


def _file_values(spec: dict, base_dir, key: str, size: int) -> np.ndarray:
    """The ``size`` numbers of a ``file`` preset; a file holding anything else is a problem at ``key``."""
    try:
        vals = np.loadtxt(Path(base_dir) / spec["path"])
    except ValueError as exc:
        raise ConfigError([(key, f"field file {spec['path']} does not hold numbers: {exc}")]) from exc
    if vals.shape != (size,):
        raise ConfigError([(key, f"field file has {vals.shape} values, need {size}")])
    return vals


def build_scalar_field(spec: dict, mesh, base_dir, key: str) -> np.ndarray:
    x, y = mesh.vertices.T
    preset = spec["preset"]
    if preset == "zero":
        return np.zeros(mesh.n_vertices)
    if preset == "constant":
        return np.full(mesh.n_vertices, float(spec.get("value", 0.0)))
    if preset == "gaussian":
        amp = float(spec.get("amplitude", 1.0))
        cx, cy = spec.get("center", [0.0, 0.0])
        w2 = float(spec.get("width_sq", 0.25))
        return amp * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / w2))
    return _file_values(spec, base_dir, key, mesh.n_vertices)


def build_velocity_field(spec: dict, ops, params, n0: np.ndarray, base_dir) -> np.ndarray:
    preset = spec["preset"]
    if preset == "zero":
        return np.zeros(ops.vspace.n_velocity)
    if preset == "stokes":
        return steady_stokes_velocity(ops, params, n0)
    if preset == "swirl":
        amp = float(spec.get("amplitude", 1.0))
        r0 = float(spec.get("radius", 0.5))

        # curl of the stream bump amp*(r0^2 - r^2)^2 restricted to r < r0
        def vel(x, y):
            s = np.clip(r0**2 - (x**2 + y**2), 0.0, None)
            return -4.0 * amp * s * y, 4.0 * amp * s * x

        return ops.vspace.interpolate(vel)
    return _file_values(spec, base_dir, "initial.u", ops.vspace.n_velocity)


def build_initial_state(cfg: RunConfig, ops):
    """Evaluate the configured initial fields on the mesh."""
    c0 = build_scalar_field(cfg.initial["c"], ops.mesh, cfg.base_dir, "initial.c")
    n0 = build_scalar_field(cfg.initial["n"], ops.mesh, cfg.base_dir, "initial.n")
    u0 = build_velocity_field(cfg.initial["u"], ops, cfg.params, n0, cfg.base_dir)
    return initial_state(ops, c0, n0, u0)
