"""Byte-for-byte stability of every documented on-disk format."""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from chemoflow.config import config_from_dict
from chemoflow.energy import CSV_COLUMNS
from chemoflow.fields_io import export_fields
from chemoflow.geometry import build_disc_mesh, load_mesh, save_mesh
from chemoflow.timestepping import (
    State,
    StepFailure,
    TimeGrid,
    read_checkpoint,
    write_checkpoint,
)

GOLDEN = Path(__file__).parent / "golden"


def tiny_state(mesh):
    nv = mesh.n_vertices
    return State(
        c=np.linspace(0.0, 1.0, nv),
        n=np.linspace(1.0, 2.0, nv),
        u=np.linspace(-1.0, 1.0, 4 * nv),
        p=np.zeros(nv),
        t=0.25,
    )


def test_config_defaults_golden():
    assert config_from_dict({}).to_json() == (GOLDEN / "config_defaults.json").read_text()


def test_mesh_format_golden(tmp_path):
    mesh = build_disc_mesh(1.0, 0.6)
    save_mesh(mesh, tmp_path / "mesh.txt")
    assert (tmp_path / "mesh.txt").read_bytes() == (GOLDEN / "mesh_tiny.txt").read_bytes()


def test_ledger_header_golden():
    assert ",".join(CSV_COLUMNS) + "\n" == (GOLDEN / "ledger_header.csv").read_text()


def test_checkpoint_format_golden(tmp_path):
    mesh = build_disc_mesh(1.0, 0.6)
    write_checkpoint(
        tmp_path / "c.ckpt", mesh.data_hash(), TimeGrid(T=1.0, N=4), 1, tiny_state(mesh)
    )
    assert (tmp_path / "c.ckpt").read_bytes() == (GOLDEN / "checkpoint_tiny.ckpt").read_bytes()


def encode_checkpoint_v1(mesh_hash, N, m, T, state):
    """The docs/formats.md checkpoint table, built with struct alone."""
    nv, nvel = len(state.c), len(state.u)
    out = b"CFCK" + struct.pack("<I", 1) + mesh_hash.encode("ascii")
    out += struct.pack("<QQ", N, m) + struct.pack("<dd", T, state.t)
    out += struct.pack("<QQ", nv, nvel)
    for arr in (state.c, state.n, state.u, state.p):
        out += struct.pack(f"<{len(arr)}d", *arr)
    return out


def test_checkpoint_golden_matches_documented_layout():
    mesh = load_mesh(GOLDEN / "mesh_tiny.txt")
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.boundary_loop):
        h.update(arr.tobytes())
    state = tiny_state(mesh)
    golden = GOLDEN / "checkpoint_tiny.ckpt"
    data = golden.read_bytes()
    assert data == encode_checkpoint_v1(h.hexdigest(), 4, 1, 1.0, state)
    assert len(data) == 120 + 8 * (3 * mesh.n_vertices + len(state.u))

    m, read = read_checkpoint(golden, mesh.data_hash(), TimeGrid(T=1.0, N=4))
    assert m == 1 and read.t == 0.25
    for name in ("c", "n", "u", "p"):
        assert np.array_equal(getattr(read, name), getattr(state, name))


def test_checkpoint_length_checked(tmp_path):
    # the size must be 120 + 8 (3 nv + n_velocity) from the file's own header
    mesh = load_mesh(GOLDEN / "mesh_tiny.txt")
    grid = TimeGrid(T=1.0, N=4)
    data = (GOLDEN / "checkpoint_tiny.ckpt").read_bytes()
    for name, cut in (("short", data[:-8]), ("long", data + bytes(8)), ("header", data[:100])):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(cut)
        with pytest.raises(StepFailure, match=f"{name}.ckpt: checkpoint is {len(cut)} bytes"):
            read_checkpoint(path, mesh.data_hash(), grid)
    m, _ = read_checkpoint(GOLDEN / "checkpoint_tiny.ckpt", mesh.data_hash(), grid)
    assert m == 1


def test_fields_format_golden(tmp_path):
    mesh = build_disc_mesh(1.0, 0.6)
    export_fields(tiny_state(mesh), tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_bytes() == (GOLDEN / "fields_tiny.txt").read_bytes()
