"""Byte-for-byte stability of every documented on-disk format."""

import hashlib
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemoflow.assembly import build_operators
from chemoflow.cli import main
from chemoflow.config import ConfigError, RunConfig, config_from_dict, load_config
from chemoflow.energy import CSV_COLUMNS
from chemoflow.fields_io import FieldsIOError, export_fields, load_fields
from chemoflow.geometry import Mesh, MeshError, build_disc_mesh, load_mesh, save_mesh
from chemoflow.model import ModelParams
from chemoflow.timestepping import (
    Checkpoint,
    State,
    StepFailure,
    TimeGrid,
    read_checkpoint,
    trajectory_data_hash,
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


def test_energy_report_golden(tmp_path, capsys):
    # run then energy on the benchmark data at h=0.1, N=8 (T/16 and T/32 are
    # shifts off the grid); the first line names the checkpoint directory
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
    sets = ["--set", "mesh.target_h=0.1", "--set", "time.N=8", "--set", "output.checkpoints=true"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--output", str(out), *sets]) == 0
    assert main(["energy", "--config", str(config), "--checkpoints", str(out / "checkpoints"),
                 "--output", str(out), *sets]) == 0
    report = (out / "energy_report.txt").read_text().splitlines()
    golden = (GOLDEN / "energy_report_h0.1_N8.txt").read_text().splitlines()
    assert len(report) == len(golden) and report[1:] == golden[1:]


# the golden checkpoint: step 1 of T=1, N=4 on the tiny mesh, whose oxygen
# and fluid start factors come from step 1's first system and whose cell
# factor is the convection-free one
GOLDEN_SOURCES = (1, 0, 1)


def sha256_hex(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def golden_hashes(mesh, state):
    """The mesh hash and the trajectory data hash (default coefficients, ``state`` as initial data, T=1)."""
    mesh_hash = sha256_hex(*(arr.tobytes() for arr in (mesh.vertices, mesh.triangles, mesh.boundary_loop)))
    fields = (struct.pack(f"<{len(arr)}d", *arr) for arr in (state.c, state.n, state.u))
    coefficients = repr(ModelParams()).encode()
    return mesh_hash, sha256_hex(mesh_hash.encode("ascii"), coefficients, struct.pack("<d", 1.0), *fields)


def test_checkpoint_format_golden(tmp_path):
    mesh = build_disc_mesh(1.0, 0.6)
    state = tiny_state(mesh)
    mesh_hash, data_hash = golden_hashes(mesh, state)
    assert trajectory_data_hash(build_operators(mesh), ModelParams(), state, 1.0) == data_hash
    write_checkpoint(tmp_path / "c.ckpt", mesh_hash, TimeGrid(T=1.0, N=4), 1, state, data_hash, GOLDEN_SOURCES)
    assert (tmp_path / "c.ckpt").read_bytes() == (GOLDEN / "checkpoint_tiny.ckpt").read_bytes()


def encode_checkpoint(mesh_hash, N, m, T, state, data_hash, sources):
    """The docs/formats.md checkpoint table, built with struct and zlib alone."""
    nv, nvel = len(state.c), len(state.u)
    out = b"CFCK" + struct.pack("<I", 3) + mesh_hash.encode("ascii")
    out += struct.pack("<QQ", N, m) + struct.pack("<dd", T, state.t)
    out += struct.pack("<QQ", nv, nvel)
    out += data_hash.encode("ascii") + struct.pack("<QQQ", *sources)
    for arr in (state.c, state.n, state.u, state.p):
        out += struct.pack(f"<{len(arr)}d", *arr)
    return out + struct.pack("<I", zlib.crc32(out))


def test_checkpoint_golden_matches_documented_layout():
    mesh = load_mesh(GOLDEN / "mesh_tiny.txt")
    state = tiny_state(mesh)
    mesh_hash, data_hash = golden_hashes(mesh, state)
    golden = GOLDEN / "checkpoint_tiny.ckpt"
    data = golden.read_bytes()
    assert data == encode_checkpoint(mesh_hash, 4, 1, 1.0, state, data_hash, GOLDEN_SOURCES)
    assert len(data) == 212 + 8 * (3 * mesh.n_vertices + len(state.u))

    m, read, stored_hash, sources = read_checkpoint(golden, mesh.data_hash(), TimeGrid(T=1.0, N=4))
    assert m == 1 and read.t == 0.25
    assert stored_hash == data_hash and sources == GOLDEN_SOURCES
    for name in ("c", "n", "u", "p"):
        assert np.array_equal(getattr(read, name), getattr(state, name))


def test_checkpoint_length_checked(tmp_path):
    # the size must be 212 + 8 (3 nv + n_velocity) from the file's own header
    mesh = load_mesh(GOLDEN / "mesh_tiny.txt")
    grid = TimeGrid(T=1.0, N=4)
    data = (GOLDEN / "checkpoint_tiny.ckpt").read_bytes()
    for name, cut in (("short", data[:-8]), ("long", data + bytes(8)), ("header", data[:100])):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(cut)
        with pytest.raises(StepFailure, match=f"{name}.ckpt: checkpoint is {len(cut)} bytes"):
            read_checkpoint(path, mesh.data_hash(), grid)
    assert read_checkpoint(GOLDEN / "checkpoint_tiny.ckpt", mesh.data_hash(), grid).m == 1


def test_checkpoint_checksum_refuses_a_flipped_bit(tmp_path):
    # one bit of byte 300, inside the c array, is enough to refuse the file
    data = bytearray((GOLDEN / "checkpoint_tiny.ckpt").read_bytes())
    data[300] ^= 1
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(data))
    with pytest.raises(StepFailure, match="flipped.ckpt: checkpoint checksum does not match"):
        read_checkpoint(path, load_mesh(GOLDEN / "mesh_tiny.txt").data_hash(), TimeGrid(T=1.0, N=4))


def test_checkpoint_of_version_2_is_refused(tmp_path):
    # the golden in the version 2 layout: the same table without the checksum
    data = (GOLDEN / "checkpoint_tiny.ckpt").read_bytes()
    path = tmp_path / "v2.ckpt"
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:-4])
    with pytest.raises(StepFailure, match="v2.ckpt: checkpoint version 2 not supported, only 3"):
        read_checkpoint(path, load_mesh(GOLDEN / "mesh_tiny.txt").data_hash(), TimeGrid(T=1.0, N=4))


def test_fields_format_golden(tmp_path):
    mesh = build_disc_mesh(1.0, 0.6)
    export_fields(tiny_state(mesh), tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_bytes() == (GOLDEN / "fields_tiny.txt").read_bytes()


def cuts(text):
    """Every prefix of ``text`` ending at a line end or after a token, and whether it holds every token."""
    token_ends = [m.end() for m in re.finditer(r"\S+", text)]
    ends = {0, *token_ends, *(m.end() for m in re.finditer("\n", text))}
    return [(text[:end], end >= token_ends[-1]) for end in sorted(ends)]


def same_mesh(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("vertices", "triangles", "boundary_loop"))


def same_state(a, b):
    return a.t == b.t and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "cnup")


def check_cuts(tmp_path, name, load, error, is_golden):
    # a cut file reads as the golden value only once it holds every token;
    # any shorter cut raises the reader's typed error, nothing else
    path = tmp_path / name
    for prefix, complete in cuts((GOLDEN / name).read_text()):
        path.write_text(prefix)
        if complete:
            assert is_golden(load(path)), repr(prefix[-40:])
        else:
            with pytest.raises(error):
                load(path)


def test_mesh_reader_cut_files(tmp_path):
    golden = build_disc_mesh(1.0, 0.6)
    check_cuts(tmp_path, "mesh_tiny.txt", load_mesh, MeshError, lambda mesh: same_mesh(mesh, golden))


def test_fields_reader_cut_files(tmp_path):
    golden = tiny_state(build_disc_mesh(1.0, 0.6))
    check_cuts(tmp_path, "fields_tiny.txt", load_fields, FieldsIOError, lambda state: same_state(state, golden))


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("mesh_tiny.txt", "vertices 19", "vertices 19.0"),
        ("mesh_tiny.txt", "vertices 19", "vertices -19"),
        ("mesh_tiny.txt", "\n0.5 0\n", "\n0.5 zero\n"),
        ("mesh_tiny.txt", "\n0.5 0\n", "\nnan 0\n"),
        ("mesh_tiny.txt", "\n0.5 0\n", "\ninf 0\n"),
        ("mesh_tiny.txt", "\n0 1 2\n", "\n0 1.5 2\n"),
        ("mesh_tiny.txt", "\n0 1 2\n", "\n0 1 19\n"),
        ("mesh_tiny.txt", "\n0 1 2\n", "\n0 1 99999999999999999999\n"),
        ("mesh_tiny.txt", "boundary 12\n7\n", "boundary 12\n-7\n"),
        ("fields_tiny.txt", "t 0.25", "t quarter"),
        ("fields_tiny.txt", "c 19", "c nineteen"),
        ("fields_tiny.txt", "\n0.5\n", "\nhalf\n"),
        ("fields_tiny.txt", "p 19", "q 19"),
    ],
)
def test_readers_refuse_malformed_tokens(tmp_path, name, old, new):
    text = (GOLDEN / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    load, error = (load_mesh, MeshError) if name.startswith("mesh") else (load_fields, FieldsIOError)
    with pytest.raises(error):
        load(path)


def test_readers_map_unreadable_files(tmp_path):
    # a missing file, and one that is not text
    (tmp_path / "binary.txt").write_bytes(b"vertices \xff\xfe")
    for name in ("missing.txt", "binary.txt"):
        with pytest.raises(MeshError, match="cannot read mesh"):
            load_mesh(tmp_path / name)
        with pytest.raises(FieldsIOError, match="cannot read fields"):
            load_fields(tmp_path / name)


TEXTS = {
    name: (GOLDEN / name).read_bytes()
    for name in ("checkpoint_tiny.ckpt", "config_defaults.json", "fields_tiny.txt", "mesh_tiny.txt")
}
TINY_MESH = build_disc_mesh(1.0, 0.6)
TINY_HASHES = golden_hashes(TINY_MESH, tiny_state(TINY_MESH))


def read_tiny_checkpoint(path):
    return read_checkpoint(path, TINY_HASHES[0], TimeGrid(T=1.0, N=4))


def golden_checkpoint(checkpoint):
    return checkpoint == (1, checkpoint.state, TINY_HASHES[1], GOLDEN_SOURCES) and same_state(
        checkpoint.state, tiny_state(TINY_MESH)
    )


# each golden file's reader, the type it returns, its error, and its golden-value check
READERS = {
    "checkpoint_tiny.ckpt": (read_tiny_checkpoint, Checkpoint, StepFailure, golden_checkpoint),
    "mesh_tiny.txt": (load_mesh, Mesh, MeshError, lambda mesh: same_mesh(mesh, TINY_MESH)),
    "fields_tiny.txt": (load_fields, State, FieldsIOError, lambda state: same_state(state, tiny_state(TINY_MESH))),
    "config_defaults.json": (load_config, RunConfig, ConfigError, lambda cfg: cfg.raw == config_from_dict({}).raw),
}


@st.composite
def mangled_texts(draw):
    """A golden file and its bytes after up to four byte flips, splices of any golden file and truncations."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    data = bytearray(TEXTS[name])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["flip", "splice", "truncate"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "splice":
            source = TEXTS[draw(st.sampled_from(sorted(TEXTS)))]
            start = draw(st.integers(0, len(source)))
            end = draw(st.integers(start, min(start + 200, len(source))))
            data[at : at + draw(st.integers(0, 40))] = source[start:end]
        else:
            del data[at:]
    return name, bytes(data)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@example(("checkpoint_tiny.ckpt", TEXTS["checkpoint_tiny.ckpt"]))
@example(("mesh_tiny.txt", TEXTS["mesh_tiny.txt"]))
@example(("fields_tiny.txt", TEXTS["fields_tiny.txt"]))
@example(("config_defaults.json", TEXTS["config_defaults.json"]))
@given(mangled_texts())
def test_section_readers_return_their_type_or_raise_their_error(tmp_path_factory, case):
    # whatever the bytes, the checkpoint, mesh, fields and config readers
    # return a Checkpoint, a Mesh, a State or a RunConfig or raise
    # StepFailure, MeshError, FieldsIOError or ConfigError; the golden bytes
    # read as the golden value
    name, data = case
    load, kind, error, golden = READERS[name]
    path = tmp_path_factory.getbasetemp() / f"mangled_{name}"
    path.write_bytes(data)
    if data == TEXTS[name]:
        assert golden(load(path))
        return
    try:
        value = load(path)
    except error:
        return
    assert isinstance(value, kind)
