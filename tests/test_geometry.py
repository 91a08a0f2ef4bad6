import numpy as np
import pytest

from chemoflow.geometry import (
    MeshError,
    build_disc_mesh,
    load_mesh,
    mesh_from_arrays,
    save_mesh,
)


def test_coarse_disc_boundary_on_circle():
    mesh = build_disc_mesh(1.0, 0.5)
    assert mesh.n_boundary >= 8
    r = np.linalg.norm(mesh.vertices[mesh.boundary_loop], axis=1)
    assert np.all(np.abs(r - 1.0) <= 1e-12)


def test_perimeter_converges_to_circumference():
    mesh = build_disc_mesh(1.0, 0.1)
    assert abs(mesh.perimeter - 2 * np.pi) / (2 * np.pi) < 0.005


def test_area_converges_to_disc_area():
    mesh = build_disc_mesh(1.0, 0.05)
    assert abs(mesh.area - np.pi) / np.pi < 0.01


@pytest.mark.parametrize("radius,target_h", [(1.0, -0.1), (1.0, 0.0), (-1.0, 0.1), (1.0, 1.0), (0.0, 0.1)])
def test_rejects_bad_inputs(radius, target_h):
    with pytest.raises(ValueError):
        build_disc_mesh(radius, target_h)


@pytest.mark.parametrize("target_h", [0.5, 0.23, 0.1])
def test_invariants_hold(target_h):
    mesh = build_disc_mesh(1.0, target_h)
    mesh.validate()  # positive areas, convexity, normals, arclength
    assert np.all(mesh.triangle_areas() > 0)
    assert mesh.h_max <= 1.5 * target_h


def test_orientation_consistent_and_single_loop():
    mesh = build_disc_mesh(2.0, 0.4)
    # each boundary vertex appears exactly once
    assert len(np.unique(mesh.boundary_loop)) == mesh.n_boundary
    # boundary edges are exactly those appearing in one triangle
    e = np.sort(
        np.concatenate(
            [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
        ),
        axis=1,
    )
    _, counts = np.unique(e, axis=0, return_counts=True)
    assert np.sum(counts == 1) == mesh.n_boundary


def test_mesh_from_arrays_rejects_coincident_boundary_vertices():
    # a unit square fanned from its centre, with loop vertices 1 and 2 at the
    # same point: the fan triangle on the zero-length edge has no area, and
    # the zero edge breaks the loop's convexity
    vertices = [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    triangles = [[5, j, (j + 1) % 5] for j in range(5)]
    with pytest.raises(MeshError) as exc:
        mesh_from_arrays(vertices, triangles, [0, 1, 2, 3, 4])
    assert "non-positive area" in str(exc.value)
    assert "not convex" in str(exc.value)


def test_first_ring_controls_boundary_count():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    assert mesh.n_boundary == 256


def test_mesh_file_roundtrip(tmp_path):
    mesh = build_disc_mesh(1.3, 0.35)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert np.array_equal(again.boundary_loop, mesh.boundary_loop)
    assert again.h_max == mesh.h_max
    assert again.data_hash() == mesh.data_hash()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("not a mesh\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_distance_to_boundary():
    mesh = build_disc_mesh(1.0, 0.1)
    d = mesh.distance_to_boundary(np.array([[0.0, 0.0], [0.9, 0.0]]))
    assert abs(d[0] - 1.0) < 0.01
    assert abs(d[1] - 0.1) < 0.01
    assert 0.99 < mesh.inradius <= 1.0
