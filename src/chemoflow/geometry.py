"""Triangulated disc domains with an ordered boundary loop.

The solver works on a convex planar domain whose boundary carries its own
differential operators, so the mesh keeps more boundary structure than a
generic triangulation: an ordered closed loop of boundary vertices, from
which the boundary operators are assembled edge by edge.  Meshes are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """A mesh violated a structural or geometric invariant."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of a convex domain.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex index triples, all counter-clockwise.
    boundary_loop : (nb,) int array
        Boundary vertex indices forming one closed CCW cycle.
    h_max : float
        Longest edge length over all triangles.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    h_max: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_loop.shape[0]

    def triangle_areas(self) -> np.ndarray:
        """Signed triangle areas (positive for CCW orientation)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_edge_lengths(self) -> np.ndarray:
        """Length of each boundary edge, edge j joining loop vertices j, j+1."""
        pts = self.vertices[self.boundary_loop]
        return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)

    @property
    def perimeter(self) -> float:
        return float(self.boundary_edge_lengths().sum())

    @property
    def area(self) -> float:
        return float(self.triangle_areas().sum())

    @property
    def inradius(self) -> float:
        """Distance from the centroid to the nearest boundary edge."""
        centroid = self.vertices.mean(axis=0)
        return float(self.distance_to_boundary(centroid[None, :])[0])

    def distance_to_boundary(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each point to the boundary polygon."""
        pts = self.vertices[self.boundary_loop]
        a = pts
        b = np.roll(pts, -1, axis=0)
        ab = b - a  # (nb, 2)
        denom = np.einsum("ed,ed->e", ab, ab)
        ap = points[:, None, :] - a[None, :, :]  # (np, nb, 2)
        t = np.clip(np.einsum("ped,ed->pe", ap, ab) / denom, 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.linalg.norm(points[:, None, :] - closest, axis=2)
        return d.min(axis=1)

    def data_hash(self) -> str:
        """Hash binding checkpoints and ledgers to this exact mesh."""
        h = hashlib.sha256()
        h.update(self.vertices.tobytes())
        h.update(self.triangles.tobytes())
        h.update(self.boundary_loop.tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        """Check every structural invariant; raise MeshError listing failures."""
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
        problems = []
        # negated comparisons, so NaN fails them
        bad = ~(self.triangle_areas() > 0)
        if np.any(bad):
            problems.append(f"{int(np.sum(bad))} triangles with non-positive area")
        loop = self.boundary_loop
        if len(np.unique(loop)) != len(loop):
            problems.append("boundary loop revisits a vertex")
        if len(loop) < 3:
            problems.append("boundary loop has fewer than 3 vertices")
        pts = self.vertices[loop]
        e = np.roll(pts, -1, axis=0) - pts
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if not np.all(cross > 0):
            problems.append("boundary polygon is not convex/CCW")
        if problems:
            raise MeshError("; ".join(problems))


def _zip_rings(inner: np.ndarray, outer: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate the annulus between two concentric CCW vertex rings.

    Walks both rings by angle, always connecting to whichever ring has the
    smaller next angle, which keeps every triangle CCW for rings sorted by
    increasing angle.
    """
    na, nb = len(inner), len(outer)
    tris = []
    ia = ib = 0
    while ia < na or ib < nb:
        next_a = (ia + 1) / na
        next_b = (ib + 1) / nb
        if ib < nb and (ia == na or next_b < next_a):
            tris.append((inner[ia % na], outer[ib % nb], outer[(ib + 1) % nb]))
            ib += 1
        else:
            tris.append((inner[ia % na], outer[ib % nb], inner[(ia + 1) % na]))
            ia += 1
    return tris


def build_disc_mesh(radius: float, target_h: float, first_ring: int = 6) -> Mesh:
    """Structured polar-ring triangulation of a disc centred at the origin.

    The construction is deterministic: rings of radius ``i * radius/n`` carry
    ``first_ring * i`` equally spaced vertices, so the outermost ring (the
    boundary loop) has ``first_ring * n`` vertices.  Edge lengths stay below
    ``1.5 * target_h``.

    Parameters
    ----------
    radius : float
        Disc radius, > 0.
    target_h : float
        Requested mesh size, 0 < target_h < radius.
    first_ring : int
        Vertex count of the innermost ring; the boundary vertex count is a
        multiple of this.  Must be >= 3.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 < target_h < radius:
        raise ValueError(f"target_h must lie in (0, radius), got {target_h}")
    if first_ring < 3:
        raise ValueError(f"first_ring must be >= 3, got {first_ring}")

    n_rings = max(2, math.ceil(radius / target_h))
    dr = radius / n_rings

    verts = [np.zeros((1, 2))]
    ring_ids = []
    start = 1
    for i in range(1, n_rings + 1):
        count = first_ring * i
        theta = 2.0 * np.pi * np.arange(count) / count
        r = i * dr
        verts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        ring_ids.append(np.arange(start, start + count))
        start += count
    vertices = np.vstack(verts)

    tris: list[tuple[int, int, int]] = []
    inner0 = ring_ids[0]
    for j in range(len(inner0)):
        tris.append((0, inner0[j], inner0[(j + 1) % len(inner0)]))
    for i in range(len(ring_ids) - 1):
        tris.extend(_zip_rings(ring_ids[i], ring_ids[i + 1]))
    triangles = np.asarray(tris, dtype=np.int64)

    mesh = mesh_from_arrays(vertices, triangles, ring_ids[-1])
    if mesh.h_max > 1.5 * target_h:
        raise MeshError(f"h_max {mesh.h_max:.3g} exceeds 1.5 * target_h {1.5 * target_h:.3g}")
    return mesh


def mesh_from_arrays(vertices, triangles, boundary_loop) -> Mesh:
    """Build a validated Mesh from raw arrays (CCW triangles, CCW loop), as float64 and int64."""
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    loop = np.asarray(boundary_loop, dtype=np.int64)

    p = vertices[triangles]
    side = np.stack(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1
    )
    h_max = float(np.linalg.norm(side, axis=2).max())

    mesh = Mesh(
        vertices=_readonly(vertices),
        triangles=_readonly(triangles),
        boundary_loop=_readonly(loop),
        h_max=h_max,
    )
    mesh.validate()
    return mesh


# Plain-text sections, shared by the mesh and fields files: "<keyword> <count>",
# then <count> records of the section's width, one a line; floats use %.17g so
# the round trip is bit-exact.  A mesh file holds "vertices <nv>" ("x y"
# records), "triangles <nt>" ("i j k", counter-clockwise) and "boundary <nb>" ("v").


def write_sections(f, sections) -> None:
    """Write each ``(keyword, records)`` pair to the text file ``f``; a 1-D ``records`` holds one value a record."""
    for keyword, records in sections:
        spec = ".17g" if records.dtype.kind == "f" else "d"
        ends = itertools.cycle([" "] * (records[:1].size - 1) + ["\n"])
        f.write(f"{keyword} {len(records)}\n" + "".join([f"{v:{spec}}{e}" for v, e in zip(records.ravel().tolist(), ends)]))


def read_sections(path, error, what: str, layout, skip: int = 0) -> tuple:
    """The first ``skip`` tokens of the ``what`` file ``path``, then the ``(count, width)``
    records of each ``(keyword, width, dtype)`` section of ``layout``, in file order.

    An unreadable, short or malformed file raises ``error`` naming ``path``.
    """
    try:
        with open(path) as f:
            tokens = f.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} from {path}: {exc}") from exc
    pos = skip
    sections = []
    for keyword, width, dtype in layout:
        head = tokens[pos : pos + 2]
        if len(head) < 2 or head[0] != keyword or not head[1].isdecimal():
            raise error(f"{path}: expected section '{keyword} <count>'")
        count = int(head[1])
        end = pos + 2 + width * count
        if end > len(tokens):
            raise error(f"{path}: section '{keyword}' holds fewer than {count} records")
        try:
            sections.append(np.array(tokens[pos + 2 : end], dtype=dtype).reshape(count, width))
        except (ValueError, OverflowError) as exc:
            raise error(f"{path}: section '{keyword}': {exc}") from exc
        pos = end
    return tokens[:skip], sections


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        write_sections(f, [("vertices", mesh.vertices), ("triangles", mesh.triangles), ("boundary", mesh.boundary_loop)])


def load_mesh(path) -> Mesh:
    """Read a mesh in the format above; an unreadable, short or malformed file raises ``MeshError``."""
    layout = [("vertices", 2, np.float64), ("triangles", 3, np.int64), ("boundary", 1, np.int64)]
    _, (vertices, triangles, boundary) = read_sections(path, MeshError, "mesh", layout)
    for keyword, indices in (("triangles", triangles), ("boundary", boundary)):
        if indices.size == 0 or indices.min() < 0 or indices.max() >= len(vertices):
            raise MeshError(f"{path}: section '{keyword}' is empty or indexes no vertex")
    return mesh_from_arrays(vertices, triangles, boundary[:, 0])
