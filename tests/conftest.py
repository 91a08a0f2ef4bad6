import numpy as np
import pytest

from chemoflow.assembly import build_operators
from chemoflow.geometry import build_disc_mesh, mesh_from_arrays
from chemoflow.model import ModelParams

# Benchmark coefficients: slow enough that the coarsest ladder step (T/16)
# resolves every transient, so the uniform-in-k scan and the convergence
# slopes have margin.  Mirrors configs/benchmark.json.
BENCH_PARAMS = ModelParams(alpha=0.05, beta=0.05, xi=1.0, b=1.0, g1=0.02)


def bench_density(mesh):
    x, y = mesh.vertices.T
    return 0.8 * np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.5)


def bench_initial(ops):
    """Unit oxygen, off-centre cell bump, velocity in Stokes balance."""
    from chemoflow.fluid import steady_stokes_velocity
    from chemoflow.timestepping import initial_state

    n0 = bench_density(ops.mesh)
    u0 = steady_stokes_velocity(ops, BENCH_PARAMS, n0)
    return initial_state(ops, np.ones_like(n0), n0, u0)


@pytest.fixture(scope="session")
def coarse_ops():
    """Very small disc (37 vertices) for dense oracles."""
    mesh = build_disc_mesh(1.0, 0.35)
    return build_operators(mesh)


@pytest.fixture(scope="session")
def medium_ops():
    """Medium disc for quantitative operator checks."""
    mesh = build_disc_mesh(1.0, 0.1)
    return build_operators(mesh)


@pytest.fixture(scope="session")
def reference_triangle_mesh():
    return mesh_from_arrays(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_loop=np.array([0, 1, 2]),
    )
