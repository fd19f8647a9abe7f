import numpy as np
import pytest

from finsq import geometry
from finsq.jets import seed


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def christoffels(alpha: geometry.RiemannMetric, x) -> np.ndarray:
    """Gamma^i_{jk} at x, shape (n, n, n), read off the point-bundle path
    (`geometry._levi_civita` on second-order seeds) that `beta_derivatives`
    runs."""
    X = seed(x, np.eye(alpha.dim), 2)
    return geometry._levi_civita(alpha.components(X), X)[3]


def spray_from_christoffels(alpha: geometry.RiemannMetric, x, y) -> np.ndarray:
    """G^i = (1/2) Gamma^i_{jk} y^j y^k: the Christoffel route to the
    geodesic spray, an oracle for `geometry.geodesic_spray`."""
    y = np.asarray(y, float)
    return 0.5 * np.einsum("ijk,j,k->i", christoffels(alpha, x), y, y)


def conformal_poly(n: int) -> geometry.RiemannMetric:
    """(1 + x_1)^2 delta_ij: a rational conformal chart with hand-worked
    Christoffel symbols and Gauss curvature."""

    def comp(X):
        w = 1.0 + X[0]
        f = w * w
        return [[f if i == j else 0.0 for j in range(n)] for i in range(n)]

    return geometry.RiemannMetric(
        dim=n, components=comp, name=f"conformal-poly-{n}",
        domain=lambda x: 1.0 + x[0] > 0.05,
    )
