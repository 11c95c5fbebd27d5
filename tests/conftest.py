import math

import numpy as np
import pytest

from kantorovich import validate_spd
from kantorovich.linalg import PD_TOL


def random_rotation(rng, n):
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spd_with_kappa(rng, n, kappa):
    """Random SPD matrix with condition number exactly kappa.

    Smallest eigenvalue 1, largest kappa, the rest uniform in between,
    conjugated by a random rotation.
    """
    if n == 1:
        return validate_spd(np.array([[1.0]]))
    lams = np.empty(n)
    lams[0] = 1.0
    lams[-1] = kappa
    if n > 2:
        lams[1:-1] = rng.uniform(1.0, kappa, size=n - 2)
    u = random_rotation(rng, n)
    a = (u * lams) @ u.T
    return validate_spd(0.5 * (a + a.T))


def random_spd(rng, n, spread=4.0):
    lams = rng.uniform(0.5, spread, size=n)
    u = random_rotation(rng, n)
    a = (u * lams) @ u.T
    return validate_spd(0.5 * (a + a.T))


def largest_accepted_kappa():
    """The largest float kappa with PD_TOL * kappa < 1: 1/PD_TOL, moved by
    at most 8 ulps (one at PD_TOL = 1e-12)."""
    top = 1.0 / PD_TOL
    for _ in range(8):
        if PD_TOL * top >= 1.0:
            top = math.nextafter(top, 0.0)
        elif PD_TOL * math.nextafter(top, math.inf) < 1.0:
            top = math.nextafter(top, math.inf)
    assert PD_TOL * top < 1.0 <= PD_TOL * math.nextafter(top, math.inf)
    return top


def write_matrix(path, a, fmt="plain"):
    """Write ``a`` as a matrix file; 17 significant digits round-trip."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if fmt == "json":
        entries = ", ".join(format(v, ".17g") for v in a.reshape(-1))
        text = '{"n": %d, "entries": [%s]}\n' % (n, entries)
    else:
        rows = (" ".join(format(v, ".17g") for v in row) for row in a)
        text = "\n".join([str(n), *rows]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
