"""Finite-difference oracles used by the validation suite and the tests.

Deliberately independent of the library's analytic derivative paths: every
derivative here is built from central differences of scalar/vector function
evaluations only.
"""

import numpy as np

LAP6_WEIGHTS = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
LAP6_OFFSETS = np.array([-3, -2, -1, 0, 1, 2, 3])


def grad(f, x, step=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(3, dtype=complex)
    for i, e in enumerate(np.eye(3) * step):
        out[i] = (f(x + e) - f(x - e)) / (2 * step)
    return out


def hessian(f, x, step=1e-4):
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((3, 3), dtype=complex)
    steps = np.eye(3) * step
    for i, ei in enumerate(steps):
        out[i, i] = (f(x + ei) - 2 * f(x) + f(x - ei)) / step ** 2
        for j in range(i + 1, 3):
            ej = steps[j]
            out[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                         - f(x - ei + ej) + f(x - ei - ej)) / (4 * step ** 2)
            out[j, i] = out[i, j]
    return out


def curl(f, x, step=1e-5):
    """Central-difference curl of a vector function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(3, dtype=complex)
    for ax, e in enumerate(np.eye(3) * step):
        d = (np.asarray(f(x + e), dtype=complex) - np.asarray(f(x - e), dtype=complex)) / (2 * step)
        out[(ax + 2) % 3] += d[(ax + 1) % 3]
        out[(ax + 1) % 3] -= d[(ax + 2) % 3]
    return out


def div(f, x, step=1e-5):
    """Central-difference divergence of a vector function."""
    x = np.asarray(x, dtype=float)
    s = 0.0 + 0.0j
    for ax, e in enumerate(np.eye(3) * step):
        s += (f(x + e)[ax] - f(x - e)[ax]) / (2 * step)
    return s


def laplacian6(f, x, step):
    """6th-order central finite-difference Laplacian of a scalar function."""
    x = np.asarray(x, dtype=float)
    total = 0.0 + 0.0j
    for e in np.eye(3):
        total += sum(w * f(x + o * step * e)
                     for w, o in zip(LAP6_WEIGHTS, LAP6_OFFSETS)) / step ** 2
    return total
