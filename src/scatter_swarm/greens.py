"""Outgoing Helmholtz point kernel, its derivatives, and the curl kernel
shared by the many-sphere system and the limiting-medium collocation solver.

All functions broadcast over leading axes; x and y are arrays of shape
(..., 3). Coincident source/target pairs are a hard error, never a clamped
value: the solvers exclude the self pair by construction.

One radial kernel: _radial forms g and g'/r for every pair builder, here and
in sphere_oracle, and _second forms g'' for the two curl-kernel builders
(_curl_components and the pointwise reference hessian_g).

One routine (_curl_components) forms the six distinct components of the curl
kernel for both system builders, the dense interaction_matrix and the
spectra of the lattice operator (LatticeOperator), which applies T with one
work grid beside its scatter grid, transformed in place. The probe-field
sums (dipole_sums) evaluate the same kernels in their own form, kept apart
as an independent reference, from three complex scalars per probe-source
pair, g'/r, g'/r + k^2 g and (g'' - g'/r)/r^2, taking the
pairs each probe drops as a list of source indices per probe, over chunks
of probes in work arrays allocated once per call. One rule, chunk_rows, sizes
the row chunks of every pairwise builder, here and in sphere_oracle; a chunk
sets memory and speed only: a row is bitwise the same in any chunk. The field
alone needs only g'/r: with curl=False the curl sums are skipped, which is
how the evaluators in las and limit serve callers that read E alone (their
FieldSample then has H = None).
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .core import as_cvec, as_point
from .errors import MemoryBudgetError, SingularityError

# (row, column) pairs per row chunk of every pairwise builder (chunk_rows); at
# this size the 11 pair arrays of dipole_sums take 2 MiB
PAIR_BUDGET = 16384
ASSEMBLY_ARRAYS = 15  # complex (rows, n) work arrays of an assembly chunk; 14.0-14.4 measured


def chunk_rows(rows, cols):
    """Rows per chunk of rows x cols pairs: at most PAIR_BUDGET pairs, at least one row."""
    return max(1, min(rows, PAIR_BUDGET // max(1, cols)))


def _separation(x, y):
    d = as_point(x) - as_point(y)
    r = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(r == 0.0):
        raise SingularityError("kernel evaluated at coincident points x == y")
    return d, r


def _radial(r, k):
    """The two factors every pair kernel reads: g(r) = exp(ikr) / (4 pi r)
    and g'/r = (ik - 1/r) g / r."""
    g = np.exp(1j * k * r) / (4.0 * math.pi * r)
    return g, (1j * k - 1.0 / r) * g / r


def _second(r, k, g):
    """g'' = (-k^2 - 2ik/r + 2/r^2) g from g = _radial(r, k)[0]."""
    return (-k * k - 2j * k / r + 2.0 / (r * r)) * g


# the 6 distinct components of the symmetric 3x3 kernel block, and the
# position of component (a, b) in that list
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _curl_components(d, k, origin, out):
    """Write the six distinct components of the curl kernel k^2 g I + H, in
    _PAIRS order, into out at separations d (three arrays broadcasting to
    out[0]), zero at the self pairs `origin`: with e = d / r, component (a, b)
    is g'' e_a e_b + (g'/r) (delta_ab - e_a e_b) + k^2 g delta_ab."""
    r = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    r[origin] = 1.0  # placeholder for the excluded self pairs, zeroed below
    g, gp_r = _radial(r, k)
    gpp = _second(r, k, g)
    kkg = np.multiply(k * k, g, out=g)
    e = [da / r for da in d]
    del r
    ee = np.empty(out.shape[1:])
    term = np.empty(out.shape[1:], dtype=complex)
    for c, (a, b) in enumerate(_PAIRS):
        block = out[c]
        delta = float(a == b)
        np.multiply(e[a], e[b], out=ee)
        np.multiply(gpp, ee, out=block)
        np.subtract(delta, ee, out=ee)
        block += np.multiply(gp_r, ee, out=term)
        block += np.multiply(kkg, delta, out=term)
        block[origin] = 0.0


def eval_g(x, y, k):
    """Outgoing point kernel g(x, y) = exp(ik|x-y|) / (4 pi |x-y|)."""
    _, r = _separation(x, y)
    return _radial(r, k)[0]


def grad_g(x, y, k):
    """Gradient of g with respect to x: (g'/r) (x - y)."""
    d, r = _separation(x, y)
    return _radial(r, k)[1][..., np.newaxis] * d


def hessian_g(x, y, k):
    """Closed-form Hessian d^2 g / dx_i dx_j, shape (..., 3, 3).

    With e = (x-y)/r: H = g'' e e^T + (g'/r) (I - e e^T). The matrix is
    symmetric with trace -k^2 g away from the source.
    """
    d, r = _separation(x, y)
    g, gp_r = _radial(r, k)
    e = d / r[..., np.newaxis]
    ee = e[..., :, np.newaxis] * e[..., np.newaxis, :]
    return _second(r, k, g)[..., None, None] * ee + gp_r[..., None, None] * (np.eye(3) - ee)


def curl_dipole_kernel(x, y, k, V):
    """Curl at x of the dipole field [grad_y-independent] (grad g(x, y)) x V.

    For constant V, curl_x (grad g x V) = (V, grad) grad g + k^2 g V, which is
    the Hessian contraction H(x, y) V plus k^2 g V.
    """
    V = as_cvec(V)
    g, H = eval_g(x, y, k), hessian_g(x, y, k)
    return (k * k * g)[..., np.newaxis] * V + np.einsum("...ij,...j->...i", H, V)


# ---------------------------------------------------------------------------
# pairwise assembly and representation sums
# ---------------------------------------------------------------------------

def available_memory():
    """Bytes of memory the system can hand out now: MemAvailable (free pages
    plus reclaimable cache) where /proc/meminfo reports it, else the free
    physical pages."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(nbytes, needs, note=""):
    """Raise MemoryBudgetError, naming what `needs` the memory, when nbytes
    exceed available_memory(); `note` ends the message."""
    available = available_memory()
    if nbytes > available:
        raise MemoryBudgetError(f"{needs}, but only {available} are available{note}")


def interaction_matrix(points, coeffs, k):
    """Dense (3n, 3n) coupling matrix of the curl kernel between n points.

    Block (j, m), j != m, equals coeffs[m] * (k^2 g(x_j, x_m) I + H(x_j, x_m));
    diagonal blocks are zero (self interaction is excluded). Both the
    many-sphere system and the limiting-medium collocation build their system
    matrix as identity plus this matrix, so matched points and coefficients
    give identical systems entrywise. Raises MemoryBudgetError, before
    allocating, when the 16 (3n)^2 bytes and the ASSEMBLY_ARRAYS work arrays
    of a chunk of chunk_rows(n, n) rows exceed the available memory.
    """
    points = as_point(points)
    coeffs = np.asarray(coeffs, dtype=complex)
    n = points.shape[0]
    if coeffs.shape != (n,):
        raise ValueError(f"coeffs must have shape ({n},), got {coeffs.shape}")
    _check_distinct(points)
    chunk = chunk_rows(n, n)
    nbytes = 16 * (3 * n) ** 2
    work = ASSEMBLY_ARRAYS * 16 * chunk * n
    require_memory(
        nbytes + work,
        f"the dense interaction matrix of {n} points needs {nbytes} bytes and its assembly "
        f"{work} more",
        "; the dense matrix is built only for points off a lattice, since points on a lattice "
        "use the matrix-free FFT operator",
    )
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    view = A.reshape(n, 3, n, 3)
    components = np.empty((6, chunk, n), dtype=complex)
    for j0 in range(0, n, chunk):
        j1 = min(j0 + chunk, n)
        out = components[:, :j1 - j0]
        rows = np.arange(j0, j1)
        _curl_components([points[j0:j1, None, i] - points[None, :, i] for i in range(3)],
                         k, (rows - j0, rows), out)
        for c, (a, b) in enumerate(_PAIRS):
            block = np.multiply(out[c], coeffs, out=view[j0:j1, a, :, b])
            if a != b:
                view[j0:j1, b, :, a] = block
        view[rows, :, rows] = 0.0  # a zero self pair times a coefficient may be -0.0
    return A


# A point counts as a lattice site when it lies within this fraction of the
# spacing of a node. The FFT operator evaluates the kernel at the exact node
# offsets, so the tolerance bounds its deviation from the dense matrix at
# about 3e-10 relative, well below the default GMRES tolerance.
LATTICE_TOL = 1e-10

# complex padded grids LatticeOperator needs while it applies T: the six
# spectra, apply's seven work grids (the three-component scatter grid, its
# product and one term grid) and one for the per-point vectors; the
# component-wise build peaks lower, at about 12.3
OPERATOR_GRIDS = 14


def _lattice_axis(coords):
    """(node index per coordinate, node count, spacing) of 1-D coordinates
    on a uniform grid starting at their minimum, or None if they are off it."""
    lo = coords.min()
    span = coords.max() - lo
    if span == 0.0:
        return np.zeros(coords.shape, dtype=np.intp), 1, 1.0
    gaps = np.diff(np.unique(coords))
    steps = round(span / gaps[gaps > LATTICE_TOL * span].min())
    spacing = span / steps
    index = np.rint((coords - lo) / spacing)
    if np.abs(coords - lo - index * spacing).max() > LATTICE_TOL * spacing:
        return None
    return index.astype(np.intp), steps + 1, spacing


class LatticeOperator:
    """Matrix-free interaction T = A - I of the curl kernel between points
    on a (possibly anisotropic) lattice.

    T v = K C v, where C holds the per-point coefficients and K is the
    block-Toeplitz kernel matrix of interaction_matrix. Lattice nodes without
    a point are zero-padded voids; K is embedded in a circulant of about
    2 nodes per axis and applied by FFT (the discrete-dipole technique of
    Goodman, Draine and Flatau, Opt. Lett. 16, 1991).
    """

    def __init__(self, sites, shape, spectra, coeffs):
        self._sites = sites          # flat index of each point in the padded grid
        self._grid = shape           # padded grid shape
        self._spectra = spectra      # (6, *shape) FFTs of the kernel components
        self._coeffs = coeffs
        n = 3 * coeffs.size
        self.shape = (n, n)

    @classmethod
    def from_points(cls, points, coeffs, k, reserve=0):
        """The operator for points on a lattice, or None when they are not on
        one or when its padded FFT grid would hold more entries than the
        dense matrix (nine grids against nine n-by-n blocks).

        Raises MemoryBudgetError, before allocating, when the six spectra and
        the work grids of apply (OPERATOR_GRIDS complex padded grids, more
        than the build itself needs) plus `reserve` bytes, the caller's GMRES
        basis, exceed the available memory.
        """
        import scipy.fft

        points = as_point(points)
        coeffs = np.asarray(coeffs, dtype=complex)
        n = points.shape[0]
        if n == 0:
            return None
        axes = [_lattice_axis(points[:, i]) for i in range(3)]
        if any(axis is None for axis in axes):
            return None
        index, counts, spacing = zip(*axes)
        shape = tuple(scipy.fft.next_fast_len(2 * c - 1) for c in counts)
        if math.prod(shape) > n * n:
            return None
        nbytes = OPERATOR_GRIDS * 16 * math.prod(shape)
        require_memory(nbytes + reserve,
                       f"the lattice FFT operator of {n} points on its {'x'.join(map(str, shape))} "
                       f"grid needs {nbytes} bytes and the GMRES basis {reserve} more")
        sites = np.ravel_multi_index(index, shape)
        if np.unique(sites).size < n:
            raise SingularityError("two points share a lattice site: pairwise kernels are singular")
        # signed node offsets in circulant order: 0, 1, ..., then negative ones,
        # one sparse axis each
        d = np.meshgrid(*[np.where(np.arange(L) < c, np.arange(L), np.arange(L) - L) * h
                          for L, c, h in zip(shape, counts, spacing)],
                        indexing="ij", sparse=True)
        spectra = np.empty((6,) + shape, dtype=complex)
        _curl_components(d, k, (0, 0, 0), spectra)
        spectra = scipy.fft.fftn(spectra, axes=(1, 2, 3), overwrite_x=True)  # in place
        return cls(sites, shape, spectra, coeffs)

    def _convolve(self, u):
        """K u for per-point vectors u of shape (n, 3), with the scatter grid
        transformed in place and one work grid for the products."""
        import scipy.fft

        grid = np.zeros((3, math.prod(self._grid)), dtype=complex)
        grid[:, self._sites] = u.T
        spec = scipy.fft.fftn(grid.reshape((3,) + self._grid), axes=(1, 2, 3), overwrite_x=True)
        out = np.empty_like(spec)
        term = np.empty_like(spec[0])
        for a in range(3):
            k0, k1, k2 = (self._spectra[c] for c in _SYM[a])
            np.multiply(k0, spec[0], out=out[a])
            out[a] += np.multiply(k1, spec[1], out=term)
            out[a] += np.multiply(k2, spec[2], out=term)
        out = scipy.fft.ifftn(out, axes=(1, 2, 3), overwrite_x=True)
        return out.reshape(3, -1)[:, self._sites].T

    def apply(self, v):
        """T v for a flat vector of 3n entries."""
        u = self._coeffs[:, np.newaxis] * np.reshape(v, (-1, 3))
        return self._convolve(u).reshape(-1)


def _check_distinct(points):
    # cheap duplicate guard: exact coincidences only
    n = points.shape[0]
    if n < 2:
        return
    order = np.lexsort(points.T)
    same = np.all(points[order[1:]] == points[order[:-1]], axis=-1)
    if np.any(same):
        i = int(np.argmax(same))
        raise SingularityError(
            f"duplicate points at indices {order[i]} and {order[i + 1]}: "
            "pairwise kernels are singular"
        )


def _excluded_pairs(excluded, n):
    """Flatten per-probe exclusion lists to (row start per probe, column per
    pair): the pairs of probe i are cols[starts[i]:starts[i + 1]]."""
    if len(excluded) != n:
        raise ValueError(f"excluded must hold one list per probe ({n}), got {len(excluded)}")
    lengths = np.fromiter(map(len, excluded), dtype=np.intp, count=n)
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lengths, out=starts[1:])
    cols = np.fromiter(itertools.chain.from_iterable(excluded), dtype=np.intp,
                       count=int(starts[-1]))
    return starts, cols


def dipole_sums(probes, sources, moments, k, excluded=None, curl=True):
    """Sums over sources of grad g(x, y_m) x Q_m (the dipole field) and of
    k^2 g Q_m + H(x, y_m) Q_m (its curl) at each probe x, as (field, curl).
    With curl=False only the field is summed, bitwise the same, and the
    second value is None.

    excluded[i] optionally lists the sources whose terms are dropped at
    probe i (the effective-field convention); a dropped pair may coincide
    (probe exactly at that source), a kept one may not.

    With separations d = x - y_m of length r, each pair costs three complex
    scalars: alpha = g'/r, gamma = alpha + k^2 g and beta = (g'' - g'/r)/r^2.
    The field is sum alpha d x Q and the curl sum beta (d.Q) d + gamma Q,
    so both reduce by matrix products over the sources. A dropped pair has
    g = 0, which zeroes all three. Probes go in chunks of chunk_rows(n, m)
    through work arrays allocated once per call;
    d is kept explicit because expanding (x - y).Q cancels badly near a
    source.
    """
    probes = np.atleast_2d(as_point(probes))
    sources = np.atleast_2d(as_point(sources))
    moments = np.atleast_2d(as_cvec(moments))
    n, m = probes.shape[0], sources.shape[0]
    starts, cols = _excluded_pairs(excluded if excluded is not None else [()] * n, n)
    field = np.zeros((n, 3), dtype=complex)
    curl = np.zeros((n, 3), dtype=complex) if curl else None
    xs, ys = np.ascontiguousarray(probes.T), np.ascontiguousarray(sources.T)
    ikk, kk = 1j * k, k * k
    chunk = chunk_rows(n, m)
    # work arrays for one call, each chunk using their first c rows: real d,
    # r, 1/r, 1/r^2 and five complex pair scalars (three without the curl,
    # which needs no gamma or beta), the first three of which (ik/r, g,
    # alpha) take the products alpha d_a once they are used up
    d_buf = np.empty((3, chunk, m))
    r_buf, inv_buf, inv2_buf = np.empty((3, chunk, m))
    work = np.empty((5 if curl is not None else 3, chunk, m), dtype=complex)
    for p0 in range(0, n, chunk):
        p1 = min(p0 + chunk, n)
        c = p1 - p0
        s0, s1 = starts[p0], starts[p1]
        drop = (np.repeat(np.arange(c), np.diff(starts[p0:p1 + 1])), cols[s0:s1])
        d = np.subtract(xs[:, p0:p1, np.newaxis], ys[:, np.newaxis, :], out=d_buf[:, :c])
        r, inv, inv2 = r_buf[:c], inv_buf[:c], inv2_buf[:c]
        ikinv, g, alpha = work[:3, :c]
        np.multiply(d[0], d[0], out=r)
        r += np.multiply(d[1], d[1], out=inv)
        r += np.multiply(d[2], d[2], out=inv)
        np.sqrt(r, out=r)
        r[drop] = 1.0  # placeholder: g = 0 below zeroes the pair
        if not np.all(r):
            raise SingularityError("kernel evaluated at a kept coincident pair x == y")
        np.divide(1.0, r, out=inv)
        np.multiply(ikk, inv, out=ikinv)
        np.multiply(inv, inv, out=inv2)
        np.exp(np.multiply(ikk, r, out=g), out=g)
        g *= inv
        g *= 0.25 / math.pi
        g[drop] = 0.0
        # g * X rounds differently from X * g, so each complex product below
        # keeps one operand order at every chunk size
        np.multiply(g, np.subtract(ikinv, inv2, out=alpha), out=alpha)
        if curl is not None:
            gamma, beta = work[3:, :c]
            np.add(alpha, np.multiply(kk, g, out=gamma), out=gamma)
            np.subtract(np.multiply(3.0, inv2, out=r), np.multiply(3.0, ikinv, out=beta),
                        out=beta)
            beta -= kk
            np.multiply(g, beta, out=beta)
            beta *= inv2
        # rows alpha d_a (alpha's own slot last), then gamma: P[a, i] = sum_m
        # alpha d_a Q for a < 3, whose antisymmetric part is the field, and
        # P[3, i] = gamma @ Q. BLAS rounds a one-row product differently, so a
        # one-probe chunk takes its rows as one matrix.
        for a in range(3):
            np.multiply(alpha, d[a], out=work[a, :c])
        rows = work[:4 if curl is not None else 3, :c]
        P = np.matmul(rows if c > 1 else rows[:, 0], moments).reshape(-1, c, 3)
        field[p0:p1, 0] = P[1, :, 2] - P[2, :, 1]
        field[p0:p1, 1] = P[2, :, 0] - P[0, :, 2]
        field[p0:p1, 2] = P[0, :, 1] - P[1, :, 0]
        if curl is None:
            continue
        # curl: sum_m beta (d.Q) d_a + gamma Q_a
        bdq, term = work[:2, :c]
        np.multiply(d[0], moments[:, 0], out=bdq)
        bdq += np.multiply(d[1], moments[:, 1], out=term)
        bdq += np.multiply(d[2], moments[:, 2], out=term)
        np.multiply(beta, bdq, out=bdq)
        for a in range(3):
            curl[p0:p1, a] = np.multiply(bdq, d[a], out=term).sum(axis=-1) + P[3, :, a]
    return field, curl


def _mask_to_excluded(keep):
    return None if keep is None else [np.flatnonzero(~row) for row in np.asarray(keep, dtype=bool)]


def dipole_field_sum(probes, sources, moments, k, keep=None):
    """Sum over sources of grad g(x, y_m) x Q_m at each probe x; keep is an
    optional (n_probes, n_sources) mask of the pairs summed (see dipole_sums)."""
    return dipole_sums(probes, sources, moments, k, _mask_to_excluded(keep), curl=False)[0]


def dipole_curl_sum(probes, sources, moments, k, keep=None):
    """Sum over sources of k^2 g Q_m + H(x, y_m) Q_m at each probe x; keep is
    an optional (n_probes, n_sources) mask of the pairs summed (see dipole_sums)."""
    return dipole_sums(probes, sources, moments, k, _mask_to_excluded(keep))[1]
