"""Independent oracles that the tests check the package against."""

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse

from otflow.bundles import Cluster, ClusterSet
from otflow.forward import ImplicitDiffusion, Sweep, VelocitySeries
from otflow.grid import CellGrid, _corner_cells, _fold_corners, _stencil
from otflow.operators import _deposit_stencil, advection_weight_gradients
from otflow.solver import GN_CG_MAX_ITERS, GN_CG_TOLERANCE, _dot


def assemble_diffusion_operator(grid: CellGrid, sigma: float) -> sparse.csr_matrix:
    """Assemble div(sigma^2 grad) on the cell-centered grid with zero-flux walls.

    The result is symmetric, negative semidefinite, and has exactly zero row
    sums, so the implicit step (I - dt*A) conserves total mass.
    """
    if sigma < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {sigma}")
    s = grid.cell_count
    if sigma == 0.0:
        return sparse.csr_matrix((s, s))
    acc = None
    for k in range(grid.ndim):
        n = grid.dims[k]
        if n == 1:
            continue  # no neighbors along this axis, no flux
        h = grid.spacing[k]
        main = np.full(n, -2.0)
        main[0] = -1.0
        main[-1] = -1.0
        off = np.ones(n - 1)
        lap = sparse.diags([off, main, off], [-1, 0, 1]) * (sigma**2 / h**2)
        before = int(np.prod(grid.dims[:k], dtype=np.int64))
        after = int(np.prod(grid.dims[k + 1 :], dtype=np.int64))
        term = sparse.kron(sparse.identity(after), sparse.kron(lap, sparse.identity(before)))
        acc = term if acc is None else acc + term
    if acc is None:
        return sparse.csr_matrix((s, s))
    out = acc.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def tensordot_diffusion(diffusion: ImplicitDiffusion, rhs: np.ndarray) -> np.ndarray:
    """The exact diffusion solve written with np.tensordot and np.moveaxis:
    the same per-axis DCT-II products as `ImplicitDiffusion.apply`, through
    numpy's generic contraction."""
    x = np.asarray(rhs, dtype=float).reshape(diffusion.grid.dims, order="F")
    for k, C in enumerate(diffusion.bases):
        x = np.moveaxis(np.tensordot(C, x, axes=(1, k)), 0, k)
    x = x / diffusion.eigenvalues
    for k, C in enumerate(diffusion.bases):
        x = np.moveaxis(np.tensordot(C.T, x, axes=(1, k)), 0, k)
    return x.ravel(order="F")


def _interval_faces(sweep: Sweep, dtype) -> list[list[sparse.csc_matrix]]:
    """The T_k of each interval on its own, as one-interval sweeps build them
    from the interval's stencil, cast to the dtype the sweep runs in."""
    grid, dt = sweep.diffusion.grid, sweep.diffusion.dt
    return [
        [T.astype(dtype)
         for T in advection_weight_gradients(grid, [_deposit_stencil(grid, v_n, dt)], dt)]
        for v_n in sweep.velocities
    ]


def _axis_slices(grid: CellGrid, k: int) -> tuple[tuple, tuple, tuple]:
    """The cells above the first, below the last and the last along axis k
    of one interval's cells, viewed as (n_{d-1}, .., n_0)."""
    lead = (slice(None),) * (grid.ndim - 1 - k)
    return lead + (slice(1, None),), lead + (slice(None, -1),), lead + (slice(-1, None),)


def interval_linearized_sweep(sweep: Sweep, frames: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """`linearized_sweep` interval by interval: each interval's velocity
    derivative is d sparse products of its own T_k, each followed by the
    difference Delta_k along axis k, made inside the recurrence."""
    grid = sweep.diffusion.grid
    drho = np.zeros_like(frames)
    for n, faces in enumerate(_interval_faces(sweep, frames.dtype)):
        inj = np.zeros_like(frames[n])
        cells = inj.reshape(grid.dims[::-1])
        for k, (T, dv_k) in enumerate(zip(faces, dv[n])):
            upper, lower, _ = _axis_slices(grid, k)
            f = (T @ (frames[n] * dv_k)).reshape(grid.dims[::-1])
            cells -= f
            cells[upper] += f[lower]
        drho[n + 1] = sweep.push(n, drho[n], inj)
    return drho


def interval_adjoint_sweep(
    sweep: Sweep, frames: np.ndarray, sources: Sequence[dict], out: np.ndarray
) -> np.ndarray:
    """`adjoint_sweep` interval by interval: each interval's sensitivities are
    added from Delta_k^T and its own T_k^T as soon as its adjoint is solved."""
    grid = sweep.diffusion.grid
    faces = _interval_faces(sweep, frames.dtype)
    lam = None
    for n in range(len(faces) - 1, -1, -1):
        for source in sources:
            if n + 1 in source:
                lam = source[n + 1] if lam is None else lam + source[n + 1]
        mu = sweep.diffusion.apply(np.zeros_like(frames[n]) if lam is None else lam)
        cells = mu.reshape(grid.dims[::-1])
        for k, T in enumerate(faces[n]):
            upper, lower, top = _axis_slices(grid, k)
            diff = np.empty_like(cells)
            diff[lower] = cells[upper] - cells[lower]
            diff[top] = -cells[top]
            out[n, k] += frames[n] * (T.T @ diff.ravel())
        if n > 0:
            lam = sweep.S[n].T @ mu
    return out


def unpreconditioned_gn_step(
    hess_apply: Callable[[np.ndarray], np.ndarray], grad: np.ndarray
) -> np.ndarray:
    """Truncated CG on H p = -g with no preconditioner, at the solver's
    relative-residual target and iteration cap, with the solver's `_dot`
    reductions and in-place updates."""
    r = -grad
    bnorm = np.sqrt(_dot(r, r))
    x = np.zeros_like(r)
    p = r.copy()
    scratch = np.empty_like(r)
    rs = _dot(r, r)
    for _ in range(GN_CG_MAX_ITERS):
        hp = hess_apply(p)
        curv = _dot(p, hp)
        if curv <= 1e-16 * _dot(p, p):
            break
        a = rs / curv
        x += np.multiply(p, a, out=scratch)
        r -= np.multiply(hp, a, out=scratch)
        rs_new = _dot(r, r)
        if np.sqrt(rs_new) <= GN_CG_TOLERANCE * bnorm:
            break
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x


def finite_difference_gradient(
    f: Callable[[VelocitySeries], float],
    v: VelocitySeries,
    dv: VelocitySeries,
    eps: float,
) -> float:
    """Central-difference directional derivative of a velocity functional."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    plus = f(VelocitySeries(v.grid, v.values + eps * dv.values))
    minus = f(VelocitySeries(v.grid, v.values - eps * dv.values))
    return (plus - minus) / (2.0 * eps)


def per_track_resample(points: np.ndarray, K: int) -> np.ndarray:
    """One polyline resampled to K points at equal arc-length spacing, on its
    own: zero-length segments dropped, `np.searchsorted` for the segment of
    each target, endpoints kept exactly."""
    pts = np.atleast_2d(points)
    if pts.shape[0] == 1:
        return np.repeat(pts, K, axis=0)
    seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    keep = seglen > 0
    if not keep.any():
        return np.repeat(pts[:1], K, axis=0)
    pts = np.concatenate([pts[:1], pts[1:][keep]], axis=0)
    seglen = seglen[keep]
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    targets = np.linspace(0.0, cum[-1], K)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seglen) - 1)
    t = (targets - cum[idx]) / seglen[idx]
    out = pts[idx] + t[:, None] * (pts[idx + 1] - pts[idx])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def mean_pointwise(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean pointwise distance of two resampled tracks, direct and with b flipped."""
    direct = float(np.linalg.norm(a - b, axis=1).mean())
    flipped = float(np.linalg.norm(a - b[::-1], axis=1).mean())
    return direct, flipped


def per_centroid_quickbundles(tracks: np.ndarray, threshold: float) -> ClusterSet:
    """QuickBundles with a loop over the centroids for each track: the first
    strictly nearest centroid wins, and a member joins flipped when the
    flipped distance is strictly the smaller."""
    sums, counts, members = [], [], []
    for i, track in enumerate(tracks):
        best_dist, best_ci, best_flip = np.inf, -1, False
        for ci in range(len(sums)):
            direct, flipped = mean_pointwise(sums[ci] / counts[ci], track)
            dist = min(direct, flipped)
            if dist < best_dist:
                best_dist, best_ci, best_flip = dist, ci, flipped < direct
        if best_ci >= 0 and best_dist <= threshold:
            sums[best_ci] = sums[best_ci] + (track[::-1] if best_flip else track)
            counts[best_ci] += 1
            members[best_ci].append(i)
        else:
            sums.append(track.copy())
            counts.append(1)
            members.append([i])
    return ClusterSet(
        [Cluster(s / c, m) for s, c, m in zip(sums, counts, members)], float(threshold)
    )


def per_streamline_pathway_density(streamlines, grid: CellGrid) -> np.ndarray:
    """Pathway counts with one `np.unique` of cells per streamline."""
    counts = np.zeros(grid.cell_count, dtype=np.int64)
    for sl in streamlines:
        counts[np.unique(grid.cells_of_points(sl.points))] += 1
    return counts


def per_corner_interpolate(
    grid: CellGrid, components: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Multilinear interpolation with one gather per stencil corner, added
    with the last axis fastest."""
    base, frac = _stencil(grid, positions.T / np.asarray(grid.spacing)[:, None] - 0.5)
    weights = _fold_corners(zip(1.0 - frac, frac), np.multiply, np.ones(positions.shape[0]))
    cells = _corner_cells(grid, base)
    out = np.zeros((positions.shape[0], components.shape[0]))
    for c in np.arange(len(cells)).reshape((2,) * grid.ndim).ravel(order="F"):
        out += weights[c][:, None] * components[:, cells[c]].T
    return out
