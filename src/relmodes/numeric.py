"""Numeric periodic-reduction pipeline for arbitrary (near-)periodic
plants: state-transition-matrix integration, monodromy matrix, real
matrix logarithm, periodic transform samples, Fourier fit of a
near-periodic plant, and the first-order transform correction ODE.

The matrix logarithm has a dedicated unipotent branch (truncated power
series of log(I + N) for numerically nilpotent N) because monodromy
matrices of the two-body problem are identity plus a defective nilpotent
part, which generic eigendecomposition-based logs cannot handle.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, logm, matrix_balance
from scipy.optimize import minimize_scalar

from .errors import IntegrationError, MatrixLogError, PeriodicityError

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-13

_NILPOTENT_TOL = 1e-6
_EXP_CHECK_TOL = 1e-8
_CLUSTER_TOL = 1e-6  # eigenvalue merge distance over the balanced norm
_PERIOD_SCAN = 64    # coarse grid points of find_period


@dataclass(frozen=True)
class Eigenstructure:
    """Eigenvalues, chain bookkeeping and (generalized) eigenvectors.

    `chains` holds 0-based column-index tuples into V, true eigenvector
    first; `eigenvalues` has one entry per column of V.
    """

    eigenvalues: np.ndarray
    V: np.ndarray
    chains: tuple


@dataclass(frozen=True)
class NumericFloquetResult:
    monodromy: np.ndarray
    Lambda: np.ndarray
    t_samples: np.ndarray
    lf_samples: np.ndarray       # (n, 6, 6) periodic transform samples
    eigenstructure: Eigenstructure
    periodic_fit_residual: float
    periodicity_defect: float    # ||P(t0+T) - I||_max
    stm_at: object               # dense Phi(t, t0) over the sampled period

    def lf_at(self, t):
        """Periodic transform P(t) = Phi(t, t0) exp(-Lambda (t - t0)) for t
        (scalar or array), from the dense output of the STM integration;
        shape t.shape + (6, 6). P has the sampled span as its period, so a
        t outside that span is folded back into it."""
        t0, t1 = self.t_samples[0], self.t_samples[-1]
        t = np.asarray(t, dtype=float)
        t = np.where((t < t0) | (t > t1), t0 + np.mod(t - t0, t1 - t0), t)
        return self.stm_at(t) @ expm(-self.Lambda * (t - t0)[..., None, None])

    def chain_propagator(self, dt):
        """exp(J dt) in the detected chain basis (block upper triangular)."""
        eig = self.eigenstructure
        m = eig.V.shape[1]
        e_mat = np.zeros((m, m), dtype=complex)
        for chain in eig.chains:
            ev = eig.eigenvalues[chain[0]]
            growth = np.exp(ev * dt)
            for i, ci in enumerate(chain):
                fact = 1.0
                for j in range(i, len(chain)):
                    if j > i:
                        fact *= dt / (j - i)
                    e_mat[ci, chain[j]] = growth * fact
        return e_mat

    def reconstruct(self, state0, t):
        """Modal solution through state0 at t0, evaluated at time t.

        Basis-free: sums all detected fundamental solutions with weights
        V^-1 state0, so it is directly comparable with any other solution
        of the same linear system.
        """
        eig = self.eigenstructure
        t0 = self.t_samples[0]
        c = np.linalg.solve(eig.V, np.asarray(state0, dtype=complex))
        chi = eig.V @ (self.chain_propagator(t - t0) @ c)
        return np.real(self.lf_at(t) @ chi)


def integrate_stm(plant_fn, t0, period, tol=DEFAULT_RTOL, n_samples=None):
    """Integrate the variational equation Phi' = A(t) Phi over one period.

    Returns (monodromy, t_samples, stm_samples, stm_at); with
    n_samples=None only the endpoint matrices are sampled. stm_at(t)
    evaluates the DOP853 dense output at t in [t0, t0 + period] (scalar
    or array), shape t.shape + (dim, dim).
    """
    if n_samples is None:
        t_grid = np.array([t0, t0 + period])
    else:
        t_grid = np.linspace(t0, t0 + period, n_samples)
    dim = np.shape(plant_fn(t0))[0]
    y0 = np.eye(dim).reshape(-1)

    def rhs(t, y):
        return (plant_fn(t) @ y.reshape(dim, dim)).reshape(-1)

    sol = solve_ivp(rhs, (t0, t0 + period), y0, method="DOP853",
                    t_eval=t_grid, rtol=tol, atol=DEFAULT_ATOL,
                    dense_output=True)
    if not sol.success:
        raise IntegrationError(f"STM integration failed: {sol.message}")
    samples = sol.y.T.reshape(-1, dim, dim)
    dense = sol.sol

    def stm_at(t):
        t = np.asarray(t, dtype=float)
        return np.moveaxis(dense(t), 0, -1).reshape(t.shape + (dim, dim))

    return samples[-1], t_grid, samples, stm_at


def _nilpotent_index(n_mat):
    """Smallest k with ||N^k|| <= _NILPOTENT_TOL ||N||^k, or None."""
    norm1 = np.linalg.norm(n_mat)
    if norm1 == 0.0:
        return 1
    power = n_mat
    for k in range(2, n_mat.shape[0] + 2):
        power = power @ n_mat
        if np.linalg.norm(power) <= _NILPOTENT_TOL * norm1**k:
            return k
    return None


def real_matrix_log(m, period=1.0):
    """Real logarithm of a monodromy matrix, scaled by 1/period.

    Unipotent matrices (all eigenvalues 1, M - I numerically nilpotent)
    take the truncated series log(I+N) = N - N^2/2 + ..., which is exact
    at the nilpotency index; everything else goes through the inverse
    scaling-and-squaring Pade logarithm. Eigenvalues on the closed
    negative real axis have no real logarithm and raise with a
    period-doubling hint.
    """
    m = np.asarray(m, dtype=float)
    eigs = np.linalg.eigvals(m)
    if np.any(np.abs(eigs) < 1e-300):
        raise MatrixLogError("monodromy is singular; no logarithm exists")

    n_mat = m - np.eye(m.shape[0])
    unipotent = np.all(np.abs(eigs - 1.0) <= 0.5)
    k = _nilpotent_index(n_mat) if unipotent else None
    if k is not None:
        log_m = np.zeros_like(m)
        power = np.eye(m.shape[0])
        for j in range(1, k):
            power = power @ n_mat
            log_m += (-1.0) ** (j + 1) / j * power
    else:
        on_negative_axis = (np.real(eigs) < 0.0) & (
            np.abs(np.imag(eigs)) <= 1e-12 * np.abs(eigs))
        if np.any(on_negative_axis):
            raise MatrixLogError(
                "monodromy has an eigenvalue on the negative real axis: no "
                "real logarithm; try doubling the period"
            )
        with warnings.catch_warnings():
            # scipy warns on its internal error estimate; the expm round
            # trip below is the authoritative check
            warnings.simplefilter("ignore", RuntimeWarning)
            log_c = logm(m.astype(complex))
        if np.max(np.abs(np.imag(log_c))) > 1e-8 * max(1.0, np.max(np.abs(log_c))):
            raise MatrixLogError("matrix logarithm is not real")
        log_m = np.real(log_c)

    check = expm(log_m)
    err = np.linalg.norm(check - m) / max(1.0, np.linalg.norm(m))
    if err > _EXP_CHECK_TOL:
        raise MatrixLogError(
            f"log/exp round trip failed: relative error {err:.3e}"
        )
    return log_m / period


def lf_from_monodromy(t_samples, stm_samples, lam, t0=None):
    """Periodic transform samples P(t) = Phi(t, t0) exp(-Lambda (t - t0)).

    Returns (lf_samples, periodicity_defect) where the defect is the
    max-abs deviation of the final sample from identity.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    if t0 is None:
        t0 = t_samples[0]
    out = np.asarray(stm_samples, dtype=float) @ expm(
        -lam * (t_samples - t0)[:, None, None])
    defect = float(np.max(np.abs(out[-1] - np.eye(out.shape[1]))))
    return out, defect


def fourier_periodic_fit(values, t0, period, n_harmonics):
    """Least-squares trigonometric fit of matrix samples on a uniform,
    endpoint-exclusive grid t0 + j*period/N.

    Returns (callable, residual): the callable evaluates the exactly
    periodic truncated series at any t, the residual is the max-abs
    misfit over the input samples. The discrete Fourier projection on a
    uniform grid coincides with least squares whenever N > 2*n_harmonics.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n <= 2 * n_harmonics:
        raise ValueError(
            f"{n} samples cannot determine {n_harmonics} harmonics "
            "(need n_samples > 2*n_harmonics)"
        )
    spectrum = np.fft.rfft(values, axis=0)
    coeffs = spectrum / n
    h = min(n_harmonics, coeffs.shape[0] - 1)
    a0 = np.real(coeffs[0])
    a_cos = 2.0 * np.real(coeffs[1:h + 1])
    a_sin = -2.0 * np.imag(coeffs[1:h + 1])
    k_vec = np.arange(1, h + 1)

    def fit(t):
        phase = 2.0 * math.pi * (t - t0) / period
        return (a0
                + np.tensordot(np.cos(k_vec * phase), a_cos, axes=(0, 0))
                + np.tensordot(np.sin(k_vec * phase), a_sin, axes=(0, 0)))

    # on the uniform grid the fit is the inverse transform of the kept
    # harmonics (h < n/2, so the Nyquist term is never among them)
    residual = float(np.max(np.abs(
        values - np.fft.irfft(spectrum[:h + 1], n=n, axis=0))))
    return fit, residual


def find_period(plant_fn, t0, bracket):
    """Period estimate minimizing ||A(t0) - A(t0+T)|| over a bracketed T.

    Coarse 64-point scan of the bracket followed by golden-section
    refinement.
    """
    a0 = plant_fn(t0)

    def objective(T):
        return float(np.linalg.norm(plant_fn(t0 + T) - a0))

    lo, hi = bracket
    ts = np.linspace(lo, hi, _PERIOD_SCAN)
    vals = [objective(t) for t in ts]
    j = int(np.argmin(vals))
    jl, jr = max(j - 1, 0), min(j + 1, _PERIOD_SCAN - 1)
    if jl == j or jr == j or not (vals[j] < vals[jl] and vals[j] < vals[jr]):
        return float(ts[j])
    res = minimize_scalar(objective, bracket=(ts[jl], ts[j], ts[jr]),
                          method="golden", options={"xtol": 1e-12})
    return float(res.x)


# ---------------------------------------------------------------------------
# eigenstructure with defective-chain detection
# ---------------------------------------------------------------------------

def _null_space(mat, tol, max_dim=None):
    """Orthonormal null-space basis by SVD; at most max_dim directions
    (the smallest-singular-value ones). Powers of a shifted matrix shrink
    other clusters' singular values toward the tolerance, so the cap (the
    algebraic multiplicity) keeps foreign directions out."""
    u, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > tol))
    if max_dim is not None:
        rank = max(rank, mat.shape[0] - max_dim)
    return vh[rank:].conj().T


def detect_eigenstructure(lam):
    """Eigenvalues of a real matrix with repeated/defective eigenvalues
    clustered and resolved into Jordan chains.

    The matrix is diagonally balanced first (mixed physical units
    otherwise swamp the rank decisions), eigenvalues closer than
    1e-6 * ||balanced|| are merged to their mean, and chains come from
    the null spaces of increasing powers of (Lambda - lambda I), ranks by
    SVD. Eigenvectors are mapped back to the original scaling.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    bal, t_bal = matrix_balance(lam)  # lam = t_bal @ bal @ inv(t_bal)
    scale = max(np.linalg.norm(bal), 1e-300)
    cluster_tol = _CLUSTER_TOL * scale
    raw = np.linalg.eigvals(bal)
    raw = raw[np.lexsort((np.imag(raw), np.real(raw)))]
    clusters = []
    for ev in raw:
        for cl in clusters:
            if abs(ev - np.mean(cl)) <= max(cluster_tol, 1e-12):
                cl.append(ev)
                break
        else:
            clusters.append([ev])

    rank_tol = max(cluster_tol, 1e-12 * scale)
    columns = []
    eigenvalues = []
    chains = []
    for cl in clusters:
        ev = complex(np.mean(cl))
        if abs(np.imag(ev)) <= cluster_tol:
            ev = complex(np.real(ev), 0.0)
        mult = len(cl)
        shifted = bal.astype(complex) - ev * np.eye(n)
        power = np.eye(n, dtype=complex)
        grades = []  # null-space bases of increasing powers
        for _ in range(mult):
            power = power @ shifted
            null_k = _null_space(power, rank_tol, max_dim=mult)
            grades.append(null_k)
            if null_k.shape[1] >= mult:
                break
        depth = len(grades)
        used = np.zeros((n, 0), dtype=complex)
        cluster_chains = []
        for k in range(depth, 0, -1):
            nk = grades[k - 1]
            lower = grades[k - 2] if k >= 2 else np.zeros((n, 0), dtype=complex)
            exclude = np.hstack([lower, used]) if (lower.size or used.size) else None
            tops = _complement_basis(nk, exclude)
            for t_vec in tops.T:
                chain = [t_vec]
                for _ in range(k - 1):
                    chain.append(shifted @ chain[-1])
                chain = chain[::-1]  # true eigenvector first
                idx0 = len(columns)
                # one common scale: per-member normalization would break
                # the chain relation (Lambda - ev I) w = v
                scale_c = np.linalg.norm(t_bal @ chain[0])
                for v in chain:
                    columns.append(t_bal @ v / scale_c)  # undo balancing
                    eigenvalues.append(ev)
                cluster_chains.append(tuple(range(idx0, idx0 + len(chain))))
                used = np.hstack([used, np.column_stack(chain)])
        chains.extend(cluster_chains)

    if len(columns) != n:
        raise MatrixLogError(
            f"eigenstructure detection produced {len(columns)} chain "
            f"vectors for a {n}x{n} matrix; eigenvalue clusters are "
            "ambiguous at the current tolerance"
        )
    v = np.column_stack(columns)
    return Eigenstructure(eigenvalues=np.array(eigenvalues), V=v,
                          chains=tuple(chains))


def _complement_basis(space, exclude):
    """Orthonormal basis of the part of `space` orthogonal to the span of
    `exclude` (projected out inside `space`)."""
    if exclude is None or exclude.size == 0:
        return space
    q, _ = np.linalg.qr(exclude)
    proj = space - q @ (q.conj().T @ space)
    u, s, _ = np.linalg.svd(proj, full_matrices=False)
    keep = s > 1e-8 * max(1.0, s[0] if s.size else 1.0)
    return u[:, keep]


def numeric_modal_decomp(plant_fn, t0, period, n_harmonics=32,
                         n_samples=1024, tol=DEFAULT_RTOL,
                         max_fit_residual=0.1):
    """Full pipeline: periodicity assessment (Fourier fit of the sampled
    plant), STM over one period, real logarithm of the monodromy,
    periodic transform samples, and the eigenstructure of the reduced
    constant plant.

    Exactly periodic plants are integrated directly and the fit residual
    is purely diagnostic; near-periodic plants are replaced by their
    periodic trigonometric fit, whose leftover is the discarded
    aperiodic content (must stay under max_fit_residual of the plant
    scale). plant_fn is called on one scalar t at a time.
    """
    grid = t0 + period * np.arange(n_samples) / n_samples
    values = np.array([plant_fn(t) for t in grid], dtype=float)
    fit, residual = fourier_periodic_fit(values, t0, period, n_harmonics)
    scale = max(float(np.max(np.abs(values))), 1e-300)
    # periodicity test: does the plant return to its initial value after
    # one period?
    wrap = float(np.max(np.abs(plant_fn(t0 + period) - values[0])))
    use_fit = wrap > 1e-9 * scale
    if use_fit and residual > max_fit_residual * scale:
        raise PeriodicityError(
            f"plant is too aperiodic for a periodic reduction: residual "
            f"{residual:.3e} exceeds {max_fit_residual:.1e} of scale {scale:.3e}"
        )
    integrand = fit if use_fit else plant_fn
    monodromy, ts, stm, stm_at = integrate_stm(integrand, t0, period, tol=tol,
                                               n_samples=n_samples + 1)
    lam = real_matrix_log(monodromy, period)
    lf_samples, defect = lf_from_monodromy(ts, stm, lam, t0)
    eig = detect_eigenstructure(lam)
    return NumericFloquetResult(
        monodromy=monodromy, Lambda=lam, t_samples=ts,
        lf_samples=lf_samples, eigenstructure=eig,
        periodic_fit_residual=residual, periodicity_defect=defect,
        stm_at=stm_at,
    )


def delta_p_correction(a0_fn, p0_fn, lambda0, delta_a_fn, t0, period,
                       delta_lambda=None, n_samples=257):
    """First-order correction of the periodic transform under a plant
    deviation: integrates

        dP' = -dP Lambda0 + A0 dP - P0 dLambda + dA P0

    from dP(t0) = 0. Returns (t_samples, dP_samples, periodicity_defect);
    with dLambda unspecified the secular content of dA shows up in the
    defect instead of being absorbed.
    """
    lambda0 = np.asarray(lambda0, dtype=float)
    dim = lambda0.shape[0]
    dl = np.zeros((dim, dim)) if delta_lambda is None else np.asarray(delta_lambda)
    t_grid = np.linspace(t0, t0 + period, n_samples)

    def rhs(t, y):
        dp = y.reshape(dim, dim)
        p0 = p0_fn(t)
        ddp = -dp @ lambda0 + a0_fn(t) @ dp - p0 @ dl + delta_a_fn(t) @ p0
        return ddp.reshape(-1)

    sol = solve_ivp(rhs, (t0, t0 + period), np.zeros(dim * dim),
                    method="DOP853", t_eval=t_grid, rtol=DEFAULT_RTOL,
                    atol=DEFAULT_ATOL)
    if not sol.success:
        raise IntegrationError(f"correction ODE failed: {sol.message}")
    samples = sol.y.T.reshape(-1, dim, dim)
    defect = float(np.max(np.abs(samples[-1] - samples[0])))
    return t_grid, samples, defect


def liouville_determinant_check(plant_fn, t0, period, monodromy):
    """Relative mismatch of det(monodromy) against exp of the integrated
    plant trace (quadrature oracle)."""
    from scipy.integrate import quad
    tr, _ = quad(lambda t: float(np.trace(plant_fn(t))),
                 t0, t0 + period, limit=200)
    expected = math.exp(tr)
    return abs(np.linalg.det(monodromy) - expected) / abs(expected)
