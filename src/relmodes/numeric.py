"""Numeric periodic-reduction pipeline for arbitrary (near-)periodic
plants: state-transition-matrix integration, monodromy matrix, real
matrix logarithm, periodic transform samples, Fourier fit of a
near-periodic plant, and the Liouville check of det M.

The state transition matrix is integrated by the sixth-order Magnus
method on an adaptive grid, in numpy: the plant is evaluated in batches
on the Gauss-Legendre nodes of a block of steps, each step's exponential
is a scaled Taylor polynomial, and the running product is a doubling
scan. The dense output is one partial Magnus step from a grid edge.

The matrix logarithm has a dedicated unipotent branch (truncated power
series of log(I + N) for numerically nilpotent N) because monodromy
matrices of the two-body problem are identity plus a defective nilpotent
part, which generic eigendecomposition-based logs cannot handle. On that
branch the reduced plant is nilpotent, so its exponential is a finite
series too, and its eigenvalues are exactly zero.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegrationError, MatrixLogError, PeriodicityError

DEFAULT_TOL = 1e-12

# the Magnus integrator of integrate_stm
_GAUSS_NODES = 0.5 + (math.sqrt(15.0) / 10.0) * np.array([-1.0, 0.0, 1.0])
# one step's nodes, then those of its two halves
_DOUBLING = np.concatenate([_GAUSS_NODES, _GAUSS_NODES / 2.0,
                            0.5 + _GAUSS_NODES / 2.0])
_PILOT_STEPS = 128
_PILOT_TRUST = 1e-3      # larger doubling errors are bisected, not scaled
_MAX_BISECTIONS = 40
_ERR_FLOOR = 1e-3        # of a column's largest entry, see _doubling_error
_BLOCK = 256             # steps per plant call, exponential and product
_MAX_STEPS = 100_000     # about tol = 1e-23 on the generic chief
_EPS = np.finfo(float).eps
_TAYLOR_COEFFS = 1.0 / np.array([math.factorial(j) for j in range(13)])
# the largest 1-norm whose dropped Taylor tail, theta^13 / 13!, is under
# the unit roundoff
_TAYLOR_THETA = (math.factorial(13) * _EPS / 2.0) ** (1.0 / 13.0)

_NILPOTENT_TOL = 1e-6
_EXP_CHECK_TOL = 1e-8
_CLUSTER_TOL = 1e-6  # eigenvalue merge distance over the balanced norm


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
    eigenstructure: Eigenstructure
    periodic_fit_residual: float
    periodicity_defect: float    # see lf_from_monodromy
    liouville_mismatch: float    # see numeric_modal_decomp
    stm_at: object               # dense Phi(t, t0) over the sampled period
    nilpotent_index: object      # k of the unipotent log branch, else None

    @cached_property
    def lf_samples(self):
        """(n, 6, 6) periodic transform samples on t_samples, evaluated on
        first use."""
        return self.lf_at(self.t_samples)

    def lf_at(self, t):
        """Periodic transform P(t) = Phi(t, t0) exp(-Lambda (t - t0)) for t
        (scalar or array), from the dense output of the STM integration;
        shape t.shape + (6, 6). P has the sampled span as its period, so a
        t outside that span is folded back into it."""
        t0, t1 = self.t_samples[0], self.t_samples[-1]
        t = np.asarray(t, dtype=float)
        t = np.where((t < t0) | (t > t1), t0 + np.mod(t - t0, t1 - t0), t)
        return self.stm_at(t) @ _exp_plant(self.Lambda, t0 - t,
                                           self.nilpotent_index)

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


def integrate_stm(plant_fn, t0, period, tol=DEFAULT_TOL):
    """Integrate the variational equation Phi' = A(t) Phi over one period
    with the sixth-order Magnus method on three Gauss-Legendre nodes per
    step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).

    The grid is adaptive (see _magnus_grid): the estimated local errors
    of its steps sum to tol. plant_fn is called on arrays of nodes, once
    per block of _BLOCK steps, and returns a t.shape + (dim, dim) stack
    or one (dim, dim) matrix for a constant plant. A plant that is not
    finite on the nodes raises IntegrationError.

    Returns (monodromy, stm_at). stm_at(t) is the state transition matrix
    at t in [t0, t0 + period] (scalar or array), shape t.shape +
    (dim, dim): one partial Magnus step from the grid edge below t. It is
    I at t0 and the monodromy at t0 + period, bit for bit.
    """
    if not (math.isfinite(period) and period > 0.0 and tol > 0.0):
        raise ValueError(f"period (finite) and tol must be positive, not "
                         f"{period!r} and {tol!r}")
    edges, frame = _magnus_grid(plant_fn, float(t0), period, tol)
    n_steps, dim = edges.size - 1, frame.shape[0]

    # the running product, in the balanced frame and block by block
    phis = np.empty((n_steps + 1, dim, dim))
    phis[0] = np.eye(dim)
    for lo in range(0, n_steps, _BLOCK):
        block = edges[lo:lo + _BLOCK + 1]
        steps = _step_exponentials(plant_fn, block[:-1], np.diff(block),
                                   frame)
        phis[lo + 1:lo + block.size] = _cumulative_product(steps) @ phis[lo]
    if not np.all(np.isfinite(phis[-1])):
        raise IntegrationError("STM integration failed: the state "
                               "transition matrix overflowed")

    def stm_at(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        k = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0,
                    n_steps)
        dt = flat - edges[k]
        out = phis[k]
        inside = np.flatnonzero(dt != 0.0)  # off the grid edges
        for lo in range(0, inside.size, _BLOCK):
            idx = inside[lo:lo + _BLOCK]
            out[idx] = _step_exponentials(plant_fn, edges[k[idx]], dt[idx],
                                          frame) @ phis[k[idx]]
        return (out / frame).reshape(t.shape + (dim, dim))

    return phis[-1] / frame, stm_at


def _magnus_grid(plant_fn, t0, period, tol):
    """Step edges over [t0, t0 + period] whose estimated local errors sum
    to tol, and the frame: the entrywise factors d_j / d_i of D^-1 A D,
    with D the powers of 2 that balance the mean plant.

    A pilot pass of _PILOT_STEPS uniform steps estimates each step's
    local error by step doubling (see _doubling_error). Pilot steps whose
    estimate is too large to extrapolate are bisected until it is not.
    """
    from scipy.linalg import matrix_balance

    h = np.full(_PILOT_STEPS, period / _PILOT_STEPS)
    starts = t0 + h * np.arange(_PILOT_STEPS)
    values = _plant_at(plant_fn, starts, h, _DOUBLING)
    # powers of 2 are exact to apply and undo; balanced, the step norms
    # and the Taylor terms do not mix km and km/s
    d = matrix_balance(np.abs(values).mean(axis=(0, 1)), permute=False,
                       separate=True)[1][0]
    frame = d[None, :] / d[:, None]
    values = values * frame
    err = _doubling_error(values, h)
    for _ in range(_MAX_BISECTIONS):
        coarse = err > _PILOT_TRUST
        if not coarse.any():
            break
        half = h[coarse] / 2.0
        split = np.concatenate([starts[coarse], starts[coarse] + half])
        half = np.tile(half, 2)
        starts = np.concatenate([starts[~coarse], split])
        h = np.concatenate([h[~coarse], half])
        err = np.concatenate([err[~coarse], _doubling_error(
            _plant_at(plant_fn, split, half, _DOUBLING) * frame, half)])
    else:
        raise IntegrationError(
            "STM integration failed: the step-doubling error does not fall "
            "under bisection; the plant is not smooth on the period")

    # a sixth-order step's local error scales as h^7: pilot step k cut
    # into m_k steps leaves err_k / m_k^6, and m_k = c err_k^(1/7) makes
    # every final step's error c^-7 and their sum tol
    order = np.argsort(starts)
    root = np.maximum(err[order], _EPS) ** (1.0 / 7.0)
    cumulative = np.concatenate([[0.0], np.cumsum(root)])
    cumulative *= (cumulative[-1] / tol) ** (1.0 / 6.0)
    if not cumulative[-1] <= _MAX_STEPS:
        raise IntegrationError(
            f"STM integration failed: tol={tol!r} asks for "
            f"{cumulative[-1]:.3g} Magnus steps, more than {_MAX_STEPS}")
    n_steps = max(1, math.ceil(cumulative[-1]))
    edges = np.interp(np.linspace(0.0, cumulative[-1], n_steps + 1),
                      cumulative, np.append(starts[order], t0 + period))
    edges[0], edges[-1] = t0, t0 + period
    return edges, frame


def _plant_at(plant_fn, starts, h, fractions):
    """The plant on the nodes s + f h of each step [s, s + h], one call;
    shape (steps, len(fractions), dim, dim)."""
    nodes = starts[:, None] + h[:, None] * fractions
    values = np.asarray(plant_fn(nodes), dtype=float)
    values = np.broadcast_to(values, nodes.shape + values.shape[-2:])
    if not np.all(np.isfinite(values)):
        raise IntegrationError("STM integration failed: the plant is not "
                               "finite on the integration nodes")
    return values


def _step_exponentials(plant_fn, starts, h, frame):
    """exp of the Magnus exponents of the steps [s, s + h], in the
    balanced frame."""
    values = _plant_at(plant_fn, starts, h, _GAUSS_NODES) * frame
    return _expm_taylor(_magnus_exponent(values, h))


def _commutator(x, y):
    return x @ y - y @ x


def _magnus_exponent(a, h):
    """Sixth-order Magnus exponent of steps of length h, from the plant
    a[:, i] on each step's Gauss-Legendre node i (Blanes, Casas, Oteo &
    Ros 2009)."""
    h = h[:, None, None]
    a1 = h * a[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * h * (a[:, 2] - a[:, 0])
    a3 = (10.0 / 3.0) * h * (a[:, 2] - 2.0 * a[:, 1] + a[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return (a1 + a3 / 12.0
            + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)


def _doubling_error(values, h):
    """Local error of each step, estimated as the gap between one Magnus
    step and two half steps (plant on the nodes of _DOUBLING). The gap is
    taken entrywise against |exp Omega|, with a floor of _ERR_FLOOR of
    each column's largest entry, so every block of a mixed-unit state
    counts."""
    half = h / 2.0
    exps = _expm_taylor(np.concatenate([
        _magnus_exponent(values[:, 0:3], h),
        _magnus_exponent(values[:, 3:6], half),
        _magnus_exponent(values[:, 6:9], half)]))
    n = h.size
    two = exps[2 * n:] @ exps[n:2 * n]
    ref = np.abs(two)
    ref = np.maximum(ref, _ERR_FLOOR * ref.max(axis=-2, keepdims=True))
    return np.max(np.abs(exps[:n] - two) / ref, axis=(-2, -1))


def _expm_taylor(x):
    """exp of each matrix in the stack x: the degree-12 Taylor polynomial
    of x / 2^s (Paterson-Stockmeyer), squared s times, with s per matrix
    the least that brings its 1-norm under _TAYLOR_THETA."""
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norm / _TAYLOR_THETA)[1], 0)
    x = x * np.ldexp(1.0, -s)[:, None, None]
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    eye = np.eye(x.shape[-1])

    def block(j):
        c = _TAYLOR_COEFFS[4 * j:4 * j + 4]
        return c[0] * eye + c[1] * x + c[2] * x2 + c[3] * x3

    out = _TAYLOR_COEFFS[12] * x4 + block(2)
    out = out @ x4 + block(1)
    out = out @ x4 + block(0)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        out[sq] = out[sq] @ out[sq]
    return out


def _cumulative_product(steps):
    """Running products steps[j] @ ... @ steps[0] of a stack, by doubling
    (Hillis-Steele scan)."""
    shift = 1
    while shift < len(steps):
        steps = np.concatenate([steps[:shift], steps[shift:] @ steps[:-shift]])
        shift *= 2
    return steps


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


def _exp_plant(lam, s, nilpotent_index=None):
    """exp(Lambda s) for a scalar or array s; shape s.shape + Lambda.shape.

    A Lambda nilpotent of index k takes the finite sum of (Lambda s)^j / j!
    over j < k, which is exact; any other Lambda takes scipy's expm.
    """
    s = np.asarray(s, dtype=float)
    if nilpotent_index is None:
        from scipy.linalg import expm
        return expm(lam * s[..., None, None])
    # term by term, broadcast over s: a scalar s and an array s round alike
    power = np.eye(lam.shape[0])
    out = np.broadcast_to(power, s.shape + lam.shape)
    for j in range(1, nilpotent_index):
        power = power @ lam
        out = out + (s**j / math.factorial(j))[..., None, None] * power
    return out


def real_matrix_log(m, period=1.0):
    """Real logarithm of a monodromy matrix, scaled by 1/period.

    Returns (log(M) / period, k), with k the nilpotency index of M - I on
    the unipotent branch and None on the other.

    Unipotent matrices (all eigenvalues 1, M - I numerically nilpotent)
    take the truncated series log(I+N) = N - N^2/2 + ..., which is exact
    at the nilpotency index; the log is then nilpotent of the same index,
    so the round-trip check takes its exponential as the finite series.
    Everything else goes through the inverse scaling-and-squaring Pade
    logarithm, checked by expm. Eigenvalues on the closed negative real
    axis have no real logarithm and raise with a period-doubling hint.
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
        # log_m is nilpotent of index k too, so its exponential is the
        # finite series, and the tail that series drops starts at N^k,
        # which _nilpotent_index bounds by _NILPOTENT_TOL ||N||^k. expm
        # would square up a matrix of norm ||N|| (2e6 in km, km/s units
        # at e = 0.9) and lose 1e-7 of it to rounding
        check = _exp_plant(log_m, 1.0, k)
    else:
        on_negative_axis = (np.real(eigs) < 0.0) & (
            np.abs(np.imag(eigs)) <= 1e-12 * np.abs(eigs))
        if np.any(on_negative_axis):
            raise MatrixLogError(
                "monodromy has an eigenvalue on the negative real axis: no "
                "real logarithm; try doubling the period"
            )
        from scipy.linalg import expm, logm
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
    return log_m / period, k


def lf_from_monodromy(t_samples, stm_samples, lam, t0=None,
                      nilpotent_index=None):
    """Periodic transform samples P(t) = Phi(t, t0) exp(-Lambda (t - t0)).

    nilpotent_index is the k that real_matrix_log returned with Lambda.
    Returns (lf_samples, periodicity_defect). The defect is the largest
    entry of |P(t_end) - I| over max(1, |M| |exp(-Lambda (t_end - t0))|),
    M the final STM sample: each entry is measured against the size of
    the products that form it, so entries in mixed units (km, km/s) read
    at rounding when P is periodic.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    if t0 is None:
        t0 = t_samples[0]
    stm = np.asarray(stm_samples, dtype=float)
    exp_neg = _exp_plant(lam, t0 - t_samples, nilpotent_index)
    out = stm @ exp_neg
    scale = np.maximum(1.0, np.abs(stm[-1]) @ np.abs(exp_neg[-1]))
    defect = float(np.max(np.abs(out[-1] - np.eye(out.shape[1])) / scale))
    return out, defect


def fourier_periodic_fit(values, t0, period, n_harmonics):
    """Least-squares trigonometric fit of matrix samples on a uniform,
    endpoint-exclusive grid t0 + j*period/N.

    Returns (callable, residual): the callable evaluates the exactly
    periodic truncated series at t of any shape (result t.shape + the
    sample shape), the residual is the max-abs misfit over the input
    samples. The discrete Fourier projection on a
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
        phase = 2.0 * math.pi * (np.asarray(t, dtype=float)[..., None] - t0) \
            / period
        return (a0
                + np.tensordot(np.cos(k_vec * phase), a_cos, axes=(-1, 0))
                + np.tensordot(np.sin(k_vec * phase), a_sin, axes=(-1, 0)))

    # on the uniform grid the fit is the inverse transform of the kept
    # harmonics (h < n/2, so the Nyquist term is never among them)
    residual = float(np.max(np.abs(
        values - np.fft.irfft(spectrum[:h + 1], n=n, axis=0))))
    return fit, residual


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


def detect_eigenstructure(lam, nilpotent=False):
    """Eigenvalues of a real matrix with repeated/defective eigenvalues
    clustered and resolved into Jordan chains.

    The matrix is diagonally balanced first (mixed physical units
    otherwise swamp the rank decisions), eigenvalues closer than
    1e-6 * ||balanced|| are merged to their mean, and chains come from
    the null spaces of increasing powers of (Lambda - lambda I), ranks by
    SVD. Eigenvectors are mapped back to the original scaling.

    A matrix known to be nilpotent (the log of a unipotent monodromy) is
    one cluster at exactly 0: eigvals would split its defective zero by
    the square root of the rounding (1.6e-6 relative on some chiefs),
    past any cluster tolerance, while the ranks of its powers still show
    the chains plainly.
    """
    from scipy.linalg import matrix_balance

    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    bal, t_bal = matrix_balance(lam)  # lam = t_bal @ bal @ inv(t_bal)
    scale = max(np.linalg.norm(bal), 1e-300)
    cluster_tol = _CLUSTER_TOL * scale
    if nilpotent:
        clusters = [[0.0] * n]
    else:
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
                         n_samples=1024, tol=DEFAULT_TOL,
                         max_fit_residual=0.1):
    """Full pipeline: periodicity assessment (Fourier fit of the sampled
    plant), STM over one period, real logarithm of the monodromy,
    periodic transform samples, the eigenstructure of the reduced
    constant plant, and the Liouville check of det M.

    Exactly periodic plants are integrated directly and the fit residual
    is purely diagnostic; near-periodic plants are replaced by their
    periodic trigonometric fit, whose leftover is the discarded
    aperiodic content (must stay under max_fit_residual of the plant
    scale). plant_fn is called on arrays of times: once on the whole
    sample grid, then on the integration nodes a block at a time (see
    integrate_stm); it returns a t.shape + (d, d) stack or, for a
    constant plant, one (d, d) matrix.
    """
    grid = t0 + period * np.arange(n_samples) / n_samples
    values = np.asarray(plant_fn(grid), dtype=float)
    values = np.broadcast_to(values, grid.shape + values.shape[-2:])
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
    # Liouville: det M = exp of the integral of tr A, the period times the
    # mean trace of the samples (the periodic trapezoid rule; the fit has
    # the same mean trace). The samples are freed here, so that they are
    # not held through the integration's own working set
    trace_integral = period * values.trace(axis1=1, axis2=2).mean()
    del values
    integrand = fit if use_fit else plant_fn
    monodromy, stm_at = integrate_stm(integrand, t0, period, tol=tol)
    lam, k = real_matrix_log(monodromy, period)
    # the transform samples are left to first use: a caller that wants
    # them on another grid evaluates stm_at there instead
    ends = np.array([t0, t0 + period])
    _, defect = lf_from_monodromy(ends, stm_at(ends), lam, t0, k)
    eig = detect_eigenstructure(lam, nilpotent=k is not None)
    # the Liouville miss is scaled by the componentwise condition number
    # of det, sum_ij |M_ij (M^-1)_ji| >= dim
    expected = math.exp(trace_integral)
    cond = np.sum(np.abs(monodromy * np.linalg.inv(monodromy).T))
    liouville = float(abs(np.linalg.det(monodromy) - expected)
                      / (expected * cond))
    return NumericFloquetResult(
        monodromy=monodromy, Lambda=lam,
        t_samples=np.linspace(t0, t0 + period, n_samples + 1),
        eigenstructure=eig, periodic_fit_residual=residual,
        periodicity_defect=defect, liouville_mismatch=liouville,
        stm_at=stm_at, nilpotent_index=k,
    )
