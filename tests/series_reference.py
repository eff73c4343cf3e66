"""Continuum sine-series references: regularized series and their bounds.

The backward problem separates over the Dirichlet eigenbasis of the domain,
so the regularized solutions have closed series forms: the k-th mode of the
data is multiplied by exp(-t*lambda) over a method-specific denominator.
These series are the analysis side of the paper; they quantify stability,
regularization error, and the noise convergence rate independently of any
grid or solver. The program never evaluates them; the tests check them, and
criterion 3 checks Theorem 1's rate with them. E0 and SERIES hold each
benchmark problem's initial-state norm bound and data coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from bhcp.analysis import EX1_SERIES_TERMS
from bhcp.methods import MethodKind


@dataclass(frozen=True)
class SpectralCoefficients:
    """Final data expanded in an orthonormal Dirichlet eigenbasis.

    ``eigenvalues`` are the continuous operator eigenvalues (l**2 on (0,pi);
    sums of squares in 2D), strictly increasing. ``coefficients`` are the
    data coefficients b_l at time ``horizon``. Norms of anything expanded in
    the same basis are plain vector norms of coefficients (Parseval).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    horizon: float

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or np.any(np.diff(lam) <= 0):
            raise ValueError("eigenvalues must be a strictly increasing vector")
        if np.any(lam <= 0):
            raise ValueError("Dirichlet eigenvalues are strictly positive")
        if np.shape(self.coefficients) != lam.shape:
            raise ValueError("need one coefficient per eigenvalue")

    def data_norm(self) -> float:
        """Norm of the data these coefficients represent."""
        return float(np.linalg.norm(self.coefficients))

    def state_amplitudes(self, t: float) -> np.ndarray:
        """Coefficients of the exact (unregularized) state at time t.

        Runs the heat semigroup backward from the horizon, so amplitudes
        grow like exp((horizon - t) * lambda); only meaningful when the data
        actually came from a solution with bounded initial state. Evaluated
        in log space since exp(horizon * lambda) alone can overflow; modes
        whose stored coefficient underflowed to zero stay zero (their true
        amplitude is not recoverable from the data).
        """
        c = np.asarray(self.coefficients, dtype=float)
        out = np.zeros_like(c)
        live = c != 0.0
        growth = (self.horizon - t) * self.eigenvalues[live]
        out[live] = np.sign(c[live]) * np.exp(growth + np.log(np.abs(c[live])))
        return out

    def initial_norm(self) -> float:
        """Norm of the implied initial state (the quantity bounded by E0)."""
        return float(np.linalg.norm(self.state_amplitudes(0.0)))


def regularized_series(
    kind: MethodKind,
    alpha: float,
    tau: float,
    t: float,
    coeffs: SpectralCoefficients,
) -> np.ndarray:
    """Mode amplitudes of a method's regularized solution at time t.

    Amplitude l is exp(-t*lambda_l) * b_l / denom_l with the method's
    denominator:

        qbvm         alpha                    + exp(-T*lambda)
        mqbvm        alpha*lambda             + exp(-T*lambda)
        pint-qbvm    alpha*(1 + tau*lambda)   + exp(-T*lambda)
        pint-mqbvm   alpha*(lambda + 1/tau)   + exp(-T*lambda)

    tau is ignored by the classic kinds. pint-qbvm with tau = 0 reduces
    exactly to qbvm, and pint-qbvm at alpha equals pint-mqbvm at tau*alpha,
    mode by mode.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lam = coeffs.eigenvalues
    decay = np.exp(-coeffs.horizon * lam)
    if kind is MethodKind.QBVM:
        denom = alpha + decay
    elif kind is MethodKind.MQBVM:
        denom = alpha * lam + decay
    elif kind is MethodKind.PINT_QBVM:
        if tau < 0:
            raise ValueError(f"tau must be nonnegative, got {tau}")
        denom = alpha * (1.0 + tau * lam) + decay
    else:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        denom = alpha * (lam + 1.0 / tau) + decay
    return np.exp(-t * lam) * coeffs.coefficients / denom


def _rate_exponent(t: float, horizon: float, tau: float) -> float:
    if not 0.0 <= t <= horizon:
        raise ValueError(f"t must lie in [0, {horizon}], got {t}")
    return t / (horizon + tau)


def stability_bound(
    kind: MethodKind,
    alpha: float,
    tau: float,
    t: float,
    data_norm: float,
    horizon: float = 1.0,
) -> float:
    """Closed-form bound on the regularized solution norm at time t.

    pint-qbvm: (1/alpha)**(1 - t/(T+tau)) * ||g||; pint-mqbvm has tau/alpha
    as the base; qbvm is the tau = 0 specialization. mqbvm has no stated
    bound and is rejected.
    """
    if kind is MethodKind.MQBVM:
        raise ValueError("no closed-form stability bound for mqbvm")
    if kind is MethodKind.QBVM:
        tau = 0.0
    exponent = 1.0 - _rate_exponent(t, horizon, tau)
    base = tau / alpha if kind is MethodKind.PINT_MQBVM else 1.0 / alpha
    return base**exponent * data_norm


def error_bound(
    kind: MethodKind,
    alpha: float,
    tau: float,
    t: float,
    e0: float,
    horizon: float = 1.0,
) -> float:
    """Closed-form bound on the noise-free regularization error at time t.

    Requires the initial-state norm bound e0. pint-qbvm: E0 *
    alpha**(t/(T+tau)); pint-mqbvm: E0 * (alpha/tau)**(t/(T+tau)); qbvm is
    the tau = 0 specialization. mqbvm has no stated bound and is rejected.
    """
    if kind is MethodKind.MQBVM:
        raise ValueError("no closed-form error bound for mqbvm")
    if kind is MethodKind.QBVM:
        tau = 0.0
    exponent = _rate_exponent(t, horizon, tau)
    base = alpha / tau if kind is MethodKind.PINT_MQBVM else alpha
    return e0 * base**exponent


def theorem1_bound(
    delta: float, e0: float, t: float, horizon: float, tau: float
) -> float:
    """Total-error bound under the rate-optimal alpha choice.

    sqrt(2) * E0**(1 - s) * delta**s with s = t/(T+tau), valid for pint-qbvm
    at alpha = delta/E0 and pint-mqbvm at alpha = tau*delta/E0. At t = 0 it
    degenerates to sqrt(2)*E0, i.e. no convergence at the initial time.
    """
    if delta <= 0 or e0 <= 0:
        raise ValueError("delta and e0 must be positive")
    s = _rate_exponent(t, horizon, tau)
    return math.sqrt(2.0) * e0 ** (1.0 - s) * delta**s


def _ex1_series() -> SpectralCoefficients:
    k = np.arange(1, 2 * EX1_SERIES_TERMS, 2, dtype=float)
    sign = np.where(k % 4 == 1, 1.0, -1.0)
    initial_coeffs = sign * 8.0 / (np.sqrt(2.0 * np.pi) * k**2)
    return SpectralCoefficients(
        eigenvalues=k**2,
        coefficients=initial_coeffs * np.exp(-(k**2)),
        horizon=1.0,
    )


# Initial-state norm bound of each benchmark problem, computed in closed
# form, not fitted.
E0 = {
    # Triangle profile: integral of z(x,0)^2 is pi^3/3.
    1: math.sqrt(np.pi**3 / 3.0),
    # Single mode sin(x1)sin(x2): L2 norm over the square is pi/2.
    2: np.pi / 2.0,
}

# Final data of each benchmark problem in the orthonormal eigenbasis.
SERIES = {
    1: _ex1_series(),
    2: SpectralCoefficients(
        eigenvalues=np.array([2.0]),
        coefficients=np.array([math.exp(-2.0) * np.pi / 2.0]),
        horizon=1.0,
    ),
}
