"""Randomness contract, Laplace mechanism and the two OLS fitters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_data import COVARIATE_BOUNDS, Dataset

# Sensitivity of the expanded squared-error objective under replace-one
# neighbors, all attributes mapped into [-1,1]: per tuple the p degree-1
# coefficients move by at most |2*y*x_j| <= 2 each and the p^2 degree-2
# coefficients by |x_j*x_l| <= 1 each; two tuples change.
def functional_mechanism_sensitivity(p: int) -> float:
    return 2.0 * (p * p + 2 * p)


DEFAULT_COEF_BOUND = 10.0
_GRAM_RTOL = 1e-10
_TRIM_TAU = 1e-8  # curvature floor of the spectral trimming (Zhang et al. 2012, §5)


class DegenerateDesignError(ValueError):
    """Design matrix is (numerically) rank deficient, e.g. fewer rows than columns."""


class RandomSource:
    """Deterministic random stream: PCG64 keyed by (seed, spawn indices).

    Same seed and key give a bit-identical draw sequence across runs and
    platforms.  A source is single-owner; concurrent callers must hold
    independent sources obtained via :meth:`split`.  The generator is built
    on first draw, so a source that is only split never pays for one.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        if self.seed < 0 or min(self.key, default=0) < 0:
            raise ValueError(f"seed and key must be nonnegative, got {seed}, {key}")

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )

    def split(self, *indices: int) -> "RandomSource":
        """Independent sub-stream keyed by the extra indices."""
        return RandomSource(self.seed, self.key + indices)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size=size)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, key={self.key})"


def laplace_sample(scale: float, rng: RandomSource) -> float:
    """One Laplace(0, scale) draw."""
    return float(laplace_samples(scale, None, rng))


def laplace_samples(scale: float, size, rng: RandomSource) -> np.ndarray:
    """Laplace(0, scale) draws by inverse CDF, one uniform in [-0.5, 0.5) each.

    u = -0.5 would map to infinite noise, so such a uniform is redrawn from
    the same stream; every other draw is unaffected.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = np.asarray(rng.uniform(-0.5, 0.5, size=size))
    bad = u == -0.5
    while bad.any():
        u[bad] = rng.uniform(-0.5, 0.5, size=int(bad.sum()))
        bad = u == -0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_mechanism(
    value: float, sensitivity: float, epsilon: float, rng: RandomSource
) -> float:
    """Release value + Laplace(sensitivity/epsilon); the output is not clipped."""
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return value + laplace_sample(sensitivity / epsilon, rng)


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Fitted coefficients with privacy provenance.

    ``beta`` = (β₀, β₁, …, β_d) has length d+1, the constant term first.
    ``sigma2_hat`` is unusable (0) for private fits; ``==`` and hash use identity.
    """

    beta: np.ndarray
    sigma2_hat: float
    private: bool
    epsilon_spent: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = x @ self.beta[1:]
        out += self.beta[0]
        return out


def ols_fit(d: Dataset) -> OlsFit:
    """Complete-case least squares via the normal equations (LAPACK LU solve)."""
    gram, zty, yty, _, _ = d.complete_cases
    n, p = int(gram[0, 0]), gram.shape[0]
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= _GRAM_RTOL * s[0]:
        raise DegenerateDesignError(
            f"{n} rows and {p} columns give a singular Gram matrix (rtol {_GRAM_RTOL})"
        )
    beta = np.linalg.solve(gram, zty)
    rss = max(yty - float(beta @ zty), 0.0)  # |y - Zβ|² once Z'Zβ = Z'y
    sigma2 = rss / (n - p) if n > p else 0.0
    return OlsFit(
        beta=beta, sigma2_hat=sigma2, private=False,
        epsilon_spent=0.0,
    )


def _perturbed_quadratic_min(
    gram: np.ndarray,
    zty: np.ndarray,
    epsilon: float,
    rng: RandomSource,
):
    """Noise the degree-1/degree-2 objective coefficients -2Z'y and Z'Z
    and minimize by spectral trimming.

    Returns (gamma, lam1, a) with ``a`` the symmetrised noisy matrix; gamma
    minimizes lam1'g + g'Ag on the eigenvectors of ``a`` with eigenvalue
    above _TRIM_TAU (0 if there are none), clipped to the coefficient box.
    """
    p = gram.shape[0]
    scale = functional_mechanism_sensitivity(p) / epsilon
    lam1 = -2.0 * zty + laplace_samples(scale, p, rng)
    a = gram + laplace_samples(scale, (p, p), rng)
    a = (a + a.T) / 2.0
    w, v = np.linalg.eigh(a)
    keep = w > _TRIM_TAU
    gamma = v[:, keep] @ ((v[:, keep].T @ -lam1) / (2.0 * w[keep]))
    gamma = np.clip(gamma, -DEFAULT_COEF_BOUND, DEFAULT_COEF_BOUND)
    return gamma, lam1, a


def functional_mechanism_ols(d: Dataset, epsilon: float, rng: RandomSource) -> OlsFit:
    """ε-DP complete-case OLS via perturbing the squared-error objective.

    The moments are mapped into [-1,1] coordinates by one affine map,
    z' = z t = (1, 2x - 1) and y' = c y + o, before expansion; centring x
    also conditions the Gram matrix.  docs/functional_mechanism.md derives
    the sensitivity.  As ε→∞ the fit recovers :func:`ols_fit` up to rounding.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    gram, zty, _, x_min, x_max = d.complete_cases
    # Δ_FM needs data in range; the Dataset keeps y in [a, b], NaN fails here
    x_lo, x_hi = COVARIATE_BOUNDS
    if not (x_lo <= x_min and x_max <= x_hi):
        raise ValueError("functional mechanism requires covariates in [0, 1]")
    a_lo, a_hi = d.universe.response_bounds
    p = gram.shape[0]
    t = np.eye(p)
    t[0, 1:] = -1.0  # z' = (1, 2x - 1)
    t[1:, 1:] *= 2.0
    c, o = 2.0 / (a_hi - a_lo), -(a_lo + a_hi) / (a_hi - a_lo)
    # Z'1 is the first column of Z'Z since z_0 = 1
    gamma, _, _ = _perturbed_quadratic_min(
        t.T @ gram @ t, t.T @ (c * zty + o * gram[:, 0]), epsilon, rng
    )
    # y' = z t gamma and y = (y' - o) / c, with z e0 = 1
    beta = t @ gamma
    beta[0] -= o
    return OlsFit(
        beta=beta / c, sigma2_hat=0.0, private=True,
        epsilon_spent=float(epsilon),
    )
