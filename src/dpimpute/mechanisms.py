"""Randomness contract, Laplace mechanism and the two OLS fitters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Design matrix is (numerically) rank deficient or has too few rows."""


class RandomSource:
    """Deterministic random stream: PCG64 keyed by (seed, spawn indices).

    Same seed and key give a bit-identical draw sequence across runs and
    platforms.  A source is single-owner; concurrent callers must hold
    independent sources obtained via :meth:`split`.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(
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


@dataclass(frozen=True)
class OlsFit:
    """Fitted coefficients with privacy provenance.

    ``beta`` has length d, or d+1 with the intercept first when the fit was
    configured with one.  ``sigma2_hat`` is unusable (0) for private fits.
    """

    beta: np.ndarray
    sigma2_hat: float
    intercept: bool
    private: bool
    epsilon_spent: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.intercept:
            return self.beta[0] + x @ self.beta[1:]
        return x @ self.beta

    def to_json_dict(self) -> dict:
        return {
            "beta": [float(b) for b in self.beta],
            "private": self.private,
            "epsilon_spent": float(self.epsilon_spent),
        }


def _moments(x: np.ndarray, y: np.ndarray, intercept: bool):
    """Design Z (a leading column of ones with an intercept) and its
    least-squares moments: returns (Z, Z'Z, Z'y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be an n x d matrix")
    z = np.column_stack([np.ones(x.shape[0]), x]) if intercept else x
    n, p = z.shape
    if n < p:
        raise DegenerateDesignError(f"need at least p={p} rows, got {n}")
    return z, z.T @ z, z.T @ y


def ols_fit(x: np.ndarray, y: np.ndarray, intercept: bool = False) -> OlsFit:
    """Least squares via the normal equations (LAPACK partial-pivot LU solve)."""
    z, gram, zty = _moments(x, y, intercept)
    n, p = z.shape
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= _GRAM_RTOL * s[0]:
        raise DegenerateDesignError(
            f"Gram matrix singular within relative tolerance {_GRAM_RTOL}"
        )
    beta = np.linalg.solve(gram, zty)
    resid = np.asarray(y, dtype=np.float64) - z @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (n - p) if n > p else 0.0
    return OlsFit(
        beta=beta, sigma2_hat=sigma2, intercept=intercept, private=False,
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


def functional_mechanism_ols(
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    rng: RandomSource,
    intercept: bool = False,
    response_bounds: tuple[float, float] = (0.0, 1.0),
) -> OlsFit:
    """ε-DP OLS via coefficient perturbation of the squared-error objective.

    The moments are mapped into [-1,1] coordinates by one affine map,
    z' = z t and y' = c y + o, before expansion (see
    docs/functional_mechanism.md for the sensitivity derivation).  Without
    an intercept t = I and o = 0, so that in the ε→∞ limit the fit coincides
    exactly with :func:`ols_fit`; with an intercept the covariates are
    centred (x ↦ 2x - 1), which also conditions the Gram matrix.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    a_lo, a_hi = response_bounds
    if not a_lo < a_hi:
        raise ValueError(f"bad response bounds [{a_lo}, {a_hi}]")
    z, gram, zty = _moments(x, y, intercept)
    # the intercept column of ones lies in [0, 1] as well
    if z.size and ((z < 0.0) | (z > 1.0)).any():
        raise ValueError("functional mechanism requires covariates in [0, 1]")
    p = gram.shape[0]
    t = np.eye(p)
    if intercept:
        t[0, 1:] = -1.0  # z' = (1, 2x - 1)
        t[1:, 1:] *= 2.0
        c, o = 2.0 / (a_hi - a_lo), -(a_lo + a_hi) / (a_hi - a_lo)
    else:
        c, o = 1.0 / max(abs(a_lo), abs(a_hi)), 0.0
    # Z'1 is the first column of Z'Z when z_0 = 1; o = 0 otherwise
    gamma, _, _ = _perturbed_quadratic_min(
        t.T @ gram @ t, t.T @ (c * zty + o * gram[:, 0]), epsilon, rng
    )
    # y' = z t gamma and y = (y' - o) / c, with z e0 = 1 for the intercept
    beta = t @ gamma
    beta[0] -= o
    return OlsFit(
        beta=beta / c, sigma2_hat=0.0, intercept=intercept, private=True,
        epsilon_spent=float(epsilon),
    )
