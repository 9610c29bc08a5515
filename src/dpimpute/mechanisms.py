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


class DegenerateDesignError(ValueError):
    """Design matrix is (numerically) rank deficient or has too few rows."""


class IrreparablePerturbationError(RuntimeError):
    """Perturbed quadratic stayed indefinite after the ridge repair."""


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
    n_used: int
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


def _augment(x: np.ndarray, intercept: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be an n x d matrix")
    if intercept:
        return np.column_stack([np.ones(x.shape[0]), x])
    return x


def ols_fit(x: np.ndarray, y: np.ndarray, intercept: bool = False) -> OlsFit:
    """Least squares via the normal equations (LAPACK partial-pivot LU solve)."""
    xd = _augment(x, intercept)
    y = np.asarray(y, dtype=np.float64)
    n, p = xd.shape
    if n < p:
        raise DegenerateDesignError(f"need at least p={p} rows, got {n}")
    gram = xd.T @ xd
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= _GRAM_RTOL * s[0]:
        raise DegenerateDesignError(
            f"Gram matrix singular within relative tolerance {_GRAM_RTOL}"
        )
    beta = np.linalg.solve(gram, xd.T @ y)
    resid = y - xd @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (n - p) if n > p else 0.0
    return OlsFit(
        beta=beta,
        sigma2_hat=sigma2,
        n_used=n,
        intercept=intercept,
        private=False,
        epsilon_spent=0.0,
    )


def _check_unit_covariates(x: np.ndarray) -> None:
    if x.size and ((x < 0.0) | (x > 1.0)).any():
        raise ValueError("functional mechanism requires covariates in [0, 1]")


def _perturbed_quadratic_min(
    z: np.ndarray,
    yp: np.ndarray,
    epsilon: float,
    rng: RandomSource,
    coef_bound: float,
):
    """Noise the degree-1/degree-2 objective coefficients and minimize.

    Returns (gamma, lam1, a) where gamma minimizes lam1'g + g'Ag subject to
    the coefficient box, and ``a`` is the repaired symmetric matrix.
    """
    n, p = z.shape
    scale = functional_mechanism_sensitivity(p) / epsilon
    lam1 = -2.0 * z.T @ yp + laplace_samples(scale, p, rng)
    a = z.T @ z + laplace_samples(scale, (p, p), rng)
    a = (a + a.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(a)[0])
    if lam_min < -10.0 * abs(np.trace(a)):
        raise IrreparablePerturbationError(
            f"perturbed quadratic irrecoverable (lambda_min={lam_min:.3g})"
        )
    ridge = max(0.0, 1e-8 - lam_min)
    if ridge > 0:
        a = a + ridge * np.eye(p)
    gamma = np.linalg.solve(2.0 * a, -lam1)
    gamma = np.clip(gamma, -coef_bound, coef_bound)
    return gamma, lam1, a


def functional_mechanism_ols(
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    rng: RandomSource,
    intercept: bool = False,
    response_bounds: tuple[float, float] = (0.0, 1.0),
    coef_bound: float = DEFAULT_COEF_BOUND,
) -> OlsFit:
    """ε-DP OLS via coefficient perturbation of the squared-error objective.

    All attributes are mapped into [-1,1] before expansion (see
    docs/functional_mechanism.md for the sensitivity derivation).  Without an
    intercept only a pure response scaling is applied, so that in the ε→∞
    limit the fit coincides exactly with :func:`ols_fit`; with an intercept
    both covariates and response are mapped affinely and the intercept
    absorbs the shifts, which also conditions the Gram matrix.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be an n x d matrix")
    _check_unit_covariates(x)
    a_lo, a_hi = response_bounds
    if not a_lo < a_hi:
        raise ValueError(f"bad response bounds [{a_lo}, {a_hi}]")
    n, d = x.shape
    p = d + 1 if intercept else d
    if n < p:
        raise DegenerateDesignError(f"need at least p={p} rows, got {n}")

    if intercept:
        width = a_hi - a_lo
        yp = 2.0 * (y - a_lo) / width - 1.0
        z = np.column_stack([np.ones(n), 2.0 * x - 1.0])
        gamma, _, _ = _perturbed_quadratic_min(z, yp, epsilon, rng, coef_bound)
        # scaled model: y' = c + sum g_j (2 x_j - 1); back-map exactly
        c, g = gamma[0], gamma[1:]
        beta = np.empty(p)
        beta[1:] = g * width
        beta[0] = (c - g.sum() + 1.0) * width / 2.0 + a_lo
    else:
        s = max(abs(a_lo), abs(a_hi))
        yp = y / s
        gamma, _, _ = _perturbed_quadratic_min(x, yp, epsilon, rng, coef_bound)
        beta = gamma * s

    return OlsFit(
        beta=beta,
        sigma2_hat=0.0,
        n_used=n,
        intercept=intercept,
        private=True,
        epsilon_spent=float(epsilon),
    )
