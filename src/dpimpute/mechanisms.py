"""Randomness contract, Laplace mechanism and the two OLS fitters."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core_data import Dataset

# Sensitivity of the expanded squared-error objective under replace-one
# neighbors, all attributes mapped into [-1,1]: per tuple the p degree-1
# coefficients move by at most |2*y*x_j| <= 2 each and the p^2 degree-2
# coefficients by |x_j*x_l| <= 1 each; two tuples change.
def functional_mechanism_sensitivity(p: int) -> float:
    return 2.0 * (p * p + 2 * p)


DEFAULT_COEF_BOUND = 10.0
_GRAM_RTOL = 1e-10
_TRIM_TAU = 1e-8  # curvature floor of the spectral trimming (Zhang et al. 2012, §5)
_MAX_SCALE = sys.float_info.max / 128  # room for a sum of two Laplace draws


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
        self.key = tuple(map(int, key))
        if self.seed < 0 or min(self.key, default=0) < 0:
            raise ValueError(f"seed and key must be nonnegative, got {seed}, {key}")

    @cached_property
    def _gen(self) -> np.random.Generator:  # seed_together may set it first
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


# SeedSequence's hash (numpy/random/bit_generator.pyx): its multipliers depend on
# the step count alone, never on the data, so one pass can hash many keys
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool, in uint32 words
# Smallest group that seed_together hashes in one pass.  Built through numpy's
# SeedSequence, a source's generator costs about 13 µs; the pass costs about
# 110 µs fixed plus 3 µs per source, generators included (numpy 2.4.6, 2
# vCPUs), so it wins from about 11 sources.  16 leaves a margin for noise.
_SEED_TOGETHER_MIN = 16


class _SeedState(ISeedSequence):
    """A seed whose ``generate_state(4, np.uint64)``, the one call PCG64
    makes, returns a state computed by :func:`seed_together`."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or np.dtype(dtype) != self.state.dtype:
            raise ValueError(f"holds {len(self.state)} uint64 words only")
        return self.state


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """The (count + 1, 1) column init·multᵗ mod 2³² for t = 0…count."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array(c, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
    """SeedSequence's hashmix of row i of ``v`` as hash step t + i."""
    v = (v ^ c[t : t + len(v)]) * c[t + 1 : t + len(v) + 1]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the pool words x with the hashed words y."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence`` ``generate_state(4, np.uint64)`` of each column of the
    (words ≥ 4, R) uint32 entropy, as an (R, 4) array: the pool mix, then the
    state hash, each step done for all R columns at once."""
    a = _hash_steps(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool, t = _hashmix(entropy[:_POOL], a, 0), _POOL
    for src in range(_POOL):  # mix every word into each of the others
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * len(dst)], a, t))
        t += len(dst)
    for word in entropy[_POOL:]:  # then the words beyond the pool into each
        pool = _mix(pool, _hashmix(np.broadcast_to(word, pool.shape), a, t))
        t += _POOL
    b = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b, 0).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def seed_together(sources) -> None:
    """Build the generators of the RandomSources in ``sources`` that have none
    yet, bit-identical to their own seeding, one vectorised SeedSequence pass
    per seed and key length.  Anything else in the list, a group smaller than
    _SEED_TOGETHER_MIN and a group with a key int of 2³² or more are left to
    build their own on first draw."""
    if len(sources) < _SEED_TOGETHER_MIN:
        return
    groups: dict[tuple[int, int], list[RandomSource]] = {}
    for r in sources:
        if isinstance(r, RandomSource) and "_gen" not in vars(r):
            groups.setdefault((r.seed, len(r.key)), []).append(r)
    for (seed, _), group in groups.items():
        if len(group) < _SEED_TOGETHER_MIN:
            continue
        try:
            keys = np.array([r.key for r in group], dtype=np.uint64).T
        except OverflowError:  # a key int of 2⁶⁴ or more
            continue
        if (keys >> 32).any():  # a key int of two uint32 words
            continue
        # the seed's uint32 words, low first, zero-padded to the pool (as
        # SeedSequence pads under a key; without one a short pool hashes 0s)
        run = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
        run += [0] * (_POOL - len(run))
        entropy = np.empty((len(run) + len(keys), len(group)), np.uint32)
        entropy[: len(run)] = np.array(run, np.uint32)[:, None]
        entropy[len(run) :] = keys
        for r, state in zip(group, _seed_states(entropy)):
            r._gen = np.random.Generator(np.random.PCG64(_SeedState(state)))


def laplace_sample(scale: float, rng: RandomSource) -> float:
    """One Laplace(0, scale) draw."""
    return float(laplace_samples(scale, None, rng))


def _check_scale(scale: float) -> float:
    if not 0 < scale <= _MAX_SCALE:
        raise ValueError(f"noise scale must lie in (0, {_MAX_SCALE:.4g}], got {scale}")
    return scale


def each_run(fn, items, errors) -> list:
    """fn(item) per run not in ``errors``, else NaN; a ValueError puts the run in it."""
    out = [np.nan] * len(items)
    for i, item in enumerate(items):
        try:
            if i not in errors:
                out[i] = fn(item)
        except ValueError as exc:
            errors[i] = exc
    return out


def laplace_samples(scale, size, rng) -> np.ndarray:
    """Laplace(0, scale) draws by inverse CDF, one uniform in [-0.5, 0.5) each.

    ``rng`` is a RandomSource, or a list of R sources that each draw one row
    of the (R, *size) result, with ``scale`` broadcast against it.  u = -0.5
    would map to infinite noise, so such a uniform is redrawn from the same
    stream; no other draw moves.  The largest draw is 36.04·scale (|u| = 0.5
    - 2⁻⁵³), so a scale above _MAX_SCALE is refused before any draw: two
    draws and their sum stay finite.
    """
    for s in np.ravel(scale):
        _check_scale(float(s))
    sources = rng if isinstance(rng, list) else [rng]
    seed_together(sources)
    u = np.array([r.uniform(-0.5, 0.5, size=size) for r in sources])
    rows = u.reshape(len(sources), -1)  # a view: redraws land in u
    for i in np.flatnonzero((rows == -0.5).any(axis=1)):
        while (bad := rows[i] == -0.5).any():
            rows[i][bad] = sources[i].uniform(-0.5, 0.5, size=int(bad.sum()))
    u = u if isinstance(rng, list) else u[0]
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def _noise_scale(sensitivity: float, epsilon: float) -> float:
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return _check_scale(float(sensitivity) / float(epsilon))


def laplace_mechanisms(values, sensitivities, epsilon: float, rngs, errors) -> np.ndarray:
    """value + Laplace(sensitivity/epsilon), unclipped, per run i not in ``errors``, drawn
    from ``rngs[i]``; a run whose release is refused joins ``errors`` before any draw."""
    scales = each_run(lambda sens: _noise_scale(sens, epsilon), sensitivities, errors)
    out = np.array(values, dtype=np.float64)
    if live := [i for i in range(len(out)) if i not in errors]:
        out[live] += laplace_samples(np.take(scales, live), None, [rngs[i] for i in live])
    return out


def one_run(block_fn, *args):
    """The output of ``block_fn(*args, errors)`` on a block of one run, or its failure."""
    out = block_fn(*args, errors := {})
    if errors:
        raise errors[0]
    return out[0]


def laplace_mechanism(
    value: float, sensitivity: float, epsilon: float, rng: RandomSource
) -> float:
    """Release value + Laplace(sensitivity/epsilon); the output is not clipped."""
    return float(one_run(laplace_mechanisms, [value], [sensitivity], epsilon, [rng]))


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
        return linear_predictor(self.beta, x)


def linear_predictor(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """β₀ + xβ for each row of x, with beta = (β₀, β₁, …, β_d)."""
    out = np.asarray(x, dtype=np.float64) @ beta[1:]
    out += beta[0]
    return out


def ols_coefficients(gram: np.ndarray, zty: np.ndarray, errors) -> np.ndarray:
    """:func:`ols_fit`'s β per run not in ``errors`` from stacked Z'Z (R, p, p) and Z'y
    (R, p); a run with a singular Gram matrix joins ``errors`` unsolved (its row NaN)."""
    beta = np.full(zty.shape, np.nan)
    live = [i for i in range(len(gram)) if i not in errors]
    s = np.linalg.svd(gram[live], compute_uv=False)
    for i, (lo, hi) in zip(live, s[:, [-1, 0]]):
        if lo <= _GRAM_RTOL * hi:
            errors[i] = DegenerateDesignError(
                f"{int(gram[i, 0, 0])} rows and {gram.shape[-1]} columns give a "
                f"singular Gram matrix (rtol {_GRAM_RTOL})")
    live = [i for i in live if i not in errors]
    beta[live] = np.linalg.solve(gram[live], zty[live, :, None])[..., 0]
    return beta


def ols_fit(d: Dataset) -> OlsFit:
    """Complete-case least squares via the normal equations (LAPACK LU solve)."""
    gram, zty, yty = d.complete_cases
    beta = one_run(ols_coefficients, gram[None], zty[None])
    n, p = int(gram[0, 0]), gram.shape[0]
    rss = max(yty - float(beta @ zty), 0.0)  # |y - Zβ|² once Z'Zβ = Z'y
    sigma2 = rss / (n - p) if n > p else 0.0
    return OlsFit(beta=beta, sigma2_hat=sigma2, private=False, epsilon_spent=0.0)


def _perturbed_quadratic_min(gram: np.ndarray, zty: np.ndarray, epsilon: float, rng):
    """Noise the degree-1/degree-2 objective coefficients -2Z'y and Z'Z
    and minimize by spectral trimming.

    Returns (gamma, lam1, a) with ``a`` the symmetrised noisy matrix; gamma
    minimizes lam1'g + g'Ag on the eigenvectors of ``a`` with eigenvalue
    above _TRIM_TAU (0 if there are none), clipped to the coefficient box.
    Stacked moments (R, p, p) and (R, p) with a list of R sources give one
    minimizer per run, each noised from its own source.
    """
    p = gram.shape[-1]
    scale = functional_mechanism_sensitivity(p) / float(epsilon)
    lam1 = -2.0 * zty + laplace_samples(scale, p, rng)
    a = gram + laplace_samples(scale, (p, p), rng)
    a = (a + np.swapaxes(a, -1, -2)) / 2.0
    w, v = np.linalg.eigh(a)
    gamma = np.empty(lam1.shape)
    for i in np.ndindex(w.shape[:-1]):  # per run: each keeps its own directions
        keep = w[i] > _TRIM_TAU
        kept = v[i][:, keep]
        gamma[i] = kept @ ((kept.T @ -lam1[i]) / (2.0 * w[i][keep]))
    np.clip(gamma, -DEFAULT_COEF_BOUND, DEFAULT_COEF_BOUND, out=gamma)
    return gamma, lam1, a


def functional_mechanism_coefficients(
    gram: np.ndarray, zty: np.ndarray, response_bounds, epsilon: float, rngs
) -> np.ndarray:
    """:func:`functional_mechanism_ols`'s β from stacked Z'Z (R, p, p) and Z'y (R, p),
    run r noised from ``rngs[r]``; a refused ε or noise scale raises ValueError."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    a_lo, a_hi = response_bounds
    p = gram.shape[-1]
    t = np.eye(p)
    t[0, 1:] = -1.0  # z' = (1, 2x - 1)
    t[1:, 1:] *= 2.0
    c, o = 2.0 / (a_hi - a_lo), -(a_lo + a_hi) / (a_hi - a_lo)
    # Z'1 is the first column of Z'Z since z_0 = 1; v @ t is t'v for each run
    gamma, _, _ = _perturbed_quadratic_min(
        t.T @ gram @ t, (c * zty + o * gram[..., 0]) @ t, epsilon, rngs
    )
    # y' = z t gamma and y = (y' - o) / c, with z e0 = 1
    beta = gamma @ t.T
    beta[:, 0] -= o
    return beta / c


def functional_mechanism_ols(d: Dataset, epsilon: float, rng: RandomSource) -> OlsFit:
    """ε-DP complete-case OLS via perturbing the squared-error objective.

    The moments are mapped into [-1,1] coordinates by one affine map,
    z' = z t = (1, 2x - 1) and y' = c y + o, before expansion; centring x
    also conditions the Gram matrix.  docs/functional_mechanism.md derives
    the sensitivity.  As ε→∞ the fit recovers :func:`ols_fit` up to rounding.
    """
    gram, zty, _ = d.complete_cases  # Δ_FM holds: the Dataset is in its domain
    beta = functional_mechanism_coefficients(
        gram[None], zty[None], d.universe.response_bounds, epsilon, [rng])
    return OlsFit(beta=beta[0], sigma2_hat=0.0, private=True,
                  epsilon_spent=float(epsilon))
