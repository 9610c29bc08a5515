import tracemalloc

import numpy as np
import pytest

from dpimpute import (
    Dataset,
    DegenerateDesignError,
    RandomSource,
    Universe,
    functional_mechanism_ols,
    functional_mechanism_sensitivity,
    laplace_mechanism,
    laplace_sample,
    laplace_samples,
    ols_fit,
)
from dpimpute import mechanisms
from dpimpute.core_data import _moments
from dpimpute.mechanisms import (
    DEFAULT_COEF_BOUND,
    _MAX_SCALE,
    _SEED_TOGETHER_MIN,
    _perturbed_quadratic_min,
    seed_together,
)


def complete(x, y, bounds=(0.0, 1.0)):
    """The fully observed Dataset of covariates x and responses y in ``bounds``."""
    return Dataset(x, y, np.zeros(len(y), dtype=bool), Universe(bounds))


class Scripted:
    """A RandomSource stand-in whose uniforms are the given values, in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = [RandomSource(42).uniform() for _ in range(3)]
        b = [RandomSource(42).uniform() for _ in range(3)]
        assert a == b

    def test_split_streams_differ(self):
        base = RandomSource(42)
        assert base.split(0).uniform() != base.split(1).uniform()

    def test_split_is_reproducible(self):
        assert RandomSource(7).split(3, 1).uniform() == RandomSource(7, (3, 1)).uniform()

    @pytest.mark.parametrize("seed, key", [(-1, ()), (0, (2, -1))])
    def test_negative_seed_or_key_refused_at_construction(self, seed, key):
        with pytest.raises(ValueError, match="nonnegative"):
            RandomSource(seed, key)
        with pytest.raises(ValueError, match="nonnegative"):
            RandomSource(0).split(*key, seed)

    @pytest.mark.parametrize("seed, key", [(1.9, ()), ("7", ()), (0, (2.7,)), (0, ("1",))])
    def test_seed_or_key_that_is_not_an_integer_refused(self, seed, key):
        with pytest.raises(TypeError):
            RandomSource(seed, key)

    def test_numpy_integers_accepted(self):
        r = RandomSource(np.int64(5), (np.uint32(2), np.int8(1)))
        assert (r.seed, r.key) == (5, (2, 1)) and type(r.seed) is int
        assert r.uniform() == RandomSource(5, (2, 1)).uniform()

    def test_generator_built_on_first_draw(self):
        base = RandomSource(42)
        child = base.split(1)
        assert "_gen" not in vars(base) and "_gen" not in vars(child)
        assert child.uniform() == RandomSource(42, (1,)).uniform()
        assert "_gen" in vars(child) and "_gen" not in vars(base)


def numpy_generator(seed, key):
    """The generator numpy's own SeedSequence gives (seed, key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def keys_of_lengths(lengths, seed=0):
    """One key per length, of ints spread over [0, 2³²)."""
    rng = np.random.default_rng(seed)
    return [tuple(int(k) for k in rng.integers(0, 2**32, size=n)) for n in lengths]


class TestSeedTogether:
    """A block pass gives each source numpy's own generator, bit for bit."""

    def assert_numpy_seeded(self, sources):
        for r in sources:
            want = numpy_generator(r.seed, r.key)
            assert r._gen.bit_generator.state == want.bit_generator.state
            assert r.uniform(size=3).tolist() == want.uniform(size=3).tolist()
            assert r.normal() == want.normal()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3, 2**130 + 7])
    @pytest.mark.parametrize("lengths", [[0] * 20, [1] * 20, [2] * 20, [3] * 20,
                                         [1, 2, 3] * 20], ids=["0", "1", "2", "3", "mixed"])
    def test_block_pass_matches_seed_sequence(self, seed, lengths):
        sources = [RandomSource(seed, key) for key in keys_of_lengths(lengths, seed % 97)]
        seed_together(sources)
        assert all("_gen" in vars(r) for r in sources)  # built by the pass
        self.assert_numpy_seeded(sources)

    def test_wide_key_ints_keep_numpy_seeding(self):
        wide = [RandomSource(3, (r, 2**32 + r)) for r in range(20)]  # two words
        wide += [RandomSource(3, (r, 1, 2**70)) for r in range(20)]  # beyond uint64
        narrow = [RandomSource(3, (r,)) for r in range(20)]
        seed_together(wide + narrow)
        assert not any("_gen" in vars(r) for r in wide)
        assert all("_gen" in vars(r) for r in narrow)
        self.assert_numpy_seeded(wide + narrow)

    def test_a_source_that_has_drawn_keeps_its_position(self):
        drawn = RandomSource(5, (7, 1))
        first = drawn.uniform(size=2)
        gen = drawn._gen
        seed_together([drawn] + [RandomSource(5, (r, 1)) for r in range(30)])
        assert drawn._gen is gen
        want = numpy_generator(5, (7, 1))
        assert want.uniform(size=2).tolist() == first.tolist()
        assert drawn.uniform(size=3).tolist() == want.uniform(size=3).tolist()

    def test_scripted_double_passes_through(self):
        double = Scripted([0.25, -0.1])
        sources = [RandomSource(1, (r,)) for r in range(30)]
        seed_together(sources[:10] + [double] + sources[10:])
        assert vars(double) == {"values": [0.25, -0.1]}
        self.assert_numpy_seeded(sources)

    def test_a_list_below_the_crossover_keeps_lazy_seeding(self):
        short = [RandomSource(2, (r, 0)) for r in range(_SEED_TOGETHER_MIN - 1)]
        seed_together(short)
        assert not any("_gen" in vars(r) for r in short)
        self.assert_numpy_seeded(short)

    def test_laplace_samples_of_a_block_equal_per_source_draws(self):
        sources = [RandomSource(4, (r, 2, 1)) for r in range(40)]
        block = laplace_samples(1.0, 2, sources)
        assert all("_gen" in vars(r) for r in sources)
        each = [laplace_samples(1.0, 2, RandomSource(4, (r, 2, 1))) for r in range(40)]
        assert block.tolist() == np.array(each).tolist()


class TestLaplaceSample:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace_sample(0.0, RandomSource(0))
        with pytest.raises(ValueError):
            laplace_samples(-1.0, 10, RandomSource(0))

    def test_seeded_determinism(self):
        xs = [laplace_sample(1.0, RandomSource(42)) for _ in range(2)]
        assert xs[0] == xs[1]

    def test_moments(self):
        draws = laplace_samples(1.0, 200_000, RandomSource(5))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 2.0) < 0.05

    def test_median_uniform_is_zero(self):
        # inverse CDF maps the central uniform draw to exactly 0
        assert -2.0 * np.sign(0.0) * np.log1p(-0.0) == 0.0

    def test_scale_two_doubles_draws(self):
        a = laplace_samples(1.0, 100, RandomSource(9))
        b = laplace_samples(2.0, 100, RandomSource(9))
        np.testing.assert_allclose(b, 2 * a, rtol=1e-15)

    def test_scalar_draw_matches_vector_draw(self):
        vector = laplace_samples(1.5, 1, RandomSource(6))
        assert laplace_sample(1.5, RandomSource(6)) == vector[0]

    def test_lowest_uniform_is_redrawn(self):
        # u = -0.5 would give log1p(-1) = -inf; it is replaced by the next
        # uniform of the same stream, and the other draws keep their values
        expected = laplace_samples(1.0, 1, Scripted([0.25]))[0]
        assert laplace_sample(1.0, Scripted([-0.5, 0.25])) == expected
        draws = laplace_samples(1.0, 3, Scripted([0.1, -0.5, 0.2, -0.5, 0.25]))
        assert np.isfinite(draws).all()
        assert draws[1] == expected
        np.testing.assert_array_equal(
            draws[[0, 2]], laplace_samples(1.0, 2, Scripted([0.1, 0.2]))
        )

    @pytest.mark.parametrize("scale", [np.inf, np.nan, np.nextafter(_MAX_SCALE, np.inf)])
    def test_refuses_a_scale_whose_draws_could_overflow(self, scale):
        rng = RandomSource(0)
        with pytest.raises(ValueError, match="noise scale must lie in"):
            laplace_samples(scale, 10, rng)
        assert "_gen" not in vars(rng)  # refused before any draw

    def test_extreme_draws_at_the_largest_scale_stay_finite(self):
        # |u| = 0.5 - 2⁻⁵³ is the largest a uniform in [-0.5, 0.5) reaches
        edge = 0.5 - 2.0**-53
        draws = laplace_samples(_MAX_SCALE, 2, Scripted([edge, -edge]))
        assert draws[0] == -draws[1] == pytest.approx(52 * np.log(2) * _MAX_SCALE)
        assert np.isfinite(draws + draws).all()  # the FM adds two draws


class TestLaplaceMechanism:
    def test_rejects_bad_params(self):
        rng = RandomSource(0)
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, 1.0, 0.0, rng)
        # Δ/ε is divided as Python floats: inf, not a numpy RuntimeWarning
        with pytest.raises(ValueError, match="noise scale must lie in"):
            laplace_mechanism(0.5, np.float64(1), np.float64(1e-320), rng)

    def test_mean_near_value(self):
        rng = RandomSource(3)
        draws = [laplace_mechanism(0.5, 1e-4, 1.0, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.5) < 5e-5

    def test_scale_depends_only_on_ratio(self):
        a = laplace_mechanism(0.5, 1e-4, 1.0, RandomSource(4))
        b = laplace_mechanism(0.5, 2e-4, 2.0, RandomSource(4))
        assert a == b

    def test_vanishing_noise_limit(self):
        assert abs(laplace_mechanism(0.7, 1.0, 1e12, RandomSource(1)) - 0.7) < 1e-9


class TestOlsFit:
    def test_noiseless_recovery(self):
        rng = RandomSource(10)
        x = rng.uniform(size=(50, 2))
        y = x @ [0.5, 0.5]
        fit = ols_fit(complete(x, y))
        np.testing.assert_allclose(fit.beta, [0.0, 0.5, 0.5], atol=1e-10)
        assert abs(fit.sigma2_hat) < 1e-12
        # σ̂² from the moments cancels y'y against β'Z'y; it stays at rounding level
        assert 0.0 <= fit.sigma2_hat <= 1e-13 * float(y @ y) / (50 - 3)
        assert not fit.private and fit.epsilon_spent == 0.0

    def test_two_point_line(self):
        fit = ols_fit(complete(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])))
        np.testing.assert_allclose(fit.beta, [0.0, 1.0], atol=1e-14)

    def test_matches_high_precision_oracle(self):
        import mpmath as mp

        rng = RandomSource(77)
        x = rng.uniform(size=(200, 2))
        y = x @ [0.3, 0.6] + rng.normal(0, 0.1, 200)
        fit = ols_fit(complete(x, y, (-2.0, 3.0)))
        mp.mp.dps = 50
        xm = mp.matrix([[1.0, *row] for row in x.tolist()])
        ym = mp.matrix([[v] for v in y])
        beta = mp.lu_solve(xm.T * xm, xm.T * ym)
        oracle = np.array([float(beta[i]) for i in range(3)])
        np.testing.assert_allclose(fit.beta, oracle, atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = RandomSource(8)
        x = rng.uniform(size=(100, 2))
        y = x @ [0.2, 0.9] + rng.normal(0, 0.2, 100)
        fit = ols_fit(complete(x, y, (-2.0, 3.0)))
        xd = np.column_stack([np.ones(100), x])
        resid = y - xd @ fit.beta
        assert np.abs(xd.T @ resid).max() < 1e-8

    def test_sigma2_matches_residual_pass(self):
        rng = RandomSource(9)
        x = rng.uniform(size=(300, 2))
        y = x @ [0.4, 0.3] + rng.normal(0, 0.2, 300)
        fit = ols_fit(complete(x, y, (-2.0, 3.0)))
        z = np.column_stack([np.ones(300), x])
        resid = y - z @ fit.beta
        expected = float(resid @ resid) / (300 - z.shape[1])
        np.testing.assert_allclose(fit.sigma2_hat, expected, rtol=1e-12)

    def test_singular_design_rejected(self):
        x = np.ones((10, 2))  # perfectly collinear columns
        with pytest.raises(DegenerateDesignError):
            ols_fit(complete(x, np.ones(10)))

    def test_too_few_rows_rejected(self):
        # the Gram check is the only size refusal; its message names the sizes
        for n in (0, 1):
            with pytest.raises(DegenerateDesignError, match=f"{n} rows and 3 columns"):
                ols_fit(complete(np.ones((n, 2)), np.ones(n)))


class TestMoments:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 257])
    def test_match_explicit_design(self, n, d):
        rng = RandomSource(n + d)
        x = rng.uniform(size=(n, d))
        y = rng.uniform(size=n)
        gram, zty, yty = _moments(x, y)
        z = np.column_stack([np.ones(n), x])
        p = d + 1
        assert gram.shape == (p, p) and zty.shape == (p,)
        np.testing.assert_allclose(gram, z.T @ z, rtol=1e-12, atol=0)
        np.testing.assert_allclose(zty, z.T @ y, rtol=1e-12, atol=0)
        np.testing.assert_allclose(yty, y @ y, rtol=1e-12, atol=0)
        if n == 0:
            assert not gram.any() and not zty.any() and yty == 0.0

    def test_fits_allocate_no_design(self):
        # 2e5 x 2 covariates: a design copy or a residual vector is >= 1.6 MB
        rng = RandomSource(4)
        x, y = rng.uniform(size=(200_000, 2)), rng.uniform(size=200_000)
        d = complete(x, y)
        d.complete_cases  # the one complete-case selection, made before the fits
        fits = [
            lambda: _moments(x, y),
            lambda: ols_fit(d),
            lambda: functional_mechanism_ols(d, 1.0, RandomSource(0)),
        ]
        for fit in fits:
            tracemalloc.start()
            try:
                fit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1e6


class TestFunctionalMechanism:
    def test_sensitivity_constant(self):
        assert functional_mechanism_sensitivity(2) == 16.0
        assert functional_mechanism_sensitivity(3) == 30.0

    def test_huge_epsilon_recovers_ols_intercept(self):
        rng = RandomSource(21)
        x = rng.uniform(size=(500, 2))
        y = np.clip(x @ [0.5, 0.5] + rng.normal(0, 0.1, 500), 0, 1)
        d = complete(x, y)
        fm = functional_mechanism_ols(d, 1e12, rng.split(0))
        ols = ols_fit(d)
        np.testing.assert_allclose(fm.beta, ols.beta, atol=1e-6)

    def test_empty_design_gives_bounded_fit(self):
        # no rows: the mechanism minimises pure noise, trimmed and clipped to
        # the coefficient box; ε-DP needs no size check
        x, y = np.empty((0, 2)), np.empty(0)
        # with [0, 1] responses, β = (tγ + e₀) / 2
        fit = functional_mechanism_ols(complete(x, y), 1.0, RandomSource(0))
        assert np.isfinite(fit.beta).all()
        assert np.abs(fit.beta[1:]).max() <= DEFAULT_COEF_BOUND
        assert abs(fit.beta[0]) <= (3 * DEFAULT_COEF_BOUND + 1) / 2

    def test_rejects_data_outside_its_range_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew noise for refused data")

        monkeypatch.setattr(mechanisms, "laplace_samples", no_draw)
        x = np.full((5, 2), 0.5)
        y = np.full(5, 0.5)
        bad_x = x.copy()
        bad_x[2, 1] = np.nan
        # data outside its domain never reaches the mechanism: the Dataset
        # it would read refuses a covariate outside [0, 1] ...
        with pytest.raises(ValueError, match=r"row 2 x2: value nan outside \[0.0, 1.0\]"):
            complete(bad_x, y)
        # ... and a response outside [a, b]
        for value in (50.0, -0.1, np.nan):
            bad_y = y.copy()
            bad_y[3] = value
            with pytest.raises(ValueError, match=r"outside \[0.0, 1.0\]"):
                complete(x, bad_y)
        with pytest.raises(ValueError, match=r"outside \[2.0, 3.0\]"):
            complete(x, y, (2.0, 3.0))

    def test_rejects_bad_epsilon_and_covariates(self):
        x = np.full((5, 1), 0.5)
        y = np.full(5, 0.5)
        for epsilon in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon"):
                functional_mechanism_ols(complete(x, y), epsilon, RandomSource(0))
        with pytest.raises(ValueError):
            functional_mechanism_ols(complete(x + 2.0, y), 1.0, RandomSource(0))

    def test_overflowing_noise_scale_refused(self):
        # Δ_FM/ε overflows to inf; refused with no RuntimeWarning (pytest
        # turns warnings into errors) and no eigensolver failure
        data = complete(np.full((5, 2), 0.5), np.full(5, 0.5))
        for epsilon in (1e-320, np.float64(1e-320)):
            with pytest.raises(ValueError, match="noise scale must lie in"):
                functional_mechanism_ols(data, epsilon, RandomSource(0))

    @pytest.mark.parametrize("d", [0, 2])
    def test_largest_accepted_scale_gives_finite_fit(self, d):
        rng = RandomSource(50)
        data = complete(rng.uniform(size=(50, d)), rng.uniform(size=50))
        epsilon = functional_mechanism_sensitivity(d + 1) / _MAX_SCALE
        for seed in range(20):
            fit = functional_mechanism_ols(data, epsilon, RandomSource(seed))
            assert np.isfinite(fit.beta).all()

    def test_deterministic_for_fixed_seed(self):
        rng_data = RandomSource(30)
        x = rng_data.uniform(size=(200, 2))
        y = np.clip(x @ [0.5, 0.5], 0, 1)
        a = functional_mechanism_ols(complete(x, y), 1.0, RandomSource(31))
        b = functional_mechanism_ols(complete(x, y), 1.0, RandomSource(31))
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.private and a.epsilon_spent == 1.0 and a.sigma2_hat == 0.0

    def test_first_order_optimality(self):
        rng = RandomSource(40)
        x = rng.uniform(size=(500, 2))
        y = x @ [0.5, 0.5]
        # (epsilon, stream, directions trimmed)
        for epsilon, stream, trimmed in [(10.0, 0, 0), (1.0, 5, 1)]:
            gamma, lam1, a = _perturbed_quadratic_min(
                x.T @ x, x.T @ y, epsilon, rng.split(stream)
            )
            assert np.abs(gamma).max() < 10.0  # coefficient box inactive
            w, v = np.linalg.eigh(a)
            kept = v[:, w > 1e-8]
            assert kept.shape[1] == 2 - trimmed
            # stationary on the kept directions; trimmed ones get no coefficient
            assert np.abs(kept.T @ (2.0 * a @ gamma + lam1)).max() < 1e-8
            assert np.abs(v[:, w <= 1e-8].T @ gamma).max(initial=0.0) < 1e-12

    @staticmethod
    def _stub_noise(monkeypatch, vector, first, rest):
        """Replace the Laplace draws by fixed noise: ``vector`` on every
        degree-1 coefficient, diag(first, rest, ..., rest) on the degree-2
        matrix."""
        def fixed(scale, size, rng):
            if isinstance(size, tuple):
                return np.diag([first] + [rest] * (size[0] - 1))
            return np.full(size, vector)
        monkeypatch.setattr(mechanisms, "laplace_samples", fixed)

    def test_negative_definite_noise_gives_midpoint(self, monkeypatch):
        # every direction is trimmed, so gamma = 0: the midpoint predictor
        self._stub_noise(monkeypatch, 0.0, -1e6, -1e6)
        x = RandomSource(42).uniform(size=(50, 2))
        y = x @ [0.5, 0.5]
        d = complete(x, y, (-1.0, 3.0))
        fit = functional_mechanism_ols(d, 1.0, RandomSource(0))
        np.testing.assert_array_equal(fit.beta, [1.0, 0.0, 0.0])

    def test_indefinite_noise_gives_bounded_fit(self, monkeypatch):
        self._stub_noise(monkeypatch, 1e6, -1e6, 0.0)
        x = RandomSource(43).uniform(size=(50, 2))
        y = x @ [0.5, 0.5]
        fit = functional_mechanism_ols(complete(x, y), 1.0, RandomSource(0))
        assert np.isfinite(fit.beta).all()
        gamma, _, a = _perturbed_quadratic_min(
            x.T @ x, x.T @ y, 1.0, RandomSource(0)
        )
        w = np.linalg.eigvalsh(a)
        assert w[0] < 0 < w[-1]
        assert np.abs(gamma).max() <= DEFAULT_COEF_BOUND

    def test_mean_beta_near_truth_at_benchmark_scale(self):
        # d=2, n=10,000, beta=(0.5,0.5), sigma2=0.1, eps=0.5: approximate
        # unbiasedness because coefficient noise is O(1) vs Gram entries O(n).
        # Clipping y into [0, 1] moves the fit off (0, 0.5, 0.5), so the
        # target is the mean OLS fit on the same data
        fm_betas, ols_betas = [], []
        for s in range(200):
            rng = RandomSource(1000 + s)
            x = rng.uniform(size=(10_000, 2))
            y = np.clip(x @ [0.5, 0.5] + rng.normal(0, np.sqrt(0.1), 10_000), 0, 1)
            d = complete(x, y)
            fm_betas.append(functional_mechanism_ols(d, 0.5, rng.split(0)).beta)
            ols_betas.append(ols_fit(d).beta)
        np.testing.assert_allclose(
            np.mean(fm_betas, axis=0), np.mean(ols_betas, axis=0), atol=0.05
        )
