import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    BudgetExceededError,
    Dataset,
    IncomparableDatasetsError,
    PrivacyBudget,
    RandomSource,
    Universe,
    hamming_distance,
    n_mis,
    read_dataset_csv,
    validate,
    write_dataset_csv,
)


def make_dataset(x, y, mask, universe=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if universe is None:
        universe = Universe.unit(x.shape[1])
    return Dataset(x, np.asarray(y, dtype=float), np.asarray(mask, dtype=bool), universe)


class TestUniverse:
    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            Universe((1.0, 1.0), ())

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            Universe((0.0, math.inf), ())

    def test_dim(self):
        assert Universe.unit(3).dim == 3


class TestNMis:
    def test_fully_observed(self):
        d = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, False])
        assert n_mis(d) == 0

    def test_direct_count(self):
        d = make_dataset([[0.1], [0.2], [0.3]], [0.3, 0.4, 0.5], [True, False, True])
        assert n_mis(d) == 2

    def test_missingness_rate_at_scale(self):
        # Pr(M=1) = X1 with X1 uniform: expected rate 1/2, binomial-scale spread
        from dpimpute import SimConfig, generate_population, inject_missingness

        cfg = SimConfig(runs=1, seed=11)
        rng = RandomSource(11)
        d = inject_missingness(generate_population(cfg, rng.split(0)), rng.split(1))
        assert abs(n_mis(d) - 5000) < 3 * math.sqrt(cfg.n * 0.25) * 3


class TestDataset:
    def test_frozen_arrays_are_shared(self):
        d = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, True])
        again = Dataset(d.covariates, d.response, d.mask, d.universe)
        assert again.covariates is d.covariates and again.mask is d.mask
        assert not again.response.flags.writeable

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_caller_writes_do_not_reach_dataset(self, read_only_view):
        x, y, m = np.array([[0.1], [0.2]]), np.array([0.3, 0.4]), np.zeros(2, bool)
        args = [x, y, m]
        if read_only_view:
            args = [a.view() for a in args]
            for a in args:
                a.setflags(write=False)
        d = Dataset(*args, Universe.unit(1))
        x[0, 0], y[0], m[0] = 0.9, 0.9, True
        assert (d.covariates[0, 0], d.response[0], d.mask[0]) == (0.1, 0.3, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_response_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_dataset([[0.1], [0.2]], [0.3, bad], [True, False])
        assert np.isnan(make_dataset([[0.1]], [bad], [True]).response[0])

    def test_derived_datasets_share_covariates(self):
        from dpimpute import (
            SimConfig, fit_imputation_model, generate_population, impute,
            inject_missingness,
        )

        d = generate_population(SimConfig(n=200, runs=1), RandomSource(0))
        masked = inject_missingness(d, RandomSource(1))
        model = fit_imputation_model(masked, privacy_epsilon=None)
        assert masked.covariates is d.covariates
        assert impute(masked, model).covariates is d.covariates


class TestHamming:
    def test_identity(self):
        d = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, True])
        assert hamming_distance(d, d) == 0

    def test_single_response_change(self):
        d1 = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, False])
        d2 = make_dataset([[0.1], [0.2]], [0.3, 0.9], [False, False])
        assert hamming_distance(d1, d2) == 1

    def test_sentinel_content_ignored(self):
        d1 = make_dataset([[0.1]], [0.3], [True])
        d2 = make_dataset([[0.1]], [0.9], [True])
        assert hamming_distance(d1, d2) == 0

    def test_mask_bit_differs(self):
        d1 = make_dataset([[0.1]], [0.3], [True])
        d2 = make_dataset([[0.1]], [0.3], [False])
        assert hamming_distance(d1, d2) == 1

    def test_shape_mismatch(self):
        d1 = make_dataset([[0.1]], [0.3], [False])
        d2 = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, False])
        with pytest.raises(IncomparableDatasetsError):
            hamming_distance(d1, d2)


@st.composite
def dataset_triples(draw):
    n = draw(st.integers(1, 6))
    vals = st.floats(0.0, 1.0, allow_nan=False)
    out = []
    for _ in range(3):
        x = [[draw(vals)] for _ in range(n)]
        y = [draw(vals) for _ in range(n)]
        m = [draw(st.booleans()) for _ in range(n)]
        out.append(make_dataset(x, y, m))
    return out


class TestHammingMetric:
    @settings(max_examples=60, deadline=None)
    @given(dataset_triples())
    def test_metric_on_record_sequences(self, triple):
        a, b, c = triple
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        assert (hamming_distance(a, a)) == 0

    @settings(max_examples=40, deadline=None)
    @given(dataset_triples(), st.randoms(use_true_random=False))
    def test_n_mis_permutation_invariant(self, triple, rnd):
        d = triple[0]
        perm = list(range(d.n))
        rnd.shuffle(perm)
        permuted = Dataset(
            d.covariates[perm], d.response[perm], d.mask[perm], d.universe
        )
        assert n_mis(permuted) == n_mis(d)


class TestValidate:
    def test_in_bounds_ok(self):
        d = make_dataset([[0.1], [0.9]], [0.2, 0.8], [False, False])
        assert validate(d) == []

    def test_out_of_bounds_response(self):
        d = make_dataset([[0.1], [0.9]], [1.5, 0.8], [False, False])
        v = validate(d)
        assert len(v) == 1 and v[0].row == 0 and v[0].column == "y"

    def test_out_of_bounds_covariate(self):
        d = make_dataset([[0.1], [1.9]], [0.5, 0.8], [False, False])
        v = validate(d)
        assert len(v) == 1 and v[0].row == 1 and v[0].column == "x1"

    def test_nan_covariate_flagged(self):
        # NaN fails both bound comparisons, so it must be caught explicitly
        d = make_dataset([[0.1], [np.nan]], [0.5, 0.8], [False, True])
        v = validate(d)
        assert len(v) == 1 and v[0].row == 1 and v[0].column == "x1"

    def test_masked_sentinel_is_ignored(self):
        # whatever value is stored under the mask, validation never reads it
        d = make_dataset([[0.1]], [0.7], [True])
        assert validate(d) == []

    def test_generator_output_always_valid(self):
        from dpimpute import SimConfig, generate_population, inject_missingness

        rng = RandomSource(3)
        cfg = SimConfig(n=500, runs=1)
        d = inject_missingness(generate_population(cfg, rng.split(0)), rng.split(1))
        assert validate(d) == []


class TestPrivacyBudget:
    def test_split_is_exact(self):
        for share in (0.1, 0.3, 0.5, 0.9):
            b = PrivacyBudget(1.0, imputation_share=share)
            assert b.epsilon_imputation + b.epsilon_analysis == b.epsilon_total

    def test_ledger_cannot_exceed_total(self):
        b = PrivacyBudget(1.0, imputation_share=0.5)
        b.spend("imputation", b.epsilon_imputation)
        b.spend("analysis", b.epsilon_analysis)
        with pytest.raises(BudgetExceededError):
            b.spend("extra", 0.01)

    def test_ledger_records_order(self):
        b = PrivacyBudget(2.0, imputation_share=0.25)
        b.spend("imputation", 0.5)
        b.spend("analysis", 1.5)
        assert b.ledger == (("imputation", 0.5), ("analysis", 1.5))

    @given(st.floats(0.0, 0.99), st.floats(1e-6, 100.0))
    def test_split_sums_within_documented_tolerance(self, share, total):
        b = PrivacyBudget(total, imputation_share=share)
        assert math.isclose(
            b.epsilon_imputation + b.epsilon_analysis,
            b.epsilon_total,
            rel_tol=1e-12,
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        with pytest.raises(ValueError, match="finite"):
            PrivacyBudget(math.inf)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, imputation_share=1.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        d = make_dataset(
            [[0.125, 0.5], [0.75, 0.25], [0.1, 0.9]],
            [0.3, 0.7, 0.2],
            [False, True, False],
            Universe.unit(2),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        text = path.read_text()
        assert text.splitlines()[0] == "x1,x2,y,missing"
        back = read_dataset_csv(path, d.universe)
        assert hamming_distance(d, back) == 0
        np.testing.assert_array_equal(back.mask, d.mask)

    def test_masked_rows_have_empty_response(self, tmp_path):
        d = make_dataset([[0.5]], [0.3], [True], Universe.unit(1))
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        assert path.read_text().splitlines()[1] == "0.5,,1"

    def test_text_is_repr_of_each_value(self, tmp_path):
        u = Universe((-1.0, 2e16), ((-1.0, 2e16),) * 2)
        d = Dataset(
            np.array([[-0.0, 5e-324], [1e16, 1 / 3], [0.25, 1.0]]),
            np.array([5e-324, 0.5, -0.0]),
            np.array([False, True, False]),
            u,
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        assert path.read_bytes() == (
            b"x1,x2,y,missing\n"
            b"-0.0,5e-324,5e-324,0\n"
            b"1e+16,0.3333333333333333,,1\n"
            b"0.25,1.0,-0.0,0\n"
        )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path, Universe.unit(1))
