import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpimpute import (
    BudgetExceededError,
    Dataset,
    PrivacyBudget,
    RandomSource,
    Universe,
    fit_imputation_model,
    impute,
    n_mis,
    read_dataset_csv,
    write_dataset_csv,
)
from dpimpute import core_data
from dpimpute.cli import _load_model, main
from dpimpute.core_data import COVARIATE_BOUNDS, _outside_universe
from oracles import IncomparableDatasetsError, hamming_distance


def make_dataset(x, y, mask, universe=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if universe is None:
        universe = Universe.unit()
    return Dataset(x, np.asarray(y, dtype=float), np.asarray(mask, dtype=bool), universe)


class TestUniverse:
    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            Universe((1.0, 1.0))

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            Universe((0.0, math.inf))


class TestNMis:
    def test_fully_observed(self):
        d = make_dataset([[0.1], [0.2]], [0.3, 0.4], [False, False])
        assert n_mis(d) == 0

    def test_direct_count(self):
        d = make_dataset([[0.1], [0.2], [0.3]], [0.3, 0.4, 0.5], [True, False, True])
        assert n_mis(d) == 2
        assert type(n_mis(d)) is int  # json-serialisable, unlike np.int64

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
        y = np.array([0.3, 0.4])
        y.setflags(write=False)
        full = Dataset(d.covariates, y, np.zeros(2, bool), d.universe)
        assert full.response is y

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_caller_writes_do_not_reach_dataset(self, read_only_view):
        x, y, m = np.array([[0.1], [0.2]]), np.array([0.3, 0.4]), np.zeros(2, bool)
        args = [x, y, m]
        if read_only_view:
            args = [a.view() for a in args]
            for a in args:
                a.setflags(write=False)
        d = Dataset(*args, Universe.unit())
        x[0, 0], y[0], m[0] = 0.9, 0.9, True
        assert (d.covariates[0, 0], d.response[0], d.mask[0]) == (0.1, 0.3, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_response_refused(self, bad):
        with pytest.raises(ValueError, match="outside the universe"):
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


class TestCompleteCases:
    def test_built_once_and_read_only(self, monkeypatch):
        built = []
        moments = core_data._moments
        monkeypatch.setattr(
            core_data, "_moments", lambda x, y: built.append(1) or moments(x, y)
        )
        d = make_dataset([[0.1], [0.2], [0.3]], [0.3, 0.4, 0.5], [False, True, False])
        stats = d.complete_cases
        assert d.complete_cases is stats and len(built) == 1
        gram, zty, yty = stats
        assert (gram[0, 0], zty[0]) == (2, 0.8)
        assert yty == pytest.approx(0.34)
        for a in (gram, zty):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_keeps_no_record_array(self):
        # the selected 2e5 x 2 covariates alone are 3.2 MB; the moments are bytes
        rng = RandomSource(3)
        x = rng.uniform(size=(200_000, 2))
        d = Dataset(x, rng.uniform(size=200_000), x[:, 0] < 0.5, Universe.unit())
        del x
        tracemalloc.start()
        try:
            d.complete_cases
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 0.1e6


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
    """Data outside the universe is refused where it enters: by `Dataset`
    for an observed response, by `read_dataset_csv` for a covariate."""

    def test_in_bounds_ok(self):
        d = make_dataset([[0.1], [0.9], [0.5]], [0.0, 1.0, 0.8], [False] * 3)
        assert d.response.tolist() == [0.0, 1.0, 0.8]

    def test_out_of_bounds_response(self):
        with pytest.raises(ValueError, match=(
            r"^1 value\(s\) outside the universe: "
            r"row 0 y: value 1\.5 outside \[0\.0, 1\.0\]$"
        )):
            make_dataset([[0.1], [0.9]], [1.5, 0.8], [False, False])

    def test_out_of_bounds_covariate(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,y,missing\n0.1,0.5,0\n1.9,0.8,0\n")
        with pytest.raises(ValueError, match=(
            r"^1 value\(s\) outside the universe: row 1 x1: value 1\.9 outside"
        )):
            read_dataset_csv(path, (0.0, 1.0))

    def test_nan_covariate_flagged(self, tmp_path):
        # NaN fails both bound comparisons, so the reader's min/max must
        # catch it; a Dataset itself does not check covariates
        path = tmp_path / "data.csv"
        path.write_text("x1,y,missing\n0.1,0.5,0\nnan,,1\n")
        with pytest.raises(ValueError, match=r"row 1 x1: value nan outside"):
            read_dataset_csv(path, (0.0, 1.0))

    def test_masked_sentinel_is_ignored(self):
        # whatever value is stored under the mask, the check never reads it
        for sentinel in (0.7, 50.0, -np.inf, np.nan):
            d = make_dataset([[0.1], [0.2]], [sentinel, 0.5], [True, False])
            assert np.isnan(d.response[0])

    def test_generator_output_always_valid(self):
        from dpimpute import SimConfig, generate_population, inject_missingness

        rng = RandomSource(3)
        cfg = SimConfig(n=500, runs=1)
        d = inject_missingness(generate_population(cfg, rng.split(0)), rng.split(1))
        again = Dataset(d.covariates, d.response, d.mask, Universe.unit())
        assert hamming_distance(d, again) == 0
        lo, hi = COVARIATE_BOUNDS
        assert lo <= d.covariates.min() and d.covariates.max() <= hi

    def test_all_masked_and_empty_are_valid(self):
        assert n_mis(make_dataset([[0.1], [0.2]], [9.0, -9.0], [True, True])) == 2
        empty = Dataset(np.empty((0, 2)), [], np.empty(0, bool), Universe.unit())
        assert empty.n == 0
        for n in (0, 3):  # no covariates: nothing to check against [0, 1]
            d = Dataset(np.empty((n, 0)), [0.5] * n, np.zeros(n, bool), Universe.unit())
            assert (d.n, d.d) == (n, 0)

    def test_nan_covariate_of_a_missing_record_refused(self):
        # the imputers read a missing record's covariates: a NaN there
        # would release nan at the full spend
        with pytest.raises(ValueError, match=r"row 3 x1: value nan outside \[0.0, 1.0\]"):
            make_dataset([[0.1], [0.5], [0.9], [np.nan]], [0.2, 0.4, 0.6, np.nan],
                         [False, False, False, True])

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_covariate_outside_domain_refused(self, bad, masked, d):
        x = np.full((4, d), 0.5)
        x[2, d - 1] = bad
        with pytest.raises(ValueError) as info:
            make_dataset(x, [0.5] * 4, [False, False, masked, True])
        assert str(info.value) == (
            f"1 value(s) outside the universe: row 2 x{d}: value {bad!r} "
            "outside [0.0, 1.0]"
        )

    def test_covariates_are_checked_before_the_response(self):
        with pytest.raises(ValueError) as info:
            make_dataset([[0.5, 1.5], [2.0, 0.5]], [7.0, 0.5], [False, False])
        assert str(info.value) == (
            "2 value(s) outside the universe: row 1 x1: value 2.0 outside "
            "[0.0, 1.0]; row 0 x2: value 1.5 outside [0.0, 1.0]"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats() | st.floats(-0.5, 1.5)
        | st.sampled_from([-0.0, 0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)]),
        st.booleans(),
    ), max_size=6))
    def test_constructs_iff_covariates_in_domain(self, records):
        # unlike a response, a covariate is checked under the mask too
        x = np.array([[v] for v, _ in records]).reshape(-1, 1)
        mask = [m for _, m in records]
        y = np.full(len(records), 0.5)
        lo, hi = COVARIATE_BOUNDS
        if all(lo <= v <= hi for v, _ in records):
            assert Dataset(x, y, mask, Universe.unit()).covariates.tolist() == x.tolist()
        else:
            with pytest.raises(ValueError, match="outside the universe"):
                Dataset(x, y, mask, Universe.unit())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats() | st.floats(-2.0, 3.0)
        | st.sampled_from([-1.0, 2.0, np.nextafter(-1.0, -2.0), np.nextafter(2.0, 3.0)]),
        st.booleans(),
    ), max_size=6))
    def test_constructs_iff_observed_responses_in_universe(self, records):
        # anything may sit under the mask: NaN, ±inf or a value outside [a, b]
        y = [v for v, _ in records]
        mask = [m for _, m in records]
        observed = [v for v, m in records if not m]
        x = np.zeros((len(records), 1))
        u = Universe((-1.0, 2.0))
        if all(-1.0 <= v <= 2.0 for v in observed):
            d = Dataset(x, y, mask, u)
            assert d.response[~d.mask].tolist() == observed
        else:
            with pytest.raises(ValueError, match="outside the universe"):
                Dataset(x, y, mask, u)


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

    def test_tiny_budget_cannot_be_overspent(self):
        # the rounding slack is relative: eleven spends of 1e-13 used to fit
        b = PrivacyBudget(1e-13)
        b.spend("first", 1e-13)
        with pytest.raises(BudgetExceededError):
            b.spend("second", 1e-13)
        b = PrivacyBudget(1e-306, imputation_share=0.9)
        b.spend("imputation", b.epsilon_imputation)
        with pytest.raises(BudgetExceededError):
            b.spend("imputation", b.epsilon_imputation)

    @given(st.floats(0.0, 0.99),
           st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1e-306, 1e-13]))
    def test_both_shares_fit_any_budget(self, share, total):
        b = PrivacyBudget(total, imputation_share=share)
        b.spend("imputation", b.epsilon_imputation)
        b.spend("analysis", b.epsilon_analysis)

    def test_spend_refuses_non_finite_epsilon(self):
        # a NaN entry would make every later budget comparison false
        b = PrivacyBudget(1.0)
        for bad in (math.nan, math.inf, -0.5, True, "0.5"):
            with pytest.raises(ValueError, match="finite"):
                b.spend("x", bad)
        assert b.ledger == ()
        with pytest.raises(BudgetExceededError):
            b.spend("y", 5.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        with pytest.raises(ValueError, match="finite"):
            PrivacyBudget(math.inf)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, imputation_share=1.0)

    @pytest.mark.parametrize("share", [False, True, math.nan, math.inf, "0.5", None])
    def test_share_must_be_a_finite_number(self, share):
        with pytest.raises(ValueError, match="imputation share must lie in"):
            PrivacyBudget(1.0, imputation_share=share)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        d = make_dataset(
            [[0.125, 0.5], [0.75, 0.25], [0.1, 0.9]],
            [0.3, 0.7, 0.2],
            [False, True, False],
            Universe.unit(),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        text = path.read_text()
        assert text.splitlines()[0] == "x1,x2,y,missing"
        back = read_dataset_csv(path, d.universe.response_bounds)
        assert hamming_distance(d, back) == 0
        np.testing.assert_array_equal(back.mask, d.mask)

    def test_masked_rows_have_empty_response(self, tmp_path):
        d = make_dataset([[0.5]], [0.3], [True], Universe.unit())
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        assert path.read_text().splitlines()[1] == "0.5,,1"

    def test_text_is_repr_of_each_value(self, tmp_path):
        u = Universe((-1.0, 2e16))
        d = Dataset(
            np.array([[-0.0, 5e-324], [5e-324, 1 / 3], [0.25, 1.0]]),
            np.array([1e16, 0.5, -0.0]),
            np.array([False, True, False]),
            u,
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(d, path)
        assert path.read_bytes() == (
            b"x1,x2,y,missing\n"
            b"-0.0,5e-324,1e+16,0\n"
            b"5e-324,0.3333333333333333,,1\n"
            b"0.25,1.0,-0.0,0\n"
        )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path, (0.0, 1.0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_header_gives_dimension(self, tmp_path, d):
        u = Universe((-2.0, 5.0))
        x = np.linspace(0.0, 1.0, 2 * d).reshape(2, d)
        data = make_dataset(x, [-1.5, 4.0], [False, True], u)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path, (-2.0, 5.0))
        assert back.universe == u
        assert hamming_distance(data, back) == 0


def read_with_csv_reader(path, response_bounds):
    """The per-row csv.reader loop that read_dataset_csv replaced, kept as
    the oracle for its results and its error messages."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        d = len(header or ()) - 2
        expected = [f"x{j + 1}" for j in range(d)] + ["y", "missing"]
        if header != expected:
            raise ValueError(f"bad CSV header {header!r}, expected {expected!r}")
        universe = Universe(tuple(response_bounds))
        xs, ys, ms = [], [], []
        for row in r:
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(
                    f"line {r.line_num}: expected {d + 2} fields, got {len(row)}"
                )
            if row[d + 1] not in ("0", "1"):
                raise ValueError(f"line {r.line_num}: missing must be 0 or 1")
            missing = row[d + 1] == "1"
            try:
                xs.append([float(v) for v in row[:d]])
                ys.append(np.nan if missing else float(row[d]))
            except ValueError as exc:
                raise ValueError(f"line {r.line_num}: {exc}") from None
            ms.append(missing)
    if not ms:
        raise ValueError("no records after the header")
    x = np.array(xs)
    lo, hi = COVARIATE_BOUNDS
    if x.size and not (lo <= x.min() and x.max() <= hi):
        raise _outside_universe(zip(expected, x.T), lo, hi)
    return Dataset(x, np.array(ys), np.array(ms), universe)


def outcome(reader, path, bounds):
    """The bits a reader returns, or the text of the ValueError it raises."""
    try:
        d = reader(path, bounds)
    except ValueError as exc:
        return "error", str(exc)
    assert d.covariates.dtype == d.response.dtype == np.float64
    return (d.covariates.shape, d.covariates.tobytes(), d.response.tobytes(),
            d.mask.tolist(), d.universe)


BOUNDS = (-1.0, 2e16)
SPECIALS = ["5e-324", "-0.0", "0.0", "1.0"]


def generated_lines(rng, d, n):
    """Header plus n records: specials mixed with repr of uniform draws,
    some rows masked; 1e16 can appear as a response only."""
    def value(extra=()):
        pool = SPECIALS + list(extra)
        if rng.random() < 0.4:
            return pool[rng.integers(len(pool))]
        return repr(float(rng.random()))

    lines = [",".join([f"x{j + 1}" for j in range(d)] + ["y", "missing"])]
    for _ in range(n):
        masked = bool(rng.random() < 0.3)
        y = "" if masked else value(["1e16", "1e+16"])
        lines.append(",".join([value() for _ in range(d)] + [y, "01"[masked]]))
    return lines


def corrupt(rng, lines, kind):
    """Break one record line; "two bad lines" gives one an extra field and a
    later one the flag ``yes``."""
    hows = ["extra field", "flag yes"] if kind == "two bad lines" else [kind]
    rows = sorted(rng.choice(np.arange(1, len(lines)), size=len(hows), replace=False))
    lines = list(lines)
    for t, how in zip(rows, hows):
        f = lines[t].split(",")
        if how == "short row":
            f = f[1:]  # never empty: a masked d = 0 row is ",1"
        elif how == "extra field":
            f.append("extra")
        elif how == "flag yes":
            f[-1] = "yes"
        elif how == "covariate abc":
            f[0] = "abc"
        elif how == "empty observed y":
            f[-2:] = ["", "0"]
        lines[t] = ",".join(f)
    return lines


def layout(rng, lines, style):
    """The file bytes of ``lines``: as written, or with spaces around some
    values (never a flag) and blank lines after some lines."""
    if style != "plain":
        spaced = [lines[0]]
        for ln in lines[1:]:
            *values, flag = ln.split(",")
            values = [f" {v}  " if v and rng.random() < 0.5 else v for v in values]
            spaced.append(",".join([*values, flag]))
            if rng.random() < 0.2:
                spaced.extend([""] * int(rng.integers(1, 3)))
        lines = spaced
    sep = "\r\n" if style == "crlf" else "\n"
    return (sep.join(lines) + sep).encode()


class TestReaderEquivalence:
    """The whole-file parse returns the csv.reader loop's bits or raises its
    message, on seeded generated files."""

    @pytest.mark.parametrize("d, kind", [
        (d, kind)
        for d in (0, 1, 3)
        for kind in (None, "short row", "extra field", "flag yes", "covariate abc",
                     "empty observed y", "two bad lines")
        if d or kind != "covariate abc"  # d = 0 has no covariate field
    ])
    def test_same_dataset_or_same_error(self, tmp_path, d, kind):
        path = tmp_path / "data.csv"
        for seed in range(3):
            rng = np.random.default_rng([seed, d])
            lines = generated_lines(rng, d, 40)
            if kind:
                lines = corrupt(rng, lines, kind)
            for style in ("plain", "padded", "crlf"):
                path.write_bytes(layout(rng, lines, style))
                new = outcome(read_dataset_csv, path, BOUNDS)
                assert new == outcome(read_with_csv_reader, path, BOUNDS)
                assert (new[0] == "error") == (kind is not None)

    @pytest.mark.parametrize("text", [
        "", "\n", "\nx1,y,missing\n0.5,0.5,0\n", "x1,y,missing", "x1,y,missing\n\n\n",
        "x1,y,missing\n0.5,0.5,0\n1.5,0.5,0\n", "y,missing\n0.5,0\n,1\n",
        "x1,y\n0.5,0.5\n", "x1,y,missing\r\n\r\n0.5,,1\r0.25,0.5,0",
        "x1,y,missing\n 0.5 ,\t1_0 ,0\n", "x1,y,missing\n-inf,nan,0\n",
        "x1,y,missing\n0.5\x0c,0.5\x1c,0\n0.25\u2028,,1\n",  # no split at \f, \x1c or \u2028
    ])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert (outcome(read_dataset_csv, path, BOUNDS)
                == outcome(read_with_csv_reader, path, BOUNDS))


class TestReaderEdges:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return path

    def read(self, tmp_path, text):
        return read_dataset_csv(self.write(tmp_path, text), (0.0, 1.0))

    def test_blank_line_before_bad_row_gives_physical_line(self, tmp_path):
        with pytest.raises(ValueError, match=(
            r"^line 5: could not convert string to float: 'abc'$"
        )):
            self.read(tmp_path, "x1,y,missing\n0.1,0.2,0\n\n\n0.3,abc,0\n")

    def test_first_of_two_bad_lines_is_reported(self, tmp_path):
        with pytest.raises(ValueError, match=r"^line 3: missing must be 0 or 1$"):
            self.read(tmp_path, "x1,y,missing\n0.1,0.2,0\n0.1,0.2,yes\n0.3\n")

    def test_masked_response_field_is_unread(self, tmp_path):
        d = self.read(tmp_path, "x1,y,missing\n0.3,abc,1\n0.1,0.2,0\n")
        assert d.mask.tolist() == [True, False]
        assert d.response[1] == 0.2

    def test_crlf_and_lf_give_same_dataset(self, tmp_path):
        text = "x1,x2,y,missing\n0.1,0.2,0.3,0\n\n0.4,0.5,,1\n0.6,0.7,0.8,0\n"
        lf = self.write(tmp_path, text, "lf.csv")
        crlf = self.write(tmp_path, text.replace("\n", "\r\n"), "crlf.csv")
        got = outcome(read_dataset_csv, lf, (0.0, 1.0))
        assert got == outcome(read_dataset_csv, crlf, (0.0, 1.0))
        assert got[0] == (3, 2) and got[3] == [False, True, False]

    def test_quoted_field_refused(self, tmp_path):
        # no quoting: the writer never quotes; csv.reader used to unquote
        path = self.write(tmp_path, 'x1,y,missing\n0.1,"0.5",0\n')
        with pytest.raises(ValueError, match=(
            r"""^line 2: could not convert string to float: '"0\.5"'$"""
        )):
            read_dataset_csv(path, (0.0, 1.0))
        assert read_with_csv_reader(path, (0.0, 1.0)).response.tolist() == [0.5]

    def test_covariates_are_shared_not_copied(self, tmp_path, monkeypatch):
        shared, frozen = [], core_data._frozen

        def spy(a, dtype):
            out = frozen(a, dtype)
            shared.append(out is a)
            return out

        monkeypatch.setattr(core_data, "_frozen", spy)
        d = self.read(tmp_path, "x1,y,missing\n0.1,0.2,0\n0.4,,1\n")
        assert shared == [True, True, True]  # covariates, mask, response
        assert not d.covariates.flags.writeable
        assert d.covariates.base is None


def write_with_rows(d, path):
    """The per-row repr writer that impute's record copy replaced, kept as
    the oracle for the bytes of every file it writes."""
    header = [f"x{j + 1}" for j in range(d.d)] + ["y", "missing"]
    rows = zip(d.covariates.tolist(), d.response.tolist(), d.mask.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            ",".join([*map(repr, x), "" if m else repr(y), "1" if m else "0"]) + "\n"
            for x, y, m in rows
        )


def oracle_dataset(d, missing, n=60):
    """Uniform draws with the specials 5e-324, -0.0, 1/3 and 1.0 in front;
    no, some or all responses missing."""
    rng = np.random.default_rng([d, ["none", "some", "all"].index(missing)])
    x, y = rng.uniform(size=(n, d)), rng.uniform(size=n)
    x.flat[:4] = [5e-324, -0.0, 1 / 3, 1.0][: x.size]
    y[:4] = [1.0, -0.0, 5e-324, 1 / 3]
    mask = {"none": np.zeros(n, bool), "some": rng.uniform(size=n) < 0.4,
            "all": np.ones(n, bool)}[missing]
    return Dataset(x, y, mask, Universe.unit())


class TestWriterOracle:
    """Every file the per-row writer writes comes back byte for byte, from
    ``write_dataset_csv`` itself and from ``impute``'s record copy."""

    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("missing", ["none", "some", "all"])
    def test_writer_matches_rows(self, tmp_path, d, missing):
        data = oracle_dataset(d, missing)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_dataset_csv(data, new)
        write_with_rows(data, old)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("missing", ["none", "some", "all"])
    @pytest.mark.parametrize("mode", ["ols", "private", "model", "stochastic"])
    def test_impute_matches_rows_of_completed(self, tmp_path, d, missing, mode):
        data, out, ref = (tmp_path / f for f in ("data.csv", "out.csv", "ref.csv"))
        model = tmp_path / "model.json"
        write_with_rows(oracle_dataset(d, missing), data)
        beta = [0.2] + [0.6 / max(d, 1)] * d
        model.write_text(json.dumps({"beta": beta, "private": False,
                                     "epsilon_spent": 0.0}))
        flags = {"ols": [], "private": ["--privacy-epsilon", "1"],
                 "model": ["--model", str(model)], "stochastic": ["--stochastic"]}[mode]
        code = main(["impute", "--data", str(data), "--out", str(out), "--seed", "5",
                     *flags])
        read, rng = read_dataset_csv(data, (0.0, 1.0)), RandomSource(5)
        try:  # cmd_impute's pipeline
            fitted = _load_model(str(model), read) if mode == "model" else (
                fit_imputation_model(read, 1.0 if mode == "private" else None,
                                     rng.split(0), stochastic=mode == "stochastic"))
            completed = impute(read, fitted, rng.split(1))
        except ValueError:  # an OLS fit on no complete case
            assert (code, missing, mode in ("ols", "stochastic")) == (3, "all", True)
            assert not out.exists()
            return
        assert code == 0
        write_with_rows(completed, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_records_must_be_those_of_a_completed_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        write_with_rows(oracle_dataset(1, "some"), path)
        data, records = core_data._read_records(path, (0.0, 1.0))
        completed = impute(data, fit_imputation_model(data, None), None)
        with pytest.raises(ValueError, match="records must be"):
            write_dataset_csv(data, path, records)  # still has missing responses
        with pytest.raises(ValueError, match="records must be"):
            write_dataset_csv(completed, path, records[1:])
        write_dataset_csv(completed, path, records)
        assert outcome(read_dataset_csv, path, (0.0, 1.0)) == outcome(
            lambda *a: completed, path, None)
