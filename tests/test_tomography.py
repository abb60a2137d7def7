import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ebrsim.core import (
    InvalidParameter,
    json_obj,
    maximally_mixed,
    pure_state,
    singlet_vector,
)
from ebrsim.metrics import concurrence, fidelity
from ebrsim.protocol import ChannelConfig, distinguishable, run_protocol
from ebrsim import tomography
from ebrsim.tomography import (
    MAX_TRIALS,
    Counts,
    RankDeficient,
    UncertaintyReport,
    UnusableCounts,
    _bootstrap_counts,
    _design_matrix,
    _PAULI_BASIS,
    _invert,
    _pauli_sum,
    _rates,
    counts_from_csv,
    counts_to_csv,
    error_bars,
    projector,
    reconstruct,
    simulate_counts,
    standard_settings,
)


DATA = Path(__file__).parent / "data"


def setting_rate(state, setting):
    """Reference rate ``max(Tr(rho P_a (x) P_b), 0)`` of one analyzer pair, for ``_rates``."""
    a, b = setting
    pi = np.kron(projector(a), projector(b))
    return max(float(np.trace(state @ pi).real), 0.0)


def columns(counts):
    """A counts record as plain lists, for ``==`` between records."""
    return counts.settings, counts.expected_rate.tolist(), counts.observed.tolist()


@pytest.fixture(scope="module")
def stage2_state():
    # the protocol output used for calibration below: C = 0.308
    return run_protocol(ChannelConfig(scenario=distinguishable(), T=0.4))[1].state


def exact_counts(state, total=500.0, minimal=False):
    settings = standard_settings(minimal)
    scale = 4.0 * total / len(settings)
    normalized = state / np.trace(state).real
    rates = np.array([setting_rate(normalized, s) for s in settings])
    return Counts(settings, rates, scale * rates)


class TestSettings:
    def test_overcomplete_set(self):
        settings = standard_settings()
        assert type(settings) is tuple and len(settings) == 36
        assert ("H", "H") in settings
        assert ("L", "D") in settings
        assert len(set(settings)) == 36

    def test_minimal_set(self):
        settings = standard_settings(minimal=True)
        assert len(settings) == 16
        assert all(a in "HVDR" and b in "HVDR" for a, b in settings)

    def test_order_is_deterministic(self):
        assert standard_settings() == standard_settings()
        assert standard_settings()[0] == ("H", "H")

    def test_projectors_are_rank_one(self):
        for label in "HVDARL":
            pi = projector(label)
            assert np.trace(pi).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(pi, pi.conj().T, atol=1e-12)
            assert np.allclose(pi @ pi, pi, atol=1e-12)


class TestRates:
    def test_isotropy_of_the_mixed_state(self):
        rho = maximally_mixed(4)
        rates = [setting_rate(rho, s) for s in standard_settings()]
        assert all(r == pytest.approx(0.25, abs=1e-12) for r in rates)

    def test_singlet_never_coincides_in_hh(self):
        rho = pure_state(singlet_vector())
        assert setting_rate(rho, ("H", "H")) == pytest.approx(0.0, abs=1e-12)

    def test_basis_rates_sum_to_one(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho).real
        total = sum(setting_rate(rho, (a, b)) for a in "HV" for b in "HV")
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("minimal", [False, True])
    def test_stacked_rates_equal_setting_rate(self, minimal):
        rng = np.random.default_rng(30)
        settings = standard_settings(minimal)
        states = [pure_state(singlet_vector()), maximally_mixed(4)]
        for _ in range(60):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            states.append(rho / np.trace(rho).real)
        for rho in states:
            assert _rates(rho, settings).tolist() == [
                setting_rate(rho, s) for s in settings
            ]


class TestSimulateCounts:
    @pytest.mark.parametrize("minimal", [False, True])
    def test_one_draw_equals_a_draw_per_setting(self, stage2_state, minimal):
        normalized = stage2_state / np.trace(stage2_state).real
        settings = standard_settings(minimal)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scale = 4.0 * 2000 / len(settings)
            rates = [setting_rate(normalized, s) for s in settings]
            loop = [int(rng.poisson(scale * rate)) for rate in rates]
            counts = simulate_counts(stage2_state, 2000, seed, minimal)
            assert columns(counts) == (settings, rates, loop)

    def test_deterministic_per_seed(self, stage2_state):
        a = columns(simulate_counts(stage2_state, 500, seed=9))
        b = columns(simulate_counts(stage2_state, 500, seed=9))
        assert a == b
        c = columns(simulate_counts(stage2_state, 500, seed=10))
        assert a != c

    def test_total_counts_near_budget(self, stage2_state):
        total = 100000
        observed = int(simulate_counts(stage2_state, total, seed=1).observed.sum())
        # grand total is Poisson with mean ~ total for the 36-setting scheme
        assert abs(observed - total) < 5 * np.sqrt(total)

    def test_singlet_hh_observes_zero(self):
        rho = pure_state(singlet_vector())
        counts = simulate_counts(rho, 10000, seed=2)
        hh = counts.settings.index(("H", "H"))
        assert counts.expected_rate[hh] == pytest.approx(0.0, abs=1e-12)
        assert counts.observed[hh] == 0

    @pytest.mark.parametrize("minimal", [False, True])
    def test_records_follow_standard_settings(self, stage2_state, minimal):
        counts = simulate_counts(stage2_state, 500, seed=3, minimal=minimal)
        assert counts.settings == standard_settings(minimal)
        assert counts.expected_rate.dtype == np.float64
        assert counts.observed.dtype == np.int64

    @pytest.mark.parametrize(
        "state,match",
        [
            (np.eye(2) / 2, r"\(4, 4\) state, got shape \(2, 2\)"),
            (np.ones((2, 3)), r"got shape \(2, 3\)"),
            (np.diag([np.nan, 0.5, 0.5, 0.0]), "non-finite"),
            (np.diag([0.25, 0.25, 0.25, np.inf]), "non-finite"),
            (np.diag([0.25, complex(0.25, -np.inf), 0.25, 0.25]), "non-finite"),
        ],
        ids=["2x2", "2x3", "nan", "inf", "imaginary-inf"],
    )
    def test_state_must_be_a_finite_4x4_matrix(self, state, match):
        with pytest.raises(InvalidParameter, match=match):
            simulate_counts(state, 500, seed=0)

    def test_state_may_be_any_4x4_array_like(self):
        # a nested list and a real array count as their complex128 matrix does
        m = np.diag([0.1, 0.2, 0.3, 0.4])
        reference = columns(simulate_counts(m.astype(np.complex128), 500, seed=4))
        assert columns(simulate_counts(m, 500, seed=4)) == reference
        assert columns(simulate_counts(m.tolist(), 500, seed=4)) == reference

    def test_input_validation(self, stage2_state):
        with pytest.raises(ValueError):
            simulate_counts(maximally_mixed(2), 500, seed=0)
        for total in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                simulate_counts(stage2_state, total, seed=0)
        # numpy's Poisson sampler fails near a mean of 1e19 per setting
        with pytest.raises(InvalidParameter, match="expected counts per setting"):
            simulate_counts(stage2_state, 1e300, seed=0)


def pauli_loop(components):
    """Reference ``sum_k c_k S_k / 4`` of ``(n, 16)`` components: one whole ``(n, 4, 4)`` term a ``k``."""
    rho = np.zeros((len(components), 4, 4), dtype=np.complex128)
    for k in range(16):
        rho += components[:, k, None, None] * _PAULI_BASIS[k]
    rho /= 4.0
    return rho


class TestPauliSum:
    @pytest.mark.parametrize("rows", [1, 200])
    def test_gather_equals_the_loop_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        signs = rng.choice([-1.0, 1.0], (rows, 16))
        # a row's magnitudes span one decade around a scale from 1e-298 to 1e298, so
        # a diagonal entry's four terms round differently when added in another order
        scales = rng.uniform(-298.0, 298.0, (rows, 1))
        components = signs * 10.0 ** (scales + rng.uniform(-0.5, 0.5, (rows, 16)))
        # then rows whose magnitudes run from 1e-300 to 1e300, rows of small integers,
        # whose terms cancel to exact zeros, and rows whose diagonal terms are all -0.0
        components[1::4] = signs[1::4] * 10.0 ** rng.uniform(-300.0, 300.0, (rows // 4, 16))
        components[2::4] = rng.integers(-2, 3, (rows // 4, 16))
        components[3::4, [0, 3, 12, 15]] = -0.0
        components[:, 6], components[:, 9] = -0.0, 0.0  # zeros of both signs in every row
        got, want = _pauli_sum(components), pauli_loop(components)
        assert got.shape == want.shape == (rows, 4, 4) and got.dtype == np.complex128
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestReconstruct:
    def test_inversion_identity_on_exact_rates(self, stage2_state):
        normalized = stage2_state / np.trace(stage2_state).real
        result = reconstruct(exact_counts(stage2_state))
        assert np.max(np.abs(result.state - normalized)) < 1e-10
        assert result.scale == pytest.approx(4.0 * 500 / 36, rel=1e-12)
        assert result.clipped_weight < 1e-12

    def test_minimal_settings_also_invert(self, stage2_state):
        normalized = stage2_state / np.trace(stage2_state).real
        result = reconstruct(exact_counts(stage2_state, minimal=True))
        assert np.max(np.abs(result.state - normalized)) < 1e-10

    def test_output_is_always_physical(self, stage2_state):
        for seed in range(10):
            m = reconstruct(simulate_counts(stage2_state, 300, seed=seed)).state
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-10
            assert abs(np.trace(m) - 1.0) <= 1e-12

    def test_background_subtraction(self, stage2_state):
        counts = exact_counts(stage2_state)
        shifted = Counts(counts.settings, counts.expected_rate, counts.observed + 7.0)
        clean = reconstruct(counts)
        corrected = reconstruct(shifted, background=7.0)
        assert np.allclose(corrected.state, clean.state, atol=1e-12)

    @pytest.mark.parametrize("background", [float("nan"), float("inf"), -3.0])
    def test_background_must_be_nonnegative_and_finite(self, stage2_state, background):
        with pytest.raises(InvalidParameter, match="background must be nonnegative and finite"):
            reconstruct(exact_counts(stage2_state), background=background)

    def test_design_cache_is_bounded(self, stage2_state):
        counts = exact_counts(stage2_state)
        reference = reconstruct(counts).state
        rng = np.random.default_rng(14)
        for _ in range(20):
            order = rng.permutation(len(counts.settings))
            shuffled = Counts(
                tuple(counts.settings[i] for i in order),
                counts.expected_rate[order],
                counts.observed[order],
            )
            assert np.allclose(reconstruct(shuffled).state, reference, atol=1e-12)
        info = _design_matrix.cache_info()
        assert info.maxsize == 8
        assert info.currsize <= 8

    def test_zero_counts_cannot_be_calibrated(self):
        counts = Counts(standard_settings(), np.zeros(36), np.zeros(36, dtype=np.int64))
        with pytest.raises(ValueError, match="calibrate"):
            reconstruct(counts)

    def test_overflowing_counts_are_typed(self):
        # the scale sums to +inf; any numpy overflow warning would fail this test
        counts = Counts(standard_settings(), np.zeros(36), np.full(36, 1e308))
        with pytest.raises(UnusableCounts, match="too large"):
            reconstruct(counts)

    @pytest.mark.parametrize("fill", [0.0, -1e-3], ids=["zero", "negative"])
    def test_projection_without_weight_is_typed(self, monkeypatch, stage2_state, fill):
        # no finite counts record gets here, so eigh is made to return no positive
        # eigenvalue: the clipped weights sum to zero and the guard names the counts
        eigh = np.linalg.eigh

        def weightless(matrices):
            vals, vecs = eigh(matrices)
            return np.full_like(vals, fill), vecs

        monkeypatch.setattr(np.linalg, "eigh", weightless)
        with pytest.raises(UnusableCounts, match="^projection removed all weight; counts are "
                                                 "unusable$"):
            reconstruct(exact_counts(stage2_state))

    @pytest.mark.parametrize("minimal", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 200])
    def test_stacked_product_equals_per_row_products(self, stage2_state, minimal, rows):
        settings = tuple(standard_settings(minimal))
        _, pinv = _design_matrix(settings)
        counts = _bootstrap_counts(_rates(stage2_state, settings) * 500.0, rows, seed=rows)
        # the stacked product _invert takes, against one matrix-vector product per row
        stacked = np.matmul(pinv, counts[:, :, None])[:, :, 0]
        assert np.array_equal(stacked, np.array([pinv @ row for row in counts]))
        states, scales, clipped = _invert(settings, counts)
        assert np.array_equal(scales, stacked[:, 0])
        for i in range(rows):
            one = _invert(settings, counts[i:i + 1])
            assert np.array_equal(states[i], one[0][0])
            assert scales[i] == one[1][0] and clipped[i] == one[2][0]

    @pytest.mark.parametrize("rows", [1, 200])
    def test_overflowing_background_is_typed(self, rows):
        # counts near -1e308, as background = 1e308 leaves them: the scale sums
        # to -inf, and any numpy overflow warning would fail this test
        settings = tuple(standard_settings())
        with pytest.raises(UnusableCounts, match="calibrate"):
            _invert(settings, np.full((rows, len(settings)), -1e308))

    def test_rank_deficient_settings_raise(self, stage2_state):
        with pytest.raises(RankDeficient):
            reconstruct(Counts((("H", "H"),) * 20, np.full(20, 0.1), np.full(20, 10)))
        exact = exact_counts(stage2_state)
        with pytest.raises(RankDeficient):
            reconstruct(Counts(exact.settings[:10], exact.expected_rate[:10], exact.observed[:10]))


class TestCalibration:
    """Monte Carlo behavior frozen from calibration runs of this pipeline."""

    def test_median_fidelity_at_experimental_budget(self, stage2_state):
        fids = []
        for seed in range(60):
            result = reconstruct(simulate_counts(stage2_state, 500, seed=seed))
            fids.append(fidelity(result.state, stage2_state))
        assert float(np.median(fids)) >= 0.90

    def test_concurrence_window_needs_larger_budget(self, stage2_state):
        # at 500 triples the projection biases the concurrence well below
        # the true 0.308; the +-0.1 window only becomes reliable by ~10^4
        small = []
        large = []
        for seed in range(60):
            res = reconstruct(simulate_counts(stage2_state, 500, seed=seed))
            small.append(concurrence(res.state).value)
            res = reconstruct(simulate_counts(stage2_state, 20000, seed=seed))
            large.append(concurrence(res.state).value)
        assert 0.10 <= float(np.median(small)) <= 0.25
        in_window = np.mean([abs(c - 0.308) <= 0.1 for c in large])
        assert in_window >= 0.85

    def test_reconstruction_error_shrinks_with_budget(self, stage2_state):
        normalized = stage2_state / np.trace(stage2_state).real
        medians = []
        for total in (10**3, 10**4, 10**5):
            dists = []
            for seed in range(25):
                res = reconstruct(simulate_counts(stage2_state, total, seed=seed))
                diff = res.state - normalized
                dists.append(0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2]


class TestErrorBars:
    def test_deterministic_given_seed(self, stage2_state):
        counts = simulate_counts(stage2_state, 500, seed=4)
        result = reconstruct(counts)
        a = error_bars(result, counts, trials=20, seed=5)
        b = error_bars(result, counts, trials=20, seed=5)
        assert a == b

    def test_scale_spread_follows_counting_statistics(self, stage2_state):
        # relative scale error = 1/sqrt(total counts) for Poisson triples
        for total in (10**3, 10**4):
            counts = simulate_counts(stage2_state, total, seed=6)
            result = reconstruct(counts)
            report = error_bars(result, counts, trials=300, seed=6)
            predicted = 1.0 / np.sqrt(total)
            assert abs(report.probability_std - predicted) <= 0.2 * predicted

    def test_spreads_vanish_with_infinite_counts(self, stage2_state):
        counts = simulate_counts(stage2_state, 10**8, seed=7)
        result = reconstruct(counts)
        report = error_bars(result, counts, trials=30, seed=7)
        assert report.fidelity_std < 1e-3
        assert report.concurrence_std < 1e-2
        assert report.probability_std < 1e-3
        assert report.probability_mean == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("minimal", [False, True])
    def test_batch_equals_per_trial_loop(self, stage2_state, minimal):
        counts = simulate_counts(stage2_state, 2000, seed=13, minimal=minimal)
        result = reconstruct(counts)
        trials, seed = 40, 13
        expected = [result.scale * setting_rate(result.state, s) for s in counts.settings]
        # one bootstrap generator, one trial after another
        g = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        fids, cons, probs = [], [], []
        for _ in range(trials):
            observed = g.poisson(expected)
            trial = reconstruct(Counts(counts.settings, np.zeros(len(observed)), observed))
            fids.append(fidelity(result.state, trial.state))
            cons.append(concurrence(trial.state).value)
            probs.append(trial.scale / result.scale)
        assert error_bars(result, counts, trials=trials, seed=seed) == UncertaintyReport(
            fidelity_mean=float(np.mean(fids)),
            fidelity_std=float(np.std(fids, ddof=1)),
            concurrence_mean=float(np.mean(cons)),
            concurrence_std=float(np.std(cons, ddof=1)),
            probability_mean=float(np.mean(probs)),
            probability_std=float(np.std(probs, ddof=1)),
            trials=trials,
        )

    @pytest.mark.parametrize("seed", [0, 13, 2**31 - 1])
    def test_bootstrap_stream_is_not_the_observed_stream(self, seed):
        def first_words(rng):
            return rng.bit_generator.random_raw(4)

        # SeedSequence pads its entropy with zeros: default_rng([seed, 0]) is default_rng(seed)
        observed = first_words(np.random.default_rng(seed))
        assert (first_words(np.random.default_rng([seed, 0])) == observed).all()
        bootstrap = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        assert not (first_words(bootstrap) == observed).any()

        expected = np.full(36, 1e6)
        counts = _bootstrap_counts(expected, 1, seed)
        assert (counts[0] != np.random.default_rng(seed).poisson(expected)).any()
        bootstrap = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        assert (counts[0] == bootstrap.poisson(expected)).all()

    def test_fewer_trials_draw_a_prefix(self):
        expected = np.linspace(0.0, 100.0, 36)
        many = _bootstrap_counts(expected, 50, seed=21)
        assert many.shape == (50, 36)
        for k in (2, 7, 49):
            assert (many[:k] == _bootstrap_counts(expected, k, seed=21)).all()

    def test_requires_two_trials(self, stage2_state):
        counts = simulate_counts(stage2_state, 500, seed=8)
        result = reconstruct(counts)
        with pytest.raises(ValueError):
            error_bars(result, counts, trials=1)

    def test_rejects_trials_above_bound_before_drawing(self, stage2_state, monkeypatch):
        counts = simulate_counts(stage2_state, 500, seed=8)
        result = reconstruct(counts)

        def unreachable(*args):
            raise AssertionError("bootstrap counts allocated for an over-bound trials")

        monkeypatch.setattr(tomography, "_bootstrap_counts", unreachable)
        with pytest.raises(InvalidParameter, match=f"trials must be at most {MAX_TRIALS}"):
            error_bars(result, counts, trials=MAX_TRIALS + 1)


class TestCountsCsv:
    def test_round_trip(self, stage2_state):
        counts = simulate_counts(stage2_state, 500, seed=11)
        text = counts_to_csv(counts)
        assert text.splitlines()[0] == "setting_A,setting_B,expected_rate,observed"
        back = counts_from_csv(text)
        assert columns(back) == columns(counts)
        assert (back.expected_rate.dtype, back.observed.dtype) == (np.float64, np.int64)

    @pytest.mark.parametrize("minimal", [False, True])
    def test_equals_csv_writer(self, stage2_state, minimal):
        counts = simulate_counts(stage2_state, 500, seed=11, minimal=minimal)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["setting_A", "setting_B", "expected_rate", "observed"])
        for (a, b), rate, n in zip(*columns(counts)):
            writer.writerow([a, b, f"{rate:.17g}", n])
        text = counts_to_csv(counts)
        assert len(counts.settings) == (16 if minimal else 36)
        assert text == buf.getvalue()
        assert columns(counts_from_csv(text)) == columns(counts)

    def test_header_is_checked(self):
        with pytest.raises(ValueError):
            counts_from_csv("a,b,c,d\nH,H,0.5,3\n")

    def test_golden_counts_file_reproduces_its_result(self):
        # the counts and result files the stage-III tomography config writes with --out
        text = (DATA / "tomography_stage3.counts.csv").read_text()
        doc = json.loads((DATA / "tomography_stage3.result.json").read_text())
        counts = counts_from_csv(text)
        assert counts_to_csv(counts) == text
        result = reconstruct(counts, background=doc["background"])
        assert json_obj(result.state) == doc["state"]
        assert (result.scale, result.clipped_weight) == (doc["scale"], doc["clipped_weight"])
        uncertainty = doc["uncertainty"]
        report = error_bars(result, counts, trials=uncertainty["trials"], seed=doc["seed"])
        assert (uncertainty["trials"], doc["seed"]) == (200, 12345)
        assert vars(report) == uncertainty


class TestMalformedCounts:
    """Every malformed counts file or record is an InvalidParameter naming the problem."""

    HEADER = "setting_A,setting_B,expected_rate,observed\n"

    def test_empty_text(self):
        with pytest.raises(InvalidParameter, match="counts header must be .*, got an empty file"):
            counts_from_csv("")

    def test_wrong_header(self):
        with pytest.raises(InvalidParameter, match="counts header must be setting_A,"):
            counts_from_csv("a,b,c,d\nH,H,0.5,3\n")

    @pytest.mark.parametrize(
        "row,problem",
        [
            ("H,H,0.5", r"not enough values to unpack \(expected 4, got 3\)"),
            ("H,H,0.5,3,4", r"too many values to unpack \(expected 4"),
            ("H,H,0.5,x", "invalid literal for int"),
            ("H,H,half,3", "could not convert string to float: 'half'"),
            ("H,H,0.5,3.0", "invalid literal for int"),
            (f"H,H,0.5,{2**63}", "too large"),
        ],
        ids=["3-fields", "5-fields", "observed-x", "rate-word", "observed-float", "above-int64"],
    )
    def test_malformed_row(self, row, problem):
        text = self.HEADER + "H,V,0.25,7\n" + row + "\n"
        prefix = "counts rows need two labels, a rate and a count: "
        with pytest.raises(InvalidParameter, match=f"^{prefix}.*{problem}"):
            counts_from_csv(text)

    def test_negative_count(self):
        with pytest.raises(InvalidParameter, match="counts must be nonnegative, got -1"):
            counts_from_csv(self.HEADER + "H,V,0.25,7\nH,H,0.5,-1\n")

    @pytest.mark.parametrize("use", ["reconstruct", "error_bars"])
    def test_unknown_label(self, stage2_state, use):
        # the row the console-script check reads back: parsed, then refused where it is used
        text = counts_to_csv(simulate_counts(stage2_state, 500, seed=0))
        counts = counts_from_csv(text + "H,X,0.1,3\n")
        with pytest.raises(InvalidParameter, match=r"setting \('H', 'X'\) is not a pair of labels"):
            self.use(use, counts)

    @pytest.mark.parametrize("use", ["reconstruct", "error_bars"])
    @pytest.mark.parametrize("column", ["expected_rate", "observed"])
    def test_columns_of_different_lengths(self, stage2_state, use, column):
        exact = exact_counts(stage2_state)
        counts = Counts(**vars(exact) | {column: getattr(exact, column)[:-1]})
        lengths = "(36, 35, 36)" if column == "expected_rate" else "(36, 36, 35)"
        problem = re.escape(f"counts columns (settings, rates, observed) differ: {lengths}")
        with pytest.raises(InvalidParameter, match=problem):
            self.use(use, counts)

    @staticmethod
    def use(name, counts):
        if name == "reconstruct":
            return reconstruct(counts)
        return error_bars(reconstruct(exact_counts(pure_state(singlet_vector()))), counts)
