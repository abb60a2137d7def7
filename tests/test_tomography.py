import numpy as np
import pytest

from ebrsim.core import (
    DensityOperator,
    InvalidParameter,
    maximally_mixed,
    singlet_vector,
    validate,
)
from ebrsim.metrics import concurrence, fidelity
from ebrsim.protocol import ChannelConfig, distinguishable, run_protocol
from ebrsim.tomography import (
    CountRecord,
    RankDeficient,
    TomographySetting,
    UncertaintyReport,
    _design_matrix,
    counts_from_csv,
    counts_to_csv,
    error_bars,
    projector,
    reconstruct,
    setting_rate,
    simulate_counts,
    standard_settings,
)


@pytest.fixture(scope="module")
def stage2_state():
    # the protocol output used for calibration below: C = 0.308
    return run_protocol(ChannelConfig(scenario=distinguishable(), T=0.4))[1].state


def exact_records(state, total=500.0, minimal=False):
    settings = standard_settings(minimal)
    scale = 4.0 * total / len(settings)
    normalized = DensityOperator(state.matrix / np.trace(state.matrix).real, 1.0)
    return [
        CountRecord(s.setting_a, s.setting_b, setting_rate(normalized, s),
                    scale * setting_rate(normalized, s))
        for s in settings
    ]


class TestSettings:
    def test_overcomplete_set(self):
        settings = standard_settings()
        assert len(settings) == 36
        assert TomographySetting("H", "H") in settings
        assert TomographySetting("L", "D") in settings
        assert len(set(settings)) == 36

    def test_minimal_set(self):
        settings = standard_settings(minimal=True)
        assert len(settings) == 16
        assert all(s.setting_a in "HVDR" for s in settings)

    def test_order_is_deterministic(self):
        assert standard_settings() == standard_settings()
        assert standard_settings()[0] == TomographySetting("H", "H")

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
        rho = DensityOperator.from_pure(singlet_vector())
        assert setting_rate(rho, TomographySetting("H", "H")) == pytest.approx(0.0, abs=1e-12)

    def test_basis_rates_sum_to_one(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityOperator(m @ m.conj().T)
        rho = DensityOperator(rho.matrix / np.trace(rho.matrix).real, 1.0)
        total = sum(
            setting_rate(rho, TomographySetting(a, b)) for a in "HV" for b in "HV"
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSimulateCounts:
    def test_deterministic_per_seed(self, stage2_state):
        a = simulate_counts(stage2_state, 500, seed=9)
        b = simulate_counts(stage2_state, 500, seed=9)
        assert a == b
        c = simulate_counts(stage2_state, 500, seed=10)
        assert a != c

    def test_total_counts_near_budget(self, stage2_state):
        total = 100000
        records = simulate_counts(stage2_state, total, seed=1)
        observed = sum(r.observed for r in records)
        # grand total is Poisson with mean ~ total for the 36-setting scheme
        assert abs(observed - total) < 5 * np.sqrt(total)

    def test_singlet_hh_observes_zero(self):
        rho = DensityOperator.from_pure(singlet_vector())
        records = simulate_counts(rho, 10000, seed=2)
        hh = next(r for r in records if (r.setting_a, r.setting_b) == ("H", "H"))
        assert hh.expected_rate == pytest.approx(0.0, abs=1e-12)
        assert hh.observed == 0

    def test_explicit_settings_are_respected(self, stage2_state):
        subset = standard_settings(minimal=True)
        records = simulate_counts(stage2_state, 500, seed=3, settings=subset)
        assert [(r.setting_a, r.setting_b) for r in records] == [tuple(s) for s in subset]

    def test_input_validation(self, stage2_state):
        with pytest.raises(ValueError):
            simulate_counts(maximally_mixed(2), 500, seed=0)
        for total in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                simulate_counts(stage2_state, total, seed=0)
        # numpy's Poisson sampler fails near a mean of 1e19 per setting
        with pytest.raises(InvalidParameter, match="expected counts per setting"):
            simulate_counts(stage2_state, 1e300, seed=0)


class TestReconstruct:
    def test_inversion_identity_on_exact_rates(self, stage2_state):
        normalized = DensityOperator(
            stage2_state.matrix / np.trace(stage2_state.matrix).real, 1.0
        )
        result = reconstruct(exact_records(stage2_state))
        assert np.max(np.abs(result.state.matrix - normalized.matrix)) < 1e-10
        assert result.scale == pytest.approx(4.0 * 500 / 36, rel=1e-12)
        assert result.clipped_weight < 1e-12

    def test_minimal_settings_also_invert(self, stage2_state):
        normalized = DensityOperator(
            stage2_state.matrix / np.trace(stage2_state.matrix).real, 1.0
        )
        result = reconstruct(exact_records(stage2_state, minimal=True))
        assert np.max(np.abs(result.state.matrix - normalized.matrix)) < 1e-10

    def test_output_is_always_physical(self, stage2_state):
        for seed in range(10):
            records = simulate_counts(stage2_state, 300, seed=seed)
            result = reconstruct(records)
            assert validate(result.state).ok

    def test_background_subtraction(self, stage2_state):
        records = exact_records(stage2_state)
        shifted = [
            CountRecord(r.setting_a, r.setting_b, r.expected_rate, r.observed + 7.0)
            for r in records
        ]
        clean = reconstruct(records)
        corrected = reconstruct(shifted, background=7.0)
        assert np.allclose(corrected.state.matrix, clean.state.matrix, atol=1e-12)

    @pytest.mark.parametrize("background", [float("nan"), float("inf"), -3.0])
    def test_background_must_be_nonnegative_and_finite(self, stage2_state, background):
        with pytest.raises(InvalidParameter, match="background must be nonnegative and finite"):
            reconstruct(exact_records(stage2_state), background=background)

    def test_design_cache_is_bounded(self, stage2_state):
        records = exact_records(stage2_state)
        reference = reconstruct(records).state.matrix
        rng = np.random.default_rng(14)
        for _ in range(20):
            shuffled = [records[i] for i in rng.permutation(len(records))]
            assert np.allclose(reconstruct(shuffled).state.matrix, reference, atol=1e-12)
        info = _design_matrix.cache_info()
        assert info.maxsize == 8
        assert info.currsize <= 8

    def test_zero_counts_cannot_be_calibrated(self):
        records = [CountRecord(s.setting_a, s.setting_b, 0.0, 0) for s in standard_settings()]
        with pytest.raises(ValueError, match="calibrate"):
            reconstruct(records)

    def test_rank_deficient_settings_raise(self, stage2_state):
        records = [CountRecord("H", "H", 0.1, 10)] * 20
        with pytest.raises(RankDeficient):
            reconstruct(records)
        with pytest.raises(RankDeficient):
            reconstruct(exact_records(stage2_state)[:10])


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
        normalized = DensityOperator(
            stage2_state.matrix / np.trace(stage2_state.matrix).real, 1.0
        )
        medians = []
        for total in (10**3, 10**4, 10**5):
            dists = []
            for seed in range(25):
                res = reconstruct(simulate_counts(stage2_state, total, seed=seed))
                diff = res.state.matrix - normalized.matrix
                dists.append(0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2]


class TestErrorBars:
    def test_deterministic_given_seed(self, stage2_state):
        records = simulate_counts(stage2_state, 500, seed=4)
        result = reconstruct(records)
        a = error_bars(result, records, trials=20, seed=5)
        b = error_bars(result, records, trials=20, seed=5)
        assert a == b

    def test_scale_spread_follows_counting_statistics(self, stage2_state):
        # relative scale error = 1/sqrt(total counts) for Poisson triples
        for total in (10**3, 10**4):
            records = simulate_counts(stage2_state, total, seed=6)
            result = reconstruct(records)
            report = error_bars(result, records, trials=300, seed=6)
            predicted = 1.0 / np.sqrt(total)
            assert abs(report.probability_std - predicted) <= 0.2 * predicted

    def test_spreads_vanish_with_infinite_counts(self, stage2_state):
        records = simulate_counts(stage2_state, 10**8, seed=7)
        result = reconstruct(records)
        report = error_bars(result, records, trials=30, seed=7)
        assert report.fidelity_std < 1e-3
        assert report.concurrence_std < 1e-2
        assert report.probability_std < 1e-3
        assert report.probability_mean == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("minimal", [False, True])
    def test_batch_equals_per_trial_loop(self, stage2_state, minimal):
        records = simulate_counts(stage2_state, 2000, seed=13, minimal=minimal)
        result = reconstruct(records)
        trials, seed = 40, 13
        expected = [
            result.scale * setting_rate(result.state, TomographySetting(r.setting_a, r.setting_b))
            for r in records
        ]
        fids, cons, probs = [], [], []
        for b in range(trials):
            observed = np.random.default_rng([seed, b]).poisson(expected)
            trial = reconstruct([
                CountRecord(r.setting_a, r.setting_b, 0.0, int(o))
                for r, o in zip(records, observed)
            ])
            fids.append(fidelity(trial.state, result.state))
            cons.append(concurrence(trial.state).value)
            probs.append(trial.scale / result.scale)
        assert error_bars(result, records, trials=trials, seed=seed) == UncertaintyReport(
            fidelity_mean=float(np.mean(fids)),
            fidelity_std=float(np.std(fids, ddof=1)),
            concurrence_mean=float(np.mean(cons)),
            concurrence_std=float(np.std(cons, ddof=1)),
            probability_mean=float(np.mean(probs)),
            probability_std=float(np.std(probs, ddof=1)),
            trials=trials,
        )

    def test_requires_two_trials(self, stage2_state):
        records = simulate_counts(stage2_state, 500, seed=8)
        result = reconstruct(records)
        with pytest.raises(ValueError):
            error_bars(result, records, trials=1)


class TestCountsCsv:
    def test_round_trip(self, stage2_state):
        records = simulate_counts(stage2_state, 500, seed=11)
        text = counts_to_csv(records)
        assert text.splitlines()[0] == "setting_A,setting_B,expected_rate,observed"
        back = counts_from_csv(text)
        assert back == records

    def test_header_is_checked(self):
        with pytest.raises(ValueError):
            counts_from_csv("a,b,c,d\nH,H,0.5,3\n")
