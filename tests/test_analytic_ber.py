import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpfield import analytic_ber as ab
from chirpfield.channel import FadingConfig, GammaFit
from chirpfield.interference import chi_of_I_table
from chirpfield.lora_phy import LoRaParams
from chirpfield.specfun import NumericError, q_approx

SF7 = LoRaParams(7)
FADING_25 = FadingConfig.uniform(2.0, 25)
CASES = ("case_a", "case_b")
DETECTIONS = ("noncoherent", "coherent")

ELEMENTS = st.integers(0, 64)
NAKAGAMI_M = st.floats(1.0, 4.0)


def config(snr_db: float, fading=FADING_25, **kwargs) -> ab.AnalyticConfig:
    return ab.AnalyticConfig.from_fading(SF7, fading, 10 ** (snr_db / 10.0), **kwargs)


class TestNoiseBranch:
    def test_coherent_threshold_constants(self):
        eps1, eps2 = ab._coherent_threshold_terms(7)
        assert eps1 == pytest.approx(math.sqrt(0.5) * (1.161 + 1.4518), rel=1e-12)
        assert eps2 == pytest.approx(math.sqrt(0.5 + 0.5 * 0.1704), rel=1e-12)

    @pytest.mark.parametrize("detection", ["noncoherent", "coherent"])
    def test_closed_form_matches_quadrature(self, detection):
        # oracle: adaptive quadrature of the same tail integral
        cfg = config(-30.0)
        closed = (
            ab.noise_ser_noncoherent(cfg)
            if detection == "noncoherent"
            else ab.noise_ser_coherent(cfg)
        )
        oracle = ab.noise_ser_numeric(cfg, detection)
        assert closed == pytest.approx(oracle, rel=1e-3)

    def test_vanishes_at_high_snr(self):
        cfg = config(30.0)  # linear SNR 1000
        assert ab.noise_ser_noncoherent(cfg) < 1e-12
        assert ab.noise_ser_coherent(cfg) < 1e-12

    def test_coherent_never_worse_than_noncoherent(self):
        for snr_db in np.arange(-35.0, -19.9, 1.0):
            cfg = config(float(snr_db))
            assert ab.noise_ser_coherent(cfg) <= ab.noise_ser_noncoherent(cfg)

    def test_monotone_in_snr(self):
        values = [ab.noise_ser_noncoherent(config(s)) for s in np.arange(-36.0, -27.9, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exact_tail_variant_exposes_fit_error(self):
        # the embedded two-exponential fit overshoots the true tail in the
        # waterfall band and saturates below it once errors are common
        waterfall = config(-36.0)
        assert ab.noise_ser_numeric(waterfall, "noncoherent", q_mode="approx") > (
            ab.noise_ser_numeric(waterfall, "noncoherent", q_mode="exact")
        )
        saturated = config(-40.0)
        assert ab.noise_ser_numeric(saturated, "noncoherent", q_mode="approx") < (
            ab.noise_ser_numeric(saturated, "noncoherent", q_mode="exact")
        )

    def test_warns_below_calibrated_spreading_factor(self):
        cfg = ab.AnalyticConfig.from_fading(LoRaParams(6), FADING_25, 1e-3)
        with pytest.warns(UserWarning):
            ab.noise_ser_coherent(cfg)


class TestCalibratedDomain:
    def test_mass_matches_gamma_cdf(self):
        fit = GammaFit(shape=48.5, rate=3.25)
        slope, offset = 0.2, 2.4
        oracle = float(mpmath.gammainc(fit.shape, 0, fit.rate * offset / slope,
                                       regularized=True))
        assert ab.uncalibrated_mass(fit, slope, offset) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("detection", ["noncoherent", "coherent"])
    def test_no_warning_inside(self, detection):
        # SF 7, N=25 at -30 dB: a share of at most 1e-9 below the fit's zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ab.ber(config(-30.0), "case_a", detection)

    def test_warns_outside_and_names_the_point(self):
        # SF 7, N=25 at -40 dB non-coherent: a share of 0.148
        with pytest.warns(UserWarning, match="sf=7, detection=noncoherent, SNR=-40 dB"):
            ab.noise_ser_noncoherent(config(-40.0))

    @pytest.mark.parametrize("detection", ["noncoherent", "coherent"])
    def test_very_low_snr_reaches_the_fit_plateau(self, detection):
        # as the slope vanishes, E[q_approx(slope*T - offset)] tends to
        # q_approx(-offset); the cylinder term has to survive z near 1e20
        cfg = config(-400.0)
        _, offset = ab._noise_slope_offset(cfg, detection)
        with pytest.warns(UserWarning, match="outside its calibrated domain"):
            value = ab._noise_ser(cfg, detection)
        assert value == pytest.approx(float(q_approx(-offset)), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        sf=st.integers(7, 12),
        elements=ELEMENTS,
        m=NAKAGAMI_M,
        detection=st.sampled_from(DETECTIONS),
        snr_db=st.floats(-70.0, 10.0),
        step_db=st.floats(1e-3, 10.0),
    )
    def test_noise_non_increasing_in_snr_inside_the_domain(
        self, sf, elements, m, detection, snr_db, step_db
    ):
        # the domain is the diagnostic's: a share of at most
        # UNCALIBRATED_MASS_LIMIT below the fit's zero (it only shrinks as
        # the SNR grows); outside it the closed form has to warn instead
        fading = FadingConfig.uniform(m, elements)
        low, high = (
            ab.AnalyticConfig.from_fading(LoRaParams(sf), fading, 10 ** (s / 10.0))
            for s in (snr_db, snr_db + step_db)
        )
        slope, offset = ab._noise_slope_offset(low, detection)
        if ab.uncalibrated_mass(low.target_fit, slope, offset) > ab.UNCALIBRATED_MASS_LIMIT:
            with pytest.warns(UserWarning, match="outside its calibrated domain"):
                ab._noise_ser(low, detection)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ab._noise_ser(high, detection) <= ab._noise_ser(low, detection)


class TestInterferenceBranch:
    def test_conditional_matches_adaptive_integration(self):
        # five (difference, offset) pairs mapped to their peak bounds
        cfg = config(-25.0)
        pairs = [(0, 0), (5, 32), (1, 64), (40, 10), (64, 64)]
        for shift, tau in pairs:
            chi = chi_of_I_table(SF7)[tau, shift]
            gh = ab.interf_ser_conditional(cfg, "case_a", "noncoherent", chi)
            oracle = ab.interf_ser_conditional_numeric(cfg, "case_a", "noncoherent", chi)
            if oracle > 1e-12:
                assert gh == pytest.approx(oracle, rel=1e-2)

    def test_coherent_conditional_matches_adaptive_integration(self):
        cfg = config(-27.0)
        for case in ("case_a", "case_b"):
            gh = ab.interf_ser_conditional(cfg, case, "coherent", 0.9)
            oracle = ab.interf_ser_conditional_numeric(
                cfg, case, "coherent", 0.9, phase_nodes=48
            )
            assert gh == pytest.approx(oracle, rel=1e-2)

    def test_zero_leakage_limit(self):
        # with the interference gain forced to zero the conditional reduces
        # to E[Q(scale * |H|)] which cannot exceed one half
        cfg = config(-25.0)
        for case in ("case_a", "case_b"):
            value = ab.interf_ser_conditional(cfg, case, "noncoherent", 0.0)
            assert 0.0 <= value < 0.5

    def test_symmetric_gains_give_half_at_full_overlap(self):
        # paired topology with identical fits and chi = 1: the comparison
        # is symmetric, so the error probability is exactly one half
        cfg = config(-25.0)
        assert ab.interf_ser_conditional(cfg, "case_b", "noncoherent", 1.0) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_paired_worse_than_shared(self):
        for snr_db in (-30.0, -20.0, -10.0):
            cfg = config(snr_db)
            shared = ab.interf_ser(cfg, "case_a", "noncoherent")
            paired = ab.interf_ser(cfg, "case_b", "noncoherent")
            assert paired > shared

    def test_paired_interference_floor(self):
        # the paired-topology interferer scales with the signal, so its
        # error probability approaches a positive constant at high SNR
        high = ab.interf_ser(config(10.0), "case_b", "noncoherent")
        very_high = ab.interf_ser(config(30.0), "case_b", "noncoherent")
        assert high > 0.01
        assert very_high == pytest.approx(high, rel=0.05)

    def test_quadrature_order_convergence(self):
        base = config(-25.0)
        finer = config(-25.0, quadrature_order_v1=90, quadrature_order_v2=90)
        for case in ("case_a", "case_b"):
            coarse_val = ab.interf_ser(base, case, "noncoherent")
            fine_val = ab.interf_ser(finer, case, "noncoherent")
            assert coarse_val == pytest.approx(fine_val, rel=1e-3)

    def test_staircase_convergence(self):
        coarse = ab.interf_ser(config(-28.0), "case_a", "coherent")
        fine = ab.interf_ser(config(-28.0, staircase_m=40), "case_a", "coherent")
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_missing_fit_is_an_error(self):
        cfg = ab.AnalyticConfig(
            params=SF7, snr_linear=1e-3, target_fit=GammaFit(10.0, 2.0)
        )
        with pytest.raises(ValueError):
            ab.interf_ser(cfg, "case_a", "noncoherent")
        with pytest.raises(ValueError):
            ab.interf_ser(cfg, "case_b", "noncoherent")

    def test_unknown_case_and_detection(self):
        cfg = config(-25.0)
        with pytest.raises(ValueError):
            ab.interf_ser(cfg, "case_c", "noncoherent")
        with pytest.raises(ValueError):
            ab.interf_ser(cfg, "case_a", "semi")


def brute_force_interf_ser(cfg: ab.AnalyticConfig, case: str, detection: str) -> float:
    """Weighted mean of the double sum over every multiplier of the unrounded
    peak-bound table (and of the staircase), one double sum per exact value."""
    if detection == "noncoherent":
        cosines = np.ones(1)
    else:
        # the angles 2*pi*j/M and 2*pi*(M-j)/M share one cosine
        m = cfg.staircase_m
        j = np.arange(1, m + 1)
        cosines = np.cos(2.0 * np.pi * np.minimum(j, m - j) / m)
    multipliers, counts = np.unique(
        np.outer(cosines, chi_of_I_table(cfg.params)), return_counts=True
    )
    terms = ab._double_sum_terms(cfg, case)
    sums = np.clip(ab._conditional_sums(terms, multipliers), 0.0, 1.0)
    return float(sums @ counts) / counts.sum()


class TestInterpolatedSum:
    @pytest.mark.parametrize(
        "snr_db, case, detection",
        [
            (-12.0, "case_a", "noncoherent"),
            (-12.0, "case_b", "noncoherent"),
            (-12.0, "case_a", "coherent"),
            (-12.0, "case_b", "coherent"),
            (-24.0, "case_a", "noncoherent"),
            (-36.0, "case_b", "noncoherent"),
        ],
    )
    def test_matches_brute_force_sum(self, snr_db, case, detection, elements=25):
        # at -12 dB f spans hundreds of decades and one global degree-64
        # interpolant misses by up to 4e-4; the pieces must still meet 1e-8,
        # against the full (unpruned) double sum
        cfg = config(snr_db, FadingConfig.uniform(2.0, elements))
        oracle = brute_force_interf_ser(cfg, case, detection)
        assert ab.interf_ser(cfg, case, detection) == pytest.approx(oracle, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("case", ["case_a", "case_b"])
    def test_matches_brute_force_sum_narrow_fits(self, case):
        # N = 64 prunes the most: 15 pieces with as few as 2,613 of the 4,900
        # terms kept (case_a), 27 with 1,585 (case_b).  case_a's p_interf of
        # 3.5e-18 is what a drop mass that ignored the scale of f would miss
        self.test_matches_brute_force_sum(-12.0, case, "noncoherent", elements=64)

    def test_unreachable_tolerance_fails_loudly(self, monkeypatch):
        calls = []
        original = ab._conditional_sums

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ab, "_conditional_sums", counted)
        monkeypatch.setattr(ab, "_CHEB_TOL", 0.0)
        with pytest.raises(
            NumericError, match=r"case=case_b, detection=coherent, SNR=-12 dB.*piece \["
        ):
            ab.ber(config(-12.0), "case_b", "coherent")
        # bisection stops at the depth limit on the first unresolved piece
        assert calls
        assert len(calls) <= ab._CHEB_MAX_DEPTH + 1

    @settings(max_examples=60, deadline=None)
    @given(
        elements=ELEMENTS,
        m=NAKAGAMI_M,
        snr_db=st.floats(-40.0, 10.0),
        case=st.sampled_from(CASES),
        fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    )
    def test_pruned_sum_within_dropped_mass(self, elements, m, snr_db, case, fractions):
        # the interpolant's drop mass at the largest |f| sampled; the two sums
        # also differ by rounding, which grows like sqrt(terms) * eps * f
        cfg = config(snr_db, FadingConfig.uniform(m, elements))
        terms = ab._double_sum_terms(cfg, case)
        x = float(ab._sorted_chi(SF7)[-1]) * np.array(fractions)
        full = ab._conditional_sums(terms, x)
        drop = ab._PRUNE_FRACTION * ab._CHEB_TOL * float(full.max())
        pruned = ab._conditional_sums(terms, x, drop)
        roundoff = math.sqrt(terms.weight.size) * np.finfo(float).eps * full
        assert np.all(np.abs(full - pruned) <= drop + roundoff)


class TestCombinedBer:
    @settings(max_examples=25, deadline=None)
    @given(
        elements=ELEMENTS,
        m=NAKAGAMI_M,
        snr_db=st.floats(-40.0, 10.0),
        case=st.sampled_from(CASES),
        detection=st.sampled_from(DETECTIONS),
    )
    def test_ber_within_bit_scale(self, elements, m, snr_db, case, detection):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # below the calibrated domain
            result = ab.ber(config(snr_db, FadingConfig.uniform(m, elements)), case, detection)
        assert 0.0 <= result.ber <= 64.0 / 127.0

    def test_union_and_scale_relation(self):
        result = ab.ber(config(-30.0), "case_a", "noncoherent")
        union = 1.0 - (1.0 - result.p_interf) * (1.0 - result.p_noise)
        assert result.ber == pytest.approx(64.0 / 127.0 * union, rel=1e-12)

    def test_zero_probability_limit(self):
        result = ab.ber_no_interference(config(30.0), "noncoherent")
        assert result.ber == pytest.approx(0.0, abs=1e-12)

    def test_full_interference_limit(self):
        # p_interf -> 1 caps the bit error rate at (K/2)/(K-1)
        assert 64.0 / 127.0 == pytest.approx(0.503937, abs=1e-6)
        cfg = config(-25.0)
        half = ab.interf_ser_conditional(cfg, "case_b", "noncoherent", 1.0)
        assert half <= 64.0 / 127.0 / 0.5  # sanity tie-in with the cap

    def test_total_ber_non_increasing_in_element_count(self):
        snr = 10 ** (-2.8)
        for case in ("case_a", "case_b"):
            values = []
            for n in (15, 20, 25, 30, 35):
                cfg = ab.AnalyticConfig.from_fading(SF7, FadingConfig.uniform(2.0, n), snr)
                values.append(ab.ber(cfg, case, "noncoherent").ber)
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), (case, values)

    def test_total_coherent_ber_non_increasing_in_element_count(self):
        snr = 10 ** (-2.8)
        for case in ("case_a", "case_b"):
            values = []
            for n in (15, 25, 35):
                cfg = ab.AnalyticConfig.from_fading(SF7, FadingConfig.uniform(2.0, n), snr)
                values.append(ab.ber(cfg, case, "coherent").ber)
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), (case, values)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ab.AnalyticConfig(params=SF7, snr_linear=0.0, target_fit=GammaFit(1.0, 1.0))
        with pytest.raises(ValueError):
            ab.AnalyticConfig(
                params=SF7, snr_linear=1.0, target_fit=GammaFit(1.0, 1.0),
                quadrature_order_v1=0,
            )
        with pytest.raises(ValueError):
            ab.AnalyticConfig(
                params=SF7, snr_linear=1.0, target_fit=GammaFit(1.0, 1.0), staircase_m=0
            )
