import math
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebfit, chebval

from chirpfield import analytic_ber as ab
from chirpfield import reference, validation
from chirpfield.analytic_ber import GammaFit
from chirpfield.channel import FadingConfig
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


def noted(result: ab.BerBreakdown, match: str) -> bool:
    """Whether a note of the result matches, as `pytest.warns(match=...)` would."""
    return any(re.search(match, note) for note in result.notes)


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
        oracle = reference.noise_ser_numeric(cfg, detection)
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
        assert reference.noise_ser_numeric(waterfall, "noncoherent", q_mode="approx") > (
            reference.noise_ser_numeric(waterfall, "noncoherent", q_mode="exact")
        )
        saturated = config(-40.0)
        assert reference.noise_ser_numeric(saturated, "noncoherent", q_mode="approx") < (
            reference.noise_ser_numeric(saturated, "noncoherent", q_mode="exact")
        )

    def test_warns_below_calibrated_spreading_factor(self):
        cfg = ab.AnalyticConfig.from_fading(LoRaParams(6), FADING_25, 1e-3)
        assert noted(ab.ber_no_interference(cfg, "coherent"),
                     "the coherent noise approximation is fitted for sf >= 7")


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
        assert ab.ber(config(-30.0), "case_a", detection).notes == ()

    def test_warns_outside_and_names_the_point(self):
        # SF 7, N=25 at -40 dB non-coherent: a share of 0.148
        result = ab.ber_no_interference(config(-40.0), "noncoherent")
        assert noted(result, "sf=7, detection=noncoherent, SNR=-40 dB")

    @pytest.mark.parametrize("detection", ["noncoherent", "coherent"])
    def test_very_low_snr_reaches_the_fit_plateau(self, detection):
        # as the slope vanishes, E[q_approx(slope*T - offset)] tends to
        # q_approx(-offset); the cylinder term has to survive z near 1e20
        cfg = config(-400.0)
        _, offset = ab._noise_slope_offset(cfg, detection)
        assert noted(ab.ber_no_interference(cfg, detection), "outside its calibrated domain")
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
        # the SNR grows); outside it the closed form has to note so instead
        fading = FadingConfig.uniform(m, elements)
        low, high = (
            ab.AnalyticConfig.from_fading(LoRaParams(sf), fading, 10 ** (s / 10.0))
            for s in (snr_db, snr_db + step_db)
        )
        low_ber, high_ber = (ab.ber_no_interference(cfg, detection) for cfg in (low, high))
        slope, offset = ab._noise_slope_offset(low, detection)
        if ab.uncalibrated_mass(low.target_fit, slope, offset) > ab.UNCALIBRATED_MASS_LIMIT:
            assert noted(low_ber, "outside its calibrated domain")
            return
        assert low_ber.notes == high_ber.notes == ()
        assert high_ber.p_noise <= low_ber.p_noise

    @settings(max_examples=200, deadline=None)
    @given(
        sf=st.integers(2, 12),
        elements=st.integers(0, 256),
        m=st.floats(0.3, 50.0),
        detection=st.sampled_from(DETECTIONS),
        snr_db=st.floats(-90.0, 60.0),
    )
    def test_noise_ser_within_tail_fit_weights(self, sf, elements, m, detection, snr_db):
        # each tail term is its weight times an expectation of exp(-x^2),
        # so the closed form needs no clamp to stay in [0, 1/12 + 1/4]
        cfg = ab.AnalyticConfig.from_fading(
            LoRaParams(sf), FadingConfig.uniform(m, elements), 10 ** (snr_db / 10.0)
        )
        assert 0.0 <= ab._noise_ser(cfg, detection) <= 1.0 / 3.0


class TestInterferenceBranch:
    def test_conditional_matches_adaptive_integration(self):
        # five (difference, offset) pairs mapped to their peak bounds
        cfg = config(-25.0)
        pairs = [(0, 0), (5, 32), (1, 64), (40, 10), (64, 64)]
        for shift, tau in pairs:
            chi = chi_of_I_table(SF7)[tau, shift]
            gh = reference.interf_ser_conditional(cfg, "case_a", "noncoherent", chi)
            oracle = reference.interf_ser_conditional_numeric(cfg, "case_a", "noncoherent", chi)
            if oracle > 1e-12:
                assert gh == pytest.approx(oracle, rel=1e-2)

    def test_coherent_conditional_matches_adaptive_integration(self):
        cfg = config(-27.0)
        for case in ("case_a", "case_b"):
            gh = reference.interf_ser_conditional(cfg, case, "coherent", 0.9)
            oracle = reference.interf_ser_conditional_numeric(
                cfg, case, "coherent", 0.9, phase_nodes=48
            )
            assert gh == pytest.approx(oracle, rel=1e-2)

    def test_zero_leakage_limit(self):
        # with the interference gain forced to zero the conditional reduces
        # to E[Q(scale * |H|)] which cannot exceed one half
        cfg = config(-25.0)
        for case in ("case_a", "case_b"):
            value = reference.interf_ser_conditional(cfg, case, "noncoherent", 0.0)
            assert 0.0 <= value < 0.5

    def test_symmetric_gains_give_half_at_full_overlap(self):
        # paired topology with identical fits and chi = 1: the comparison
        # is symmetric, so the error probability is exactly one half
        cfg = config(-25.0)
        assert reference.interf_ser_conditional(
            cfg, "case_b", "noncoherent", 1.0
        ) == pytest.approx(0.5, abs=1e-9)

    def test_paired_worse_than_shared(self):
        for snr_db in (-30.0, -20.0, -10.0):
            cfg = config(snr_db)
            shared = ab._interf_ser_diag(cfg, "case_a", "noncoherent")[0]
            paired = ab._interf_ser_diag(cfg, "case_b", "noncoherent")[0]
            assert paired > shared

    def test_paired_interference_floor(self):
        # the paired-topology interferer scales with the signal, so its
        # error probability approaches a positive constant at high SNR
        high = ab._interf_ser_diag(config(10.0), "case_b", "noncoherent")[0]
        very_high = ab._interf_ser_diag(config(30.0), "case_b", "noncoherent")[0]
        assert high > 0.01
        assert very_high == pytest.approx(high, rel=0.05)

    def test_quadrature_order_convergence(self):
        base = config(-25.0)
        finer = config(-25.0, quadrature_order_v1=90, quadrature_order_v2=90)
        for case in ("case_a", "case_b"):
            coarse_val = ab._interf_ser_diag(base, case, "noncoherent")[0]
            fine_val = ab._interf_ser_diag(finer, case, "noncoherent")[0]
            assert coarse_val == pytest.approx(fine_val, rel=1e-3)

    def test_staircase_convergence(self):
        coarse = ab._interf_ser_diag(config(-28.0), "case_a", "coherent")[0]
        fine = ab._interf_ser_diag(config(-28.0, staircase_m=40), "case_a", "coherent")[0]
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_missing_fit_is_an_error(self):
        cfg = ab.AnalyticConfig(
            params=SF7, snr_linear=1e-3, target_fit=GammaFit(10.0, 2.0)
        )
        with pytest.raises(ValueError):
            ab._interf_ser_diag(cfg, "case_a", "noncoherent")[0]
        with pytest.raises(ValueError):
            ab._interf_ser_diag(cfg, "case_b", "noncoherent")[0]

    def test_unknown_case_and_detection(self):
        cfg = config(-25.0)
        with pytest.raises(ValueError):
            ab._interf_ser_diag(cfg, "case_c", "noncoherent")[0]
        with pytest.raises(ValueError):
            ab._interf_ser_diag(cfg, "case_a", "semi")[0]


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
        got = ab._interf_ser_diag(cfg, case, detection)[0]
        assert got == pytest.approx(oracle, rel=1e-8, abs=0.0)

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
        # one full sum at the top multiplier sets the tolerance; bisection
        # then stops at the depth limit on the first unresolved piece
        assert calls
        assert len(calls) <= ab._CHEB_MAX_DEPTH + 2

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
        x = float(ab._distinct_chi(SF7)[0][-1]) * np.array(fractions)
        full = ab._conditional_sums(terms, x)
        drop = ab._PRUNE_FRACTION * ab._CHEB_TOL * float(full.max())
        pruned = ab._conditional_sums(ab._prune(terms, drop), x)
        roundoff = math.sqrt(terms[2].size) * np.finfo(float).eps * full
        assert np.all(np.abs(full - pruned) <= drop + roundoff)

    @settings(max_examples=60, deadline=None)
    @given(
        elements=ELEMENTS,
        m=NAKAGAMI_M,
        snr_db=st.floats(-40.0, 10.0),
        case=st.sampled_from(CASES),
        fractions=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64),
    )
    def test_conditional_sum_never_decreases(self, elements, m, snr_db, case, fractions):
        # the interpolant's tolerance is taken from f at the top multiplier,
        # which is f's largest value only because f never decreases
        cfg = config(snr_db, FadingConfig.uniform(m, elements))
        terms = ab._double_sum_terms(cfg, case)
        x = float(ab._distinct_chi(SF7)[0][-1]) * np.sort(fractions)
        f = ab._conditional_sums(terms, x)
        roundoff = math.sqrt(terms[2].size) * np.finfo(float).eps * f[1:]
        assert np.all(np.diff(f) >= -roundoff)

    @pytest.mark.parametrize("detection", DETECTIONS)
    @pytest.mark.parametrize("case", CASES)
    def test_terms_are_pruned_once_per_point(self, case, detection, monkeypatch):
        # one full sum at the top multiplier, then every interpolant sample
        # over the same pruned terms; the first piece once kept all 4,900
        calls = []
        original = ab._conditional_sums

        def counted(terms, multipliers):
            calls.append((terms[2].size, len(multipliers)))
            return original(terms, multipliers)

        monkeypatch.setattr(ab, "_conditional_sums", counted)
        ab.ber(config(-36.0), case, detection)
        (top_terms, top_multipliers), *samples = calls
        assert top_multipliers == 1 and samples
        kept = {terms for terms, _ in samples}
        assert len(kept) == 1 and kept.pop() < min(top_terms, 70 * 70)


def test_distinct_chi_keeps_only_values_and_counts():
    # the table and its sorted copy are temporaries: nothing reads them again
    ab._distinct_chi.cache_clear()
    tracemalloc.start()
    try:
        values, counts = ab._distinct_chi(LoRaParams(10))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not values.flags.writeable and not counts.flags.writeable
    assert retained <= 1.05 * (values.nbytes + counts.nbytes)


@pytest.mark.parametrize("fn", [np.exp, np.cos, lambda x: 1.0 / (1.0 + 25.0 * x * x)])
def test_cosine_transform_matches_chebfit(fn):
    # interpolation at first-kind Chebyshev points is the fixed transform;
    # chebfit solves the same square system by least squares
    nodes, transform = ab._chebyshev_transform()
    rng = np.random.default_rng(7)
    for values in (fn(3.0 * nodes), rng.standard_normal(nodes.size)):
        expected = chebfit(nodes, values, ab._CHEB_DEGREE)
        got = transform @ values
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(values))


def test_double_sum_terms_built_once_per_point(monkeypatch):
    calls = []
    original = ab._double_sum_terms

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ab, "_double_sum_terms", counted)
    ab.ber(config(-20.0), "case_a", "coherent")
    assert len(calls) == 1


def table_mean(pieces, params, detection, staircase_m=20) -> float:
    """Mean of the clipped interpolant over every multiplier of the full
    peak-bound table and of the staircase, one evaluation per multiplier."""
    cosines, shares = ab._staircase(detection, staircase_m)
    chi = chi_of_I_table(params).ravel()
    total = 0.0
    for cosine, share in zip(cosines, shares):
        x = cosine * chi
        for left, right, coeffs in pieces:
            # each multiplier to the piece whose right end is the first >= x
            inside = (x <= right) if left == pieces[0][0] else (x > left) & (x <= right)
            t = (2.0 * x[inside] - left - right) / (right - left)
            total += share * np.clip(chebval(t, coeffs), 0.0, 1.0).sum()
    return total / chi.size


def rule_mean(pieces, params, detection, level, staircase_m=20) -> float:
    nodes, weights = ab._chi_rule(params, level)
    return ab._rule_mean(pieces, nodes, weights, *ab._staircase(detection, staircase_m))


class TestChiRule:
    @pytest.mark.parametrize("sf, levels", [(7, (0, 2, 5, 8, 14)), (9, (0, 3, 6, 9)), (10, (1, 4, 7))])
    def test_bin_rules_are_gauss_rules(self, sf, levels):
        params = LoRaParams(sf)
        values, counts = ab._distinct_chi(params)
        lo, hi = float(values[0]), float(values[-1])
        share = counts / counts.sum()
        for level in levels:
            nodes, weights = ab._chi_rule(params, level)
            assert np.all(np.diff(nodes) >= 0.0)
            assert np.all(weights > 0.0)
            assert abs(math.fsum(weights) - 1.0) <= 1e-15
            bins = ab._bin_positions(values) >> (ab._POSITION_BITS - level)
            first = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
            last = np.r_[first[1:], values.size]
            # every node lies inside the hull of one bin's values
            owner = np.searchsorted(values[last - 1], nodes, side="left")
            assert np.all(nodes >= values[first[owner]])
            width = (hi - lo) / 2**level
            for b, (start, stop) in enumerate(zip(first, last)):
                mine = owner == b
                assert np.count_nonzero(mine) == min(stop - start, ab._RULE_NODES)
                center = lo + width * (bins[start] + 0.5)
                assert lo + width * bins[start] <= nodes[mine].min()
                assert nodes[mine].max() <= lo + width * (bins[start] + 1)
                # degree-15 exactness in the bin's own coordinate, up to the
                # rounding of a node stored next to the bin's center
                t_values = (values[start:stop] - center) / (0.5 * width)
                t_nodes = (nodes[mine] - center) / (0.5 * width)
                mass = share[start:stop].sum()
                tol = 64.0 * np.finfo(float).eps * (1.0 + abs(center) / (0.5 * width))
                for degree in range(2 * ab._RULE_NODES):
                    table = np.sum(share[start:stop] * t_values**degree)
                    rule = np.sum(weights[mine] * t_nodes**degree)
                    assert abs(rule - table) <= tol * mass, (level, b, degree)

    @pytest.mark.parametrize("sf", [7, 9])
    def test_top_level_rule_is_the_distinct_table(self, sf):
        # every bin of the finest level holds at most _RULE_NODES values
        params = LoRaParams(sf)
        values, counts = ab._distinct_chi(params)
        nodes, weights = ab._chi_rule(params, ab._POSITION_BITS)
        assert nodes.tobytes() == values.tobytes()
        assert weights.tobytes() == (counts / counts.sum()).tobytes()

    @pytest.mark.parametrize("snr_db", [-36.0, -12.0, 0.0, 10.0, 30.0])
    @pytest.mark.parametrize("sf", [7, 9])
    def test_rule_mean_matches_table_mean(self, sf, snr_db):
        cfg = ab.AnalyticConfig.from_fading(LoRaParams(sf), FADING_25, 10 ** (snr_db / 10.0))
        values, _ = ab._distinct_chi(cfg.params)
        for case, detection in (("case_a", "coherent"), ("case_b", "noncoherent")):
            pieces, _ = ab._interpolant(cfg, case, detection)
            level = ab._rule_level(pieces, values[0], values[-1])
            oracle = table_mean(pieces, cfg.params, detection)
            got = rule_mean(pieces, cfg.params, detection, level)
            assert got == pytest.approx(oracle, rel=1e-13, abs=0.0), (case, detection)
            assert got == ab._interf_ser_diag(cfg, case, detection)[0]

    def test_fixed_quarter_symbol_bins_are_not_enough(self):
        # K/4 bins whatever the pieces: at +30 dB the interpolant has pieces
        # far narrower than such a bin, and the mean drifts
        cfg = config(30.0)
        values, _ = ab._distinct_chi(SF7)
        pieces, _ = ab._interpolant(cfg, "case_b", "noncoherent")
        oracle = table_mean(pieces, SF7, "noncoherent")
        fixed = rule_mean(pieces, SF7, "noncoherent", int(math.log2(SF7.K // 4)))
        assert abs(fixed - oracle) > 1e-13 * oracle
        assert ab._rule_level(pieces, values[0], values[-1]) > math.log2(SF7.K // 4)

    def test_sf10_coherent_row(self):
        cfg = ab.AnalyticConfig.from_fading(LoRaParams(10), FADING_25, 10 ** (-1.2))
        pieces, _ = ab._interpolant(cfg, "case_b", "coherent")
        oracle = table_mean(pieces, cfg.params, "coherent")
        got = ab._interf_ser_diag(cfg, "case_b", "coherent")[0]
        assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_sf12_noncoherent_row(self):
        cfg = ab.AnalyticConfig.from_fading(LoRaParams(12), FADING_25, 10 ** (-2.4))
        pieces, _ = ab._interpolant(cfg, "case_a", "noncoherent")
        oracle = table_mean(pieces, cfg.params, "noncoherent")
        got = ab._interf_ser_diag(cfg, "case_a", "noncoherent")[0]
        assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_threads_build_each_rule_once(self, monkeypatch):
        # Six threads, more than the two cores the suite is timed on, ask
        # at once for one of two levels, with a short switch interval: the
        # table under the rules is built once, each level once, the two
        # levels side by side, and every thread gets the serial rule.
        params, levels = LoRaParams(10), (4, 7)
        built, tables = [], []
        binned_rule, table = ab._binned_rule, ab.chi_of_I_table

        def counted_rule(*args):
            built.append(1)
            return binned_rule(*args)

        def counted_table(*args):
            tables.append(1)
            return table(*args)

        def clear():
            for cached in (ab._chi_rule, ab._distinct_chi):
                cached.cache_clear()
            built.clear()
            tables.clear()

        monkeypatch.setattr(ab, "_binned_rule", counted_rule)
        monkeypatch.setattr(ab, "chi_of_I_table", counted_table)
        clear()
        serial = {level: ab._chi_rule(params, level) for level in levels}
        serial_builds = len(built)
        clear()

        results = [None] * 6
        start = threading.Barrier(len(results))

        def ask(index):
            start.wait(timeout=60)
            results[index] = ab._chi_rule(params, levels[index % 2])

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 1 and len(built) == serial_builds
        for index, (nodes, weights) in enumerate(results):
            want_nodes, want_weights = serial[levels[index % 2]]
            assert nodes.tobytes() == want_nodes.tobytes()
            assert weights.tobytes() == want_weights.tobytes()

    def test_validation_check_has_teeth(self, monkeypatch):
        assert validation._check_compressed_rule(SF7, FADING_25, 0, None).passed
        monkeypatch.setattr(ab, "_rule_level", lambda pieces, lo, hi: 0)
        result = validation._check_compressed_rule(SF7, FADING_25, 0, None)
        assert not result.passed and "relative deviation" in result.detail


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
        half = reference.interf_ser_conditional(cfg, "case_b", "noncoherent", 1.0)
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_gamma_fit_rejects_non_finite_and_non_positive(self, value):
        # NaN once passed, since nan <= 0 is false
        for shape, rate in ((value, 1.0), (1.0, value)):
            with pytest.raises(ValueError, match="positive and finite"):
                GammaFit(shape, rate)

    def test_overflowing_moments_raise_numeric_error(self):
        # Gamma(m + 1)**2 overflows from m = 99.1 on; the fits once came
        # out as NaN and the run died later in the cylinder function
        assert math.isfinite(ab.cascade_moment(99.0, 99.0, 2))
        fading = FadingConfig.uniform(100.0, 25)
        for fit in (ab.fit_gamma_target, ab.fit_gamma_interferer_caseB):
            with pytest.raises(NumericError, match=r"cascade moment at m = 100\.0"):
                fit(fading)
        with pytest.raises(NumericError, match=r"Nakagami moment at m = 200\.0"):
            ab.fit_gamma_interferer_caseA(FadingConfig.uniform(200.0, 25))
        with pytest.raises(NumericError, match="m = 100"):
            ab.AnalyticConfig.from_fading(SF7, fading, 1e-3)
