import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from chirpfield import analytic_ber, channel
from chirpfield import montecarlo as mc
from chirpfield.channel import FadingConfig
from chirpfield.lora_phy import LoRaParams
from chirpfield.specfun import gamma_fn


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(1_000 + tag)


def as_complex(gain: channel.PolarGain):
    """The complex gain mag * e^{i phase} of a polar draw."""
    return gain.mag * np.exp(1j * gain.phase)


class TestNakagamiSampler:
    def test_rayleigh_mean(self):
        x = channel.sample_nakagami(1.0, rng_for(1), 1_000_000)
        assert abs(x.mean() - math.sqrt(math.pi) / 2) / (math.sqrt(math.pi) / 2) < 0.005

    @pytest.mark.parametrize("m", [0.7, 1.0, 2.0, 4.0])
    def test_unit_mean_square(self, m):
        x = channel.sample_nakagami(m, rng_for(2), 1_000_000)
        assert abs((x**2).mean() - 1.0) < 0.005

    def test_mean_for_m_two(self):
        # oracle: first-moment formula Gamma(m + 1/2)/Gamma(m) * m^(-1/2)
        expected = float(gamma_fn(2.5) / gamma_fn(2.0)) / math.sqrt(2.0)
        x = channel.sample_nakagami(2.0, rng_for(3), 1_000_000)
        assert abs(x.mean() - expected) / expected < 0.005
        assert expected == pytest.approx(0.9399, abs=2e-4)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            channel.sample_nakagami(0.0, rng_for(4))


class TestDraws:
    def test_no_elements(self):
        cfg = FadingConfig.uniform(2.0, 0)
        draw = channel.draw_channels(cfg, "a", rng_for(5))
        assert draw.h_t.mag.shape == draw.h_t.phase.shape == (0,)
        # the direct link is one full gain: a magnitude and a phase
        assert np.ndim(draw.h_td.mag) == np.ndim(draw.h_td.phase) == 0
        assert draw.h_td.mag > 0 and 0.0 <= draw.h_td.phase < 2 * np.pi

    def test_shared_topology_has_no_interferer_surface_links(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 4), "a", rng_for(6))
        assert draw.g_i is None

    def test_paired_topology_has_them(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 4), "b", rng_for(7))
        assert draw.g_i is not None
        assert draw.g_i.mag.shape == draw.g_i.phase.shape == (4,)

    def test_per_element_product_mean(self):
        cfg = FadingConfig.uniform(2.0, 25)
        draw = channel.draw_channels(cfg, "a", rng_for(8), 40_000)
        products = (draw.h_t.mag * draw.g_t.mag).ravel()  # one million element draws
        expected = analytic_ber.cascade_moment(2.0, 2.0, 1)
        assert abs(products.mean() - expected) / expected < 0.01

    def test_invalid_case(self):
        with pytest.raises(ValueError):
            channel.draw_channels(FadingConfig.uniform(2.0, 4), "c", rng_for(9))


class TestPhases:
    def test_optimal_alignment(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 25), "a", rng_for(10))
        gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
        coherent_sum = (draw.h_t.mag * draw.g_t.mag).sum() + draw.h_td.mag
        assert abs(gains.h_eff) == pytest.approx(coherent_sum, abs=1e-12)

    def test_empty_surface(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 0), "a", rng_for(11))
        phases = channel.configure_phases(draw, "optimal")
        assert phases.shape == (0,)

    def test_blind_needs_rng(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 4), "a", rng_for(12))
        with pytest.raises(ValueError):
            channel.configure_phases(draw, "blind")

    def test_blind_mean_power(self):
        # incoherent sum of N unit-power paths plus the direct link
        rng = rng_for(13)
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 25), "a", rng, 100_000)
        gains = channel.aggregate(draw, channel.configure_phases(draw, "blind", rng), "blind")
        power = (np.abs(gains.h_eff) ** 2).mean()
        assert abs(power - 26.0) / 26.0 < 0.02

    def test_optimal_never_worse_than_blind(self):
        rng = rng_for(14)
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 16), "a", rng, 1000)
        best = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
        blind = channel.aggregate(draw, channel.configure_phases(draw, "blind", rng), "blind")
        assert np.all(np.abs(best.h_eff) >= np.abs(blind.h_eff) - 1e-12)


class TestAggregate:
    def test_no_elements_reduces_to_direct_links(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 0), "a", rng_for(15))
        gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
        assert gains.h_eff == pytest.approx(as_complex(draw.h_td), abs=1e-15)
        assert gains.h_int == pytest.approx(as_complex(draw.h_id), abs=1e-15)

    def test_target_phase_follows_direct_link(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 25), "a", rng_for(16))
        gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
        assert np.angle(gains.h_eff) == pytest.approx(
            np.angle(as_complex(draw.h_td)), abs=1e-12
        )

    def test_paired_interferer_phase_follows_its_direct_link(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 25), "b", rng_for(17))
        gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "b")
        assert np.angle(gains.h_int) == pytest.approx(
            np.angle(as_complex(draw.h_id)), abs=1e-12
        )
        coherent = (draw.h_i.mag * draw.g_i.mag).sum() + draw.h_id.mag
        assert abs(gains.h_int) == pytest.approx(coherent, abs=1e-12)

    def test_case_phase_mismatch(self):
        draw = channel.draw_channels(FadingConfig.uniform(2.0, 4), "a", rng_for(18))
        with pytest.raises(ValueError):
            channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "b")

    def test_shared_interferer_mean_power(self):
        # direct power 1 plus N incoherent unit-power reflections
        rng = rng_for(19)
        total, n = 0.0, 200_000
        for _ in range(10):
            draw = channel.draw_channels(FadingConfig.uniform(2.0, 25), "a", rng, n // 10)
            gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
            total += float((np.abs(gains.h_int) ** 2).sum())
        assert abs(total / n - 26.0) / 26.0 < 0.01


class TestPolarOracle:
    """aggregate against the complex per-element sum on the same draw."""

    @staticmethod
    def reflected(h, theta, g, direct):
        # sum_n h_n e^{i theta_n} g_n + h_direct, from complex gains
        return (as_complex(h) * np.exp(1j * theta) * as_complex(g)).sum(axis=-1) + (
            as_complex(direct)
        )

    @pytest.mark.parametrize("n_elements", [0, 25])
    @pytest.mark.parametrize(
        "topology,mode,case",
        [
            ("a", "optimal", "a"),
            ("b", "optimal", "b"),
            ("a", "blind", "blind"),
            ("b", "blind", "blind"),
        ],
    )
    def test_matches_complex_sum(self, n_elements, topology, mode, case):
        rng = rng_for(30 + n_elements)
        draw = channel.draw_channels(
            FadingConfig.uniform(2.0, n_elements), topology, rng, 2_000
        )
        phases = channel.configure_phases(draw, mode, rng)
        gains = channel.aggregate(draw, phases, case)
        h_eff = self.reflected(draw.h_t, phases, draw.g_t, draw.h_td)
        if case == "b":
            # the paired interferer surface, optimally phased for its own user
            own = draw.h_id.phase[..., None] - draw.h_i.phase - draw.g_i.phase
            h_int = self.reflected(draw.h_i, own, draw.g_i, draw.h_id)
        else:
            h_int = self.reflected(draw.h_i, phases, draw.g_t, draw.h_id)
        np.testing.assert_allclose(gains.h_eff, h_eff, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gains.h_int, h_int, rtol=0, atol=1e-12)


class TestEffectiveGains:
    """The Monte Carlo's batch gain draw against the three-stage route,
    draw_channels -> configure_phases -> aggregate, on the same stream:
    equal bytes, and the generator left at the same place."""

    SHAPES = {
        "uniform": (2.0,) * 6,
        "mixed": (1.5, 3.0, 2.5, 0.8, 4.0, 1.2),
        "below one": (0.7,) * 6,
    }

    @staticmethod
    def three_stage(cfg: mc.SimConfig, rng, size):
        scenario = cfg.scenario
        fading = cfg.fading
        if scenario == "ris_free":
            fading = dataclasses.replace(fading, n_elements=0)
        case = {"case_b": "b", "blind": "blind"}.get(scenario, "a")
        draw = channel.draw_channels(fading, "b" if case == "b" else "a", rng, size)
        phases = channel.configure_phases(draw, "blind" if case == "blind" else "optimal", rng)
        gains = channel.aggregate(draw, phases, case)
        return gains.h_eff, None if scenario == "no_interference" else gains.h_int

    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("n_elements", [0, 1, 25])
    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    def test_same_bytes_as_three_stage_route(self, scenario, n_elements, shapes):
        fading = FadingConfig(*self.SHAPES[shapes], n_elements)
        cfg = mc.SimConfig(LoRaParams(7), fading, scenario, "noncoherent", (0.0,), 1, 1)
        # an odd batch, so the vectorised loops end in a partial vector
        expected_rng, rng = rng_for(40), rng_for(40)
        expected = self.three_stage(cfg, expected_rng, 257)
        h_eff, h_int = mc._draw_gains(cfg, rng, 257)
        assert h_eff.tobytes() == expected[0].tobytes()
        if scenario == "no_interference":
            assert h_int is None
        else:
            assert h_int.tobytes() == expected[1].tobytes()
        assert rng.random(4).tobytes() == expected_rng.random(4).tobytes()

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            channel.effective_gains(FadingConfig.uniform(2.0, 4), "c", rng_for(41), 8)


class TestMoments:
    def test_rayleigh_unit_surface_values(self):
        z1 = analytic_ber.cascade_moment(1.0, 1.0, 1)
        assert z1 == pytest.approx(math.pi / 4, rel=1e-12)
        mu1, _ = analytic_ber.combined_amplitude_moments(1.0, 1.0, 1.0, 1)
        assert mu1 == pytest.approx(math.sqrt(math.pi) / 2 + math.pi / 4, rel=1e-12)
        assert mu1 == pytest.approx(1.6716, abs=2e-4)

    def test_incoherent_power_moments(self):
        mu1, mu2 = analytic_ber.incoherent_power_moments(2.0, 25)
        assert mu1 == pytest.approx(26.0, rel=1e-12)
        # pieces: direct fourth moment (m+1)/m, Gaussian fourth moment 2N^2,
        # and the 4N cross term
        assert mu2 == pytest.approx(1.5 + 2 * 25**2 + 4 * 25, rel=1e-12)
        assert mu2 == pytest.approx(1351.5, rel=1e-12)


class TestGammaFits:
    def test_fit_mean_matches_first_moment(self):
        cfg = FadingConfig.uniform(2.0, 25)
        fit = analytic_ber.fit_gamma_target(cfg)
        mu1, mu2 = analytic_ber.combined_amplitude_moments(2.0, 2.0, 2.0, 25)
        assert fit.mean == pytest.approx(mu1, rel=1e-12)
        assert fit.variance == pytest.approx(mu2 - mu1 * mu1, rel=1e-12)

    def test_target_fit_against_monte_carlo(self):
        cfg = FadingConfig.uniform(2.0, 25)
        fit = analytic_ber.fit_gamma_target(cfg)
        rng = rng_for(20)
        amps = []
        for _ in range(10):
            draw = channel.draw_channels(cfg, "a", rng, 20_000)
            gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
            amps.append(np.abs(gains.h_eff))
        amp = np.concatenate(amps)
        assert abs(amp.mean() - fit.mean) / fit.mean < 0.01
        assert abs(amp.var() - fit.variance) / fit.variance < 0.01

    def test_target_fit_distribution_shape(self):
        cfg = FadingConfig.uniform(2.0, 25)
        fit = analytic_ber.fit_gamma_target(cfg)
        rng = rng_for(21)
        draw = channel.draw_channels(cfg, "a", rng, 100_000)
        gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
        amp = np.abs(gains.h_eff)
        ks = stats.kstest(amp, "gamma", args=(fit.shape, 0.0, 1.0 / fit.rate)).statistic
        assert ks <= 0.05

    def test_shared_interferer_fit_against_monte_carlo(self):
        cfg = FadingConfig.uniform(2.0, 25)
        fit = analytic_ber.fit_gamma_interferer_caseA(cfg)
        rng = rng_for(22)
        powers = []
        for _ in range(10):
            draw = channel.draw_channels(cfg, "a", rng, 10_000)
            gains = channel.aggregate(draw, channel.configure_phases(draw, "optimal"), "a")
            powers.append(np.abs(gains.h_int) ** 2)
        power = np.concatenate(powers)
        assert abs(power.mean() - fit.mean) / fit.mean < 0.02

    def test_paper_literal_estimator_differs(self):
        cfg = FadingConfig.uniform(2.0, 25)
        default = analytic_ber.fit_gamma_target(cfg)
        literal = analytic_ber.fit_gamma_target(cfg, paper_literal_estimator=True)
        assert literal.shape != pytest.approx(default.shape, rel=0.01)
        # both reproduce the first moment
        assert literal.mean == pytest.approx(default.mean, rel=1e-12)
        mu1, mu2 = analytic_ber.combined_amplitude_moments(2.0, 2.0, 2.0, 25)
        assert literal.shape == pytest.approx(mu1 * mu1 / (mu2 - mu1), rel=1e-12)

    def test_paired_fit_equals_target_fit_for_uniform_shapes(self):
        cfg = FadingConfig.uniform(3.0, 20)
        assert analytic_ber.fit_gamma_interferer_caseB(cfg) == analytic_ber.fit_gamma_target(cfg)

    def test_paired_fit_differs_for_unequal_shapes(self):
        cfg = FadingConfig(m1=2.0, m2=4.0, m_ht=2.0, m_gt=2.0, m_hi=4.0, m_gi=4.0,
                           n_elements=20)
        assert analytic_ber.fit_gamma_interferer_caseB(cfg) != analytic_ber.fit_gamma_target(cfg)

    def test_power_scaling_with_element_count(self):
        # target mean-square power grows ~N^2, interferer power ~N: the
        # ratio must increase monotonically with N
        ratios = []
        for n in (5, 10, 20, 40):
            cfg = FadingConfig.uniform(2.0, n)
            _, target_mu2 = analytic_ber.combined_amplitude_moments(2.0, 2.0, 2.0, n)
            interferer_mu1, _ = analytic_ber.incoherent_power_moments(2.0, n)
            ratios.append(target_mu2 / interferer_mu1)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FadingConfig.uniform(0.0, 10)
        with pytest.raises(ValueError):
            FadingConfig.uniform(2.0, -1)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_shape_is_rejected(self, m):
        # NaN once passed, since nan <= 0 is false
        with pytest.raises(ValueError, match="positive and finite"):
            FadingConfig.uniform(m, 25)
