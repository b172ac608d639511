"""Oracle cross-checks behind the command-line `validate` mode.

Each check pits one implementation route against an independent one
(brute-force enumeration, adaptive quadrature, Monte Carlo moments) and
reports pass/fail with a one-line detail.  Monte Carlo sample counts scale
with the configured trial budget so the whole suite stays interactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic_ber, montecarlo, specfun
from .channel import (
    FadingConfig,
    aggregate,
    cascade_moment,
    configure_phases,
    draw_channels,
    fit_gamma_target,
    incoherent_power_moments,
)
from .interference import (
    InterfererState,
    chi_bound_all_bins,
    psi_partial_sums,
)
from .lora_phy import (
    LoRaParams,
    dechirp_dft,
    dechirp_dft_direct,
    detect_noncoherent,
    modulate,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_chirp_orthogonality(params: LoRaParams, *_):
    K = params.K
    table = np.stack([modulate(c, params) for c in range(K)])
    energy_err = float(np.abs((np.abs(table) ** 2).sum(axis=1) - 1.0).max())
    gram = table @ table.conj().T
    off_diag = float(np.abs(gram - np.eye(K)).max())
    ok = energy_err < 1e-12 and off_diag < 1e-10
    return CheckResult(
        "chirp energy and orthogonality",
        ok,
        f"max energy error {energy_err:.2e}, max cross-correlation {off_diag:.2e}",
    )


def _check_round_trip(params: LoRaParams, *_):
    worst = ""
    for sf in range(2, 10):
        p = LoRaParams(sf)
        for c in range(p.K):
            det = detect_noncoherent(dechirp_dft(modulate(c, p), p))
            if det != c:
                worst = f"sf={sf}, symbol {c} detected as {det}"
                return CheckResult("noiseless demodulation round-trip", False, worst)
    return CheckResult("noiseless demodulation round-trip", True, "sf 2..9, all symbols")


def _check_fft_matches_direct(params: LoRaParams, _fading, _trials, rng):
    y = rng.standard_normal((4, params.K)) + 1j * rng.standard_normal((4, params.K))
    err = float(np.abs(dechirp_dft(y, params) - dechirp_dft_direct(y, params)).max())
    return CheckResult("FFT vs direct-sum DFT", err < 1e-9, f"max deviation {err:.2e}")


def _check_noise_calibration(params: LoRaParams, _fading, trials, rng):
    n = max(10_000, min(trials, 200_000))
    noise_var = 0.7
    z = (rng.standard_normal((n, params.K)) + 1j * rng.standard_normal((n, params.K)))
    z *= math.sqrt(noise_var / 2.0)
    bins = dechirp_dft(z, params)
    measured = float((np.abs(bins) ** 2).mean())
    rel = abs(measured - noise_var) / noise_var
    return CheckResult(
        "per-bin noise variance calibration",
        rel < 0.03,
        f"measured/expected = {measured / noise_var:.4f} over {n} trials",
    )


def _check_leakage_bounds(params: LoRaParams, _fading, _trials, rng):
    K = params.K
    worst = -1.0
    for _ in range(100):
        state = InterfererState(
            int(rng.integers(0, K)), int(rng.integers(0, K)), int(rng.integers(0, K // 2 + 1))
        )
        bound = chi_bound_all_bins(state, params)
        for i in range(K):
            s1, s2 = psi_partial_sums(i, state, params)
            worst = max(worst, abs(s1 + s2) - bound[i])
    return CheckResult(
        "triangle bound dominates exact leakage",
        worst <= 1e-12,
        f"max |leakage| - bound = {worst:.2e} over 100 random states",
    )


def _check_peak_bin(params: LoRaParams, _fading, _trials, rng):
    K = params.K
    hits = 0
    n = 10_000
    i1 = rng.integers(0, K, n)
    i2 = rng.integers(0, K, n)
    tau = rng.integers(0, K // 2 + 1, n)
    for a, b, t in zip(i1, i2, tau):
        state = InterfererState(int(a), int(b), int(t))
        if int(np.argmax(chi_bound_all_bins(state, params))) == b:
            hits += 1
    frac = hits / n
    return CheckResult(
        "peak leakage lands on the trailing symbol bin",
        frac >= 0.95,
        f"{100 * frac:.1f}% of {n} random states",
    )


def _check_channel_moments(params: LoRaParams, fading: FadingConfig, trials, rng):
    n = max(50_000, min(trials * 10, 1_000_000))
    chunk = 20_000
    cascade_sum = power_sum = 0.0
    done = 0
    while done < n:
        size = min(chunk, n - done)
        draw = draw_channels(fading, "a", rng, size)
        if fading.n_elements:
            cascade_sum += float((draw.h_t.mag[:, 0] * draw.g_t.mag[:, 0]).sum())
        gains = aggregate(draw, configure_phases(draw, "optimal"), "a")
        power_sum += float((np.abs(gains.h_int) ** 2).sum())
        done += size
    msgs, ok = [], True
    if fading.n_elements:
        expected = cascade_moment(fading.m_ht, fading.m_gt, 1)
        rel = abs(cascade_sum / n - expected) / expected
        ok &= rel < 0.01
        msgs.append(f"per-element product mean off by {100 * rel:.2f}%")
    expected_int = incoherent_power_moments(fading.m2, fading.n_elements)[0]
    rel_int = abs(power_sum / n - expected_int) / expected_int
    ok &= rel_int < 0.015
    msgs.append(f"interferer mean power off by {100 * rel_int:.2f}%")
    return CheckResult("channel moment calibration", ok, "; ".join(msgs))


def _check_gamma_fit(params: LoRaParams, fading: FadingConfig, trials, rng):
    # scipy.stats costs about 0.5 s to import; only this check needs it, so
    # it stays off the import path of every other command.
    from scipy import stats

    n = max(50_000, min(trials, 200_000))
    draw = draw_channels(fading, "a", rng, n)
    gains = aggregate(draw, configure_phases(draw, "optimal"), "a")
    amp = np.abs(gains.h_eff)
    fit = fit_gamma_target(fading)
    rel_mean = abs(float(amp.mean()) - fit.mean) / fit.mean
    ks = stats.kstest(amp, "gamma", args=(fit.shape, 0.0, 1.0 / fit.rate)).statistic
    ok = rel_mean < 0.01 and ks <= 0.05
    return CheckResult(
        "target-gain Gamma fit",
        ok,
        f"mean off by {100 * rel_mean:.2f}%, KS distance {ks:.3f} ({n} draws)",
    )


def _check_quadrature(params, _fading, _trials, _rng):
    worst = 0.0
    for order in range(1, 11):
        rule = specfun.gauss_hermite(order)
        for k in range(2 * order):
            approx = float((rule.weights * rule.nodes**k).sum())
            exact = 0.0 if k % 2 else float(specfun.gamma_fn((k + 1) / 2.0))
            # absolute gate, loosened to float precision for huge moments
            worst = max(worst, abs(approx - exact) / max(1.0, 1e-4 * abs(exact)))
    rule70 = specfun.gauss_hermite(70)
    sum_err = abs(float(rule70.weights.sum()) - math.sqrt(math.pi))
    ok = worst < 1e-9 and sum_err < 1e-10
    return CheckResult(
        "Gauss-Hermite exactness",
        ok,
        f"max moment error {worst:.1e} (orders 1..10), order-70 weight-sum error {sum_err:.1e}",
    )


def _check_cylinder_function(params, _fading, _trials, _rng):
    worst = 0.0
    for z in (0.0, 0.5, 1.0, 2.0):
        closed = math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))
        worst = max(worst, abs(specfun.pcf_d(1.0, z) - closed) / closed)
    trivia = abs(specfun.pcf_d(1.0, 0.0) - math.sqrt(math.pi / 2.0)) + abs(
        specfun.pcf_d(2.0, 0.0) - 1.0
    )
    ok = worst < 1e-8 and trivia < 1e-8
    return CheckResult(
        "parabolic cylinder identities",
        ok,
        f"max relative deviation {worst:.1e}",
    )


def _check_noise_closed_form(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    worst = 0.0
    for snr_db in (-30.0, -26.0):
        cfg = analytic_ber.AnalyticConfig.from_fading(
            params, fading, 10 ** (snr_db / 10.0)
        )
        for detection in ("noncoherent", "coherent"):
            closed = (
                analytic_ber.noise_ser_noncoherent(cfg)
                if detection == "noncoherent"
                else analytic_ber.noise_ser_coherent(cfg)
            )
            oracle = analytic_ber.noise_ser_numeric(cfg, detection)
            if oracle > 1e-300:
                worst = max(worst, abs(closed - oracle) / oracle)
    return CheckResult(
        "noise tail closed form vs quadrature",
        worst < 1e-3,
        f"max relative deviation {worst:.1e}",
    )


def _check_interference_closed_form(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    cfg = analytic_ber.AnalyticConfig.from_fading(params, fading, 10 ** (-2.5))
    worst = 0.0
    for case in (analytic_ber.CASE_SHARED, analytic_ber.CASE_PAIRED):
        for chi in (0.8, 1.0):
            gh = analytic_ber.interf_ser_conditional(cfg, case, "noncoherent", chi)
            oracle = analytic_ber.interf_ser_conditional_numeric(
                cfg, case, "noncoherent", chi
            )
            if oracle > 1e-12:
                worst = max(worst, abs(gh - oracle) / oracle)
    return CheckResult(
        "interference quadrature sums vs adaptive integration",
        worst < 1e-2,
        f"max relative deviation {worst:.1e}",
    )


def _check_determinism(params: LoRaParams, fading: FadingConfig, trials, _rng):
    cfg = montecarlo.SimConfig(
        params=params,
        fading=fading,
        scenario="case_b",  # error-rich at this SNR, so the check has teeth
        detection="noncoherent",
        snr_db_grid=(-25.0,),
        trials_per_point=min(trials, 20_000),
        seed=20_240_901,
        max_bit_errors=None,
    )
    serial = montecarlo.run_point(cfg, -25.0, workers=1)
    repeat = montecarlo.run_point(cfg, -25.0, workers=1)
    parallel = montecarlo.run_point(cfg, -25.0, workers=2)
    ok = (
        serial.bit_errors == repeat.bit_errors == parallel.bit_errors
        and serial.bits_sent == parallel.bits_sent
        and serial.bit_errors > 0
    )
    return CheckResult(
        "seeded simulation determinism (serial == parallel)",
        ok,
        f"bit errors {serial.bit_errors}/{repeat.bit_errors}/{parallel.bit_errors}",
    )


def _check_sim_vs_analytic(params: LoRaParams, fading: FadingConfig, trials, _rng):
    # pick a grid point where the predicted BER is measurable with the
    # configured trial budget
    snr_db, model = None, None
    for candidate in np.arange(-37.0, -15.9, 1.0):
        acfg = analytic_ber.AnalyticConfig.from_fading(
            params, fading, 10 ** (candidate / 10.0)
        )
        value = analytic_ber.ber(acfg, analytic_ber.CASE_SHARED, "noncoherent").ber
        if 1e-4 <= value <= 3e-2:
            snr_db, model = float(candidate), value
            break
    if snr_db is None:
        return CheckResult(
            "simulation vs closed form (shared surface)", False,
            "no grid point with predicted BER in [1e-4, 3e-2]",
        )
    cfg = montecarlo.SimConfig(
        params=params,
        fading=fading,
        scenario="case_a",
        detection="noncoherent",
        snr_db_grid=(snr_db,),
        trials_per_point=max(trials, 50_000),
        seed=7,
        max_bit_errors=2000,
    )
    est = montecarlo.run_point(cfg, snr_db)
    ok = est.bit_errors >= 5 and 0.5 * est.ber <= model <= 2.0 * est.ber
    return CheckResult(
        "simulation vs closed form (shared surface)",
        ok,
        f"at {snr_db:+.0f} dB simulated {est.ber:.3e}, closed form {model:.3e}",
    )


_CHECKS = (
    _check_chirp_orthogonality,
    _check_round_trip,
    _check_fft_matches_direct,
    _check_noise_calibration,
    _check_leakage_bounds,
    _check_peak_bin,
    _check_channel_moments,
    _check_gamma_fit,
    _check_quadrature,
    _check_cylinder_function,
    _check_noise_closed_form,
    _check_interference_closed_form,
    _check_determinism,
    _check_sim_vs_analytic,
)


def run_validation(
    params: LoRaParams, fading: FadingConfig, trials: int, seed: int
) -> list[CheckResult]:
    """Run every cross-check; Monte Carlo sizes scale with `trials`."""
    results = []
    for index, check in enumerate(_CHECKS):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(900, index)))
        )
        results.append(check(params, fading, trials, rng))
    return results
