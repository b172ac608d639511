"""Oracle cross-checks behind the command-line `validate` mode.

Each check pits one implementation route against an independent one
(brute-force enumeration, adaptive quadrature, Monte Carlo moments) and
reports pass/fail with a one-line detail, plus the calibration notes of
the closed-form points it compares.  Monte Carlo sample counts scale
with the configured trial budget so the whole suite stays interactive.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic_ber, montecarlo, reference, specfun
from .channel import FadingConfig, aggregate, configure_phases, draw_channels, effective_gains
from .lora_phy import (
    LoRaParams,
    dechirp_dft,
    detect_coherent,
    detect_noncoherent,
    modulate_many,
)


@dataclass(frozen=True)
class CheckResult:
    """`notes` are the calibration notes (`BerBreakdown.notes`) of the
    closed-form points the check compares, each once, in order."""

    name: str
    passed: bool
    detail: str
    notes: tuple[str, ...] = ()


def _check_chirp_orthogonality(params: LoRaParams, *_):
    K = params.K
    table = modulate_many(np.arange(K), params)
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
    for sf in range(2, 10):
        p = LoRaParams(sf)
        symbols = np.arange(p.K)
        detected = detect_noncoherent(dechirp_dft(modulate_many(symbols, p), p))
        wrong = np.flatnonzero(detected != symbols)
        if wrong.size:
            c = wrong[0]
            worst = f"sf={sf}, symbol {c} detected as {detected[c]}"
            return CheckResult("noiseless demodulation round-trip", False, worst)
    return CheckResult("noiseless demodulation round-trip", True, "sf 2..9, all symbols")


def _check_fft_matches_direct(params: LoRaParams, _fading, _trials, rng):
    y = rng.standard_normal((4, params.K)) + 1j * rng.standard_normal((4, params.K))
    err = float(np.abs(dechirp_dft(y, params) - reference.dechirp_dft_direct(y, params)).max())
    return CheckResult("FFT vs direct-sum DFT", err < 1e-9, f"max deviation {err:.2e}")


def _check_noise_calibration(params: LoRaParams, fading: FadingConfig, trials, rng):
    # the production block kernel with a zero target gain and no
    # interferer: per-bin noise variance 1/(snr*K).  As many samples as the
    # budget's SF 7 trials, drawn about a million at a time, so that large
    # SFs stay small in time and memory.
    n = max(1, (max(10_000, min(trials, 200_000)) << 7) // params.K)
    snr_linear = 10 ** (-1.2)
    cfg = montecarlo.SimConfig(
        params=params,
        fading=fading,
        scenario="no_interference",
        detection="noncoherent",
        snr_db_grid=(-12.0,),
        trials_per_point=n,
        seed=0,
    )
    chunk = max(1, (1 << 20) // params.K)
    power = 0.0
    for start in range(0, n, chunk):
        draws = montecarlo.draw_block(cfg, rng, min(chunk, n - start))
        silent = replace(draws, h_eff=np.zeros_like(draws.h_eff))
        for _, _, bins in montecarlo.block_bins(silent, params, rng, (snr_linear,)):
            power += float(np.vdot(bins, bins).real)
    expected = 1.0 / (snr_linear * params.K)
    ratio = power / (n * params.K) / expected
    return CheckResult(
        "per-bin noise variance calibration",
        abs(ratio - 1.0) < 0.03,
        f"measured/expected = {ratio:.4f} over {n} trials",
    )


def _check_leakage_bounds(params: LoRaParams, _fading, _trials, rng):
    K = params.K
    worst = -1.0
    for _ in range(100):
        state = reference.InterfererState(
            int(rng.integers(0, K)), int(rng.integers(0, K)), int(rng.integers(0, K // 2 + 1))
        )
        bound = reference.chi_bound_all_bins(state, params)
        for i in range(K):
            s1, s2 = reference.psi_partial_sums(i, state, params)
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
        state = reference.InterfererState(int(a), int(b), int(t))
        if int(np.argmax(reference.chi_bound_all_bins(state, params))) == b:
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
        expected = analytic_ber.cascade_moment(fading.m_ht, fading.m_gt, 1)
        rel = abs(cascade_sum / n - expected) / expected
        ok &= rel < 0.01
        msgs.append(f"per-element product mean off by {100 * rel:.2f}%")
    expected_int = analytic_ber.incoherent_power_moments(fading.m2, fading.n_elements)[0]
    rel_int = abs(power_sum / n - expected_int) / expected_int
    ok &= rel_int < 0.015
    msgs.append(f"interferer mean power off by {100 * rel_int:.2f}%")
    return CheckResult("channel moment calibration", ok, "; ".join(msgs))


def _check_gamma_fit(params: LoRaParams, fading: FadingConfig, trials, rng):
    # scipy.stats costs about 0.5 s to import; only this check needs it, so
    # it stays off the import path of every other command.
    from scipy import stats

    n = max(50_000, min(trials, 200_000))
    amp = np.abs(effective_gains(fading, "a", rng, n).h_eff)
    fit = analytic_ber.fit_gamma_target(fading)
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
        worst = max(worst, abs(reference.pcf_d(1.0, z) - closed) / closed)
    trivia = abs(reference.pcf_d(1.0, 0.0) - math.sqrt(math.pi / 2.0)) + abs(
        reference.pcf_d(2.0, 0.0) - 1.0
    )
    ok = worst < 1e-8 and trivia < 1e-8
    return CheckResult(
        "parabolic cylinder identities",
        ok,
        f"max relative deviation {worst:.1e}",
    )


def _crossing_snr_db(error_rate, level: float, top_db: float) -> float | None:
    """The highest whole-dB SNR in [-60 dB, top_db] at which the closed-form
    `error_rate(snr_db)` is at least `level`, or None.

    The scan runs down from `top_db`, 4 dB at a time and then 1 dB at a time
    over the last 4 dB, so it finds the crossing on the high-SNR side, where
    the closed forms fall as the SNR rises; below their calibrated domain
    they may fall again as it drops.
    """
    for coarse in np.arange(top_db, -60.5, -4.0):
        if error_rate(coarse) >= level:
            for fine in (coarse + 3.0, coarse + 2.0, coarse + 1.0):
                if fine <= top_db and error_rate(fine) >= level:
                    return float(fine)
            return float(coarse)
    return None


def _analytic_config(params: LoRaParams, fading: FadingConfig, snr_db: float):
    return analytic_ber.AnalyticConfig.from_fading(params, fading, 10 ** (snr_db / 10.0))


# Symbol error rates at which the noise closed form meets its quadrature
# twin: the span the figures plot and the simulation resolves.  At 1e-5 the
# quadrature's absolute tolerance (1e-14) is at most 1e-9 of the value, so
# the 1e-3 gate measures the cylinder-function reduction, not where the
# quadrature stops.
_NOISE_CHECK_LEVELS = (1e-2, 1e-5)


def _check_noise_closed_form(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    noise_ser = {
        "noncoherent": analytic_ber.noise_ser_noncoherent,
        "coherent": analytic_ber.noise_ser_coherent,
    }
    worst, compared, missing, notes = 0.0, [], [], []
    for detection, closed_form in noise_ser.items():
        snrs = []
        for level in _NOISE_CHECK_LEVELS:
            snr_db = _crossing_snr_db(
                lambda s: closed_form(_analytic_config(params, fading, s)), level, 30.0
            )
            if snr_db is None:
                missing.append(f"{detection} {level:.0e}")
                continue
            cfg = _analytic_config(params, fading, snr_db)
            # the same noise closed form, with its calibration notes
            closed = analytic_ber.ber_no_interference(cfg, detection)
            notes += closed.notes
            oracle = reference.noise_ser_numeric(cfg, detection)
            deviation = abs(closed.p_noise - oracle) / max(oracle, np.finfo(float).tiny)
            worst = max(worst, deviation)
            snrs.append(f"{snr_db:+.0f}")
        compared.append(f"{detection} at {'/'.join(snrs)} dB")
    detail = f"max relative deviation {worst:.1e} ({', '.join(compared)})"
    if missing:
        detail += f"; no SNR reaches {', '.join(missing)}"
    return CheckResult(
        "noise tail closed form vs quadrature",
        worst < 1e-3 and not missing,
        detail,
        tuple(dict.fromkeys(notes)),
    )


def _check_interference_closed_form(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    cfg = analytic_ber.AnalyticConfig.from_fading(params, fading, 10 ** (-2.5))
    worst = 0.0
    for case in (analytic_ber.CASE_SHARED, analytic_ber.CASE_PAIRED):
        for chi in (0.8, 1.0):
            gh = reference.interf_ser_conditional(cfg, case, "noncoherent", chi)
            oracle = reference.interf_ser_conditional_numeric(
                cfg, case, "noncoherent", chi
            )
            if oracle > 1e-12:
                worst = max(worst, abs(gh - oracle) / oracle)
    return CheckResult(
        "interference quadrature sums vs adaptive integration",
        worst < 1e-2,
        f"max relative deviation {worst:.1e}",
    )


def _interpolants(cfg: analytic_ber.AnalyticConfig, case: str) -> dict:
    """Both detectors' interpolants from one build; a NumericError that
    stopped either fails the check that asked."""
    interpolants = analytic_ber._interpolants(cfg, case, montecarlo.DETECTIONS)
    for pieces in interpolants.values():
        if isinstance(pieces, specfun.NumericError):
            raise pieces
    return interpolants


def _check_piece_bounded_sum(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    # every piece the interpolant kept, against the terms it gave up
    # (reference.pieces_given_up), which may not pass _PRUNE_FRACTION *
    # _CHEB_TOL of the largest sum
    budget = analytic_ber._PRUNE_FRACTION * analytic_ber._CHEB_TOL
    worst, ok, count = 0.0, True, 0
    for snr_db in (-35.0, -25.0, -12.0):
        cfg = analytic_ber.AnalyticConfig.from_fading(params, fading, 10 ** (snr_db / 10.0))
        for case in (analytic_ber.CASE_SHARED, analytic_ber.CASE_PAIRED):
            terms = analytic_ber._double_sum_terms(cfg, case)
            for pieces in _interpolants(cfg, case).values():
                given_up, scale = reference.pieces_given_up(terms, pieces)
                ok &= bool(np.all(given_up <= budget * scale))
                worst = max(worst, float(given_up.max()) / max(scale, np.finfo(float).tiny))
                count += len(pieces)
    return CheckResult(
        "mass the interpolant's pieces give up",
        ok,
        f"largest {worst:.1e} of the largest sum (budget {budget:.0e}; "
        f"{count} pieces, 3 SNRs x 2 cases x 2 detections)",
    )


def _check_compressed_rule(params: LoRaParams, fading: FadingConfig, _trials, _rng):
    # the interpolant's mean over the chi rule its narrowest piece calls
    # for, against its mean over every distinct value of the table weighted
    # by its count, one staircase angle at a time
    values, counts = analytic_ber._distinct_chi(params)
    table = (values, counts / counts.sum())
    worst = 0.0
    for snr_db in (-35.0, -12.0, 10.0):
        cfg = analytic_ber.AnalyticConfig.from_fading(params, fading, 10 ** (snr_db / 10.0))
        for case in (analytic_ber.CASE_SHARED, analytic_ber.CASE_PAIRED):
            for detection, pieces in _interpolants(cfg, case).items():
                level = analytic_ber._rule_level(pieces, values[0], values[-1])
                cosines, shares = analytic_ber._staircase(detection, cfg.staircase_m)
                rule = analytic_ber._rule_mean(
                    pieces, *analytic_ber._chi_rule(params, level), cosines, shares
                )
                full = sum(
                    share * analytic_ber._rule_mean(pieces, *table, [cosine], [1.0])
                    for cosine, share in zip(cosines, shares)
                )
                worst = max(worst, float(abs(rule - full) / full))
    return CheckResult(
        "compressed chi rule vs full-table mean",
        worst < 1e-12,
        f"max relative deviation {worst:.1e} (3 SNRs x 2 cases x 2 detections)",
    )


def _check_block_kernel(params: LoRaParams, fading: FadingConfig, _trials, rng):
    # the production block kernel against the time-domain chain on the same
    # draws, every scenario, offsets over the whole symbol; the oracle draws
    # the noise in one shot from a copy of the generator, the kernel chunk by
    # chunk from `rng` itself.  Both give their bins in the target's phase
    # frame, so the coherent detector reads them as they are.  The deviation
    # is taken relative to the largest bin, since gains grow with the surface
    worst, differing, size = 0.0, 0, 32
    for scenario in montecarlo.SCENARIOS:
        cfg = montecarlo.SimConfig(
            params=params,
            fading=fading,
            scenario=scenario,
            detection="noncoherent",
            snr_db_grid=(-25.0,),
            trials_per_point=size,
            seed=0,
            full_offset_range=True,
        )
        draws = montecarlo.draw_block(cfg, rng, size)
        expected = reference.time_domain_bins(draws, params, copy.deepcopy(rng), 10 ** (-2.5))
        scale = max(1.0, float(np.abs(expected).max()))
        for rows, _, bins in montecarlo.block_bins(draws, params, rng, (10 ** (-2.5),)):
            worst = max(worst, float(np.abs(bins - expected[rows]).max()) / scale)
            differing += int(np.count_nonzero(
                detect_noncoherent(bins) != detect_noncoherent(expected[rows])
            ))
            differing += int(np.count_nonzero(
                detect_coherent(bins) != detect_coherent(expected[rows])
            ))
    return CheckResult(
        "dechirped-domain block vs time-domain chain",
        worst < 1e-12 and differing == 0,
        f"max relative deviation {worst:.1e}, {differing} differing decisions "
        f"({len(montecarlo.SCENARIOS)} scenarios x {size} trials, both detectors)",
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


# Closed-form bit error rate at which the simulation is compared: with at
# least 50,000 SF 7 trials it expects 350 or more bit errors, so the
# factor-2 band is over ten standard deviations wide, and the early stop at
# 2000 bit errors bounds the cost of the points above it.
_SIM_CHECK_LEVEL = 1e-3


def _check_sim_vs_analytic(params: LoRaParams, fading: FadingConfig, trials, _rng):
    # scanned down from the top of the paper's grid: the interference
    # double sum gets dearer above it
    def closed_form(snr_db):
        acfg = _analytic_config(params, fading, snr_db)
        [result] = analytic_ber.ber(acfg, analytic_ber.CASE_SHARED, ("noncoherent",))
        if isinstance(result, specfun.NumericError):
            raise result
        return result

    snr_db = _crossing_snr_db(lambda s: closed_form(s).ber, _SIM_CHECK_LEVEL, -10.0)
    if snr_db is None:
        return CheckResult(
            "simulation vs closed form (shared surface)", False,
            f"no SNR in [-60, -10] dB with a predicted BER of {_SIM_CHECK_LEVEL:.0e} or more",
        )
    closed = closed_form(snr_db)
    model = closed.ber
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
        closed.notes,
    )


def _check_shared_detector_pass(params: LoRaParams, fading: FadingConfig, trials, _rng):
    # a sweep that runs both detectors on the same blocks against one
    # run_point per detector; as many samples as the budget's SF 7 trials,
    # up to 20,000, so that large SFs stay small, but at least 625 trials,
    # so that both detectors err at SF 12, where 62 trials can leave the
    # coherent one without a bit error
    n = max(625, (min(trials, 20_000) << 7) // params.K)
    cfg = montecarlo.SimConfig(
        params=params,
        fading=fading,
        scenario="case_b",  # error-rich at this SNR, so the check has teeth
        detection="noncoherent",
        snr_db_grid=(-25.0,),
        trials_per_point=n,
        seed=20_240_902,
        # 2% of the budget's bits: on the paired surface at -25 dB this
        # usually stops the non-coherent detector early and not the coherent one
        max_bit_errors=n * params.sf // 50,
    )
    shared = montecarlo.run_sweep(cfg, detections=montecarlo.DETECTIONS)
    alone = {
        pair: montecarlo.run_point(replace(cfg, detection=pair[1]), pair[0]) for pair in shared
    }
    ok = shared == alone and all(est.bit_errors > 0 for est in alone.values())
    return CheckResult(
        "shared detector pass vs one detector at a time",
        ok,
        ", ".join(
            f"{pair[1]} {shared[pair].bit_errors}/{est.bit_errors} bit errors "
            f"in {shared[pair].trials}/{est.trials} trials"
            for pair, est in alone.items()
        ),
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
    _check_block_kernel,
    _check_determinism,
    _check_sim_vs_analytic,
    _check_piece_bounded_sum,
    _check_compressed_rule,
    _check_shared_detector_pass,
)


def run_validation(
    params: LoRaParams, fading: FadingConfig, trials: int, seed: int
) -> list[CheckResult]:
    """Run every cross-check; Monte Carlo sizes scale with `trials`.  A
    check that raises NumericError fails under its function's name."""
    results = []
    for index, check in enumerate(_CHECKS):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(900, index)))
        )
        try:
            results.append(check(params, fading, trials, rng))
        except specfun.NumericError as exc:
            name = check.__name__.removeprefix("_check_").replace("_", " ")
            results.append(CheckResult(name, False, f"numeric failure: {exc}"))
    return results
