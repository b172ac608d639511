"""Exact-signal-model Monte Carlo bit-error-rate estimation.

Each trial draws fresh symbols, offset, and channel gains (block fading,
one independent draw per symbol), synthesizes the received samples, and
runs them through the real demodulator.  Nothing here touches the
cross-correlation bounds, Gamma fits, or quadrature machinery of the
analytic engine, so the two sides cross-validate each other.

Reproducibility contract: trials are processed in fixed-size blocks, and
every block gets its own `SFC64` random stream, seeded by
`SeedSequence(seed, spawn_key=(point index, block index))`.  Results are
therefore identical for a given seed no matter how many workers run the
blocks, and the block size is a module constant because changing it
changes the stream mapping.  Changing the bit generator, or the order in
which a block draws its variates, changes every result for a fixed seed.

Parallel runs use one process pool per sweep, keep at most `workers`
blocks in flight, and submit no further block of a point once its early
stop fires.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .channel import FadingConfig, aggregate, configure_phases, draw_channels
from .interference import build_interferer_frames
from .lora_phy import (
    LoRaParams,
    count_bit_errors_many,
    dechirp_dft,
    detect_coherent,
    detect_noncoherent,
    modulate_many,
)

_BLOCK = 4096

SCENARIOS = ("case_a", "case_b", "ris_free", "blind", "no_interference")
DETECTIONS = ("noncoherent", "coherent")


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: scenario, detector, SNR grid, and budget."""

    params: LoRaParams
    fading: FadingConfig
    scenario: str
    detection: str
    snr_db_grid: tuple[float, ...]
    trials_per_point: int
    seed: int
    max_bit_errors: int | None = 1000
    full_offset_range: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.detection not in DETECTIONS:
            raise ValueError(f"unknown detection {self.detection!r}")
        if not self.snr_db_grid:
            raise ValueError("SNR grid must not be empty")
        if self.trials_per_point < 1:
            raise ValueError("need at least one trial per point")
        if self.max_bit_errors is not None and self.max_bit_errors < 1:
            raise ValueError("early-stop threshold must be >= 1 (or None)")


@dataclass(frozen=True)
class BerEstimate:
    """Bit-error estimate with a Wilson 95% interval on the bit-error rate."""

    ber: float
    bit_errors: int
    bits_sent: int
    ci95_low: float
    ci95_high: float
    trials: int
    collisions: int  # trials whose target symbol equals the interferer's i2


@dataclass(frozen=True)
class BerPoint:
    """Simulated estimate plus the identifying metadata for one grid point."""

    scenario: str
    detection: str
    sf: int
    n_elements: int
    m: float
    snr_db: float
    seed: int
    estimate: BerEstimate


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _substream(seed: int, point_index: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_index, block_index))
    return np.random.Generator(np.random.SFC64(ss))


def _draw_gains(cfg: SimConfig, rng: np.random.Generator, size: int):
    """Effective target/interferer gains for one block; h_int is None when
    the scenario has no interferer."""
    fading = cfg.fading
    if cfg.scenario == "ris_free":
        direct = FadingConfig(
            fading.m1, fading.m2, fading.m_ht, fading.m_gt, fading.m_hi,
            fading.m_gi, 0,
        )
        draw = draw_channels(direct, "a", rng, size)
        gains = aggregate(draw, configure_phases(draw, "optimal"), "ris_free")
        return gains.h_eff, gains.h_int
    if cfg.scenario == "blind":
        draw = draw_channels(fading, "a", rng, size)
        gains = aggregate(draw, configure_phases(draw, "blind", rng), "blind")
        return gains.h_eff, gains.h_int
    if cfg.scenario == "case_b":
        draw = draw_channels(fading, "b", rng, size)
        gains = aggregate(draw, configure_phases(draw, "optimal"), "b")
        return gains.h_eff, gains.h_int
    # case_a and no_interference share the target chain
    draw = draw_channels(fading, "a", rng, size)
    gains = aggregate(draw, configure_phases(draw, "optimal"), "a")
    if cfg.scenario == "no_interference":
        return gains.h_eff, None
    return gains.h_eff, gains.h_int


def _add_scaled(y: np.ndarray, gains: np.ndarray, samples: np.ndarray) -> None:
    """y += gains[:, None] * samples, reusing the samples buffer."""
    samples *= gains[:, None]
    y += samples


def _run_block(
    cfg: SimConfig, snr_linear: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, int]:
    """Simulate one block of trials; returns per-trial bit errors and the
    number of target/interferer peak-bin collisions (c == i2)."""
    params = cfg.params
    K = params.K
    noise_var = 1.0 / (snr_linear * K)  # per-sample, so per-bin after dechirp

    c = rng.integers(0, K, size)
    with_interference = cfg.scenario != "no_interference"
    if with_interference:
        i1 = rng.integers(0, K, size)
        i2 = rng.integers(0, K, size)
        tau_hi = (K - 1) if cfg.full_offset_range else K // 2
        tau = rng.integers(0, tau_hi + 1, size)

    h_eff, h_int = _draw_gains(cfg, rng, size)

    # The received block is built in the noise buffer: (size, 2K) normals
    # viewed as (size, K) complex samples.
    noise = rng.standard_normal((size, 2 * K))
    noise *= math.sqrt(noise_var / 2.0)
    y = noise.view(np.complex128)
    _add_scaled(y, h_eff, modulate_many(c, params))
    if with_interference:
        _add_scaled(y, h_int, build_interferer_frames(i1, i2, tau, params))

    bins = dechirp_dft(y, params)
    if cfg.detection == "noncoherent":
        detected = detect_noncoherent(bins)
    else:
        detected = detect_coherent(bins, -np.angle(h_eff))

    errors = count_bit_errors_many(c, detected, params.sf)
    collisions = int(np.count_nonzero(c == i2)) if with_interference else 0
    return errors, collisions


def _block_sizes(cfg: SimConfig) -> list[int]:
    full, rest = divmod(cfg.trials_per_point, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


def _block_task(args) -> tuple[int, int, int]:
    cfg, snr_linear, point_index, block_index, size = args
    rng = _substream(cfg.seed, point_index, block_index)
    errors, collisions = _run_block(cfg, snr_linear, rng, size)
    return int(errors.sum()), size, collisions


def _block_results(pool: Executor | None, tasks, depth: int):
    """Block results in task order: computed here when `pool` is None, else
    on the pool with at most `depth` blocks in flight.

    A block is submitted only after the caller has taken the oldest
    result, so nothing more is submitted once the caller stops; closing
    the generator cancels the blocks that have not started.
    """
    if pool is None:
        for task in tasks:
            yield _block_task(task)
        return
    pending: deque = deque()
    try:
        for task in tasks:
            pending.append(pool.submit(_block_task, task))
            if len(pending) >= depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


@contextmanager
def _worker_pool(workers: int):
    """A pool of `workers` processes, or None for a serial run.  On exit,
    blocks that have not started are cancelled and the pool is shut down."""
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_point(
    cfg: SimConfig, snr_db: float, workers: int = 1, *, pool: Executor | None = None
) -> BerEstimate:
    """Estimate the bit error rate at one grid SNR.

    Blocks are accumulated in index order and the early-stop rule is
    evaluated at block boundaries, so the counted set of trials (and hence
    the estimate) is independent of the worker count.  With `workers > 1`
    the blocks run on `pool` when one is given (run_sweep shares one
    across its points), else on a pool started for this point.
    """
    try:
        point_index = cfg.snr_db_grid.index(snr_db)
    except ValueError:
        raise ValueError(
            f"snr_db={snr_db} is not on the configured grid {cfg.snr_db_grid}"
        ) from None
    snr_linear = 10.0 ** (snr_db / 10.0)
    tasks = (
        (cfg, snr_linear, point_index, block_index, size)
        for block_index, size in enumerate(_block_sizes(cfg))
    )

    bit_errors = trials = collisions = 0
    pool_context = _worker_pool(workers) if pool is None else nullcontext(pool)
    with pool_context as pool, closing(_block_results(pool, tasks, workers)) as results:
        for block_errors, size, block_collisions in results:
            bit_errors += block_errors
            trials += size
            collisions += block_collisions
            if cfg.max_bit_errors is not None and bit_errors >= cfg.max_bit_errors:
                break

    bits_sent = trials * cfg.params.sf
    low, high = wilson_interval(bit_errors, bits_sent)
    return BerEstimate(
        ber=bit_errors / bits_sent,
        bit_errors=bit_errors,
        bits_sent=bits_sent,
        ci95_low=low,
        ci95_high=high,
        trials=trials,
        collisions=collisions,
    )


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerPoint]:
    """One BerPoint per grid SNR, with scenario metadata attached; all
    points share one pool of `workers` processes."""
    points = []
    with _worker_pool(workers) as pool:
        for snr_db in cfg.snr_db_grid:
            estimate = run_point(cfg, snr_db, workers, pool=pool)
            points.append(
                BerPoint(
                    scenario=cfg.scenario,
                    detection=cfg.detection,
                    sf=cfg.params.sf,
                    n_elements=cfg.fading.n_elements,
                    m=cfg.fading.m1,
                    snr_db=snr_db,
                    seed=cfg.seed,
                    estimate=estimate,
                )
            )
    return points
