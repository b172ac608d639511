"""Exact-signal-model Monte Carlo bit-error-rate estimation.

Each trial draws fresh symbols, offset, and channel gains (block fading,
one independent draw per symbol) and receiver noise, builds the dechirped
received samples, and runs them through the real DFT and detectors.  The
block is built after the dechirp because there the signal model is exact
and cheap: sample n of symbol c times the conjugate base chirp is
(1/K) * exp(2*pi*i*c*n/K), so the target adds exactly its gain to bin c
and nothing to any other bin, the interferer is a gather of the tones of
i1 (before tau) and i2 (after), and white circular Gaussian noise keeps its
law under the unit-modulus dechirp, so it is drawn at the dechirped scale.
`time_domain_bins` synthesises the same draws as chirps and dechirps them;
it is the tested oracle of `block_bins`.  Nothing here touches the
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
# build_interferer_frames, dechirp_dft, modulate and modulate_many are the
# time-domain chain that block_bins replaces: only its oracle,
# time_domain_bins, calls them, and the benchmark's trace spans
# (perfbench/spans.py) wrap three of them under these names.
from .interference import build_interferer_frames
from .lora_phy import (
    LoRaParams,
    _tones,
    count_bit_errors_many,
    dechirp_dft,
    detect_coherent,
    detect_noncoherent,
    modulate,
    modulate_many,
)

_BLOCK = 4096

# Samples of interferer tones gathered at a time, so that no second
# (block, K) complex array is ever held next to the received block.
_TONE_CHUNK = 1 << 14

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


@dataclass(frozen=True)
class BlockDraws:
    """The random variates of one block of trials, in the order drawn.

    `noise` is the (size, K) complex receiver noise at the dechirped scale,
    per-sample variance 1/(snr * K**2), so 1/(snr * K) per DFT bin.  The
    interferer fields are None when the scenario has none.
    """

    c: np.ndarray
    i1: np.ndarray | None
    i2: np.ndarray | None
    tau: np.ndarray | None
    h_eff: np.ndarray
    h_int: np.ndarray | None
    noise: np.ndarray


def draw_block(
    cfg: SimConfig, snr_linear: float, rng: np.random.Generator, size: int
) -> BlockDraws:
    """Draw one block: c, i1, i2, tau, the gains, then the noise."""
    K = cfg.params.K
    c = rng.integers(0, K, size)
    i1 = i2 = tau = None
    if cfg.scenario != "no_interference":
        i1 = rng.integers(0, K, size)
        i2 = rng.integers(0, K, size)
        tau_hi = (K - 1) if cfg.full_offset_range else K // 2
        tau = rng.integers(0, tau_hi + 1, size)
    h_eff, h_int = _draw_gains(cfg, rng, size)
    # (size, 2K) normals viewed as (size, K) complex samples
    noise = rng.standard_normal((size, 2 * K))
    noise *= math.sqrt(0.5 / (snr_linear * K * K))
    return BlockDraws(c, i1, i2, tau, h_eff, h_int, noise.view(np.complex128))


def block_bins(draws: BlockDraws, params: LoRaParams) -> np.ndarray:
    """DFT bins of the dechirped received block, one row per trial.

    Built in the dechirped domain, where the target symbol c is a tone
    that adds exactly h_eff to bin c, and the interferer is the tone of i1
    for its first tau samples and of i2 after.  The bins are built in, and
    returned as, the buffer of `draws.noise`, which is consumed.
    """
    y = draws.noise
    size, K = y.shape
    if draws.h_int is not None:
        n = np.arange(K)
        step = max(1, _TONE_CHUNK // K)
        for start in range(0, size, step):
            rows = slice(start, start + step)
            symbols = np.where(
                n < draws.tau[rows, None], draws.i1[rows, None], draws.i2[rows, None]
            )
            tones = _tones(symbols, params.sf)
            tones *= draws.h_int[rows, None]
            y[rows] += tones
    np.fft.fft(y, axis=-1, out=y)
    y[np.arange(size), draws.c] += draws.h_eff
    return y


def time_domain_bins(draws: BlockDraws, params: LoRaParams) -> np.ndarray:
    """block_bins by the time-domain chain; the slow oracle for it.

    Synthesises h_eff * chirp(c) + h_int * interferer frame + w, with the
    receiver noise w = K * base chirp * draws.noise, then dechirps and
    transforms.  It leaves draws.noise intact, so call it before block_bins.
    """
    received = params.K * modulate(0, params) * draws.noise  # symbol 0: base chirp
    received += draws.h_eff[:, None] * modulate_many(draws.c, params)
    if draws.h_int is not None:
        frames = build_interferer_frames(draws.i1, draws.i2, draws.tau, params)
        received += draws.h_int[:, None] * frames
    return dechirp_dft(received, params)


def _run_block(
    cfg: SimConfig, snr_linear: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, int]:
    """Simulate one block of trials; returns per-trial bit errors and the
    number of target/interferer peak-bin collisions (c == i2)."""
    draws = draw_block(cfg, snr_linear, rng, size)
    bins = block_bins(draws, cfg.params)
    if cfg.detection == "noncoherent":
        detected = detect_noncoherent(bins)
    else:
        detected = detect_coherent(bins, -np.angle(draws.h_eff))

    errors = count_bit_errors_many(draws.c, detected, cfg.params.sf)
    collisions = 0 if draws.i2 is None else int(np.count_nonzero(draws.c == draws.i2))
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
