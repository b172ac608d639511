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

Every row is independent from its noise draw to its detector decision, so
a block streams through chunks of `_TONE_CHUNK` samples of whole rows (4
rows at SF 12, 128 at SF 7): each chunk draws its noise into one reused
buffer, adds the tones, transforms in place, adds the target, and the
detectors write their decisions for its rows.  No (block, K) array exists;
an SF 12 block of 2,048 trials peaks at about 5 MB of allocations, mostly
its gain draw, against 134 MB for its received block alone.

Reproducibility contract: trials are processed in fixed-size blocks, and
every block gets its own `SFC64` random stream, seeded by
`SeedSequence(seed, spawn_key=(point index, block index))`.  Results are
therefore identical for a given seed no matter how many workers run the
blocks, and the block size is a module constant because changing it
changes the stream mapping.  A block draws c, i1, i2, tau, the gains and
then the noise; the noise is drawn chunk by chunk from the block's stream,
and since a generator fills normals in sequence, the chunks hold exactly
the variates of one (block, 2K) draw, whatever the chunk size.  Changing
the bit generator, or the order in which a block draws its variates,
changes every result for a fixed seed.

Detector policy: every detector a sweep asks for reads the bins of the
same blocks, which none of them writes.  Each detector keeps its own
tally and applies the early-stop rule to it alone; once it stops it counts
no further block, and a point draws blocks only while some detector is
still counting.  A detector therefore counts exactly the blocks it would
count on its own, so its estimate is the same whether it runs alone or
beside the other, and the two estimates share every draw.

Pool policy: parallel runs keep at most `workers` blocks in flight on one
thread pool, and submit no further block of a point once every detector
has stopped.  The pool is the caller's when it passes one (the command
line opens one per run, which the closed forms share), else one is started
for the sweep, or for the point when `run_point` is called on its own.
Threads suffice because a block spends its time in numpy calls that
release the interpreter lock (the normal fills, the FFT, the gathers,
`argmax` and the ufuncs), and they share one copy of the lookup tables
where worker processes would each hold their own.  A block shares no
mutable state with another: it owns its generator and its chunk buffer.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .channel import FadingConfig, aggregate, configure_phases, draw_channels
# build_interferer_frames, dechirp_dft and modulate_many are the time-domain
# chain that block_bins replaces: only its oracle, time_domain_bins, calls
# them, and they are imported here because the benchmark's trace spans
# (perfbench/spans.py) wrap them by these names in this namespace.
from .interference import build_interferer_frames
from .lora_phy import (
    LoRaParams,
    _tones,
    count_bit_errors_many,
    dechirp_dft,
    detect_coherent,
    detect_noncoherent,
    modulate_many,
)

_BLOCK = 4096

# Samples per row chunk of a block: a block is drawn, built, transformed
# and detected this many samples (whole rows) at a time, in one reused
# 256 KB buffer, so no (block, K) array is ever held.
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
        if not all(map(math.isfinite, self.snr_db_grid)):
            raise ValueError(f"SNR grid must be finite, got {self.snr_db_grid}")
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
    the scenario has no interferer.  "ris_free" is "case_a" with no
    elements, and "no_interference" is "case_a" without its interferer."""
    scenario = cfg.scenario
    fading = replace(cfg.fading, n_elements=0) if scenario == "ris_free" else cfg.fading
    case = {"case_b": "b", "blind": "blind"}.get(scenario, "a")
    draw = draw_channels(fading, "b" if case == "b" else "a", rng, size)
    phases = configure_phases(draw, "blind" if case == "blind" else "optimal", rng)
    gains = aggregate(draw, phases, case)
    return gains.h_eff, None if scenario == "no_interference" else gains.h_int


@dataclass(frozen=True)
class BlockDraws:
    """The random variates of one block of trials, in the order drawn,
    except the receiver noise, which `block_bins` draws chunk by chunk.

    `noise_std` is the standard deviation of each real and imaginary part
    of the noise at the dechirped scale: per-sample variance
    1/(snr * K**2), so 1/(snr * K) per DFT bin.  The interferer fields are
    None when the scenario has none.
    """

    c: np.ndarray
    i1: np.ndarray | None
    i2: np.ndarray | None
    tau: np.ndarray | None
    h_eff: np.ndarray
    h_int: np.ndarray | None
    noise_std: float


def draw_block(
    cfg: SimConfig, snr_linear: float, rng: np.random.Generator, size: int
) -> BlockDraws:
    """Draw one block: c, i1, i2, tau, then the gains.  The noise comes
    last in the block's stream, and is left in `rng` for `block_bins`."""
    K = cfg.params.K
    c = rng.integers(0, K, size)
    i1 = i2 = tau = None
    if cfg.scenario != "no_interference":
        i1 = rng.integers(0, K, size)
        i2 = rng.integers(0, K, size)
        tau_hi = (K - 1) if cfg.full_offset_range else K // 2
        tau = rng.integers(0, tau_hi + 1, size)
    h_eff, h_int = _draw_gains(cfg, rng, size)
    return BlockDraws(c, i1, i2, tau, h_eff, h_int, math.sqrt(0.5 / (snr_linear * K * K)))


def block_bins(
    draws: BlockDraws, params: LoRaParams, rng: np.random.Generator
) -> Iterator[tuple[slice, np.ndarray]]:
    """DFT bins of the dechirped received block, `_TONE_CHUNK` samples of
    whole rows at a time; yields (rows, bins) with one row per trial.

    `rng` must stand where `draw_block` left it.  Each chunk draws its
    noise from it into one reused buffer ((rows, 2K) normals viewed as
    (rows, K) complex samples, the rows of the one-shot draw in order),
    adds the interferer, the tone of i1 for its first tau samples and of
    i2 after, transforms in place, and adds h_eff to bin c, where the
    dechirped target symbol puts exactly its gain.  Every `bins` is a view
    of that buffer, which the next chunk overwrites.
    """
    K = params.K
    size = draws.c.size
    step = max(1, _TONE_CHUNK // K)
    buffer = np.empty((min(step, size), 2 * K))
    n = np.arange(K)
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        normals = buffer[: rows.stop - start]
        rng.standard_normal(out=normals)
        normals *= draws.noise_std
        y = normals.view(np.complex128)
        if draws.h_int is not None:
            symbols = np.where(
                n < draws.tau[rows, None], draws.i1[rows, None], draws.i2[rows, None]
            )
            tones = _tones(symbols, params.sf)
            tones *= draws.h_int[rows, None]
            y += tones
        np.fft.fft(y, axis=-1, out=y)
        y[np.arange(len(y)), draws.c[rows]] += draws.h_eff[rows]
        yield rows, y


def time_domain_bins(
    draws: BlockDraws, params: LoRaParams, rng: np.random.Generator
) -> np.ndarray:
    """The bins of block_bins, all rows at once, by the time-domain chain;
    the slow oracle for it.

    `rng` must stand where block_bins starts, e.g. a copy of the block's
    generator taken after `draw_block`: the whole (size, K) noise is drawn
    from it in one call.  Synthesises h_eff * chirp(c) + h_int *
    interferer frame + w, with the receiver noise w = K * base chirp *
    dechirped-scale noise, then dechirps and transforms.
    """
    K = params.K
    noise = rng.standard_normal((draws.c.size, 2 * K))
    noise *= draws.noise_std
    received = K * modulate_many(0, params) * noise.view(np.complex128)  # base chirp
    received += draws.h_eff[:, None] * modulate_many(draws.c, params)
    if draws.h_int is not None:
        frames = build_interferer_frames(draws.i1, draws.i2, draws.tau, params)
        received += draws.h_int[:, None] * frames
    return dechirp_dft(received, params)


def _detect(detection: str, bins: np.ndarray, compensation: np.ndarray) -> np.ndarray:
    if detection == "noncoherent":
        return detect_noncoherent(bins)
    return detect_coherent(bins, compensation)


def _run_block(
    cfg: SimConfig,
    snr_linear: float,
    rng: np.random.Generator,
    size: int,
    detections: tuple[str, ...],
) -> tuple[np.ndarray, int]:
    """Simulate one block of trials and run every detector in `detections`
    on each chunk of its bins; returns per-trial bit errors, one row per
    detector, and the number of target/interferer peak-bin collisions
    (c == i2)."""
    draws = draw_block(cfg, snr_linear, rng, size)
    compensation = -np.angle(draws.h_eff)  # perfect target-phase estimate
    decisions = np.empty((len(detections), size), dtype=np.intp)
    for rows, bins in block_bins(draws, cfg.params, rng):
        for decided, detection in zip(decisions, detections):
            decided[rows] = _detect(detection, bins, compensation[rows])
    errors = np.stack([
        count_bit_errors_many(draws.c, decided, cfg.params.sf) for decided in decisions
    ])
    collisions = 0 if draws.i2 is None else int(np.count_nonzero(draws.c == draws.i2))
    return errors, collisions


def _block_sizes(cfg: SimConfig) -> list[int]:
    full, rest = divmod(cfg.trials_per_point, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


def _block_task(args) -> tuple[dict[str, int], int, int]:
    cfg, snr_linear, point_index, block_index, size, detections = args
    rng = _substream(cfg.seed, point_index, block_index)
    errors, collisions = _run_block(cfg, snr_linear, rng, size, detections)
    return dict(zip(detections, errors.sum(axis=1).tolist())), size, collisions


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
def worker_pool(workers: int):
    """A pool of `workers` threads, or None for a serial run in the calling
    thread.  On exit, tasks that have not started are cancelled and the
    pool is shut down."""
    if workers <= 1:
        yield None
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _estimate(bit_errors: int, trials: int, collisions: int, sf: int) -> BerEstimate:
    bits_sent = trials * sf
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


def _run_detectors(
    cfg: SimConfig,
    snr_db: float,
    detections: tuple[str, ...],
    workers: int,
    pool: Executor | None,
) -> list[BerEstimate]:
    """One estimate per detector in `detections` at one grid SNR, all read
    off the same blocks (see the module's detector and pool policies)."""
    try:
        point_index = cfg.snr_db_grid.index(snr_db)
    except ValueError:
        raise ValueError(
            f"snr_db={snr_db} is not on the configured grid {cfg.snr_db_grid}"
        ) from None
    snr_linear = 10.0 ** (snr_db / 10.0)
    running = list(detections)
    # A generator expression reads `running` as each block is submitted, so
    # a block runs only the detectors still counting at that moment.
    tasks = (
        (cfg, snr_linear, point_index, block_index, size, tuple(running))
        for block_index, size in enumerate(_block_sizes(cfg))
    )

    tallies = {detection: [0, 0, 0] for detection in detections}  # errors, trials, collisions
    pool_context = worker_pool(workers) if pool is None else nullcontext(pool)
    with pool_context as pool, closing(_block_results(pool, tasks, workers)) as results:
        for block_errors, size, block_collisions in results:
            for detection in tuple(running):
                tally = tallies[detection]
                tally[0] += block_errors[detection]
                tally[1] += size
                tally[2] += block_collisions
                if cfg.max_bit_errors is not None and tally[0] >= cfg.max_bit_errors:
                    running.remove(detection)
            if not running:
                break
    return [_estimate(*tallies[detection], cfg.params.sf) for detection in detections]


def run_point(
    cfg: SimConfig, snr_db: float, workers: int = 1, *, pool: Executor | None = None
) -> BerEstimate:
    """Estimate the bit error rate of `cfg.detection` at one grid SNR.

    Blocks are accumulated in index order and the early-stop rule is
    evaluated at block boundaries, so the counted set of trials (and hence
    the estimate) is independent of the worker count.  With `workers > 1`
    the blocks run on `pool` when one is given, else on a pool started for
    this point.
    """
    return _run_detectors(cfg, snr_db, (cfg.detection,), workers, pool)[0]


def run_sweep(
    cfg: SimConfig,
    workers: int = 1,
    *,
    detections: tuple[str, ...] | None = None,
    pool: Executor | None = None,
) -> list[BerPoint]:
    """One BerPoint per grid SNR and detector, SNR-major, the detectors in
    the order of `detections` (default: `cfg.detection` alone).

    Every detector reads the bins of the same blocks and gets the estimate
    a sweep of it alone would give.  With `workers > 1` the blocks run on
    `pool` when one is given, else on one pool started for the sweep.
    """
    detections = (cfg.detection,) if detections is None else tuple(detections)
    unknown = set(detections) - set(DETECTIONS)
    if not detections or unknown or len(set(detections)) < len(detections):
        raise ValueError(f"detections must be distinct entries of {DETECTIONS}")
    points = []
    pool_context = worker_pool(workers) if pool is None else nullcontext(pool)
    with pool_context as pool:
        for snr_db in cfg.snr_db_grid:
            estimates = _run_detectors(cfg, snr_db, detections, workers, pool)
            points += [
                BerPoint(
                    scenario=cfg.scenario,
                    detection=detection,
                    sf=cfg.params.sf,
                    n_elements=cfg.fading.n_elements,
                    m=cfg.fading.m1,
                    snr_db=snr_db,
                    seed=cfg.seed,
                    estimate=estimate,
                )
                for detection, estimate in zip(detections, estimates)
            ]
    return points
