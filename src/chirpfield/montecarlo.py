"""Exact-signal-model Monte Carlo bit-error-rate estimation.

Each trial draws fresh symbols, offset, and channel gains (block fading,
one independent draw per symbol) and receiver noise, builds the DFT bins
of the dechirped received samples, and runs them through the detectors.
The block is built after the dechirp because there the signal model is
exact and cheap: sample n of symbol c times the conjugate base chirp is
(1/K) * exp(2*pi*i*c*n/K), so the target adds exactly its gain to bin c
and nothing to any other bin, and the interferer is a gather of the tones
of i1 (before tau) and i2 (after), which one FFT takes to its bins.  White
circular Gaussian noise keeps its law under the unit-modulus dechirp and
under the DFT (F * F^H = K * I), so the receiver noise is drawn directly
as bin noise of variance 1/(snr * K) and never transformed; this extends
the dechirp-then-DFT view of Vangelista (IEEE SPL 24(12), 2017) from the
target to the noise.

Every row's bins are built in the target's phase frame: rotated by
exp(-i*angle(h_eff)).  The receiver noise is circularly symmetric and
independent of the gains, so a rotation by a function of the gains leaves
the joint law unchanged, and the unit normals are read as noise already in
that frame.  The target then adds the real |h_eff| to bin c, and the
rotation is folded into the per-row scale h_int * exp(-i*angle(h_eff))
that the interferer's tones get anyway, so it costs no pass over the bins.
In that frame coherent detection with perfect phase compensation is the
argmax of the real parts, and non-coherent detection, which no rotation of
a row changes, the argmax of the squared magnitudes.
`reference.time_domain_bins` maps the same bin noise B to the physical
noise B * exp(i*angle(h_eff)), takes it to the time domain by an inverse
FFT, synthesises the same draws as chirps, dechirps and transforms them,
and rotates the result into the target's frame; it is the tested oracle of
`block_bins`.  Only `channel` and `lora_phy` are imported, never the
bounds, Gamma fits, quadrature or SciPy of the analytic engine, so the two
sides cross-validate each other.

Every row is independent from its noise draw to its detector decision, so
a block streams through chunks of `_TONE_CHUNK` samples of whole rows (4
rows at SF 12, 128 at SF 7).  Only the noise scale depends on the SNR: the
symbols, offset, gains and unit-variance noise do not.  So each chunk draws
its unit bin noise into one reused buffer and gathers and transforms the
interferer's tones once, and then, for each SNR the block serves, scales
the noise, adds the transformed tones and the target, and the detectors at
that SNR write their decisions for its rows.  A chunk therefore costs one
FFT whatever the number of SNRs, and a block without an interferer none.
A block that serves one SNR scales the noise in place, and one that serves
several scales it into a second reused buffer for each SNR.  Both buffers
hold 256 KB; the tones of a chunk take another 256 KB, transformed in
place, and their symbol indices 128 KB while the tones are built.  The
detectors' temporaries are real (rows, K) arrays of 128 KB: one for the
real parts, two for the squared parts.  No (block, K) array exists: an
SF 12 `case_b` block of 2,048 trials with both detectors peaks at 1.13 MB
of allocations at one SNR and 1.40 MB at four (`tracemalloc`), against
134 MB for its received block alone.  The gain draw
(`channel.effective_gains`) holds at most four (block, N) arrays on the
shared surface, 3.3 MB for 4,096 trials at N = 25 (3.8 MB of peak with its
direct links), two on the paired one and six under blind phasing.

Reproducibility contract: trials are processed in fixed-size blocks, and
every block gets its own `SFC64` random stream, seeded by
`SeedSequence(seed, spawn_key=(block index,))`.  The stream does not depend
on the SNR, so block b of every point of a sweep holds the same draws and
is drawn once for all of them.  Results are identical for a given seed no
matter how many workers run the blocks, and the block size is a module
constant because changing it changes the stream mapping.  A block draws c,
i1, i2, tau, the gains and then the bin noise; the noise is drawn chunk
by chunk from the block's stream, and since a generator fills normals in
sequence, the chunks hold exactly the variates of one (block, 2K) draw,
whatever the chunk size.  Changing the bit generator, or the order in
which a block draws its variates, changes every result for a fixed seed.

Pair policy: a sweep estimates one (SNR, detector) pair per grid point and
detector, and every pair reads the bins of the same blocks, which none of
them writes.  Each pair keeps its own tally and applies the early-stop rule
to it alone; once it stops it counts no further block, and a block is
handed only the pairs still counting when it is submitted.  A pair
therefore counts exactly the blocks it would count on its own, and since
its bins are bitwise those of a block that serves its SNR alone, its
estimate is the same whether it runs alone or beside the others.  The rows
of one sweep share every draw, so their errors are correlated across SNR
and detector.

Pool policy: `run_sweep` starts a pool of `workers` threads (none at one
worker; fewer than one or more than `MAX_WORKERS` is refused) and shuts it
down before it returns; `run_point` is the one entry of a one-point sweep.
It runs its blocks in one loop, in index order: it keeps at most `workers`
blocks submitted but not yet taken, hands each block the pairs still
counting when it is submitted, takes and tallies the results in index
order, and submits no further block once every pair has stopped.  The
pool's shutdown cancels the blocks that have not started, and at one
worker each block runs in the calling thread.  Threads suffice because a
block spends its time in numpy calls that release the interpreter lock
(the normal fills, the FFT, the gathers, `argmax` and the ufuncs), and
they share one copy of the tone table where worker processes would each
hold their own.  A block shares no mutable state with another: it owns its
generator and its chunk buffers.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

# aggregate, configure_phases and draw_channels, the three-stage gain draw
# that effective_gains replaces, and build_interferer_frames, dechirp_dft
# and modulate_many, lora_phy's time-domain chain that block_bins replaces,
# are called nowhere here: they are imported by name only because the
# benchmark's trace spans (perfbench/spans.py) wrap them in this namespace.
from .channel import (
    FadingConfig,
    aggregate,
    configure_phases,
    draw_channels,
    effective_gains,
)
from .lora_phy import (
    LoRaParams,
    _tones,
    build_interferer_frames,
    count_bit_errors_many,
    dechirp_dft,
    detect_coherent,
    detect_noncoherent,
    modulate_many,
)

_BLOCK = 4096

# Samples per row chunk of a block: a block is drawn, built and detected
# this many samples (whole rows) at a time, in one reused 256 KB noise
# buffer (two when the block serves several SNRs) and one 256 KB array of
# interferer tones, so no (block, K) array is ever held.
_TONE_CHUNK = 1 << 14

# Most threads a pool may start.  A sweep keeps one block in flight per
# thread, each with its own gain arrays and chunk buffers (up to about 5 MB
# at SF 7), so the ceiling bounds a run's threads and memory.
MAX_WORKERS = 64

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
        if len(set(self.snr_db_grid)) < len(self.snr_db_grid):
            # a sweep keys each point's tally by its SNR
            raise ValueError(f"SNR grid must not repeat a point, got {self.snr_db_grid}")
        if self.trials_per_point < 1:
            raise ValueError("need at least one trial per point")
        if self.max_bit_errors is not None and self.max_bit_errors < 1:
            raise ValueError("early-stop threshold must be >= 1 (or None)")
        if self.seed < 0:
            # SeedSequence refuses it, but only once the first block runs
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _substream(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(ss))


def _draw_gains(cfg: SimConfig, rng: np.random.Generator, size: int):
    """Effective target/interferer gains for one block; h_int is None when
    the scenario has no interferer.  "ris_free" is "case_a" with no
    elements, and "no_interference" is "case_a" without its interferer."""
    scenario = cfg.scenario
    fading = replace(cfg.fading, n_elements=0) if scenario == "ris_free" else cfg.fading
    case = {"case_b": "b", "blind": "blind"}.get(scenario, "a")
    gains = effective_gains(fading, case, rng, size)
    return gains.h_eff, None if scenario == "no_interference" else gains.h_int


@dataclass(frozen=True)
class BlockDraws:
    """The random variates of one block of trials, in the order drawn,
    except the receiver noise, which `block_bins` draws chunk by chunk.
    None of them depends on the SNR.  The interferer fields are None when
    the scenario has none.
    """

    c: np.ndarray
    i1: np.ndarray | None
    i2: np.ndarray | None
    tau: np.ndarray | None
    h_eff: np.ndarray
    h_int: np.ndarray | None


def noise_std(snr_linear: float, K: int) -> float:
    """Standard deviation of each real and imaginary part of the receiver
    noise in one DFT bin: per-bin variance 1/(snr * K), the received
    per-sample variance, which the dechirp (1/K) and the unnormalised DFT
    (K) leave unchanged."""
    return math.sqrt(0.5 / (snr_linear * K))


def draw_block(cfg: SimConfig, rng: np.random.Generator, size: int) -> BlockDraws:
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
    return BlockDraws(c, i1, i2, tau, h_eff, h_int)


def target_frame(h_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|h_eff| and exp(-i*angle(h_eff)): the target's gain in its own phase
    frame, and the rotation that takes the received bins into that frame
    (1 where h_eff is 0)."""
    return np.abs(h_eff), np.exp(-1j * np.angle(h_eff))


def block_bins(
    draws: BlockDraws,
    params: LoRaParams,
    rng: np.random.Generator,
    snrs_linear: Sequence[float],
) -> Iterator[tuple[slice, int, np.ndarray]]:
    """DFT bins of the dechirped received block at each SNR of
    `snrs_linear`, in the target's phase frame (each row rotated by
    exp(-i*angle(h_eff))), `_TONE_CHUNK` samples of whole rows at a time;
    yields (rows, SNR index, bins) with one row per trial, every SNR of a
    chunk in order before the next chunk.

    `rng` must stand where `draw_block` left it.  Each chunk draws its unit
    noise from it into one reused buffer ((rows, 2K) normals viewed as
    (rows, K) complex bins, the rows of the one-shot draw in order), which
    is the receiver noise after the DFT and the rotation: white circular
    Gaussian noise keeps its law under both.  The interferer is gathered
    (the tone of i1 for its first tau samples and of i2 after), scaled by
    h_int * exp(-i*angle(h_eff)) and transformed once, in place in its own
    buffer; a block without one does no FFT.  For each SNR the chunk then
    scales the noise, adds the transformed interferer, and adds |h_eff| to
    bin c, where the dechirped target symbol puts exactly its gain.  The
    noise is scaled in place when the block serves one SNR, and into a
    second reused buffer for each SNR otherwise; the product is the same
    either way, so each SNR's bins are bitwise those of a call with that
    SNR alone.  Every `bins` is a view of the buffer the noise is scaled
    into, which the next SNR or chunk overwrites.
    """
    K = params.K
    size = draws.c.size
    stds = [noise_std(snr_linear, K) for snr_linear in snrs_linear]
    step = max(1, _TONE_CHUNK // K)
    buffer = np.empty((min(step, size), 2 * K))
    scaled = buffer if len(stds) == 1 else np.empty_like(buffer)
    amplitude, derotation = target_frame(draws.h_eff)
    n = np.arange(K)
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        normals = buffer[: rows.stop - start]
        rng.standard_normal(out=normals)
        interferer = None
        if draws.h_int is not None:
            interferer = _tones(
                np.where(n < draws.tau[rows, None], draws.i1[rows, None], draws.i2[rows, None]),
                params.sf,
            )
            interferer *= (draws.h_int[rows] * derotation[rows])[:, None]
            np.fft.fft(interferer, axis=-1, out=interferer)
        target = (np.arange(len(normals)), draws.c[rows])
        for index, std in enumerate(stds):
            y = np.multiply(normals, std, out=scaled[: len(normals)]).view(np.complex128)
            if interferer is not None:
                y += interferer
            y[target] += amplitude[rows]
            yield rows, index, y


def _detect(detection: str, bins: np.ndarray) -> np.ndarray:
    # looked up by name at each call, so that wrappers installed on this
    # module's attributes see every detection
    if detection == "noncoherent":
        return detect_noncoherent(bins)
    return detect_coherent(bins)


def _run_block(
    cfg: SimConfig,
    block_index: int,
    size: int,
    pairs: tuple[tuple[float, str], ...],
) -> tuple[dict[tuple[float, str], np.ndarray], int]:
    """Simulate block `block_index` of `size` trials from its own stream and
    run every (SNR in dB, detector) pair in `pairs` on each chunk of its
    bins at that SNR; returns each pair's per-trial bit errors, keyed by
    the pair, and the number of target/interferer peak-bin collisions
    (c == i2)."""
    rng = _substream(cfg.seed, block_index)
    draws = draw_block(cfg, rng, size)
    snrs = tuple(dict.fromkeys(snr_db for snr_db, _ in pairs))
    readers = [[pair for pair in pairs if pair[0] == snr] for snr in snrs]
    snrs_linear = [10.0 ** (snr_db / 10.0) for snr_db in snrs]
    decisions = {pair: np.empty(size, dtype=np.intp) for pair in pairs}
    for rows, index, bins in block_bins(draws, cfg.params, rng, snrs_linear):
        for pair in readers[index]:
            decisions[pair][rows] = _detect(pair[1], bins)
    errors = {
        pair: count_bit_errors_many(draws.c, decided, cfg.params.sf)
        for pair, decided in decisions.items()
    }
    collisions = 0 if draws.i2 is None else int(np.count_nonzero(draws.c == draws.i2))
    return errors, collisions


def _block_sizes(cfg: SimConfig) -> list[int]:
    full, rest = divmod(cfg.trials_per_point, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


@contextmanager
def worker_pool(workers: int):
    """A pool of `workers` threads, or None for a serial run in the calling
    thread at one worker.  On exit, tasks that have not started are
    cancelled and the pool is shut down.  Fewer than one worker, or more
    than `MAX_WORKERS`, is refused before any thread starts."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be at least 1 and at most {MAX_WORKERS}, got {workers}")
    if workers == 1:
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


def run_point(cfg: SimConfig, snr_db: float, workers: int = 1) -> BerEstimate:
    """Estimate the bit error rate of `cfg.detection` at one grid SNR.

    A one-point sweep: since a block's stream does not depend on the SNR,
    this is the estimate at `snr_db` of a sweep of the whole grid.
    """
    if snr_db not in cfg.snr_db_grid:
        raise ValueError(f"snr_db={snr_db} is not on the configured grid {cfg.snr_db_grid}")
    return run_sweep(replace(cfg, snr_db_grid=(snr_db,)), workers)[snr_db, cfg.detection]


def run_sweep(
    cfg: SimConfig, workers: int = 1, *, detections: tuple[str, ...] | None = None
) -> dict[tuple[float, str], BerEstimate]:
    """One estimate per grid SNR and detector, keyed by (snr_db, detection)
    in SNR-major order, the detectors in the order of `detections`
    (default: `cfg.detection` alone).

    Block b is drawn once for every (SNR, detector) pair still counting
    when it is submitted, and each pair gets the estimate a sweep of it
    alone would give (see the module's pair and pool policies).  One loop
    keeps up to `workers` blocks submitted but not yet taken, and tallies
    them in index order; the early-stop rule is evaluated at block
    boundaries, so the counted set of trials is independent of the worker
    count.
    """
    detections = (cfg.detection,) if detections is None else tuple(detections)
    unknown = set(detections) - set(DETECTIONS)
    if not detections or unknown or len(set(detections)) < len(detections):
        raise ValueError(f"detections must be distinct entries of {DETECTIONS}")
    pairs = [(snr_db, detection) for snr_db in cfg.snr_db_grid for detection in detections]
    running = list(pairs)
    tallies = {pair: [0, 0, 0] for pair in pairs}  # errors, trials, collisions
    blocks = enumerate(_block_sizes(cfg))
    pending: deque = deque()  # futures, or at one worker the arguments
    with worker_pool(workers) as pool:
        while running:
            for block_index, size in islice(blocks, workers - len(pending)):
                task = (cfg, block_index, size, tuple(running))
                pending.append(task if pool is None else pool.submit(_run_block, *task))
            if not pending:
                break
            oldest = pending.popleft()
            block_errors, block_collisions = (
                _run_block(*oldest) if pool is None else oldest.result()
            )
            for pair in tuple(running):
                tally = tallies[pair]
                tally[0] += int(block_errors[pair].sum())
                tally[1] += block_errors[pair].size
                tally[2] += block_collisions
                if cfg.max_bit_errors is not None and tally[0] >= cfg.max_bit_errors:
                    running.remove(pair)
    return {pair: _estimate(*tally, cfg.params.sf) for pair, tally in tallies.items()}
