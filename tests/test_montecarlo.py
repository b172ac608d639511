import ast
import copy
import dataclasses
import signal
import threading
import time
import tracemalloc
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from chirpfield import analytic_ber as ab
from chirpfield import montecarlo as mc
from chirpfield import reference, validation
from chirpfield.channel import FadingConfig
from chirpfield.lora_phy import LoRaParams

SF7 = LoRaParams(7)


def sim_config(**overrides) -> mc.SimConfig:
    base = dict(
        params=SF7,
        fading=FadingConfig.uniform(2.0, 25),
        scenario="case_a",
        detection="noncoherent",
        snr_db_grid=(-25.0,),
        trials_per_point=10_000,
        seed=123,
    )
    base.update(overrides)
    return mc.SimConfig(**base)


class TestConfigValidation:
    def test_bad_scenario(self):
        with pytest.raises(ValueError):
            sim_config(scenario="indoor")

    def test_bad_detection(self):
        with pytest.raises(ValueError):
            sim_config(detection="semi")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sim_config(snr_db_grid=())

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            sim_config(snr_db_grid=(-25.0, snr_db))

    def test_repeated_snr(self):
        with pytest.raises(ValueError, match="repeat"):
            sim_config(snr_db_grid=(-25.0, -20.0, -25.0))

    def test_zero_trials(self):
        with pytest.raises(ValueError):
            sim_config(trials_per_point=0)

    def test_negative_seed(self):
        # SeedSequence refused it only when the first block ran
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sim_config(seed=-1)

    def test_snr_off_grid(self):
        with pytest.raises(ValueError):
            mc.run_point(sim_config(), -26.0)


class TestWilson:
    def test_brackets_estimate(self):
        low, high = mc.wilson_interval(37, 1000)
        assert low < 37 / 1000 < high

    def test_edge_cases(self):
        # Wilson bounds pull strictly inside (0, 1) at the extremes
        low0, high0 = mc.wilson_interval(0, 100)
        assert low0 == 0.0 and 0.0 < high0 < 0.1
        low1, high1 = mc.wilson_interval(100, 100)
        assert 0.9 < low1 < 1.0 and high1 == pytest.approx(1.0, abs=1e-12)
        assert mc.wilson_interval(0, 0) == (0.0, 1.0)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = sim_config(snr_db_grid=(-28.0,), trials_per_point=20_000)
        first = mc.run_point(cfg, -28.0)
        second = mc.run_point(cfg, -28.0)
        assert first == second

    def test_parallel_matches_serial(self):
        cfg = sim_config(snr_db_grid=(-28.0,), trials_per_point=20_000)
        serial = mc.run_point(cfg, -28.0, workers=1)
        parallel = mc.run_point(cfg, -28.0, workers=2)
        assert serial.bit_errors == parallel.bit_errors
        assert serial.bits_sent == parallel.bits_sent

    def test_sweep_parallel_matches_serial(self):
        # early stop fires after the first block at -37 dB, the second at
        # -36 dB and the last at -35 dB, and never at -33 dB
        cfg = sim_config(snr_db_grid=(-37.0, -36.0, -35.0, -33.0),
                         trials_per_point=20_000, max_bit_errors=300)
        serial = mc.run_sweep(cfg, workers=1)
        parallel = mc.run_sweep(cfg, workers=2)
        stopped = [est.trials < cfg.trials_per_point for est in serial.values()]
        assert any(stopped) and not all(stopped)
        assert serial == parallel

    def test_different_seeds_differ(self):
        cfg_a = sim_config(snr_db_grid=(-33.0,), trials_per_point=20_000)
        cfg_b = sim_config(snr_db_grid=(-33.0,), trials_per_point=20_000, seed=124)
        assert mc.run_point(cfg_a, -33.0) != mc.run_point(cfg_b, -33.0)


class TestTrialMechanics:
    def test_run_block_range(self):
        pairs = tuple((snr_db, detection) for snr_db in (-25.0, -30.0)
                      for detection in mc.DETECTIONS)
        errors, _ = mc._run_block(sim_config(), 0, 50, pairs)
        assert list(errors) == list(pairs)
        for pair, row in errors.items():
            assert row.shape == (50,)
            assert np.all((row >= 0) & (row <= SF7.sf))
            # each row is what that (SNR, detector) pair alone reads off
            # the same draws
            alone, _ = mc._run_block(sim_config(), 0, 50, (pair,))
            assert np.array_equal(alone[pair], row)

    def test_forced_clean_channel_never_errs(self, monkeypatch):
        # unit target gain, no interferer, essentially no noise
        monkeypatch.setattr(
            mc, "_draw_gains", lambda cfg, rng, size: (np.ones(size, dtype=complex), None)
        )
        cfg = sim_config(scenario="no_interference", trials_per_point=10_000,
                         snr_db_grid=(60.0,), max_bit_errors=None)
        est = mc.run_point(cfg, 60.0)
        assert est.bit_errors == 0

    def test_forced_dominant_interferer_swamps_detection(self, monkeypatch):
        # interferer 500x stronger than the target and no noise to speak of:
        # the detected bin is (almost) never the target's
        monkeypatch.setattr(
            mc,
            "_draw_gains",
            lambda cfg, rng, size: (
                np.full(size, 0.01, dtype=complex),
                np.full(size, 5.0, dtype=complex),
            ),
        )
        cfg = sim_config(scenario="ris_free", trials_per_point=2_000,
                         snr_db_grid=(60.0,), max_bit_errors=None)
        est = mc.run_point(cfg, 60.0)
        symbol_error_floor = 1.0 - 2.0 / SF7.K  # collisions can mask errors
        assert est.bit_errors / est.bits_sent > 0.3
        assert est.collisions < est.trials * 0.05
        errors_per_trial = est.bit_errors / est.trials
        assert errors_per_trial > symbol_error_floor * 1.0  # >= ~1 bit/symbol error

    def test_collisions_are_counted(self):
        cfg = sim_config(trials_per_point=30_000, snr_db_grid=(-20.0,),
                         max_bit_errors=None)
        est = mc.run_point(cfg, -20.0)
        # target equals the trailing interferer symbol about once in K trials
        expected = cfg.trials_per_point / SF7.K
        assert 0.5 * expected < est.collisions < 2.0 * expected

    def test_early_stop(self):
        cfg = sim_config(snr_db_grid=(-35.0,), trials_per_point=200_000,
                         max_bit_errors=50)
        est = mc.run_point(cfg, -35.0)
        assert est.bit_errors >= 50
        assert est.trials < 200_000
        assert est.bits_sent == est.trials * SF7.sf

    def test_full_offset_range_changes_results(self):
        # interference-dominated point: the offset distribution is visible
        narrow = sim_config(scenario="case_b", snr_db_grid=(-20.0,),
                            trials_per_point=30_000, max_bit_errors=None)
        wide = sim_config(scenario="case_b", snr_db_grid=(-20.0,),
                          trials_per_point=30_000, max_bit_errors=None,
                          full_offset_range=True)
        assert mc.run_point(narrow, -20.0) != mc.run_point(wide, -20.0)


class TestBlockKernel:
    """block_bins, built in the dechirped domain a chunk of rows at a time,
    against the time-domain chain on the same draws, both in the target's
    phase frame."""

    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    def test_matches_time_domain_chain(self, sf, scenario):
        # chunks of 128, 32 and 4 rows: each size ends in a partial chunk
        size = {7: 300, 9: 300, 12: 11}[sf]
        params = LoRaParams(sf)
        K = params.K
        cfg = sim_config(params=params, scenario=scenario, full_offset_range=True)
        rng = np.random.default_rng(sf)
        draws = mc.draw_block(cfg, rng, size)
        if draws.tau is not None:
            draws.tau[:3] = (0, K - 1, K // 2)
            draws.c[3:5] = draws.i2[3:5]  # target/interferer collisions
        # the oracle draws the whole noise at once from an identical generator
        expected = reference.time_domain_bins(draws, params, copy.deepcopy(rng), 10 ** (-3.0))
        step = mc._TONE_CHUNK // K
        covered = 0
        for rows, index, bins in mc.block_bins(draws, params, rng, (10 ** (-3.0),)):
            assert index == 0
            assert rows.start == covered and bins.shape == (rows.stop - rows.start, K)
            covered = rows.stop
            assert np.abs(bins - expected[rows]).max() < 1e-12
            for detect in (mc.detect_noncoherent, mc.detect_coherent):
                assert np.array_equal(detect(bins), detect(expected[rows]))
        assert covered == size and size % step

    def test_bins_are_built_in_the_noise_buffer(self):
        # every chunk's noise is drawn into one buffer; a block of one SNR
        # builds its bins in that buffer, and a block of several SNRs builds
        # every SNR's bins in one second buffer
        class RecordingGenerator:
            def __init__(self, rng):
                self.rng, self.filled = rng, set()

            def standard_normal(self, *, out):
                self.filled.add(out.__array_interface__["data"][0])
                return self.rng.standard_normal(out=out)

        draws = mc.draw_block(sim_config(), np.random.default_rng(3), 300)
        for snrs in ((10 ** (-2.5),), (10 ** (-3.5), 10 ** (-3.0), 10 ** (-2.5))):
            rng = RecordingGenerator(np.random.default_rng(4))
            built, indices = set(), []
            for _, index, bins in mc.block_bins(draws, SF7, rng, snrs):
                assert not bins.flags.owndata
                indices.append(index)
                built.add(bins.__array_interface__["data"][0])
            assert indices == list(range(len(snrs))) * 3
            assert len(rng.filled) == len(built) == 1
            assert (built == rng.filled) == (len(snrs) == 1)

    @pytest.mark.parametrize("scenario, ffts_per_chunk", [
        ("case_a", 1), ("case_b", 1), ("no_interference", 0),
    ])
    @pytest.mark.parametrize("n_snrs", [1, 4])
    def test_one_fft_per_chunk_for_every_snr(self, monkeypatch, scenario, ffts_per_chunk,
                                             n_snrs):
        # the noise is drawn as bin noise, so only the interferer is
        # transformed, once per chunk whatever the number of SNRs
        calls = []
        fft = np.fft.fft

        def counting_fft(*args, **kwargs):
            calls.append(None)
            return fft(*args, **kwargs)

        draws = mc.draw_block(sim_config(scenario=scenario), np.random.default_rng(5), 300)
        monkeypatch.setattr(np.fft, "fft", counting_fft)
        snrs = tuple(10 ** (-3.5 + 0.25 * k) for k in range(n_snrs))
        chunks = {rows.start for rows, _, _ in
                  mc.block_bins(draws, SF7, np.random.default_rng(6), snrs)}
        assert len(chunks) == 3
        assert len(calls) == ffts_per_chunk * len(chunks)

    @pytest.mark.parametrize("sf", [7, 12])
    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    def test_each_snr_matches_the_one_snr_kernel(self, sf, scenario):
        # given the same draws and generator, each SNR's bins of a
        # multi-SNR block are byte-equal to those of a block at that SNR
        # alone, in every chunk (the last chunk is partial)
        params = LoRaParams(sf)
        size = {7: 300, 12: 11}[sf]
        cfg = sim_config(params=params, scenario=scenario)
        rng = np.random.default_rng(sf)
        draws = mc.draw_block(cfg, rng, size)
        snrs = (10 ** (-3.4), 10 ** (-2.2), 10 ** (-3.0), 10 ** (-2.6))
        alone = []
        for snr in snrs:
            bins = np.empty((size, params.K), dtype=complex)
            for rows, _, chunk in mc.block_bins(draws, params, copy.deepcopy(rng), (snr,)):
                bins[rows] = chunk
            alone.append(bins)
        seen = 0
        for rows, index, bins in mc.block_bins(draws, params, rng, snrs):
            assert bins.tobytes() == alone[index][rows].tobytes()
            seen += bins.shape[0]
        assert seen == size * len(snrs)

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_memory_is_bounded(self):
        # One SF 12 block of 2,048 trials, both detectors, peaks at 1.13 MB.
        # One (trials, K) complex array would take 134 MB; the paired-surface
        # gain draw holds two (trials, N) arrays of 0.4 MB, and the chunk
        # takes its 256 KB noise buffer, 256 KB of interferer tones and real
        # (rows, K) temporaries of 128 KB (the symbol indices while the tones
        # are built, then the detectors' real or squared parts).
        cfg = sim_config(params=LoRaParams(12), scenario="case_b", seed=1)
        pairs = tuple((-25.0, detection) for detection in mc.DETECTIONS)
        assert self.peak_bytes(mc._run_block, cfg, 0, 2048, pairs) < 3e6
        # The same block at four SNRs adds the second 256 KB chunk buffer
        # and six rows of decisions, 1.40 MB, under the same bound.
        pairs = tuple((snr_db, detection) for snr_db in (-40.0, -35.0, -30.0, -25.0)
                      for detection in mc.DETECTIONS)
        assert self.peak_bytes(mc._run_block, cfg, 0, 2048, pairs) < 3e6
        # An SF 7 shared-surface block of 4,096 trials at N = 25: its gain
        # draw holds four (trials, N) arrays of 0.8 MB at once and peaks at
        # about 3.8 MB, where drawing every link vector before reducing
        # any peaked at 8.5 MB.
        cfg = sim_config(scenario="case_a")
        assert self.peak_bytes(mc._draw_gains, cfg, mc._substream(1, 0), 4096) < 5e6


class InlinePool(Executor):
    """Runs each block when it is submitted and counts the submissions of
    every instance."""

    submitted = 0

    def __init__(self, max_workers):
        pass

    def submit(self, fn, /, *args, **kwargs):
        InlinePool.submitted += 1
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestWorkerPool:
    def test_early_stop_submits_no_further_block(self, monkeypatch):
        # five blocks a point; at -37 dB the first block passes 300 bit
        # errors, at -33 dB no block does
        cfg = sim_config(snr_db_grid=(-37.0, -33.0), trials_per_point=20_000,
                         max_bit_errors=300)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", InlinePool)
        for snr_db, submitted in ((-37.0, 2), (-33.0, 5)):
            monkeypatch.setattr(InlinePool, "submitted", 0)
            estimate = mc.run_point(cfg, snr_db, workers=2)
            assert estimate == mc.run_point(cfg, snr_db)
            assert InlinePool.submitted == submitted
        assert estimate.trials == cfg.trials_per_point

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_blocks_outstanding(self, workers, monkeypatch):
        # a block is outstanding from its submission until the sweep takes
        # its result
        blocks, count = [], {"outstanding": 0, "most": 0}

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                blocks.append(args[1])  # block index
                count["outstanding"] += 1
                count["most"] = max(count["most"], count["outstanding"])
                future = super().submit(fn, *args, **kwargs)
                result = future.result

                def take(*args, **kwargs):
                    count["outstanding"] -= 1
                    return result(*args, **kwargs)

                future.result = take
                return future

        monkeypatch.setattr(mc, "ThreadPoolExecutor", CountingPool)
        # five blocks, no early stop
        cfg = sim_config(snr_db_grid=(-30.0, -25.0), trials_per_point=20_000,
                         max_bit_errors=None)
        assert mc.run_sweep(cfg, workers) == mc.run_sweep(cfg)
        assert blocks == [0, 1, 2, 3, 4]
        assert count == {"outstanding": 0, "most": workers}

    def test_too_many_workers_start_no_pool(self, monkeypatch):
        # checked with a pool that starts no thread: the ceiling itself
        # runs, and one more is refused before any pool is made
        cfg = sim_config(trials_per_point=2_000)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "submitted", 0)
        assert mc.run_sweep(cfg, workers=mc.MAX_WORKERS) == mc.run_sweep(cfg)
        assert InlinePool.submitted == 1

        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} threads was started")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        too_many = mc.MAX_WORKERS + 1
        message = f"at most {mc.MAX_WORKERS}, got {too_many}"
        with pytest.raises(ValueError, match=message):
            mc.run_sweep(cfg, too_many)
        with pytest.raises(ValueError, match=message), mc.worker_pool(too_many):
            pass

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        # a serial run would return the estimate of one worker without a word
        cfg = sim_config(trials_per_point=2_000)
        message = f"at least 1 and at most {mc.MAX_WORKERS}, got {workers}"
        with pytest.raises(ValueError, match=message):
            mc.run_sweep(cfg, workers)
        with pytest.raises(ValueError, match=message):
            mc.run_point(cfg, -25.0, workers=workers)
        with pytest.raises(ValueError, match=message), mc.worker_pool(workers):
            pass

    def test_failed_block_fails_the_sweep(self, monkeypatch):
        shut_down, blocks = [], []

        class BlockFailure(Exception):
            pass

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                blocks.append(args[1])  # block index
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                shut_down.append(self)
                super().shutdown(*args, **kwargs)

        def fail(*args):
            raise BlockFailure("synthetic block failure")

        def on_alarm(signum, frame):
            raise TimeoutError("run_sweep hung after a block failed")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc, "_run_block", fail)
        cfg = sim_config(snr_db_grid=(-30.0, -25.0), trials_per_point=20_000)
        before = set(threading.enumerate())
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(120)
        start = time.perf_counter()
        try:
            with pytest.raises(BlockFailure):
                mc.run_sweep(cfg, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert len(shut_down) == 1
        assert [thread for thread in threading.enumerate() if thread not in before] == []
        # the two blocks in flight, and nothing after them
        assert blocks == [0, 1]


class TestSharedDetectorPass:
    """A sweep over both detectors reads them off the same blocks."""

    # at -36 dB the non-coherent detector stops after one block and the
    # coherent one after two; at -32 dB the coherent one runs all three
    CFG = dict(scenario="case_b", snr_db_grid=(-36.0, -32.0), trials_per_point=12_288,
               seed=11, max_bit_errors=1000)

    def test_matches_one_detector_at_a_time(self):
        cfg = sim_config(**self.CFG)
        shared = mc.run_sweep(cfg, detections=mc.DETECTIONS)
        assert list(shared) == [(snr, d) for snr in cfg.snr_db_grid for d in mc.DETECTIONS]
        for detection in mc.DETECTIONS:
            alone = mc.run_sweep(dataclasses.replace(cfg, detection=detection))
            assert {pair: est for pair, est in shared.items() if pair[1] == detection} == alone

    def test_each_block_is_built_once(self, monkeypatch):
        built, keys = [], []
        block_bins, substream = mc.block_bins, mc._substream

        def counting_block_bins(draws, params, rng, snrs_linear):
            built.append(draws.c.size)
            return block_bins(draws, params, rng, snrs_linear)

        def recording_substream(seed, block_index):
            keys.append(block_index)
            return substream(seed, block_index)

        monkeypatch.setattr(mc, "block_bins", counting_block_bins)
        monkeypatch.setattr(mc, "_substream", recording_substream)
        points = mc.run_sweep(sim_config(**self.CFG), detections=mc.DETECTIONS)

        blocks = {}
        for (snr_db, _), est in points.items():
            blocks.setdefault(snr_db, []).append(-(-est.trials // mc._BLOCK))
        assert list(blocks.values()) == [[1, 2], [1, 3]]
        # each block index is built once for the whole sweep
        assert len(built) == len(keys) == len(set(keys))
        assert len(built) == max(max(counts) for counts in blocks.values())

    def test_each_row_equals_its_point_alone(self):
        # the paired surface with a low early-stop threshold: both detectors
        # at -40 dB and the non-coherent one at -36 dB stop after the first
        # block, the non-coherent one at -20 dB after the second, the
        # coherent one at -36 dB after the third, and the coherent one at
        # -20 dB never
        cfg = sim_config(scenario="case_b", snr_db_grid=(-40.0, -36.0, -20.0),
                         trials_per_point=16_384, seed=3, max_bit_errors=2000)
        swept = mc.run_sweep(cfg, detections=mc.DETECTIONS)
        assert [est.trials // mc._BLOCK for est in swept.values()] == [1, 1, 1, 3, 2, 4]
        assert swept[-20.0, "coherent"].bit_errors < cfg.max_bit_errors
        # the seeded (bit errors, trials, collisions) of each pair, so that
        # any change to what a seed draws shows here
        assert {pair: (est.bit_errors, est.trials, est.collisions)
                for pair, est in swept.items()} == {
            (-40.0, "noncoherent"): (6318, 4096, 41),
            (-40.0, "coherent"): (3199, 4096, 41),
            (-36.0, "noncoherent"): (3542, 4096, 41),
            (-36.0, "coherent"): (2125, 12288, 112),
            (-20.0, "noncoherent"): (3644, 8192, 80),
            (-20.0, "coherent"): (945, 16384, 146),
        }
        for (snr_db, detection), est in swept.items():
            alone = mc.run_point(dataclasses.replace(cfg, detection=detection), snr_db)
            assert est == alone  # every field

    def test_validation_check_has_teeth_at_sf_12(self):
        # the check scales its budget of SF 7 trials by 128/K; at SF 12,
        # 2,000 trials came to 62, in which the coherent detector made no
        # bit error, and the check failed although both routes agreed
        result = validation._check_shared_detector_pass(
            LoRaParams(12), FadingConfig.uniform(2.0, 25), 2_000, None
        )
        assert result.passed, result.detail

    def test_rejects_bad_detections(self):
        for detections in ((), ("noncoherent", "noncoherent"), ("semi",)):
            with pytest.raises(ValueError):
                mc.run_sweep(sim_config(), detections=detections)


class TestIndependence:
    """The Monte Carlo route imports the channel sampling and the waveform
    code, and nothing of the closed forms; only `validation` imports the
    oracles of `reference`.

    Checked on the source, since a test process has every module loaded;
    tests/test_import_graph.py checks sys.modules after a simulation in a
    fresh interpreter.
    """

    @staticmethod
    def package_imports(path: Path) -> set[str]:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 1 and module:
                    imported.add(module.split(".")[0])
                elif node.level == 1 or module == "chirpfield":
                    imported.update(alias.name for alias in node.names)
                elif module.startswith("chirpfield."):
                    imported.add(module.split(".")[1])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[1] for alias in node.names
                                if alias.name.startswith("chirpfield."))
        return imported

    def test_montecarlo_never_reaches_analytic_ber(self):
        package = Path(mc.__file__).parent
        edges = {path.stem: self.package_imports(path) for path in package.glob("*.py")}
        reachable, todo = set(), ["montecarlo"]
        while todo:
            for module in edges.get(todo.pop(), ()):
                if module not in reachable:
                    reachable.add(module)
                    todo.append(module)
        assert reachable == {"channel", "lora_phy"}

    def test_only_validation_imports_reference(self):
        # the oracles stay out of both production routes
        package = Path(mc.__file__).parent
        importers = {path.stem for path in package.glob("*.py")
                     if "reference" in self.package_imports(path)}
        assert importers == {"validation"}


class TestSweep:
    def test_single_point_grid(self):
        cfg = sim_config(trials_per_point=2_000)
        points = mc.run_sweep(cfg)
        assert list(points) == [(-25.0, "noncoherent")]
        assert points[-25.0, "noncoherent"].bits_sent == 2_000 * 7

    @pytest.mark.parametrize("scenario", mc.SCENARIOS)
    @pytest.mark.parametrize("detection", mc.DETECTIONS)
    def test_every_branch_runs(self, scenario, detection):
        cfg = sim_config(scenario=scenario, detection=detection,
                         trials_per_point=1_000, snr_db_grid=(-20.0,))
        est = mc.run_point(cfg, -20.0)
        assert est.trials == 1_000


class TestSurfaceFreeBaseline:
    def test_ris_free_is_the_zero_element_shared_surface(self):
        # the surface-free gain draw is the shared surface's at N = 0, so a
        # seeded sweep of each gives equal estimates
        cfg = sim_config(scenario="ris_free", snr_db_grid=(-10.0, 0.0),
                         trials_per_point=6_000, seed=31)
        bare = dataclasses.replace(cfg, scenario="case_a",
                                   fading=FadingConfig.uniform(2.0, 0))
        free = mc.run_sweep(cfg, detections=mc.DETECTIONS)
        assert free == mc.run_sweep(bare, detections=mc.DETECTIONS)
        assert all(est.bit_errors > 0 for est in free.values())


class TestSnrMonotonicity:
    def test_interference_free_ber_non_increasing_within_ci(self):
        grid = (-37.0, -35.0, -33.0, -31.0)
        cfg = sim_config(scenario="no_interference", snr_db_grid=grid,
                         trials_per_point=40_000, max_bit_errors=None)
        points = list(mc.run_sweep(cfg).values())
        for worse, better in zip(points, points[1:]):
            # higher SNR may not be statistically worse than lower SNR
            assert better.ci95_low <= worse.ci95_high


class TestNoiseCalibration:
    def test_bin_domain_snr_equals_snr_times_symbol_length(self):
        # unit channel, no interferer: after dechirping, peak power 1 against
        # per-bin noise variance 1/(snr*K) gives bin-domain SNR = snr*K
        from chirpfield.lora_phy import dechirp_dft, modulate_many

        rng = np.random.default_rng(41)
        snr_linear = 10 ** (-1.2)
        K = SF7.K
        n0 = 1.0 / (snr_linear * K)
        trials = 100_000
        c = rng.integers(0, K, trials)
        y = modulate_many(c, SF7) + (
            rng.standard_normal((trials, K)) + 1j * rng.standard_normal((trials, K))
        ) * np.sqrt(n0 / 2.0)
        bins = dechirp_dft(y, SF7)
        signal = bins[np.arange(trials), c]
        noise_power = (np.abs(bins) ** 2).sum(axis=1) - np.abs(signal) ** 2
        measured = 1.0 / (noise_power.mean() / (K - 1))
        assert abs(measured - snr_linear * K) / (snr_linear * K) < 0.03

    def test_block_kernel_noise_variance(self):
        # the production kernel with a zero target gain and no interferer:
        # per-bin noise variance 1/(snr*K)
        snr_linear = 10 ** (-1.2)
        cfg = sim_config(scenario="no_interference", snr_db_grid=(-12.0,))
        rng = np.random.default_rng(43)
        draws = mc.draw_block(cfg, rng, 2_000)
        silent = dataclasses.replace(draws, h_eff=np.zeros_like(draws.h_eff))
        power = sum(float(np.vdot(bins, bins).real)
                    for _, _, bins in mc.block_bins(silent, SF7, rng, (snr_linear,)))
        expected = 1.0 / (snr_linear * SF7.K)
        measured = power / (2_000 * SF7.K)
        assert abs(measured - expected) / expected < 0.03


class TestAgainstClosedForms:
    def test_shared_topology_tracks_the_model(self):
        # the point where both routes were designed to operate: combined
        # gain concentrated, error rate in the observable band
        fading = FadingConfig.uniform(2.0, 20)
        snr_db = -32.0
        cfg = sim_config(fading=fading, snr_db_grid=(snr_db,),
                         trials_per_point=300_000, seed=77, max_bit_errors=None)
        est = mc.run_point(cfg, snr_db)
        acfg = ab.AnalyticConfig.from_fading(SF7, fading, 10 ** (snr_db / 10.0))
        model = ab.ber(acfg, "case_a", "noncoherent").ber
        assert est.bit_errors > 200
        assert model == pytest.approx(est.ber, rel=0.25)

    def test_noise_only_tracks_the_model(self):
        # interference-free, surface-assisted: noise branch alone
        snr_db = -34.0
        cfg = sim_config(scenario="no_interference", snr_db_grid=(snr_db,),
                         trials_per_point=200_000, seed=5, max_bit_errors=None)
        est = mc.run_point(cfg, snr_db)
        acfg = ab.AnalyticConfig.from_fading(SF7, FadingConfig.uniform(2.0, 25),
                                             10 ** (snr_db / 10.0))
        model = ab.ber_no_interference(acfg, "noncoherent").ber
        assert est.bit_errors > 100
        assert model == pytest.approx(est.ber, rel=0.25)

    def test_surface_free_noise_only_within_model_accuracy(self):
        # wide single-link fading stresses the detection-threshold fit; the
        # closed form is only factor-2 faithful there
        fading = FadingConfig.uniform(2.0, 0)
        snr_db = -6.0
        cfg = sim_config(fading=fading, scenario="no_interference",
                         snr_db_grid=(snr_db,), trials_per_point=100_000,
                         seed=9, max_bit_errors=None)
        est = mc.run_point(cfg, snr_db)
        acfg = ab.AnalyticConfig.from_fading(SF7, fading, 10 ** (snr_db / 10.0))
        model = ab.ber_no_interference(acfg, "noncoherent").ber
        assert 0.5 * est.ber <= model <= 2.0 * est.ber
