import math

import numpy as np
import pytest

from chirpfield import lora_phy, reference
from chirpfield.lora_phy import LoRaParams


@pytest.fixture(scope="module")
def sf7():
    return LoRaParams(7)


class TestParams:
    def test_symbol_length(self, sf7):
        assert sf7.K == 128
        assert LoRaParams(9).K == 512

    @pytest.mark.parametrize("sf", [1, 13, 0])
    def test_spreading_factor_range(self, sf):
        with pytest.raises(ValueError):
            LoRaParams(sf)


class TestModulate:
    def test_first_sample(self, sf7):
        for c in (0, 17, 127):
            assert lora_phy.modulate_many(c, sf7)[0] == pytest.approx(1 / math.sqrt(128))

    def test_unit_energy(self, sf7):
        for c in range(sf7.K):
            energy = (np.abs(lora_phy.modulate_many(c, sf7)) ** 2).sum()
            assert abs(energy - 1.0) < 1e-12

    def test_orthogonality_brute_force(self, sf7):
        table = np.stack([lora_phy.modulate_many(c, sf7) for c in range(sf7.K)])
        gram = table @ table.conj().T
        assert np.abs(gram - np.eye(sf7.K)).max() < 1e-10

    def test_out_of_range(self, sf7):
        with pytest.raises(ValueError):
            lora_phy.modulate_many(128, sf7)
        with pytest.raises(ValueError):
            lora_phy.modulate_many(-1, sf7)

    def test_modulate_many_matches_scalar(self, sf7):
        # a batch row equals the one row of that symbol alone, bit for bit
        symbols = np.array([0, 5, 127, 64])
        batch = lora_phy.modulate_many(symbols, sf7)
        for row, c in zip(batch, symbols):
            single = lora_phy.modulate_many(int(c), sf7)
            assert single.shape == (sf7.K,)
            assert np.array_equal(row, single)

    def test_modulate_many_large_symbol_length(self):
        # K = 1024: symbols near the top of the range at a larger SF
        params = LoRaParams(10)
        batch = lora_phy.modulate_many(np.array([3, 1000]), params)
        assert np.abs(batch[0] - lora_phy.modulate_many(3, params)).max() < 1e-10
        assert np.abs(batch[1] - lora_phy.modulate_many(1000, params)).max() < 1e-10

    def test_synthesis_matches_definition(self):
        # every symbol at SF 2 and 7, random ones at SF 9 and 12, against
        # sqrt(1/K) * exp(2*pi*i*(n**2/(2K) - n/2 + c*n/K)) written out here
        def definition(symbols, K):
            n = np.arange(K)
            phase = n * n / (2.0 * K) - n / 2.0 + symbols * n / K
            return np.sqrt(1.0 / K) * np.exp(2j * np.pi * phase)

        rng = np.random.default_rng(41)
        for sf in (2, 7, 9, 12):
            params = LoRaParams(sf)
            K = params.K
            c = np.arange(K) if sf <= 7 else rng.integers(0, K, 16)
            expected = definition(c[:, None], K)
            assert np.abs(lora_phy.modulate_many(c, params) - expected).max() < 1e-12
            single = lora_phy.modulate_many(int(c[-1]), params)
            assert np.abs(single - expected[-1]).max() < 1e-12

            i1, i2 = rng.permutation(c), rng.permutation(c)
            tau = rng.integers(0, K, len(c))
            tau[:2] = (0, K - 1)
            per_sample = np.where(np.arange(K) < tau[:, None], i1[:, None], i2[:, None])
            frames = lora_phy.build_interferer_frames(i1, i2, tau, params)
            assert np.abs(frames - definition(per_sample, K)).max() < 1e-12


class TestDechirp:
    def test_unit_channel_peak(self, sf7):
        for c in (0, 5, 100):
            bins = lora_phy.dechirp_dft(lora_phy.modulate_many(c, sf7), sf7)
            assert bins[c] == pytest.approx(1.0 + 0.0j, abs=1e-10)
            others = np.delete(np.abs(bins), c)
            assert others.max() < 1e-10

    def test_linearity(self, sf7):
        gain = 0.5 * np.exp(1j * np.pi / 3)
        bins = lora_phy.dechirp_dft(gain * lora_phy.modulate_many(9, sf7), sf7)
        assert bins[9] == pytest.approx(gain, abs=1e-10)

    def test_length_mismatch(self, sf7):
        with pytest.raises(ValueError):
            lora_phy.dechirp_dft(np.zeros(64, dtype=complex), sf7)

    def test_fft_matches_direct_sum(self, sf7):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((5, sf7.K)) + 1j * rng.standard_normal((5, sf7.K))
        fast = lora_phy.dechirp_dft(y, sf7)
        slow = reference.dechirp_dft_direct(y, sf7)
        assert np.abs(fast - slow).max() < 1e-9

    def test_bin_noise_variance_calibration(self, sf7):
        # per-sample variance N0 must come out as per-bin variance N0
        rng = np.random.default_rng(11)
        n0 = 0.8
        trials = 100_000
        z = rng.standard_normal((trials, sf7.K)) + 1j * rng.standard_normal(
            (trials, sf7.K)
        )
        z *= math.sqrt(n0 / 2)
        bins = lora_phy.dechirp_dft(z, sf7)
        per_bin = (np.abs(bins) ** 2).mean(axis=0)
        assert abs(per_bin.mean() - n0) / n0 < 0.03
        assert np.abs(per_bin - n0).max() / n0 < 0.06


class TestDetectors:
    def test_unit_bin_vector(self):
        bins = np.zeros(128, dtype=complex)
        bins[37] = 1.0
        assert lora_phy.detect_noncoherent(bins) == 37

    def test_ties_break_toward_lowest_index(self):
        bins = np.zeros(128, dtype=complex)
        bins[[10, 90]] = 1.0
        assert lora_phy.detect_noncoherent(bins) == 10
        assert lora_phy.detect_coherent(bins, 0.0) == 10

    @pytest.mark.parametrize("sf", range(2, 10))
    def test_round_trip_all_symbols(self, sf):
        params = LoRaParams(sf)
        symbols = np.arange(params.K)
        bins = lora_phy.dechirp_dft(lora_phy.modulate_many(symbols, params), params)
        detected = lora_phy.detect_noncoherent(bins)
        assert np.array_equal(detected, symbols)

    def test_round_trip_sf12(self):
        params = LoRaParams(12)
        symbols = np.array([0, 1, 2047, 2048, 4095])
        bins = lora_phy.dechirp_dft(lora_phy.modulate_many(symbols, params), params)
        assert np.array_equal(lora_phy.detect_noncoherent(bins), symbols)
        assert np.abs(bins[np.arange(5), symbols] - 1.0).max() < 1e-10

    def test_noncoherent_follows_dominant_interferer(self, sf7):
        # a single-symbol interferer (i1 == i2) leaks its full amplitude
        # into its own bin; with |h_int| > |h_eff| the detector locks onto it
        c, i2 = 10, 40
        y = 0.3 * lora_phy.modulate_many(c, sf7) + np.exp(1j * 0.7) * lora_phy.modulate_many(
            i2, sf7
        )
        assert lora_phy.detect_noncoherent(lora_phy.dechirp_dft(y, sf7)) == i2

    def test_coherent_with_compensation(self, sf7):
        h = np.exp(1j * np.pi / 4)
        bins = lora_phy.dechirp_dft(h * lora_phy.modulate_many(77, sf7), sf7)
        assert lora_phy.detect_coherent(bins, -np.pi / 4) == 77

    def test_coherent_without_compensation_still_correct_when_clean(self, sf7):
        # real part of the peak is cos(pi/4) > 0 while every other bin is ~0
        h = np.exp(1j * np.pi / 4)
        bins = lora_phy.dechirp_dft(h * lora_phy.modulate_many(77, sf7), sf7)
        assert lora_phy.detect_coherent(bins, 0.0) == 77

    def test_coherent_follows_dominant_aligned_interferer(self, sf7):
        # interferer in phase with the compensated axis and stronger than
        # the target: the real-part metric peaks at the interferer bin
        c, i2 = 10, 40
        y = 0.3 * lora_phy.modulate_many(c, sf7) + 1.0 * lora_phy.modulate_many(i2, sf7)
        assert lora_phy.detect_coherent(lora_phy.dechirp_dft(y, sf7), 0.0) == i2

    def test_coherent_equals_noncoherent_when_clean(self, sf7):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = int(rng.integers(0, sf7.K))
            phase = float(rng.uniform(0, 2 * np.pi))
            bins = lora_phy.dechirp_dft(
                np.exp(1j * phase) * lora_phy.modulate_many(c, sf7), sf7
            )
            assert lora_phy.detect_coherent(bins, -phase) == lora_phy.detect_noncoherent(
                bins
            )


def bit_errors(sent, detected, sf=7):
    return lora_phy.count_bit_errors_many(np.array([sent]), np.array([detected]), sf)[0]


class TestBitErrors:
    def test_identity(self):
        assert bit_errors(5, 5) == 0

    def test_all_bits(self):
        assert bit_errors(0, 127) == 7

    def test_single_bit(self):
        assert bit_errors(0b0000001, 0b0000011) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_errors(0, 128)
        with pytest.raises(ValueError):
            bit_errors(-1, 0)

    def test_vectorized_matches_scalar(self):
        # against Python's scalar popcount of the XOR
        rng = np.random.default_rng(8)
        sent = rng.integers(0, 128, 200)
        detected = rng.integers(0, 128, 200)
        batch = lora_phy.count_bit_errors_many(sent, detected, 7)
        for s, d, b in zip(sent, detected, batch):
            assert b == (int(s) ^ int(d)).bit_count()
