import numpy as np
import pytest

from chirpfield import interference, lora_phy, reference
from chirpfield.reference import InterfererState
from chirpfield.lora_phy import LoRaParams


@pytest.fixture(scope="module")
def sf7():
    return LoRaParams(7)


def sine_ratio(k, length, K):
    """Independent closed-form oracle for the partial-sum magnitude."""
    if k % K == 0:
        return float(length)
    return abs(np.sin(np.pi * k * length / K) / np.sin(np.pi * k / K))


def frame_of(state, params):
    """The interferer frame of one state, as a one-row batch."""
    return lora_phy.build_interferer_frames(
        np.array([state.i1]), np.array([state.i2]), np.array([state.tau]), params
    )[0]


class TestFrame:
    def test_zero_offset_is_pure_second_symbol(self, sf7):
        frame = frame_of(InterfererState(3, 40, 0), sf7)
        assert np.abs(frame - lora_phy.modulate_many(40, sf7)).max() < 1e-15

    def test_equal_symbols_any_offset(self, sf7):
        frame = frame_of(InterfererState(7, 7, 50), sf7)
        assert np.abs(frame - lora_phy.modulate_many(7, sf7)).max() < 1e-15

    def test_sample_by_sample_split(self, sf7):
        frame = frame_of(InterfererState(3, 40, 32), sf7)
        assert np.abs(frame[:32] - lora_phy.modulate_many(3, sf7)[:32]).max() < 1e-15
        assert np.abs(frame[32:] - lora_phy.modulate_many(40, sf7)[32:]).max() < 1e-15

    def test_invariant_violations(self, sf7):
        with pytest.raises(ValueError):
            frame_of(InterfererState(-1, 40, 10), sf7)
        with pytest.raises(ValueError):
            frame_of(InterfererState(3, 128, 10), sf7)

    def test_batch_rejects_out_of_range_symbols(self, sf7):
        ok = np.array([3, 7])
        tau = np.array([32, 50])
        for bad in (np.array([3, 128]), np.array([-1, 7])):
            with pytest.raises(ValueError):
                lora_phy.build_interferer_frames(bad, ok, tau, sf7)
            with pytest.raises(ValueError):
                lora_phy.build_interferer_frames(ok, bad, tau, sf7)

    def test_batch_rejects_out_of_range_offsets(self, sf7):
        ok = np.array([3, 7])
        for bad in (np.array([32, -1]), np.array([sf7.K, 50])):
            with pytest.raises(ValueError, match="offsets"):
                lora_phy.build_interferer_frames(ok, ok, bad, sf7)


class TestPartialSums:
    def test_aligned_with_first_symbol(self, sf7):
        s1, _ = reference.psi_partial_sums(3, InterfererState(3, 40, 32), sf7)
        assert s1 == pytest.approx(32 / 128, abs=1e-14)

    def test_aligned_with_second_symbol(self, sf7):
        _, s2 = reference.psi_partial_sums(40, InterfererState(3, 40, 32), sf7)
        assert s2 == pytest.approx((128 - 32) / 128, abs=1e-14)

    def test_generic_bin_magnitudes_match_sine_ratios(self, sf7):
        state = InterfererState(3, 40, 32)
        s1, s2 = reference.psi_partial_sums(10, state, sf7)
        assert abs(s1) == pytest.approx(sine_ratio(10 - 3, 32, 128) / 128, abs=1e-12)
        assert abs(s2) == pytest.approx(sine_ratio(10 - 40, 96, 128) / 128, abs=1e-12)

    def test_demodulator_sees_the_same_leakage(self, sf7):
        # dechirping the actual frame reproduces the partial-sum magnitudes
        state = InterfererState(3, 40, 32)
        bins = lora_phy.dechirp_dft(frame_of(state, sf7), sf7)
        for i in (0, 3, 10, 40, 99):
            s1, s2 = reference.psi_partial_sums(i, state, sf7)
            assert abs(bins[i]) == pytest.approx(abs(s1 + s2), abs=1e-12)


def chi_bound(bin_index, state, params):
    return reference.chi_bound_all_bins(state, params)[bin_index]


class TestChiBound:
    def test_full_overlap_is_one(self, sf7):
        assert chi_bound(7, InterfererState(7, 7, 32), sf7) == pytest.approx(1.0, abs=1e-13)

    def test_zero_offset(self, sf7):
        state = InterfererState(3, 40, 0)
        assert chi_bound(40, state, sf7) == pytest.approx(1.0, abs=1e-13)
        # away from the second symbol only its own sine ratio contributes
        assert chi_bound(10, state, sf7) == pytest.approx(
            sine_ratio(10 - 40, 128, 128) / 128, abs=1e-12
        )

    def test_bound_dominates_exact_leakage(self, sf7):
        rng = np.random.default_rng(17)
        for _ in range(100):
            state = InterfererState(
                int(rng.integers(0, 128)),
                int(rng.integers(0, 128)),
                int(rng.integers(0, 65)),
            )
            bound = reference.chi_bound_all_bins(state, sf7)
            for i in range(128):
                s1, s2 = reference.psi_partial_sums(i, state, sf7)
                assert bound[i] - abs(s1 + s2) >= -1e-12

    def test_all_bins_helper_matches_scalar(self, sf7):
        rng = np.random.default_rng(23)
        for _ in range(10):
            state = InterfererState(
                int(rng.integers(0, 128)),
                int(rng.integers(0, 128)),
                int(rng.integers(0, 65)),
            )
            # against the scalar sine-ratio oracle, bin by bin
            vec = reference.chi_bound_all_bins(state, sf7)
            for i in rng.integers(0, 128, 5):
                expected = (
                    sine_ratio(i - state.i1, state.tau, 128)
                    + sine_ratio(i - state.i2, 128 - state.tau, 128)
                ) / 128
                assert vec[i] == pytest.approx(expected, abs=1e-12)

    def test_peak_bin_statistic(self, sf7):
        # the bound's peak should land on the trailing-symbol bin for the
        # overwhelming majority of random interferer states
        rng = np.random.default_rng(29)
        n = 10_000
        hits = 0
        for _ in range(n):
            state = InterfererState(
                int(rng.integers(0, 128)),
                int(rng.integers(0, 128)),
                int(rng.integers(0, 65)),
            )
            hits += int(np.argmax(reference.chi_bound_all_bins(state, sf7))) == state.i2
        assert hits / n >= 0.95


def chi_of_I(shift, tau, params):
    return interference.chi_of_I_table(params)[tau, shift]


class TestChiOfI:
    def test_zero_difference(self, sf7):
        for tau in (0, 5, 64):
            assert chi_of_I(0, tau, sf7) == pytest.approx(1.0, abs=1e-13)

    def test_zero_offset(self, sf7):
        for shift in (0, 1, 63, 127):
            assert chi_of_I(shift, 0, sf7) == pytest.approx(1.0, abs=1e-13)

    def test_direct_evaluation(self, sf7):
        expected = (abs(np.sin(5 * np.pi * 32 / 128) / np.sin(5 * np.pi / 128)) + 96) / 128
        assert chi_of_I(5, 32, sf7) == pytest.approx(expected, rel=1e-12)

    def test_consistent_with_peak_bin_bound(self, sf7):
        # chi_of_I equals the per-bin bound evaluated at the trailing bin
        rng = np.random.default_rng(31)
        for _ in range(200):
            shift = int(rng.integers(0, 128))
            tau = int(rng.integers(0, 65))
            i2 = int(rng.integers(0, 128))
            state = InterfererState((i2 - shift) % 128, i2, tau)
            assert chi_of_I(shift, tau, sf7) == pytest.approx(
                chi_bound(i2, state, sf7), abs=1e-12
            )

    def test_range_invariant(self, sf7):
        table = interference.chi_of_I_table(sf7)
        for tau in range(0, 65, 8):
            row = table[tau]
            assert np.all(row <= 1.0 + 1e-12)
            assert np.all(row >= (128 - tau) / 128 - 1e-12)

    def test_table_matches_scalar(self, sf7):
        table = interference.chi_of_I_table(sf7)
        rng = np.random.default_rng(37)
        for _ in range(100):
            tau = int(rng.integers(0, 65))
            shift = int(rng.integers(0, 128))
            # against the scalar sine-ratio oracle
            expected = (sine_ratio(shift, tau, 128) + 128 - tau) / 128
            assert table[tau, shift] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_under_difference_reflection(self, sf7):
        table = interference.chi_of_I_table(sf7)
        for shift in range(1, 128):
            assert table[:, shift] == pytest.approx(table[:, 128 - shift], abs=1e-12)

    def test_domain_errors(self, sf7):
        assert interference.chi_of_I_table(sf7).shape == (65, 128)
        with pytest.raises(IndexError):
            chi_of_I(5, 65, sf7)
        with pytest.raises(IndexError):
            chi_of_I(128, 10, sf7)
        with pytest.raises(ValueError):
            reference.chi_bound_all_bins(InterfererState(3, 40, 65), sf7)
        with pytest.raises(ValueError):
            reference.chi_bound_all_bins(InterfererState(3, 128, 10), sf7)
