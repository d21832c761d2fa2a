"""Unit tests for the first-order radio energy model and batteries."""

import numpy as np
import pytest

from repro.wsn import Battery, BatteryDepletedError, RadioEnergyModel


class TestRadioModel:
    def test_tx_monotone_in_bits(self):
        radio = RadioEnergyModel()
        assert radio.tx_energy(2000, 10) > radio.tx_energy(1000, 10)

    def test_tx_monotone_in_distance(self):
        radio = RadioEnergyModel()
        assert radio.tx_energy(1000, 50) > radio.tx_energy(1000, 10)

    def test_rx_independent_of_distance(self):
        radio = RadioEnergyModel()
        assert radio.rx_energy(1000) == radio.electronics_j_per_bit * 1000

    def test_crossover_distance_value(self):
        radio = RadioEnergyModel()
        expected = np.sqrt(radio.amp_free_space_j_per_bit_m2
                           / radio.amp_multipath_j_per_bit_m4)
        assert abs(radio.crossover_distance_m - expected) < 1e-9
        assert 80 < radio.crossover_distance_m < 95   # the canonical ~87.7 m

    def test_continuous_at_crossover(self):
        radio = RadioEnergyModel()
        d0 = radio.crossover_distance_m
        below = radio.tx_energy(1000, d0 * (1 - 1e-9))
        above = radio.tx_energy(1000, d0 * (1 + 1e-9))
        assert abs(below - above) / below < 1e-6

    def test_multipath_dominates_far(self):
        radio = RadioEnergyModel()
        near_slope = radio.tx_energy(1, 20) - radio.tx_energy(1, 10)
        far_slope = radio.tx_energy(1, 200) - radio.tx_energy(1, 190)
        assert far_slope > near_slope

    def test_validation(self):
        radio = RadioEnergyModel()
        with pytest.raises(ValueError):
            radio.tx_energy(-1, 10)
        with pytest.raises(ValueError):
            radio.rx_energy(-1)


class TestBattery:
    def test_drain_tracks_consumed(self):
        battery = Battery(2.0)
        battery.drain(0.5)
        assert abs(battery.remaining_j - 1.5) < 1e-12
        assert abs(battery.consumed_j - 0.5) < 1e-12

    def test_overdrain_raises(self):
        battery = Battery(1.0)
        with pytest.raises(BatteryDepletedError):
            battery.drain(1.5)

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery(1.0).drain(-0.1)

    def test_nan_capacity_rejected(self):
        """A NaN capacity passed the ``<= 0`` check and built a battery
        no drain could ever deplete."""
        with pytest.raises(ValueError, match="capacity"):
            Battery(float("nan"))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Battery(0.0)
