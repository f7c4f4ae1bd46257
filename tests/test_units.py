"""Unit conversions and validators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro import units


class TestConversions:
    def test_mbps_to_bytes_per_sec_value(self):
        # 8 Mbps = 1 MB/s
        assert units.mbps_to_bytes_per_sec(8.0) == pytest.approx(1_000_000.0)

    def test_default_mss(self):
        assert units.DEFAULT_MSS == 1460


class TestValidators:
    def test_check_fraction_accepts_bounds(self):
        assert units.check_fraction(0.0, "x") == 0.0
        assert units.check_fraction(1.0, "x") == 1.0

    @pytest.mark.parametrize("bad", [-0.001, 1.001, 5.0])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ConfigError):
            units.check_fraction(bad, "x")

    def test_check_positive(self):
        assert units.check_positive(0.1, "x") == 0.1
        with pytest.raises(ConfigError):
            units.check_positive(0.0, "x")

    def test_check_non_negative(self):
        assert units.check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ConfigError):
            units.check_non_negative(-0.1, "x")

