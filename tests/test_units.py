"""Unit conversions, and the fraction, positive and non-negative bound checks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, check
from repro import units


class TestConversions:
    def test_mbps_to_bytes_per_sec_value(self):
        # 8 Mbps = 1 MB/s
        assert units.mbps_to_bytes_per_sec(8.0) == pytest.approx(1_000_000.0)

    def test_default_mss(self):
        assert units.DEFAULT_MSS == 1460


class TestValidators:
    """The three bound shapes the library checks most, via :func:`check`."""

    def test_check_fraction_accepts_bounds(self):
        assert check(0.0, "x", ge=0, le=1) == 0.0
        assert check(1.0, "x", ge=0, le=1) == 1.0

    @pytest.mark.parametrize("bad", [-0.001, 1.001, 5.0])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ConfigError):
            check(bad, "x", ge=0, le=1)

    def test_check_positive(self):
        assert check(0.1, "x", gt=0) == 0.1
        with pytest.raises(ConfigError):
            check(0.0, "x", gt=0)

    def test_check_non_negative(self):
        assert check(0.0, "x", ge=0) == 0.0
        with pytest.raises(ConfigError):
            check(-0.1, "x", ge=0)
