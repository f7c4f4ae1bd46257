"""Validation of the SimLink token-bucket shaper parameters."""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.transport.packetsim import SimLink


class TestShapedLinkMechanics:
    def test_shaper_validation(self):
        with pytest.raises(TransportError):
            SimLink(100.0, 1.0, shaper_burst_packets=-1)
        with pytest.raises(TransportError):
            SimLink(100.0, 1.0, shaper_burst_packets=8, line_rate_mbps=50.0)
