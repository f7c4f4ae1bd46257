"""PlanetLab population: distributions and deployment."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import PlanetLabError
from repro.planetlab import (
    CONTROLLED_DISTRIBUTION,
    WEBLAB_DISTRIBUTION,
    PlanetLabDeployment,
    deploy_planetlab,
)
from repro.planetlab.sites import scale_distribution


class TestDistributions:
    def test_paper_counts(self):
        # Sec. II-A: >100 nodes; Sec. II-B: 50 nodes.
        assert sum(WEBLAB_DISTRIBUTION.values()) == 110
        assert sum(CONTROLLED_DISTRIBUTION.values()) == 50

    def test_scale_preserves_total(self):
        for total in (5, 12, 50, 110, 200):
            scaled = scale_distribution(WEBLAB_DISTRIBUTION, total)
            assert sum(scaled.values()) == total

    def test_scale_below_region_count_terminates(self):
        """Regression: totals smaller than the number of populated
        regions used to loop forever; now the largest regions win."""
        for total in (1, 2, 3, 4):
            scaled = scale_distribution(WEBLAB_DISTRIBUTION, total)
            assert sum(scaled.values()) == total
            assert scaled["eu"] == 1  # the largest region always survives

    def test_scale_keeps_regions_alive(self):
        scaled = scale_distribution(WEBLAB_DISTRIBUTION, 10)
        for region, count in WEBLAB_DISTRIBUTION.items():
            if count > 0:
                assert scaled[region] >= 1

    def test_scale_rejects_bad_input(self):
        with pytest.raises(PlanetLabError):
            scale_distribution(WEBLAB_DISTRIBUTION, 0)
        with pytest.raises(PlanetLabError):
            scale_distribution({"eu": 0}, 5)


class TestDeployment:
    def test_regional_placement(self, small_internet):
        from repro.rand import RandomStreams

        deployment = deploy_planetlab(
            small_internet, {"eu": 3, "na": 2}, RandomStreams(seed=5), name_prefix="t"
        )
        assert len(deployment) == 5
        assert Counter(node.region for node in deployment) == {"eu": 3, "na": 2}

    def test_nodes_live_in_academic_ases(self, small_internet):
        from repro.net.asn import ASKind
        from repro.rand import RandomStreams

        deployment = deploy_planetlab(
            small_internet, {"eu": 2}, RandomStreams(seed=5), name_prefix="t2"
        )
        for node in deployment:
            asys = small_internet.topology.ases[node.host.asn]
            assert asys.kind is ASKind.ACADEMIC

    def test_heterogeneous_receive_windows(self, small_internet):
        from repro.rand import RandomStreams

        deployment = deploy_planetlab(
            small_internet, {"eu": 6, "na": 4}, RandomStreams(seed=5), name_prefix="t3"
        )
        windows = {node.host.rwnd_bytes for node in deployment}
        assert len(windows) > 3

    def test_empty_deployment_rejected(self):
        with pytest.raises(PlanetLabError):
            PlanetLabDeployment(nodes=[])
