"""Tests for machine configuration and cluster presets."""

import pytest

from repro.errors import ConfigError
from repro.machine.clusters import (
    CLUSTERS,
    cluster_a,
    cluster_b,
    cluster_c,
    cluster_d,
    get_cluster,
    preset_name,
    scaled_cluster,
)
from repro.machine.config import FabricConfig, MachineConfig, NodeConfig, SharpConfig


class TestNodeConfig:
    def test_defaults_valid(self):
        node = NodeConfig()
        assert node.cores == node.sockets * node.cores_per_socket

    def test_zero_sockets_rejected(self):
        with pytest.raises(ConfigError):
            NodeConfig(sockets=0)

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigError):
            NodeConfig(copy_latency=-1.0)

    def test_intersocket_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            NodeConfig(intersocket_byte_factor=0.5)


class TestFabricConfig:
    def test_bandwidth_helpers(self):
        fabric = FabricConfig(proc_byte_time=1e-9, nic_byte_time=1e-10)
        assert fabric.proc_bandwidth() == pytest.approx(1e9)
        assert fabric.nic_bandwidth() == pytest.approx(1e10)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ConfigError):
            FabricConfig(chunk_bytes=0)

    def test_negative_pio_rejected(self):
        with pytest.raises(ConfigError):
            FabricConfig(pio_byte_time=-1.0)

    def test_negative_dma_threshold_rejected(self):
        with pytest.raises(ConfigError):
            FabricConfig(dma_threshold=-1)


class TestSharpConfig:
    def test_defaults_valid(self):
        SharpConfig()

    def test_radix_one_rejected(self):
        with pytest.raises(ConfigError):
            SharpConfig(radix=1)

    def test_zero_payload_rejected(self):
        with pytest.raises(ConfigError):
            SharpConfig(max_payload=0)


class TestMachineConfig:
    def test_max_ranks(self):
        cfg = MachineConfig(nodes=4, node=NodeConfig(sockets=2, cores_per_socket=3))
        assert cfg.max_ranks == 24

    def test_with_nodes(self):
        cfg = cluster_b(8)
        assert cfg.with_nodes(4).nodes == 4
        assert cfg.with_nodes(4).fabric == cfg.fabric

    def test_bad_placement_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(placement="weird")


class TestClusterPresets:
    def test_all_presets_build(self):
        for factory in CLUSTERS.values():
            cfg = factory()
            assert cfg.nodes >= 1

    def test_paper_node_counts(self):
        assert cluster_a().nodes == 40
        assert cluster_b().nodes == 648
        assert cluster_c().nodes == 752
        assert cluster_d().nodes == 508

    def test_sharp_only_on_cluster_a(self):
        assert cluster_a().sharp is not None
        assert cluster_b().sharp is None
        assert cluster_c().sharp is None
        assert cluster_d().sharp is None

    def test_fabric_families(self):
        assert cluster_a().fabric.name == "ib-edr"
        assert cluster_b().fabric.name == "ib-edr"
        assert cluster_c().fabric.name == "omni-path"
        assert cluster_d().fabric.name == "omni-path-knl"

    def test_knl_is_single_socket_manycore(self):
        node = cluster_d().node
        assert node.sockets == 1
        assert node.cores_per_socket >= 64

    def test_omnipath_has_pio_dma_split_ib_does_not(self):
        assert cluster_c().fabric.pio_byte_time is not None
        assert cluster_d().fabric.pio_byte_time is not None
        assert cluster_b().fabric.pio_byte_time is None

    def test_node_limit_enforced(self):
        with pytest.raises(ConfigError):
            cluster_a(41)
        with pytest.raises(ConfigError):
            cluster_b(0)

    def test_get_cluster_aliases(self):
        assert get_cluster("a").name == "cluster-a"
        assert get_cluster("Cluster-B", 8).nodes == 8
        with pytest.raises(ConfigError):
            get_cluster("z")

    def test_preset_name_reads_back_scaled_builds(self):
        for key in CLUSTERS:
            preset = get_cluster(key)
            assert preset_name(preset.name) == preset.name
            assert preset_name(scaled_cluster(key, 5000).name) == preset.name
        assert preset_name("custom-machine") is None
        assert preset_name("cluster-z-x16") is None
        assert preset_name("cluster-b-xl") is None
