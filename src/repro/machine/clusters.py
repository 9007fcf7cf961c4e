"""The four evaluation clusters from the paper's Section 6.1.

=========  =======================  =========================  =======
Cluster    Processor                Fabric                     Nodes
=========  =======================  =========================  =======
A          Xeon Haswell 2x14        InfiniBand EDR + SHArP     40
B          Xeon Broadwell 2x14      InfiniBand EDR             648
C          Xeon Haswell 2x14        Omni-Path                  752
D          KNL (Xeon Phi 7250) 68c  Omni-Path                  508
=========  =======================  =========================  =======

The parameter values are **calibrated, not measured**: they were chosen
so that the simulator reproduces the *shapes* of the paper's Figure 1
throughput study (near-linear intra-node scaling; concurrency helping
at every message size on InfiniBand; the message-rate / transition /
bandwidth zones A/B/C on Omni-Path) and the relative behaviours of the
downstream experiments.  Absolute latencies are plausible for the
hardware generation but are not calibrated against the authors'
testbeds.  See DESIGN.md ("Substitution") and EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.machine.config import FabricConfig, MachineConfig, NodeConfig, SharpConfig

__all__ = [
    "cluster_a",
    "cluster_b",
    "cluster_c",
    "cluster_d",
    "get_cluster",
    "preset_name",
    "scaled_cluster",
    "CLUSTERS",
]


def _xeon_node() -> NodeConfig:
    """Dual-socket 14-core Haswell/Broadwell Xeon (Clusters A-C)."""
    return NodeConfig(
        sockets=2,
        cores_per_socket=14,
        copy_latency=2.0e-7,  # a' ~ 0.2 us
        copy_byte_time=2.0e-10,  # 5 GB/s per-core memcpy
        intersocket_latency=3.0e-7,
        intersocket_byte_factor=1.6,
        mem_byte_time=1.25e-11,  # 80 GB/s node memory engine
        reduce_byte_time=1.5e-10,  # ~6.7 GB/s vectorized combine per core
        flag_latency=1.0e-7,
        poll_latency=7.0e-8,  # leader touching one peer's flag/cache line
    )


def _knl_node() -> NodeConfig:
    """Self-hosted KNL: one socket, many slow cores, fast MCDRAM."""
    return NodeConfig(
        sockets=1,
        cores_per_socket=68,
        copy_latency=5.0e-7,  # slow 1.4 GHz core
        copy_byte_time=5.0e-10,  # 2 GB/s per-core memcpy
        intersocket_latency=0.0,
        intersocket_byte_factor=1.0,
        mem_byte_time=6.7e-12,  # ~150 GB/s MCDRAM-cached engine
        reduce_byte_time=4.0e-10,  # ~2.5 GB/s AVX-512 combine on a slow core
        flag_latency=2.0e-7,
        poll_latency=1.0e-7,  # slower uncore on KNL
    )


def _infiniband_edr() -> FabricConfig:
    """Mellanox EDR ConnectX-4, 100 Gb/s.

    Calibrated to Figure 1(b): relative throughput grows with the
    number of concurrent communicating processes *at every message
    size*, i.e. one process cannot saturate the HCA
    (``proc_byte_time`` is ~10x the NIC pipeline's per-byte time).
    """
    return FabricConfig(
        name="ib-edr",
        wire_latency=9.0e-7,
        send_overhead=4.0e-7,
        recv_overhead=3.0e-7,
        proc_byte_time=8.0e-10,  # ~1.25 GB/s per process
        nic_msg_time=7.0e-9,  # ~150 M msg/s pipeline floor
        nic_byte_time=8.0e-11,  # 12.5 GB/s
        chunk_bytes=32768,
        eager_threshold=16384,
    )


def _omnipath(knl: bool = False) -> FabricConfig:
    """Intel Omni-Path 100 series.

    Calibrated to Figure 1(c,d): PSM2 sends small/medium messages via
    CPU PIO (per-process rate limited — Zones A and B, where
    concurrency helps) and large messages via DMA at full NIC bandwidth
    (Zone C, where it does not).  KNL's slow cores raise the
    per-message overhead and the PIO per-byte cost.
    """
    if knl:
        return FabricConfig(
            name="omni-path-knl",
            wire_latency=1.1e-6,
            send_overhead=1.6e-6,  # slow KNL core driving PSM2
            recv_overhead=1.2e-6,
            proc_byte_time=1.0e-10,  # DMA: ~10 GB/s per process
            nic_msg_time=6.0e-9,
            nic_byte_time=8.0e-11,
            chunk_bytes=32768,
            eager_threshold=65536,
            pio_byte_time=6.7e-10,  # ~1.5 GB/s PIO per process
            dma_threshold=32768,
        )
    return FabricConfig(
        name="omni-path",
        wire_latency=1.0e-6,
        send_overhead=6.0e-7,
        recv_overhead=4.5e-7,
        proc_byte_time=8.0e-11,  # DMA: NIC-rate from one process
        nic_msg_time=6.0e-9,
        nic_byte_time=8.0e-11,
        chunk_bytes=32768,
        eager_threshold=65536,
        pio_byte_time=3.3e-10,  # ~3 GB/s PIO per process
        dma_threshold=32768,
    )


def _sharp() -> SharpConfig:
    """SHArP on the Cluster-A EDR fabric."""
    return SharpConfig(
        radix=36,
        hop_latency=2.0e-7,
        op_latency=9.0e-7,
        segment_overhead=2.1e-6,
        switch_byte_time=1.0e-9,
        max_payload=256,
        max_outstanding=2,
    )


def cluster_a(nodes: int = 40) -> MachineConfig:
    """Cluster A: Xeon Haswell + InfiniBand EDR with SHArP (40 nodes)."""
    _check_nodes(nodes, 40, "A")
    return MachineConfig(
        name="cluster-a",
        nodes=nodes,
        node=_xeon_node(),
        fabric=_infiniband_edr(),
        sharp=_sharp(),
    )


def cluster_b(nodes: int = 648) -> MachineConfig:
    """Cluster B: Xeon Broadwell + InfiniBand EDR, no SHArP (648 nodes)."""
    _check_nodes(nodes, 648, "B")
    return MachineConfig(
        name="cluster-b",
        nodes=nodes,
        node=_xeon_node(),
        fabric=_infiniband_edr(),
        sharp=None,
    )


def cluster_c(nodes: int = 752) -> MachineConfig:
    """Cluster C: Xeon Haswell + Omni-Path (752 nodes)."""
    _check_nodes(nodes, 752, "C")
    return MachineConfig(
        name="cluster-c",
        nodes=nodes,
        node=_xeon_node(),
        fabric=_omnipath(),
        sharp=None,
    )


def cluster_d(nodes: int = 508) -> MachineConfig:
    """Cluster D: KNL + Omni-Path (508 nodes; ppn capped at 64)."""
    _check_nodes(nodes, 508, "D")
    return MachineConfig(
        name="cluster-d",
        nodes=nodes,
        node=_knl_node(),
        fabric=_omnipath(knl=True),
        sharp=None,
    )


def _check_nodes(nodes: int, limit: int, label: str) -> None:
    if not (1 <= nodes <= limit):
        raise ConfigError(
            f"cluster {label} has {limit} nodes; requested {nodes}"
        )


CLUSTERS = {
    "a": cluster_a,
    "b": cluster_b,
    "c": cluster_c,
    "d": cluster_d,
}


def get_cluster(name: str, nodes: int | None = None) -> MachineConfig:
    """Cluster preset by name (``"a"``..``"d"``, case-insensitive)."""
    key = name.strip().lower().removeprefix("cluster-").removeprefix("cluster_")
    if key not in CLUSTERS:
        raise ConfigError(f"unknown cluster {name!r}; choose from {sorted(CLUSTERS)}")
    factory = CLUSTERS[key]
    return factory() if nodes is None else factory(nodes)


#: Separator between a preset's name and a scaled build's node count.
_SCALED = "-x"


def scaled_cluster(name: str, nodes: int) -> MachineConfig:
    """A cluster preset scaled past its physical node count.

    The real machines top out at 40-752 nodes; datacenter-scale
    scenario studies (hybrid fidelity at 10k-100k ranks) need
    *hypothetical* larger builds of the same node and fabric.  This
    bypasses the preset's physical cap while keeping every calibrated
    constant — the result is "cluster X, if it had ``nodes`` nodes".
    The config name is suffixed so results cannot be mistaken for the
    physical machine.
    """
    if nodes < 1:
        raise ConfigError(f"node count must be >= 1, got {nodes}")
    key = name.strip().lower().removeprefix("cluster-").removeprefix("cluster_")
    if key not in CLUSTERS:
        raise ConfigError(f"unknown cluster {name!r}; choose from {sorted(CLUSTERS)}")
    base = CLUSTERS[key](1)
    if nodes == base.nodes:
        return base
    from dataclasses import replace

    return replace(base.with_nodes(nodes), name=f"{base.name}{_SCALED}{nodes}")


def preset_name(config_name: str) -> str | None:
    """The preset a config was built from, or None for a custom config.

    ``"cluster-b"`` and its scaled build ``"cluster-b-x16"`` both give
    ``"cluster-b"``: a scaled build is the same node and fabric, so
    per-preset data such as the tuning tables applies to it unchanged.
    """
    base, sep, nodes = config_name.rpartition(_SCALED)
    if sep and nodes.isdigit():
        config_name = base
    known = {f"cluster-{key}" for key in CLUSTERS}
    return config_name if config_name in known else None
