//! The RF-controller's configuration.
//!
//! The controller itself is the [`crate::apps::ControlPlane`] with its
//! four fixed stages; this module holds what it is configured with.

use rf_openflow::PortNumber;
use rf_sim::LinkProfile;
use rf_wire::Ipv4Cidr;
use std::net::Ipv4Addr;
use std::time::Duration;

/// OpenFlow service the RF-controller listens on (FlowVisor's IP
/// slice, or every switch directly, dials it).
pub const RF_CONTROLLER_OF_SERVICE: u16 = 6642;

/// Administrator-declared host attachment point: the one piece of edge
/// configuration LLDP discovery cannot learn (hosts do not speak LLDP).
/// The paper's demo likewise pre-wires where the video server and
/// client sit.
#[derive(Clone, Debug)]
pub struct HostPortConfig {
    pub dpid: u64,
    pub port: PortNumber,
    /// The host subnet, advertised into OSPF by the mirroring VM.
    pub subnet: Ipv4Cidr,
    /// Gateway address the VM interface takes (hosts point their
    /// default route here).
    pub gateway: Ipv4Addr,
}

/// RF-controller configuration.
#[derive(Clone, Debug)]
pub struct RfControllerConfig {
    /// Simulated VM provisioning/boot latency ("creating a VM" in the
    /// paper's manual model takes 5 minutes; LXC takes ~1 s).
    pub vm_boot_delay: Duration,
    /// Link profile of the virtual interconnect between VMs.
    pub vm_link_profile: LinkProfile,
    /// Host attachment points (edge configuration).
    pub host_ports: Vec<HostPortConfig>,
    /// OSPF hello/dead intervals written into every VM's ospfd.conf
    /// (defaults: Quagga's 10 s / 40 s).
    pub ospf_hello: u16,
    pub ospf_dead: u16,
    /// How many VM create/configure operations may be in flight at
    /// once. `1` reproduces the paper's serial rftest pipeline (the
    /// Fig. 3 bottleneck); larger widths overlap provisioning.
    pub provision_width: usize,
    /// FIB-mirror batching: coalesce up to this many FLOW_MODs per
    /// switch into one multi-message push. `1` sends each FLOW_MOD
    /// immediately (paper-faithful); larger values flush on the batch
    /// threshold or the next flush tick.
    pub fib_batch: usize,
    /// Bound on each switch channel's admitted window, which also sets
    /// the per-drain-interval send credits. `None` (default) reproduces
    /// the paper's unbounded fire-and-forget behaviour; `Some(0)`
    /// admits nothing (the degenerate everything-defers case). A
    /// FLOW_MOD beyond the window waits in the channel's FIFO for the
    /// drain tick; a PACKET_OUT there is shed.
    pub channel_capacity: Option<usize>,
}

/// The paper's controller: Quagga's 10 s / 40 s hello/dead, a 1 s
/// (LXC-like) VM boot, serial provisioning, unbatched FLOW_MODs and
/// unbounded channels. The one place these defaults are written.
impl Default for RfControllerConfig {
    fn default() -> Self {
        RfControllerConfig {
            vm_boot_delay: Duration::from_secs(1),
            vm_link_profile: LinkProfile::default(),
            host_ports: Vec::new(),
            ospf_hello: 10,
            ospf_dead: 40,
            provision_width: 1,
            fib_batch: 1,
            channel_capacity: None,
        }
    }
}
