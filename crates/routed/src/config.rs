//! Quagga-style configuration files.
//!
//! The paper's §1 lists "writing routing configuration files (e.g.
//! ospf.conf, zebra.conf) for each VM" as the dominant manual cost
//! (8 of the 15 minutes per switch). The RPC server *generates* these
//! files from the link information in the configuration messages, and
//! the daemons *parse them back* at VM boot — the full automated path.
//! BGP is out of scope: no `bgpd.conf` is written, because no VM runs
//! a BGP speaker to read one.
//!
//! The grammar is a faithful subset of Quagga's: `hostname`,
//! `interface`/`ip address`, `router ospf`/`ospf router-id`/`network
//! … area …`/`timers`.

use rf_wire::Ipv4Cidr;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Parse failure: line number (1-based) and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// `zebra.conf`: hostname + interface addressing.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ZebraConfig {
    pub hostname: String,
    /// (interface name, address). Interface `ethN` ↔ VM interface N.
    pub interfaces: Vec<(String, Ipv4Cidr)>,
}

impl ZebraConfig {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "! zebra.conf — generated by the RPC server");
        let _ = writeln!(out, "hostname {}", self.hostname);
        let _ = writeln!(out, "!");
        for (name, addr) in &self.interfaces {
            let _ = writeln!(out, "interface {name}");
            let _ = writeln!(out, " ip address {addr}");
            let _ = writeln!(out, "!");
        }
        out
    }

    pub fn parse(text: &str) -> Result<ZebraConfig, ConfigError> {
        let mut cfg = ZebraConfig::default();
        let mut current_iface: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('!') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["hostname", h] => cfg.hostname = h.to_string(),
                ["interface", name] => current_iface = Some(name.to_string()),
                ["ip", "address", addr] => {
                    let iface = current_iface.clone().ok_or(ConfigError {
                        line: lineno,
                        msg: "ip address outside interface block".into(),
                    })?;
                    let cidr: Ipv4Cidr = addr.parse().map_err(|_| ConfigError {
                        line: lineno,
                        msg: format!("bad address {addr}"),
                    })?;
                    cfg.interfaces.push((iface, cidr));
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!("unrecognized: {line}"),
                    })
                }
            }
        }
        Ok(cfg)
    }
}

/// `ospfd.conf`: router id, advertised networks, timers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OspfConfig {
    pub router_id: Ipv4Addr,
    /// (network, area). This reproduction supports area 0 only, but the
    /// file format carries the area per Quagga grammar.
    pub networks: Vec<(Ipv4Cidr, u32)>,
    pub hello_interval: u16,
    pub dead_interval: u16,
    /// SPF schedule: (delay ms, hold ms).
    pub spf_timers: (u32, u32),
    pub retransmit_interval: u16,
}

impl Default for OspfConfig {
    fn default() -> Self {
        OspfConfig {
            router_id: Ipv4Addr::UNSPECIFIED,
            networks: Vec::new(),
            hello_interval: 10,
            dead_interval: 40,
            spf_timers: (200, 1000),
            retransmit_interval: 5,
        }
    }
}

impl OspfConfig {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "! ospfd.conf — generated by the RPC server");
        let _ = writeln!(out, "router ospf");
        let _ = writeln!(out, " ospf router-id {}", self.router_id);
        let _ = writeln!(
            out,
            " timers throttle spf {} {}",
            self.spf_timers.0, self.spf_timers.1
        );
        let _ = writeln!(
            out,
            " timers hello {} dead {} retransmit {}",
            self.hello_interval, self.dead_interval, self.retransmit_interval
        );
        for (net, area) in &self.networks {
            let _ = writeln!(out, " network {net} area {area}");
        }
        let _ = writeln!(out, "!");
        out
    }

    pub fn parse(text: &str) -> Result<OspfConfig, ConfigError> {
        let mut cfg = OspfConfig::default();
        let mut in_router = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('!') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["router", "ospf"] => in_router = true,
                ["ospf", "router-id", id] if in_router => {
                    cfg.router_id = id.parse().map_err(|_| ConfigError {
                        line: lineno,
                        msg: format!("bad router id {id}"),
                    })?;
                }
                ["timers", "throttle", "spf", d, h] if in_router => {
                    cfg.spf_timers = (
                        d.parse().map_err(|_| ConfigError {
                            line: lineno,
                            msg: "bad spf delay".into(),
                        })?,
                        h.parse().map_err(|_| ConfigError {
                            line: lineno,
                            msg: "bad spf hold".into(),
                        })?,
                    );
                }
                ["timers", "hello", h, "dead", d, "retransmit", r] if in_router => {
                    let bad = |m: &str| ConfigError {
                        line: lineno,
                        msg: m.into(),
                    };
                    cfg.hello_interval = h.parse().map_err(|_| bad("bad hello"))?;
                    cfg.dead_interval = d.parse().map_err(|_| bad("bad dead"))?;
                    cfg.retransmit_interval = r.parse().map_err(|_| bad("bad retransmit"))?;
                }
                ["network", net, "area", area] if in_router => {
                    let net: Ipv4Cidr = net.parse().map_err(|_| ConfigError {
                        line: lineno,
                        msg: format!("bad network {net}"),
                    })?;
                    let area: u32 = area.parse().map_err(|_| ConfigError {
                        line: lineno,
                        msg: "bad area".to_string(),
                    })?;
                    cfg.networks.push((net, area));
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!("unrecognized: {line}"),
                    })
                }
            }
        }
        Ok(cfg)
    }
}

/// The complete per-VM configuration the RPC server materializes: the
/// two files a VM reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmRouterConfig {
    pub zebra: ZebraConfig,
    pub ospf: OspfConfig,
}

impl VmRouterConfig {
    /// Build the canonical configuration for a VM mirroring switch
    /// `dpid`, given its currently-addressed interfaces.
    pub fn generate(dpid: u64, interfaces: &[(u16, Ipv4Cidr)]) -> VmRouterConfig {
        Self::generate_with_timers(dpid, interfaces, 10, 40)
    }

    /// [`VmRouterConfig::generate`] with explicit OSPF hello/dead
    /// intervals (the knob the deployment's `ospf_hello`/`ospf_dead`
    /// settings reach the VMs through).
    pub fn generate_with_timers(
        dpid: u64,
        interfaces: &[(u16, Ipv4Cidr)],
        hello_interval: u16,
        dead_interval: u16,
    ) -> VmRouterConfig {
        // Router id: derived deterministically from the dpid, same rule
        // the paper's framework uses for VM identity (VM id = dpid).
        let router_id = Ipv4Addr::from(0x0A00_0000u32 | (dpid as u32 & 0x00FF_FFFF));
        let zebra = ZebraConfig {
            hostname: format!("vm-{dpid:x}"),
            interfaces: interfaces
                .iter()
                .map(|(idx, addr)| (format!("eth{idx}"), *addr))
                .collect(),
        };
        let ospf = OspfConfig {
            router_id,
            networks: interfaces
                .iter()
                .map(|(_, addr)| {
                    (
                        Ipv4Cidr::new(addr.network(), addr.prefix_len),
                        0, // area 0
                    )
                })
                .collect(),
            hello_interval,
            dead_interval,
            ..Default::default()
        };
        VmRouterConfig { zebra, ospf }
    }

    /// Render both files as `(zebra.conf, ospfd.conf)`.
    pub fn render_all(&self) -> (String, String) {
        (self.zebra.render(), self.ospf.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VmRouterConfig {
        VmRouterConfig::generate(
            0x1C,
            &[
                (1, "172.31.0.1/30".parse().unwrap()),
                (2, "172.31.0.6/30".parse().unwrap()),
            ],
        )
    }

    #[test]
    fn full_roundtrip() {
        let cfg = sample();
        let (z, o) = cfg.render_all();
        assert_eq!(ZebraConfig::parse(&z).unwrap(), cfg.zebra);
        assert_eq!(OspfConfig::parse(&o).unwrap(), cfg.ospf);
    }

    #[test]
    fn zebra_renders_interfaces() {
        let (z, _) = sample().render_all();
        assert!(z.contains("hostname vm-1c"));
        assert!(z.contains("interface eth1"));
        assert!(z.contains("ip address 172.31.0.1/30"));
    }

    #[test]
    fn ospf_renders_networks_and_timers() {
        let (_, o) = sample().render_all();
        assert!(o.contains("router ospf"));
        assert!(o.contains("network 172.31.0.0/30 area 0"));
        assert!(o.contains("network 172.31.0.4/30 area 0"));
        assert!(o.contains("timers hello 10 dead 40 retransmit 5"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let z = "! comment\n\nhostname h1\n!\ninterface eth1\n ip address 10.0.0.1/30\n";
        let cfg = ZebraConfig::parse(z).unwrap();
        assert_eq!(cfg.hostname, "h1");
        assert_eq!(cfg.interfaces.len(), 1);
    }

    #[test]
    fn zebra_rejects_orphan_address() {
        let err = ZebraConfig::parse("ip address 10.0.0.1/30\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("outside interface"));
    }

    #[test]
    fn ospf_rejects_garbage_with_line_number() {
        let err = OspfConfig::parse("router ospf\n ospf router-id nonsense\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn router_id_deterministic_and_distinct() {
        let a = VmRouterConfig::generate(1, &[]);
        let b = VmRouterConfig::generate(2, &[]);
        assert_ne!(a.ospf.router_id, b.ospf.router_id);
        assert_eq!(
            a.ospf.router_id,
            VmRouterConfig::generate(1, &[]).ospf.router_id
        );
    }
}
