//! RPC message bodies: the configuration vocabulary of the framework.

use bytes::{Buf, BufMut, BytesMut};
use rf_wire::Ipv4Cidr;
use std::net::Ipv4Addr;

use crate::RpcError;

/// A configuration request from the topology controller (via the RPC
/// client) to the RPC server inside the RF-controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcRequest {
    /// A new switch appeared: create a VM whose ID equals the switch ID
    /// with the same number of interfaces (paper §2).
    SwitchDetected { dpid: u64, num_ports: u16 },
    /// A switch left: tear down its VM.
    SwitchRemoved { dpid: u64 },
    /// A new link appeared: configure the two VM interfaces with the
    /// addresses the topology controller computed from the admin-
    /// provided range, and (re)write the routing configuration files.
    LinkDetected {
        a_dpid: u64,
        a_port: u16,
        b_dpid: u64,
        b_port: u16,
        /// The /30 (by default) carved out of the virtual-environment
        /// range for this link.
        subnet: Ipv4Cidr,
        ip_a: Ipv4Addr,
        ip_b: Ipv4Addr,
    },
    /// A link disappeared: deconfigure the interfaces.
    LinkRemoved {
        a_dpid: u64,
        a_port: u16,
        b_dpid: u64,
        b_port: u16,
    },
    /// A port changed state.
    PortStatus { dpid: u64, port: u16, up: bool },
}

impl RpcRequest {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            RpcRequest::SwitchDetected { .. } => 1,
            RpcRequest::SwitchRemoved { .. } => 2,
            RpcRequest::LinkDetected { .. } => 3,
            RpcRequest::LinkRemoved { .. } => 4,
            RpcRequest::PortStatus { .. } => 5,
        }
    }

    /// The length of what [`Self::emit_body`] writes.
    pub(crate) fn body_len(&self) -> usize {
        match self {
            RpcRequest::SwitchDetected { .. } => 8 + 2,
            RpcRequest::SwitchRemoved { .. } => 8,
            RpcRequest::LinkDetected { .. } => 8 + 2 + 8 + 2 + 4 + 1 + 4 + 4,
            RpcRequest::LinkRemoved { .. } => 8 + 2 + 8 + 2,
            RpcRequest::PortStatus { .. } => 8 + 2 + 1,
        }
    }

    pub(crate) fn emit_body(&self, buf: &mut BytesMut) {
        match self {
            RpcRequest::SwitchDetected { dpid, num_ports } => {
                buf.put_u64(*dpid);
                buf.put_u16(*num_ports);
            }
            RpcRequest::SwitchRemoved { dpid } => buf.put_u64(*dpid),
            RpcRequest::LinkDetected {
                a_dpid,
                a_port,
                b_dpid,
                b_port,
                subnet,
                ip_a,
                ip_b,
            } => {
                buf.put_u64(*a_dpid);
                buf.put_u16(*a_port);
                buf.put_u64(*b_dpid);
                buf.put_u16(*b_port);
                buf.put_slice(&subnet.addr.octets());
                buf.put_u8(subnet.prefix_len);
                buf.put_slice(&ip_a.octets());
                buf.put_slice(&ip_b.octets());
            }
            RpcRequest::LinkRemoved {
                a_dpid,
                a_port,
                b_dpid,
                b_port,
            } => {
                buf.put_u64(*a_dpid);
                buf.put_u16(*a_port);
                buf.put_u64(*b_dpid);
                buf.put_u16(*b_port);
            }
            RpcRequest::PortStatus { dpid, port, up } => {
                buf.put_u64(*dpid);
                buf.put_u16(*port);
                buf.put_u8(u8::from(*up));
            }
        }
    }

    pub(crate) fn parse_body(tag: u8, mut body: &[u8]) -> Result<RpcRequest, RpcError> {
        fn need(body: &[u8], n: usize) -> Result<(), RpcError> {
            if body.remaining() < n {
                Err(RpcError::Truncated)
            } else {
                Ok(())
            }
        }
        let ip = |b: &mut &[u8]| -> Ipv4Addr {
            let mut o = [0u8; 4];
            b.copy_to_slice(&mut o);
            Ipv4Addr::from(o)
        };
        Ok(match tag {
            1 => {
                need(body, 10)?;
                RpcRequest::SwitchDetected {
                    dpid: body.get_u64(),
                    num_ports: body.get_u16(),
                }
            }
            2 => {
                need(body, 8)?;
                RpcRequest::SwitchRemoved {
                    dpid: body.get_u64(),
                }
            }
            3 => {
                need(body, 20 + 5 + 8)?;
                let a_dpid = body.get_u64();
                let a_port = body.get_u16();
                let b_dpid = body.get_u64();
                let b_port = body.get_u16();
                let net = ip(&mut body);
                let prefix_len = body.get_u8();
                if prefix_len > 32 {
                    return Err(RpcError::Malformed("prefix length"));
                }
                let ip_a = ip(&mut body);
                let ip_b = ip(&mut body);
                RpcRequest::LinkDetected {
                    a_dpid,
                    a_port,
                    b_dpid,
                    b_port,
                    subnet: Ipv4Cidr::new(net, prefix_len),
                    ip_a,
                    ip_b,
                }
            }
            4 => {
                need(body, 20)?;
                RpcRequest::LinkRemoved {
                    a_dpid: body.get_u64(),
                    a_port: body.get_u16(),
                    b_dpid: body.get_u64(),
                    b_port: body.get_u16(),
                }
            }
            5 => {
                need(body, 11)?;
                RpcRequest::PortStatus {
                    dpid: body.get_u64(),
                    port: body.get_u16(),
                    up: body.get_u8() != 0,
                }
            }
            other => return Err(RpcError::BadTag(other)),
        })
    }
}

/// Acknowledgement from the RPC server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcAck {
    /// Echoes the request id.
    pub req_id: u64,
    /// Whether the configuration action was applied.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_requests() -> Vec<RpcRequest> {
        vec![
            RpcRequest::SwitchDetected {
                dpid: 0x1C,
                num_ports: 4,
            },
            RpcRequest::SwitchRemoved { dpid: 9 },
            RpcRequest::LinkDetected {
                a_dpid: 1,
                a_port: 2,
                b_dpid: 3,
                b_port: 4,
                subnet: Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 4), 30),
                ip_a: Ipv4Addr::new(10, 0, 0, 5),
                ip_b: Ipv4Addr::new(10, 0, 0, 6),
            },
            RpcRequest::LinkRemoved {
                a_dpid: 1,
                a_port: 2,
                b_dpid: 3,
                b_port: 4,
            },
            RpcRequest::PortStatus {
                dpid: 1,
                port: 3,
                up: false,
            },
        ]
    }

    #[test]
    fn bodies_roundtrip() {
        for req in sample_requests() {
            let mut b = BytesMut::new();
            req.emit_body(&mut b);
            let parsed = RpcRequest::parse_body(req.tag(), &b).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(RpcRequest::parse_body(99, &[]), Err(RpcError::BadTag(99)));
    }

    #[test]
    fn truncated_body_rejected() {
        assert_eq!(
            RpcRequest::parse_body(1, &[0, 0, 0]),
            Err(RpcError::Truncated)
        );
    }

    #[test]
    fn absurd_prefix_rejected() {
        let req = RpcRequest::LinkDetected {
            a_dpid: 1,
            a_port: 1,
            b_dpid: 2,
            b_port: 1,
            subnet: Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 30),
            ip_a: Ipv4Addr::new(10, 0, 0, 1),
            ip_b: Ipv4Addr::new(10, 0, 0, 2),
        };
        let mut b = BytesMut::new();
        req.emit_body(&mut b);
        b[24] = 77; // prefix_len byte
        assert!(matches!(
            RpcRequest::parse_body(3, &b),
            Err(RpcError::Malformed(_))
        ));
    }
}
