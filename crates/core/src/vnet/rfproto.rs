//! The RouteFlow client/server protocol (RFClient ↔ RFServer).
//!
//! Length-prefixed binary frames on a reliable stream, hand-rolled like
//! every other codec in the repo.
//!
//! ```text
//! +--------+--------+----------+
//! | length | tag    | body ... |
//! | u32    | u8     |          |
//! +--------+--------+----------+
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rf_wire::{FrameBuf, Ipv4Cidr};
use std::convert::Infallible;
use std::net::Ipv4Addr;

/// Service the RF-controller listens on for VM (RFClient) connections.
pub const RF_SERVICE: u16 = 7892;

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RfMessage {
    /// VM → server: the VM finished booting and identifies itself.
    Booted { dpid: u64 },
    /// Server → VM: the current configuration files. The VM diffs and
    /// applies (this is "the RPC server writes routing configuration
    /// files" from the paper — delivered over the RFServer channel).
    WriteConfigs {
        zebra: String,
        ospf: String,
        bgp: String,
    },
    /// VM → server: a route entered the FIB.
    RouteAdd {
        prefix: Ipv4Cidr,
        /// `None` for connected routes.
        next_hop: Option<Ipv4Addr>,
        out_iface: u16,
        metric: u32,
    },
    /// VM → server: a prefix left the FIB.
    RouteDel { prefix: Ipv4Cidr },
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(data: &mut &[u8]) -> Option<String> {
    if data.remaining() < 4 {
        return None;
    }
    let len = data.get_u32() as usize;
    if data.remaining() < len {
        return None;
    }
    let s = String::from_utf8(data[..len].to_vec()).ok()?;
    data.advance(len);
    Some(s)
}

impl RfMessage {
    /// One buffer, sized for the frame: the header goes in first with
    /// a zero length and tag, the body straight after it, and both
    /// header fields are patched in at the end.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(5 + self.body_len());
        out.put_u32(0);
        out.put_u8(0);
        let tag: u8 = match self {
            RfMessage::Booted { dpid } => {
                out.put_u64(*dpid);
                1
            }
            RfMessage::WriteConfigs { zebra, ospf, bgp } => {
                put_string(&mut out, zebra);
                put_string(&mut out, ospf);
                put_string(&mut out, bgp);
                2
            }
            RfMessage::RouteAdd {
                prefix,
                next_hop,
                out_iface,
                metric,
            } => {
                out.put_slice(&prefix.addr.octets());
                out.put_u8(prefix.prefix_len);
                out.put_u32(next_hop.map(u32::from).unwrap_or(0));
                out.put_u16(*out_iface);
                out.put_u32(*metric);
                3
            }
            RfMessage::RouteDel { prefix } => {
                out.put_slice(&prefix.addr.octets());
                out.put_u8(prefix.prefix_len);
                4
            }
        };
        let length = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&length.to_be_bytes());
        out[4] = tag;
        out.freeze()
    }

    /// The body's exact size in bytes.
    fn body_len(&self) -> usize {
        match self {
            RfMessage::Booted { .. } => 8,
            RfMessage::WriteConfigs { zebra, ospf, bgp } => {
                12 + zebra.len() + ospf.len() + bgp.len()
            }
            RfMessage::RouteAdd { .. } => 15,
            RfMessage::RouteDel { .. } => 5,
        }
    }

    pub fn decode(mut data: &[u8]) -> Option<RfMessage> {
        if data.remaining() < 1 {
            return None;
        }
        let tag = data.get_u8();
        match tag {
            1 => {
                if data.remaining() < 8 {
                    return None;
                }
                Some(RfMessage::Booted {
                    dpid: data.get_u64(),
                })
            }
            2 => {
                let zebra = get_string(&mut data)?;
                let ospf = get_string(&mut data)?;
                let bgp = get_string(&mut data)?;
                Some(RfMessage::WriteConfigs { zebra, ospf, bgp })
            }
            3 => {
                if data.remaining() < 15 {
                    return None;
                }
                let mut o = [0u8; 4];
                data.copy_to_slice(&mut o);
                let prefix_len = data.get_u8();
                if prefix_len > 32 {
                    return None;
                }
                let nh = data.get_u32();
                let out_iface = data.get_u16();
                let metric = data.get_u32();
                Some(RfMessage::RouteAdd {
                    prefix: Ipv4Cidr::new(Ipv4Addr::from(o), prefix_len),
                    next_hop: if nh == 0 {
                        None
                    } else {
                        Some(Ipv4Addr::from(nh))
                    },
                    out_iface,
                    metric,
                })
            }
            4 => {
                if data.remaining() < 5 {
                    return None;
                }
                let mut o = [0u8; 4];
                data.copy_to_slice(&mut o);
                let prefix_len = data.get_u8();
                if prefix_len > 32 {
                    return None;
                }
                Some(RfMessage::RouteDel {
                    prefix: Ipv4Cidr::new(Ipv4Addr::from(o), prefix_len),
                })
            }
            _ => None,
        }
    }
}

/// Stream reassembler for RF frames: [`FrameBuf`] framed by the u32
/// length prefix. The header has nothing to validate, so framing
/// cannot fail; a frame whose body does not decode is dropped.
#[derive(Clone, Default)]
pub struct RfFrameReader {
    frames: FrameBuf,
}

impl RfFrameReader {
    pub fn new() -> RfFrameReader {
        RfFrameReader::default()
    }

    /// Feed a whole stream chunk without copying when drained.
    pub fn push_bytes(&mut self, data: Bytes) {
        self.frames.push_bytes(data);
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RfMessage> {
        let frame =
            self.frames.take_frame(|avail| {
                Ok::<_, Infallible>((avail.len() >= 4).then(|| {
                    4 + u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize
                }))
            });
        let Ok(frame) = frame;
        RfMessage::decode(&frame?[4..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<RfMessage> {
        vec![
            RfMessage::Booted { dpid: 0x1C },
            RfMessage::WriteConfigs {
                zebra: "hostname vm-1c\n".into(),
                ospf: "router ospf\n".into(),
                bgp: "router bgp 64512\n".into(),
            },
            RfMessage::RouteAdd {
                prefix: "172.31.0.4/30".parse().unwrap(),
                next_hop: Some("172.31.0.2".parse().unwrap()),
                out_iface: 1,
                metric: 20,
            },
            RfMessage::RouteAdd {
                prefix: "172.31.0.0/30".parse().unwrap(),
                next_hop: None,
                out_iface: 2,
                metric: 0,
            },
            RfMessage::RouteDel {
                prefix: "172.31.0.4/30".parse().unwrap(),
            },
        ]
    }

    #[test]
    fn roundtrip_all() {
        for m in samples() {
            let enc = m.encode();
            assert_eq!(RfMessage::decode(&enc[4..]), Some(m));
        }
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// The encodings as the header-behind-body encoder this one
    /// replaced wrote them: the wire format is pinned byte for byte.
    #[test]
    fn golden_encodings() {
        // Length, tag, body.
        let golden = [
            concat!("00000009", "01", "000000000000001c"),
            concat!(
                "00000039",
                "02",
                "0000000f686f73746e616d6520766d2d31630a",
                "0000000c726f75746572206f7370660a",
                "00000011726f75746572206267702036343531320a",
            ),
            concat!("00000010", "03", "ac1f00041eac1f0002000100000014"),
            concat!("00000010", "03", "ac1f00001e00000000000200000000"),
            concat!("00000006", "04", "ac1f00041e"),
        ];
        for (m, want) in samples().into_iter().zip(golden) {
            assert_eq!(hex(&m.encode()), want, "{m:?}");
        }
    }

    #[test]
    fn bad_prefix_len_rejected() {
        let m = RfMessage::RouteDel {
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        let mut enc = m.encode().to_vec();
        enc[9] = 60; // prefix_len byte
        assert_eq!(RfMessage::decode(&enc[4..]), None);
    }
}
