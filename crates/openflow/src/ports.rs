//! Port numbers and the 48-byte `ofp_phy_port` description.

use crate::OfError;
use bytes::{BufMut, BytesMut};
use rf_wire::MacAddr;

/// OF 1.0 port numbers are 16-bit.
pub type PortNumber = u16;

/// Maximum number of physical ports.
pub const OFPP_MAX: PortNumber = 0xFF00;
/// Send back out the input port.
pub const OFPP_IN_PORT: PortNumber = 0xFFF8;
/// Submit to the flow table (PACKET_OUT only).
pub const OFPP_TABLE: PortNumber = 0xFFF9;
/// Legacy L2 processing (not implemented by our datapath).
pub const OFPP_NORMAL: PortNumber = 0xFFFA;
/// Flood: all physical ports except input and those configured out.
pub const OFPP_FLOOD: PortNumber = 0xFFFB;
/// All physical ports except input.
pub const OFPP_ALL: PortNumber = 0xFFFC;
/// Punt to the controller as PACKET_IN.
pub const OFPP_CONTROLLER: PortNumber = 0xFFFD;
/// The switch's local networking stack (unused here).
pub const OFPP_LOCAL: PortNumber = 0xFFFE;
/// Wildcard/none.
pub const OFPP_NONE: PortNumber = 0xFFFF;

/// Size of `ofp_phy_port` on the wire.
pub const OFP_PHY_PORT_LEN: usize = 48;

/// Description of one switch port (`ofp_phy_port`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhyPort {
    pub port_no: PortNumber,
    pub hw_addr: MacAddr,
    /// Up to 15 bytes + NUL on the wire.
    pub name: String,
    pub config: u32,
    pub state: u32,
    pub curr: u32,
    pub advertised: u32,
    pub supported: u32,
    pub peer: u32,
}

impl PhyPort {
    /// A standard 1 Gbps copper port, link up.
    pub fn new(port_no: PortNumber, hw_addr: MacAddr, name: impl Into<String>) -> PhyPort {
        PhyPort {
            port_no,
            hw_addr,
            name: name.into(),
            config: 0,
            state: 0,
            curr: 1 << 5, // OFPPF_1GB_FD
            advertised: 1 << 5,
            supported: 1 << 5,
            peer: 0,
        }
    }

    pub fn parse(data: &[u8]) -> Result<PhyPort, OfError> {
        if data.len() < OFP_PHY_PORT_LEN {
            return Err(OfError::Truncated);
        }
        let name_bytes = &data[8..24];
        let name_end = name_bytes.iter().position(|&b| b == 0).unwrap_or(16);
        let name = String::from_utf8_lossy(&name_bytes[..name_end]).into_owned();
        Ok(PhyPort {
            port_no: u16::from_be_bytes([data[0], data[1]]),
            hw_addr: MacAddr::from_bytes(&data[2..8]).map_err(|_| OfError::Truncated)?,
            name,
            config: u32::from_be_bytes([data[24], data[25], data[26], data[27]]),
            state: u32::from_be_bytes([data[28], data[29], data[30], data[31]]),
            curr: u32::from_be_bytes([data[32], data[33], data[34], data[35]]),
            advertised: u32::from_be_bytes([data[36], data[37], data[38], data[39]]),
            supported: u32::from_be_bytes([data[40], data[41], data[42], data[43]]),
            peer: u32::from_be_bytes([data[44], data[45], data[46], data[47]]),
        })
    }

    pub fn emit_into(&self, buf: &mut BytesMut) {
        buf.put_u16(self.port_no);
        buf.put_slice(self.hw_addr.as_bytes());
        let mut name = [0u8; 16];
        let n = self.name.len().min(15);
        name[..n].copy_from_slice(&self.name.as_bytes()[..n]);
        buf.put_slice(&name);
        buf.put_u32(self.config);
        buf.put_u32(self.state);
        buf.put_u32(self.curr);
        buf.put_u32(self.advertised);
        buf.put_u32(self.supported);
        buf.put_u32(self.peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = PhyPort::new(7, MacAddr([2, 0, 0, 0, 0, 7]), "eth7");
        let mut b = BytesMut::new();
        p.emit_into(&mut b);
        assert_eq!(b.len(), OFP_PHY_PORT_LEN);
        assert_eq!(PhyPort::parse(&b).unwrap(), p);
    }

    #[test]
    fn long_name_truncated_to_15() {
        let p = PhyPort::new(1, MacAddr::ZERO, "a-very-long-interface-name");
        let mut b = BytesMut::new();
        p.emit_into(&mut b);
        let parsed = PhyPort::parse(&b).unwrap();
        assert_eq!(parsed.name.len(), 15);
        assert!(p.name.starts_with(&parsed.name));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(PhyPort::parse(&[0u8; 47]), Err(OfError::Truncated));
    }

    #[test]
    fn reserved_port_numbers_distinct() {
        let all = [
            OFPP_IN_PORT,
            OFPP_TABLE,
            OFPP_NORMAL,
            OFPP_FLOOD,
            OFPP_ALL,
            OFPP_CONTROLLER,
            OFPP_LOCAL,
            OFPP_NONE,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
            assert!(*a > OFPP_MAX);
        }
    }
}
