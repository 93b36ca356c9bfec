//! OpenFlow 1.0 actions (`ofp_action_*`).
//!
//! RouteFlow's route-to-flow translation uses exactly three of these
//! per flow entry — rewrite `dl_src` to the output interface's MAC,
//! rewrite `dl_dst` to the next hop's MAC, and `OUTPUT` — but we
//! implement the full OF 1.0 action list so the switch is a faithful
//! OVS 1.4 substitute.

use crate::ports::PortNumber;
use crate::OfError;
use bytes::{BufMut, BytesMut};
use rf_wire::MacAddr;
use std::net::Ipv4Addr;

/// An OF 1.0 action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward out a port; `max_len` caps bytes sent when the port is
    /// `OFPP_CONTROLLER`.
    Output {
        port: PortNumber,
        max_len: u16,
    },
    SetVlanVid(u16),
    SetVlanPcp(u8),
    StripVlan,
    SetDlSrc(MacAddr),
    SetDlDst(MacAddr),
    SetNwSrc(Ipv4Addr),
    SetNwDst(Ipv4Addr),
    SetNwTos(u8),
    SetTpSrc(u16),
    SetTpDst(u16),
    /// Queue-based output; our datapath treats it as plain output
    /// (queues are out of scope: links have no QoS model).
    Enqueue {
        port: PortNumber,
        queue_id: u32,
    },
}

impl Action {
    /// Convenience: output with no controller truncation.
    pub fn output(port: PortNumber) -> Action {
        Action::Output { port, max_len: 0 }
    }

    /// Wire length of this action.
    pub fn wire_len(&self) -> usize {
        match self {
            Action::SetDlSrc(_) | Action::SetDlDst(_) | Action::Enqueue { .. } => 16,
            _ => 8,
        }
    }

    pub fn emit_into(&self, buf: &mut BytesMut) {
        match self {
            Action::Output { port, max_len } => {
                buf.put_u16(0);
                buf.put_u16(8);
                buf.put_u16(*port);
                buf.put_u16(*max_len);
            }
            Action::SetVlanVid(vid) => {
                buf.put_u16(1);
                buf.put_u16(8);
                buf.put_u16(*vid);
                buf.put_u16(0);
            }
            Action::SetVlanPcp(pcp) => {
                buf.put_u16(2);
                buf.put_u16(8);
                buf.put_u8(*pcp);
                buf.put_slice(&[0; 3]);
            }
            Action::StripVlan => {
                buf.put_u16(3);
                buf.put_u16(8);
                buf.put_u32(0);
            }
            Action::SetDlSrc(mac) => {
                buf.put_u16(4);
                buf.put_u16(16);
                buf.put_slice(mac.as_bytes());
                buf.put_slice(&[0; 6]);
            }
            Action::SetDlDst(mac) => {
                buf.put_u16(5);
                buf.put_u16(16);
                buf.put_slice(mac.as_bytes());
                buf.put_slice(&[0; 6]);
            }
            Action::SetNwSrc(ip) => {
                buf.put_u16(6);
                buf.put_u16(8);
                buf.put_slice(&ip.octets());
            }
            Action::SetNwDst(ip) => {
                buf.put_u16(7);
                buf.put_u16(8);
                buf.put_slice(&ip.octets());
            }
            Action::SetNwTos(tos) => {
                buf.put_u16(8);
                buf.put_u16(8);
                buf.put_u8(*tos);
                buf.put_slice(&[0; 3]);
            }
            Action::SetTpSrc(p) => {
                buf.put_u16(9);
                buf.put_u16(8);
                buf.put_u16(*p);
                buf.put_u16(0);
            }
            Action::SetTpDst(p) => {
                buf.put_u16(10);
                buf.put_u16(8);
                buf.put_u16(*p);
                buf.put_u16(0);
            }
            Action::Enqueue { port, queue_id } => {
                buf.put_u16(11);
                buf.put_u16(16);
                buf.put_u16(*port);
                buf.put_slice(&[0; 6]);
                buf.put_u32(*queue_id);
            }
        }
    }

    /// Parse one action; returns the action and bytes consumed.
    pub fn parse(data: &[u8]) -> Result<(Action, usize), OfError> {
        if data.len() < 4 {
            return Err(OfError::Truncated);
        }
        let ty = u16::from_be_bytes([data[0], data[1]]);
        let len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if len < 8 || !len.is_multiple_of(8) {
            return Err(OfError::Malformed("action length"));
        }
        if data.len() < len {
            return Err(OfError::Truncated);
        }
        let body = &data[4..len];
        let need = |n: usize| -> Result<(), OfError> {
            if body.len() < n {
                Err(OfError::Malformed("action body too short"))
            } else {
                Ok(())
            }
        };
        let act = match ty {
            0 => {
                need(4)?;
                Action::Output {
                    port: u16::from_be_bytes([body[0], body[1]]),
                    max_len: u16::from_be_bytes([body[2], body[3]]),
                }
            }
            1 => {
                need(2)?;
                Action::SetVlanVid(u16::from_be_bytes([body[0], body[1]]))
            }
            2 => {
                need(1)?;
                Action::SetVlanPcp(body[0])
            }
            3 => Action::StripVlan,
            4 => {
                need(6)?;
                Action::SetDlSrc(MacAddr::from_bytes(body).map_err(|_| OfError::Truncated)?)
            }
            5 => {
                need(6)?;
                Action::SetDlDst(MacAddr::from_bytes(body).map_err(|_| OfError::Truncated)?)
            }
            6 => {
                need(4)?;
                Action::SetNwSrc(Ipv4Addr::new(body[0], body[1], body[2], body[3]))
            }
            7 => {
                need(4)?;
                Action::SetNwDst(Ipv4Addr::new(body[0], body[1], body[2], body[3]))
            }
            8 => {
                need(1)?;
                Action::SetNwTos(body[0])
            }
            9 => {
                need(2)?;
                Action::SetTpSrc(u16::from_be_bytes([body[0], body[1]]))
            }
            10 => {
                need(2)?;
                Action::SetTpDst(u16::from_be_bytes([body[0], body[1]]))
            }
            11 => {
                need(12)?;
                Action::Enqueue {
                    port: u16::from_be_bytes([body[0], body[1]]),
                    queue_id: u32::from_be_bytes([body[8], body[9], body[10], body[11]]),
                }
            }
            _ => return Err(OfError::Malformed("unknown action type")),
        };
        Ok((act, len))
    }

    /// Walk a contiguous action list of exactly `data.len()` bytes,
    /// one [`Action::parse`] per step; the walk ends after the first
    /// error.
    pub fn iter_list(data: &[u8]) -> ActionIter<'_> {
        ActionIter { rest: data }
    }

    /// Parse a contiguous action list of exactly `data.len()` bytes.
    pub fn parse_list(data: &[u8]) -> Result<Vec<Action>, OfError> {
        Action::iter_list(data).collect()
    }

    /// Emit a list of actions.
    pub fn emit_list(actions: &[Action], buf: &mut BytesMut) {
        for a in actions {
            a.emit_into(buf);
        }
    }

    /// Total wire length of a list.
    pub fn list_len(actions: &[Action]) -> usize {
        actions.iter().map(|a| a.wire_len()).sum()
    }
}

/// The actions of a wire-format list, decoded as they are reached
/// ([`Action::iter_list`]).
#[derive(Clone, Debug)]
pub struct ActionIter<'a> {
    rest: &'a [u8],
}

impl Iterator for ActionIter<'_> {
    type Item = Result<Action, OfError>;

    fn next(&mut self) -> Option<Result<Action, OfError>> {
        if self.rest.is_empty() {
            return None;
        }
        let parsed = Action::parse(self.rest);
        self.rest = match parsed {
            Ok((_, used)) => &self.rest[used..],
            Err(_) => &[],
        };
        Some(parsed.map(|(action, _)| action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_actions() -> Vec<Action> {
        vec![
            Action::Output {
                port: 3,
                max_len: 128,
            },
            Action::SetVlanVid(100),
            Action::SetVlanPcp(5),
            Action::StripVlan,
            Action::SetDlSrc(MacAddr([1, 2, 3, 4, 5, 6])),
            Action::SetDlDst(MacAddr([6, 5, 4, 3, 2, 1])),
            Action::SetNwSrc(Ipv4Addr::new(10, 0, 0, 1)),
            Action::SetNwDst(Ipv4Addr::new(10, 0, 0, 2)),
            Action::SetNwTos(0x20),
            Action::SetTpSrc(8080),
            Action::SetTpDst(443),
            Action::Enqueue {
                port: 2,
                queue_id: 9,
            },
        ]
    }

    #[test]
    fn every_action_roundtrips() {
        for a in all_actions() {
            let mut b = BytesMut::new();
            a.emit_into(&mut b);
            assert_eq!(b.len(), a.wire_len(), "{a:?} wire length");
            let (parsed, used) = Action::parse(&b).unwrap();
            assert_eq!(used, b.len());
            assert_eq!(parsed, a);
        }
    }

    #[test]
    fn list_roundtrip() {
        let actions = all_actions();
        let mut b = BytesMut::new();
        Action::emit_list(&actions, &mut b);
        assert_eq!(b.len(), Action::list_len(&actions));
        assert_eq!(Action::parse_list(&b).unwrap(), actions);
    }

    #[test]
    fn a_walk_ends_at_the_first_bad_action() {
        let mut b = BytesMut::new();
        Action::emit_list(&[Action::output(1), Action::StripVlan], &mut b);
        b.put_slice(&[0, 99, 0, 8, 0, 0, 0, 0]); // unknown type
        Action::output(2).emit_into(&mut b);
        let walked: Vec<_> = Action::iter_list(&b).collect();
        assert_eq!(walked.len(), 3);
        assert_eq!(walked[..2], [Ok(Action::output(1)), Ok(Action::StripVlan)]);
        assert!(matches!(walked[2], Err(OfError::Malformed(_))));
        assert!(Action::parse_list(&b).is_err());
    }

    #[test]
    fn bad_length_rejected() {
        // Action claiming 7 bytes (not multiple of 8).
        let data = [0u8, 0, 0, 7, 0, 0, 0];
        assert!(matches!(Action::parse(&data), Err(OfError::Malformed(_))));
        // Truncated.
        assert_eq!(Action::parse(&[0, 0]), Err(OfError::Truncated));
    }

    #[test]
    fn unknown_type_rejected() {
        let data = [0u8, 99, 0, 8, 0, 0, 0, 0];
        assert!(matches!(Action::parse(&data), Err(OfError::Malformed(_))));
    }

    #[test]
    fn routeflow_triple_encodes_to_40_bytes() {
        // The canonical RouteFlow flow entry action list.
        let acts = vec![
            Action::SetDlSrc(MacAddr([2, 0, 0, 0, 0, 1])),
            Action::SetDlDst(MacAddr([2, 0, 0, 0, 0, 2])),
            Action::output(4),
        ];
        assert_eq!(Action::list_len(&acts), 16 + 16 + 8);
    }
}
