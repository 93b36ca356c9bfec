//! OpenFlow 1.0 actions (`ofp_action_*`): the three the loop installs.
//!
//! RouteFlow's route-to-flow translation puts exactly one action shape
//! in a flow entry — rewrite `dl_src` to the output interface's MAC,
//! rewrite `dl_dst` to the next hop's MAC, then `OUTPUT` — discovery's
//! punt is one `OUTPUT:CONTROLLER`, and every PACKET_OUT (an LLDP
//! probe, an ARP reply) is a plain `OUTPUT` to a physical port. Those
//! three types are the action set. Any other type, one OF 1.0 defines
//! (VLAN, IPv4, UDP, `ENQUEUE`) or not, decodes to
//! [`OfError::BadAction`], and a switch or FlowVisor answers the
//! request naming it with `ERROR(BAD_ACTION, OFPBAC_BAD_TYPE)`. An
//! `OUTPUT` names a physical port or the controller: one to a virtual
//! port (`IN_PORT`, `TABLE`, `NORMAL`, `FLOOD`, `ALL`, `LOCAL`), to
//! `NONE` or to port 0 decodes to [`OfError::BadOutPort`], answered
//! with `ERROR(BAD_ACTION, OFPBAC_BAD_OUT_PORT)`.

use crate::ports::{PortNumber, OFPP_CONTROLLER, OFPP_MAX};
use crate::OfError;
use bytes::{BufMut, BytesMut};
use rf_wire::MacAddr;

/// `OFPAT_OUTPUT`.
const OUTPUT: u16 = 0;
/// `OFPAT_SET_DL_SRC`.
const SET_DL_SRC: u16 = 4;
/// `OFPAT_SET_DL_DST`.
const SET_DL_DST: u16 = 5;

/// The FEATURES_REPLY `actions` bitmap of a switch that takes exactly
/// [`Action`]'s three kinds: bit `1 << type` for OUTPUT, SET_DL_SRC and
/// SET_DL_DST.
pub const SUPPORTED_ACTIONS: u32 = 1 << OUTPUT | 1 << SET_DL_SRC | 1 << SET_DL_DST;

/// An OF 1.0 action, of the three kinds this system speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward out a physical port (`1..=OFPP_MAX`) or to
    /// `OFPP_CONTROLLER`; `max_len` caps the bytes sent to the
    /// controller.
    Output {
        port: PortNumber,
        max_len: u16,
    },
    SetDlSrc(MacAddr),
    SetDlDst(MacAddr),
}

impl Action {
    /// Convenience: output with no controller truncation.
    pub fn output(port: PortNumber) -> Action {
        Action::Output { port, max_len: 0 }
    }

    /// Wire length of this action.
    pub fn wire_len(&self) -> usize {
        match self {
            Action::Output { .. } => 8,
            Action::SetDlSrc(_) | Action::SetDlDst(_) => 16,
        }
    }

    pub fn emit_into(&self, buf: &mut BytesMut) {
        match self {
            Action::Output { port, max_len } => {
                buf.put_u16(OUTPUT);
                buf.put_u16(8);
                buf.put_u16(*port);
                buf.put_u16(*max_len);
            }
            Action::SetDlSrc(mac) => emit_mac(buf, SET_DL_SRC, mac),
            Action::SetDlDst(mac) => emit_mac(buf, SET_DL_DST, mac),
        }
    }

    /// Parse one action; returns the action and bytes consumed. The
    /// length is checked before the type: a well-framed action of any
    /// other type is [`OfError::BadAction`], and an `OUTPUT` to any port
    /// but a physical one or the controller [`OfError::BadOutPort`].
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
        let mac =
            || MacAddr::from_bytes(body).map_err(|_| OfError::Malformed("action body too short"));
        let act = match ty {
            OUTPUT => Action::Output {
                port: match u16::from_be_bytes([body[0], body[1]]) {
                    port @ (1..=OFPP_MAX | OFPP_CONTROLLER) => port,
                    port => return Err(OfError::BadOutPort(port)),
                },
                max_len: u16::from_be_bytes([body[2], body[3]]),
            },
            SET_DL_SRC => Action::SetDlSrc(mac()?),
            SET_DL_DST => Action::SetDlDst(mac()?),
            _ => return Err(OfError::BadAction(ty)),
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

/// `ofp_action_dl_addr`: 16 bytes, the MAC and 6 of padding.
fn emit_mac(buf: &mut BytesMut, ty: u16, mac: &MacAddr) {
    buf.put_u16(ty);
    buf.put_u16(16);
    buf.put_slice(mac.as_bytes());
    buf.put_slice(&[0; 6]);
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
            Action::SetDlSrc(MacAddr([1, 2, 3, 4, 5, 6])),
            Action::SetDlDst(MacAddr([6, 5, 4, 3, 2, 1])),
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
        let mac = Action::SetDlSrc(MacAddr([9; 6]));
        Action::emit_list(&[Action::output(1), mac], &mut b);
        b.put_slice(&[0, 99, 0, 8, 0, 0, 0, 0]); // unknown type
        Action::output(2).emit_into(&mut b);
        let walked: Vec<_> = Action::iter_list(&b).collect();
        assert_eq!(
            walked,
            [Ok(Action::output(1)), Ok(mac), Err(OfError::BadAction(99))]
        );
        assert_eq!(Action::parse_list(&b), Err(OfError::BadAction(99)));
    }

    #[test]
    fn bad_length_rejected() {
        // Action claiming 7 bytes (not multiple of 8).
        let data = [0u8, 0, 0, 7, 0, 0, 0];
        assert!(matches!(Action::parse(&data), Err(OfError::Malformed(_))));
        // A MAC rewrite of 8 bytes has no room for its MAC.
        let data = [0u8, 4, 0, 8, 1, 2, 3, 4];
        assert!(matches!(Action::parse(&data), Err(OfError::Malformed(_))));
        // Truncated.
        assert_eq!(Action::parse(&[0, 0]), Err(OfError::Truncated));
    }

    /// Every type but the three, well framed: the nine other OF 1.0
    /// actions (VLAN, IPv4, UDP, ENQUEUE, at their spec lengths), the
    /// first types past them, the vendor type and the last.
    #[test]
    fn every_other_type_is_a_bad_action() {
        let others = (1u16..=3).chain(6..=11).chain([12, 13, 0xFFFE, 0xFFFF]);
        for ty in others {
            let len: u16 = if ty == 11 { 16 } else { 8 };
            let mut data = vec![0; len as usize];
            data[..2].copy_from_slice(&ty.to_be_bytes());
            data[2..4].copy_from_slice(&len.to_be_bytes());
            assert_eq!(Action::parse(&data), Err(OfError::BadAction(ty)), "{ty}");
        }
    }

    /// An OUTPUT is to a physical port or the controller. The six
    /// virtual ports, `NONE`, port 0 and the reserved range between
    /// `OFPP_MAX` and the virtual ports are each a bad output port,
    /// whatever the `max_len`.
    #[test]
    fn an_output_names_a_physical_port_or_the_controller() {
        let parse = |port: u16, max_len: u16| {
            let mut b = BytesMut::new();
            Action::Output { port, max_len }.emit_into(&mut b);
            Action::parse(&b).map(|(action, _)| action)
        };
        for port in [1, 2, 0xFEFF, OFPP_MAX, OFPP_CONTROLLER] {
            let action = Action::Output { port, max_len: 64 };
            assert_eq!(parse(port, 64), Ok(action));
        }
        let others = (0xFFF8..=0xFFFC).chain([0xFFFE, 0xFFFF, 0, 0xFF01, 0xFFF7]);
        for port in others {
            for max_len in [0, 0xFFFF] {
                assert_eq!(parse(port, max_len), Err(OfError::BadOutPort(port)));
            }
        }
        assert_eq!(
            OfError::BadOutPort(0xFFFB).refusal(),
            Some((crate::ErrorType::BadAction, 4))
        );
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
        assert_eq!(std::mem::size_of::<Action>(), 8);
    }
}
