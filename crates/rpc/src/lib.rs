//! # rf-rpc — the configuration RPC path of the framework
//!
//! Figure 2 of the paper splits the automatic-configuration pipeline
//! into an **RPC client** ("collects configuration information from the
//! topology controller and sends this to a server called RPC server")
//! and an **RPC server** ("resides in the RF-controller and configures
//! RouteFlow on reception of configuration messages"). This crate
//! implements both halves plus the wire protocol between them:
//!
//! * [`msg::RpcRequest`] — the configuration messages: switch detected
//!   (switch id + port count → create a VM), switch removed, link
//!   detected (with the per-link subnet and interface addresses the
//!   topology controller allocated), link removed;
//! * [`codec`] — a hand-rolled, length-prefixed binary encoding (no
//!   serde; explicit bytes, like every other protocol in this repo);
//! * [`client::RpcClientAgent`] — a relay that forwards each envelope
//!   to the RPC server once, in arrival order, over one stream, as the
//!   bytes it framed: nothing is decoded, renumbered or re-encoded on
//!   the way, so the server reads the topology controller's request
//!   ids. No end of the path fails in the simulation (only switches and
//!   VMs do), so nothing is retransmitted, redialled or deduplicated;
//! * [`server::RpcServerEndpoint`] — the embeddable server half used by
//!   the RF-controller: decodes requests and encodes an ack for each
//!   (the RF-controller sends none; rfbench's `rpc.roundtrip_ns` probe
//!   reads them).

#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod msg;
pub mod server;

pub use client::RpcClientAgent;
pub use codec::{decode_envelope, encode_envelope, Envelope, RpcFrameReader};
pub use msg::{RpcAck, RpcRequest};
pub use server::RpcServerEndpoint;

/// Service number the RPC client listens on (for the topology
/// controller to connect to).
pub const RPC_CLIENT_SERVICE: u16 = 7890;
/// Service number the RPC server (RF-controller) listens on.
pub const RPC_SERVER_SERVICE: u16 = 7891;

use std::fmt;

/// Errors decoding RPC bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    Truncated,
    BadMagic,
    BadTag(u8),
    Malformed(&'static str),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Truncated => write!(f, "truncated RPC frame"),
            RpcError::BadMagic => write!(f, "bad RPC magic"),
            RpcError::BadTag(t) => write!(f, "unknown RPC message tag {t}"),
            RpcError::Malformed(w) => write!(f, "malformed RPC message: {w}"),
        }
    }
}

impl std::error::Error for RpcError {}
