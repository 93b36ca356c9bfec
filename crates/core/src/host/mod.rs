//! Hosts and applications for the demo workloads.
//!
//! The paper's demonstration "streams a video clip from a server to a
//! remote client" across the freshly auto-configured network and
//! reports that it arrives "within 4 minutes (including the
//! configuration time)". This module provides the endpoints:
//!
//! * [`stack::HostStack`] — a minimal sans-IO host IP stack: gratuitous
//!   ARP at boot, gateway ARP resolution with packet queueing, ICMP echo
//!   responder, UDP send/receive. It transmits where it builds: every
//!   sending call and `on_frame` hand each frame to the caller's sink
//!   (`impl FnMut(Bytes)` — [`uplink`] inside a simulation, a closure
//!   in a unit test), and `on_frame` returns the one
//!   [`stack::Received`] item a frame can deliver;
//! * [`video::VideoServer`] / [`video::VideoClient`] — a CBR UDP video
//!   stream (VLC substitute): the client requests the stream, the
//!   server paces fixed-size frames at the configured bitrate, and the
//!   client records time-to-first-byte, playback start (after its
//!   jitter buffer fills), sequence gaps and stall counts;
//! * [`ping::Pinger`] / [`ping::EchoHost`] — ICMP echo probing: each
//!   pinger keeps one [`ping::PingProbeReport`] (what it sent, what came
//!   back), from which round trips, first contact and recovery after a
//!   fault are read.
//!
//! These hosts exist only as workload endpoints: a
//! [`crate::scenario::Workload`] names the topology nodes they hang
//! off, and [`crate::scenario::ScenarioBuilder::start`] gives each
//! endpoint its host port, subnet and agent.

pub mod ping;
pub mod stack;
pub mod video;

pub use ping::{EchoHost, PingProbeReport, Pinger};
pub use stack::{HostConfig, HostStack, Received};
pub use video::{VideoClient, VideoClientReport, VideoServer};

/// A host has one interface, port 1: the sink that puts a
/// [`HostStack`]'s frames on it.
pub fn uplink<'a, 'b>(ctx: &'a mut rf_sim::Ctx<'b>) -> impl FnMut(bytes::Bytes) + use<'a, 'b> {
    move |frame| ctx.send_frame(1, frame)
}
