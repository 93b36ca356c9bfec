//! ICMP echo probing: "is the network configured yet?"

use super::stack::{HostConfig, HostStack, Received};
use super::uplink;
use bytes::Bytes;
use rf_sim::{Agent, Ctx, Time};
use std::net::Ipv4Addr;
use std::time::Duration;

const T_PING: u64 = 1;
/// One echo request a second, `ping`'s default cadence.
const PING_INTERVAL: Duration = Duration::from_secs(1);
/// ICMP identifier of every echo request ("RF" in ASCII).
const PING_IDENT: u16 = 0x5246;

/// Sends pings to a target on an interval and records round trips.
#[derive(Clone)]
pub struct Pinger {
    stack: HostStack,
    pub target: Ipv4Addr,
    next_seq: u16,
    /// When each ping went out: (seq, send time).
    pub sent_at: Vec<(u16, Time)>,
    /// Completed round trips: (seq, rtt).
    pub rtts: Vec<(u16, Duration)>,
    /// When each reply arrived: (seq, arrival time). The timeline a
    /// recovery measurement needs — the first entry after a fault marks
    /// the network healed.
    pub replies: Vec<(u16, Time)>,
    /// Time of the first successful reply — "the network works now".
    pub first_reply_at: Option<Time>,
}

impl Pinger {
    pub fn new(cfg: HostConfig, target: Ipv4Addr) -> Pinger {
        Pinger {
            stack: HostStack::new(cfg),
            target,
            next_seq: 0,
            sent_at: Vec::new(),
            rtts: Vec::new(),
            replies: Vec::new(),
            first_reply_at: None,
        }
    }
}

impl Agent for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
        ctx.schedule(PING_INTERVAL, T_PING);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != T_PING {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_at.push((seq, ctx.now()));
        self.stack
            .send_ping(self.target, PING_IDENT, seq, uplink(ctx));
        ctx.schedule(PING_INTERVAL, T_PING);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        let Some(Received::EchoReply { from, ident, seq }) =
            self.stack.on_frame(&frame, uplink(ctx))
        else {
            return;
        };
        if from == self.target && ident == PING_IDENT {
            if let Some(&(_, at)) = self.sent_at.iter().find(|(s, _)| *s == seq) {
                self.rtts.push((seq, ctx.now().since(at)));
                self.replies.push((seq, ctx.now()));
                self.first_reply_at.get_or_insert(ctx.now());
            }
        }
    }
}

/// A passive host that simply answers pings (and ARPs).
#[derive(Clone)]
pub struct EchoHost {
    stack: HostStack,
}

impl EchoHost {
    pub fn new(cfg: HostConfig) -> EchoHost {
        EchoHost {
            stack: HostStack::new(cfg),
        }
    }
}

impl Agent for EchoHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        self.stack.on_frame(&frame, uplink(ctx));
    }
}
