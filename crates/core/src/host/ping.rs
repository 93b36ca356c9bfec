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

/// One pinger's timeline: every echo request it sent and every reply
/// that came back. Everything a probe reports is read off these two.
#[derive(Clone, Debug, Default)]
pub struct PingProbeReport {
    /// Ping departure times: (seq, when sent).
    pub sent: Vec<(u16, Time)>,
    /// Reply arrival times, in arrival order: (seq, when). Only replies
    /// to a ping in `sent` are recorded.
    pub replies: Vec<(u16, Time)>,
}

impl PingProbeReport {
    /// Time of the first successful round trip — "the network works
    /// now".
    pub fn first_reply_at(&self) -> Option<Time> {
        self.replies.first().map(|&(_, at)| at)
    }

    /// Completed round trips, in arrival order: (seq, rtt).
    pub fn rtts(&self) -> Vec<(u16, Duration)> {
        self.replies
            .iter()
            .filter_map(|&(seq, at)| self.sent_at(seq).map(|sent| (seq, at.since(sent))))
            .collect()
    }

    /// When the network answered again after `fault`: the first reply
    /// to a ping *sent* after it. A reply to a ping already in flight
    /// when the fault fires would record a near-zero recovery that says
    /// nothing about reconvergence, so it does not count.
    pub fn recovered_after(&self, fault: Time) -> Option<Time> {
        self.replies
            .iter()
            .find(|(seq, _)| self.sent.iter().any(|(s, at)| s == seq && *at > fault))
            .map(|&(_, at)| at)
    }

    fn sent_at(&self, seq: u16) -> Option<Time> {
        self.sent.iter().find(|(s, _)| *s == seq).map(|&(_, at)| at)
    }
}

/// Sends pings to a target on an interval and records round trips.
#[derive(Clone)]
pub struct Pinger {
    stack: HostStack,
    target: Ipv4Addr,
    report: PingProbeReport,
}

impl Pinger {
    pub fn new(cfg: HostConfig, target: Ipv4Addr) -> Pinger {
        Pinger {
            stack: HostStack::new(cfg),
            target,
            report: PingProbeReport::default(),
        }
    }

    /// Everything sent and answered so far.
    pub fn report(&self) -> &PingProbeReport {
        &self.report
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
        let seq = self.report.sent.len() as u16;
        self.report.sent.push((seq, ctx.now()));
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
        if from == self.target && ident == PING_IDENT && self.report.sent_at(seq).is_some() {
            self.report.replies.push((seq, ctx.now()));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    #[test]
    fn rtts_are_reply_time_minus_send_time_per_seq() {
        let r = PingProbeReport {
            sent: vec![(0, at(1)), (1, at(2)), (2, at(3))],
            // Seq 1 was lost; seq 2 overtook seq 0.
            replies: vec![(2, at(4)), (0, at(6))],
        };
        assert_eq!(
            r.rtts(),
            vec![(2, Duration::from_secs(1)), (0, Duration::from_secs(5))]
        );
        assert_eq!(r.first_reply_at(), Some(at(4)));
    }

    #[test]
    fn recovery_ignores_replies_to_pings_sent_before_the_fault() {
        let fault = at(10);
        let r = PingProbeReport {
            // Seq 1 left at the fault's instant, seq 0 before it: both
            // were in flight when it fired.
            sent: vec![(0, at(9)), (1, fault), (2, at(11)), (3, at(12))],
            replies: vec![(0, at(11)), (1, at(12)), (3, at(14))],
        };
        assert_eq!(r.recovered_after(fault), Some(at(14)));
        assert_eq!(r.recovered_after(at(13)), None);
        assert_eq!(r.recovered_after(at(8)), Some(at(11)));
    }
}
