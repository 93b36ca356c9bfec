//! The demo's video stream: CBR UDP server and measuring client.
//!
//! The client first sends a small request ("play") to the server —
//! exercising the freshly installed client→server path — and the server
//! then paces fixed-size frames at the configured bitrate. The client
//! reports time-to-first-byte (the paper's headline "video reaches the
//! remote client within 4 minutes" metric), playback start after its
//! jitter buffer fills, loss and stalls.

use super::stack::{HostConfig, HostStack, Received};
use super::uplink;
use bytes::{BufMut, Bytes, BytesMut};
use rf_sim::{Agent, Ctx, Time};
use std::net::Ipv4Addr;
use std::time::Duration;

/// UDP port the video server listens on.
pub const VIDEO_PORT: u16 = 5004;
/// UDP port the client receives on.
pub const CLIENT_PORT: u16 = 5005;

const T_FRAME: u64 = 1;
const T_BOOT: u64 = 2;
const T_REQ_RETRY: u64 = 3;

/// The streaming server host.
#[derive(Clone)]
pub struct VideoServer {
    stack: HostStack,
    /// Stream bitrate in bits per second.
    pub bitrate_bps: u64,
    /// Payload bytes per frame packet (MPEG-TS over UDP uses 1316).
    pub frame_len: usize,
    client: Option<(Ipv4Addr, u16)>,
    next_seq: u64,
    pub frames_sent: u64,
    /// Total stream length in frames (0 = endless).
    pub max_frames: u64,
}

impl VideoServer {
    pub fn new(cfg: HostConfig) -> VideoServer {
        VideoServer {
            stack: HostStack::new(cfg),
            bitrate_bps: 2_000_000,
            frame_len: 1316,
            client: None,
            next_seq: 0,
            frames_sent: 0,
            max_frames: 0,
        }
    }

    fn frame_interval(&self) -> Duration {
        Duration::from_nanos(self.frame_len as u64 * 8 * 1_000_000_000 / self.bitrate_bps)
    }

    fn send_frame_packet(&mut self, ctx: &mut Ctx<'_>) {
        let Some((client_ip, client_port)) = self.client else {
            return;
        };
        if self.max_frames != 0 && self.frames_sent >= self.max_frames {
            return;
        }
        let mut payload = BytesMut::with_capacity(self.frame_len);
        payload.put_u64(self.next_seq);
        payload.put_u64(ctx.now().as_nanos());
        payload.resize(self.frame_len, b'V');
        self.stack.send_udp(
            client_ip,
            VIDEO_PORT,
            client_port,
            payload.freeze(),
            uplink(ctx),
        );
        self.next_seq += 1;
        self.frames_sent += 1;
        ctx.schedule(self.frame_interval(), T_FRAME);
    }
}

impl Agent for VideoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == T_FRAME {
            self.send_frame_packet(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        let Some(Received::Udp {
            src,
            src_port,
            payload,
            ..
        }) = self.stack.on_frame(&frame, uplink(ctx))
        else {
            return;
        };
        if &payload[..] == b"PLAY" && self.client.is_none() {
            self.client = Some((src, src_port));
            self.send_frame_packet(ctx);
        }
    }
}

/// Client-side measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VideoClientReport {
    /// When the PLAY request first went out.
    pub requested_at: Option<Time>,
    /// When the first media byte arrived — the demo's headline metric.
    pub first_byte_at: Option<Time>,
    /// When the jitter buffer filled and playback began.
    pub playback_at: Option<Time>,
    pub packets: u64,
    pub bytes: u64,
    /// Sequence-number gaps observed (lost or reordered packets).
    pub gaps: u64,
}

/// The measuring video client.
#[derive(Clone)]
pub struct VideoClient {
    stack: HostStack,
    server: Ipv4Addr,
    /// Media to buffer before starting playback.
    pub jitter_buffer: Duration,
    pub bitrate_bps: u64,
    pub report: VideoClientReport,
    /// When to send the PLAY request (simulation start offset).
    pub start_at: Duration,
    next_expected_seq: u64,
    /// Retry interval for the PLAY request until media arrives (the
    /// network may not be configured yet — that is the whole point of
    /// the measurement).
    pub request_retry: Duration,
}

impl VideoClient {
    pub fn new(cfg: HostConfig, server: Ipv4Addr) -> VideoClient {
        VideoClient {
            stack: HostStack::new(cfg),
            server,
            jitter_buffer: Duration::from_secs(1),
            bitrate_bps: 2_000_000,
            report: VideoClientReport::default(),
            start_at: Duration::ZERO,
            next_expected_seq: 0,
            request_retry: Duration::from_secs(2),
        }
    }

    fn send_play(&mut self, ctx: &mut Ctx<'_>) {
        if self.report.first_byte_at.is_some() {
            return; // media flowing; stop nagging
        }
        if self.report.requested_at.is_none() {
            self.report.requested_at = Some(ctx.now());
        }
        self.stack.send_udp(
            self.server,
            CLIENT_PORT,
            VIDEO_PORT,
            Bytes::from_static(b"PLAY"),
            uplink(ctx),
        );
        ctx.schedule(self.request_retry, T_REQ_RETRY);
    }
}

impl Agent for VideoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
        ctx.schedule(self.start_at, T_BOOT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_BOOT | T_REQ_RETRY => self.send_play(ctx),
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: u32, frame: Bytes) {
        let Some(Received::Udp {
            src,
            dst_port,
            payload,
            ..
        }) = self.stack.on_frame(&frame, uplink(ctx))
        else {
            return;
        };
        if src != self.server || dst_port != CLIENT_PORT || payload.len() < 16 {
            return;
        }
        let now = ctx.now();
        self.report.first_byte_at.get_or_insert(now);
        let seq = u64::from_be_bytes(payload[..8].try_into().unwrap());
        if seq > self.next_expected_seq {
            self.report.gaps += seq - self.next_expected_seq;
        }
        self.next_expected_seq = seq + 1;
        self.report.packets += 1;
        self.report.bytes += payload.len() as u64;
        if self.report.playback_at.is_none() {
            let buffered_bits = self.report.bytes * 8;
            let need = self.bitrate_bps * self.jitter_buffer.as_millis() as u64 / 1000;
            if buffered_bits >= need {
                self.report.playback_at = Some(now);
            }
        }
    }
}
