//! The demo's video stream: CBR UDP server and measuring client.
//!
//! The client first sends a small request ("play") to the server —
//! exercising the freshly installed client→server path — and the server
//! then paces fixed-size frames at a fixed 2 Mb/s. The client
//! reports time-to-first-byte (the paper's headline "video reaches the
//! remote client within 4 minutes" metric), playback start after its
//! jitter buffer fills, loss and stalls.

use super::stack::{HostConfig, HostStack, Received};
use super::uplink;
use bytes::Bytes;
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

/// The stream's bitrate, 2 Mb/s, one value for the server's pacing and
/// the client's jitter buffer.
const BITRATE_BPS: u64 = 2_000_000;
/// Payload bytes per frame packet: seven 188-byte MPEG-TS packets, as
/// MPEG-TS over UDP carries them.
const FRAME_LEN: usize = 1316;
/// What follows a frame packet's 16-byte header (sequence number, send
/// time) up to [`FRAME_LEN`].
static FILL: [u8; FRAME_LEN - 16] = [b'V'; FRAME_LEN - 16];
/// Gap between frame packets that paces [`FRAME_LEN`] at [`BITRATE_BPS`].
const FRAME_INTERVAL: Duration =
    Duration::from_nanos(FRAME_LEN as u64 * 8 * 1_000_000_000 / BITRATE_BPS);
/// Media the client buffers before playback starts: one second.
const JITTER_BUFFER: Duration = Duration::from_secs(1);
/// Retry interval for the PLAY request until media arrives (the
/// network may not be configured yet; that is the whole point of the
/// measurement).
const PLAY_RETRY: Duration = Duration::from_secs(2);

/// The streaming server host.
#[derive(Clone)]
pub struct VideoServer {
    stack: HostStack,
    client: Option<(Ipv4Addr, u16)>,
    next_seq: u64,
    pub frames_sent: u64,
}

impl VideoServer {
    pub fn new(cfg: HostConfig) -> VideoServer {
        VideoServer {
            stack: HostStack::new(cfg),
            client: None,
            next_seq: 0,
            frames_sent: 0,
        }
    }

    fn send_frame_packet(&mut self, ctx: &mut Ctx<'_>) {
        let Some((client_ip, client_port)) = self.client else {
            return;
        };
        let payload: [&[u8]; 3] = [
            &self.next_seq.to_be_bytes(),
            &ctx.now().as_nanos().to_be_bytes(),
            &FILL,
        ];
        self.stack
            .send_udp(client_ip, VIDEO_PORT, client_port, &payload, uplink(ctx));
        self.next_seq += 1;
        self.frames_sent += 1;
        ctx.schedule(FRAME_INTERVAL, T_FRAME);
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
    pub report: VideoClientReport,
    next_expected_seq: u64,
}

impl VideoClient {
    pub fn new(cfg: HostConfig, server: Ipv4Addr) -> VideoClient {
        VideoClient {
            stack: HostStack::new(cfg),
            server,
            report: VideoClientReport::default(),
            next_expected_seq: 0,
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
            &[b"PLAY"],
            uplink(ctx),
        );
        ctx.schedule(PLAY_RETRY, T_REQ_RETRY);
    }
}

impl Agent for VideoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.boot(uplink(ctx));
        // The first PLAY is an event of its own, at boot time.
        ctx.schedule(Duration::ZERO, T_BOOT);
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
            let need = BITRATE_BPS * JITTER_BUFFER.as_millis() as u64 / 1000;
            if buffered_bits >= need {
                self.report.playback_at = Some(now);
            }
        }
    }
}
