//! The RPC client agent: a store-and-forward relay between the
//! topology controller and the RPC server.
//!
//! The paper separates the RPC client from the topology controller "to
//! share the load of automatic configuration of RouteFlow". The relay
//! provides at-least-once delivery toward the RPC server: every request
//! is retransmitted until its ack arrives, including across server
//! reconnects, and requests are forwarded in submission order.

use crate::codec::{encode_envelope, Envelope, RpcFrameReader};
use crate::msg::RpcRequest;
use crate::outbox::Outbox;
use crate::{RPC_CLIENT_SERVICE, RPC_SERVER_SERVICE};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, StreamEvent};
use std::time::Duration;

const T_RETX: u64 = 1;
const T_RECONNECT: u64 = 2;

/// Retransmission timeout for unacked requests. The relay's own value,
/// not the paper's: hundreds of round trips of the 1 ms control stream,
/// so a live server always acks first.
const RETRANSMIT: Duration = Duration::from_millis(500);
/// Wait before redialling the server after losing its connection; the
/// relay's own value, one retransmission timeout.
const RECONNECT_BACKOFF: Duration = RETRANSMIT;

/// The RPC client agent.
///
/// Upstream: listens on [`RPC_CLIENT_SERVICE`] for request envelopes
/// from the topology controller (req_ids assigned by the client are
/// authoritative; upstream ids are remapped). Downstream: dials the RPC
/// server on [`RPC_SERVER_SERVICE`].
#[derive(Clone)]
pub struct RpcClientAgent {
    /// The RF-controller hosting the RPC server.
    server: AgentId,
    upstream_readers: Vec<(ConnId, RpcFrameReader)>,
    server_conn: Option<ConnId>,
    server_ready: bool,
    server_reader: RpcFrameReader,
    queue: Outbox,
    /// Total requests forwarded and acked (metrics).
    pub acked: u64,
    pub retransmissions: u64,
}

impl RpcClientAgent {
    pub fn new(server: AgentId) -> RpcClientAgent {
        RpcClientAgent {
            server,
            upstream_readers: Vec::new(),
            server_conn: None,
            server_ready: false,
            server_reader: RpcFrameReader::new(),
            queue: Outbox::new(),
            acked: 0,
            retransmissions: 0,
        }
    }

    /// Queue a request relayed from upstream and flush what can go.
    fn submit(&mut self, ctx: &mut Ctx<'_>, request: RpcRequest) {
        self.queue.push(request);
        self.flush(ctx);
    }

    fn connect_server(&mut self, ctx: &mut Ctx<'_>) {
        self.server_ready = false;
        self.server_reader = RpcFrameReader::new();
        self.server_conn =
            Some(ctx.connect(self.server, RPC_SERVER_SERVICE, ConnProfile::default()));
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if !self.server_ready {
            return;
        }
        let Some(conn) = self.server_conn else {
            return;
        };
        for frame in self.queue.take_unsent() {
            ctx.conn_send(conn, frame);
            ctx.count("rpc.sent", 1);
        }
    }
}

impl Agent for RpcClientAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(RPC_CLIENT_SERVICE);
        self.connect_server(ctx);
        ctx.schedule(RETRANSMIT, T_RETX);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_RETX => {
                // Anything sent and still unacked gets resent.
                if self.queue.awaits_ack() && self.server_ready {
                    self.queue.rewind();
                    self.retransmissions += 1;
                    self.flush(ctx);
                }
                ctx.schedule(RETRANSMIT, T_RETX);
            }
            T_RECONNECT if self.server_conn.is_none() => {
                self.connect_server(ctx);
            }
            _ => {}
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if Some(conn) == self.server_conn {
            match event {
                StreamEvent::Opened { .. } => {
                    self.server_ready = true;
                    // Everything unacked goes out again on the new
                    // connection.
                    self.queue.rewind();
                    self.flush(ctx);
                }
                StreamEvent::Data(data) => {
                    self.server_reader.push_bytes(data);
                    // A frame that fails to decode is dropped; the ones
                    // behind it are read on.
                    while let Some(env) = self.server_reader.next() {
                        if let Ok(Envelope::Ack(ack)) = env {
                            self.acked += u64::from(self.queue.ack(ack.req_id));
                        }
                    }
                }
                StreamEvent::Closed => {
                    self.server_conn = None;
                    self.server_ready = false;
                    ctx.schedule(RECONNECT_BACKOFF, T_RECONNECT);
                }
            }
            return;
        }
        // Upstream (topology controller) side.
        match event {
            StreamEvent::Opened { .. } => {
                self.upstream_readers.push((conn, RpcFrameReader::new()));
            }
            StreamEvent::Data(data) => {
                let mut incoming = Vec::new();
                if let Some((_, reader)) =
                    self.upstream_readers.iter_mut().find(|(c, _)| *c == conn)
                {
                    reader.push_bytes(data);
                    while let Some(env) = reader.next() {
                        if let Ok(Envelope::Request { req_id, request }) = env {
                            incoming.push((req_id, request));
                        }
                    }
                }
                for (upstream_id, request) in incoming {
                    // Ack upstream immediately (the relay now owns
                    // delivery), then forward under our own id.
                    ctx.conn_send(
                        conn,
                        encode_envelope(&Envelope::Ack(crate::msg::RpcAck {
                            req_id: upstream_id,
                            ok: true,
                        })),
                    );
                    self.submit(ctx, request);
                }
            }
            StreamEvent::Closed => {
                self.upstream_readers.retain(|(c, _)| *c != conn);
            }
        }
    }
}
