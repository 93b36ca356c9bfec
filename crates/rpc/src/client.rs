//! The RPC client agent: a relay between the topology controller and
//! the RPC server.
//!
//! The paper separates the RPC client from the topology controller "to
//! share the load of automatic configuration of RouteFlow". The relay
//! forwards each request it decodes to the RPC server once, in arrival
//! order, over one stream: neither end of the path ever fails.

use crate::codec::{encode_envelope, Envelope, RpcFrameReader};
use crate::{RPC_CLIENT_SERVICE, RPC_SERVER_SERVICE};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, StreamEvent};

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
    /// Ids handed out so far; the first request forwarded gets id 1.
    issued: u64,
}

impl RpcClientAgent {
    pub fn new(server: AgentId) -> RpcClientAgent {
        RpcClientAgent {
            server,
            upstream_readers: Vec::new(),
            server_conn: None,
            issued: 0,
        }
    }
}

impl Agent for RpcClientAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(RPC_CLIENT_SERVICE);
        self.server_conn =
            Some(ctx.connect(self.server, RPC_SERVER_SERVICE, ConnProfile::default()));
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {
        if Some(conn) == self.server_conn {
            // The server sends nothing the relay reads.
            return;
        }
        // Upstream (topology controller) side.
        match event {
            StreamEvent::Opened { .. } => {
                self.upstream_readers.push((conn, RpcFrameReader::new()));
            }
            StreamEvent::Data(data) => {
                let (Some(server), Some((_, reader))) = (
                    self.server_conn,
                    self.upstream_readers.iter_mut().find(|(c, _)| *c == conn),
                ) else {
                    return;
                };
                reader.push_bytes(data);
                // A frame that fails to decode is dropped; the ones
                // behind it are read on.
                while let Some(env) = reader.next() {
                    if let Ok(Envelope::Request { request, .. }) = env {
                        self.issued += 1;
                        let req_id = self.issued;
                        ctx.conn_send(
                            server,
                            encode_envelope(&Envelope::Request { req_id, request }),
                        );
                        ctx.count("rpc.sent", 1);
                    }
                }
            }
            StreamEvent::Closed => {
                self.upstream_readers.retain(|(c, _)| *c != conn);
            }
        }
    }
}
