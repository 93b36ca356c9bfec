//! The RPC client agent: a relay between the topology controller and
//! the RPC server.
//!
//! The paper separates the RPC client from the topology controller "to
//! share the load of automatic configuration of RouteFlow". The relay
//! forwards each envelope it frames to the RPC server once, in arrival
//! order and as it arrived, over one stream: neither end of the path
//! ever fails.

use crate::codec::RpcFrameReader;
use crate::{RPC_CLIENT_SERVICE, RPC_SERVER_SERVICE};
use rf_sim::{Agent, AgentId, ConnId, ConnProfile, Ctx, StreamEvent};

/// The RPC client agent.
///
/// Upstream: listens on [`RPC_CLIENT_SERVICE`] for request envelopes
/// from the topology controller, whose request ids number the stream.
/// Downstream: dials the RPC server on [`RPC_SERVER_SERVICE`] and
/// hands it each envelope's bytes unchanged.
#[derive(Clone)]
pub struct RpcClientAgent {
    /// The RF-controller hosting the RPC server.
    server: AgentId,
    upstream_readers: Vec<(ConnId, RpcFrameReader)>,
    server_conn: Option<ConnId>,
}

impl RpcClientAgent {
    pub fn new(server: AgentId) -> RpcClientAgent {
        RpcClientAgent {
            server,
            upstream_readers: Vec::new(),
            server_conn: None,
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
        // Upstream (topology controller) side; it never closes.
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
                // The server decodes each envelope; one it cannot is
                // its to count, and the ones behind it go on too. A bad
                // magic ends the stream: no frame boundary follows it.
                while let Some(Ok(frame)) = reader.next_frame() {
                    ctx.conn_send(server, frame);
                    ctx.count("rpc.sent", 1);
                }
            }
            StreamEvent::Closed => {}
        }
    }
}
