//! The simulation kernel: agents, links, streams and the dispatch loop.
//!
//! Agents are stored as boxed trait objects and addressed by [`AgentId`].
//! During dispatch the target agent is *taken out* of its slot, so the
//! handler gets `&mut self` while the rest of the world is reachable
//! through [`Ctx`]. Operations that would touch the agent table itself
//! (spawning a VM, killing a failed switch) are buffered and applied
//! between events; everything else takes effect immediately.

use crate::link::LinkProfile;
use crate::queue::EventQueue;
use crate::time::Time;
use crate::trace::{KernelCounter, TraceLevel, Tracer};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Identifies an agent within one [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub usize);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

/// Identifies a reliable stream connection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnId(pub usize);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Identifies a packet link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// Sentinel for an unwired port-table slot (see [`Inner::ports`]).
const NO_LINK: u32 = u32::MAX;

/// Events delivered to an agent about one of its stream connections.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// The connection is established and may carry data.
    Opened {
        peer: AgentId,
        service: u16,
        /// True on the side that called [`Ctx::connect`].
        initiated_by_us: bool,
    },
    /// In-order payload bytes (framing is up to the application).
    Data(Bytes),
    /// The peer closed, refused, or died.
    Closed,
}

/// Properties of a stream connection (a TCP model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnProfile {
    /// One-way latency applied to every chunk (and to the handshake).
    pub latency: Duration,
}

impl Default for ConnProfile {
    fn default() -> Self {
        ConnProfile {
            latency: Duration::from_millis(1),
        }
    }
}

/// Object-safe cloning for boxed agents. Implemented automatically for
/// every `Agent + Clone` type via the blanket impl below, so agent
/// authors only write `#[derive(Clone)]` — the trait itself is an
/// implementation detail of `Box<dyn Agent>: Clone`, which is what
/// makes a whole [`Sim`] deep-copyable for checkpoint/fork.
pub trait CloneAgent {
    fn clone_agent(&self) -> Box<dyn Agent>;
}

impl<T> CloneAgent for T
where
    T: 'static + Agent + Clone,
{
    fn clone_agent(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Agent> {
    fn clone(&self) -> Self {
        self.clone_agent()
    }
}

/// Behaviour of a simulated network element.
///
/// All methods have empty defaults so implementations only override the
/// events they care about. The `Any` supertrait allows test code to
/// downcast agents back to their concrete types via [`Sim::agent_as`].
/// The `Send` supertrait makes a fully assembled [`Sim`] movable across
/// threads, which is what lets scenario sweeps fan independent
/// simulations out over worker threads. The [`CloneAgent`] supertrait
/// (satisfied by deriving `Clone`) makes the assembled [`Sim`] deep
/// *clonable* too — the substrate of converged-state checkpoint/fork.
#[allow(unused_variables)]
pub trait Agent: Any + Send + CloneAgent {
    /// Called once, when the agent enters the simulation.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {}
    /// A timer scheduled via [`Ctx::schedule`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {}
    /// An Ethernet frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {}
    /// A stream connection event.
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, event: StreamEvent) {}
}

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the simulation's single RNG.
    pub seed: u64,
    /// Whether counters count.
    pub trace_level: TraceLevel,
    /// Hard stop: `run` never advances past this time.
    pub max_time: Option<Time>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            trace_level: TraceLevel::Info,
            max_time: None,
        }
    }
}

#[derive(Clone, Debug)]
enum Ev {
    Start(AgentId),
    Timer {
        agent: AgentId,
        token: u64,
    },
    Frame {
        agent: AgentId,
        port: u32,
        frame: Bytes,
    },
    StreamOpen {
        conn: ConnId,
        to: AgentId,
    },
    StreamData {
        conn: ConnId,
        to: AgentId,
        data: Bytes,
    },
    StreamClosed {
        conn: ConnId,
        to: AgentId,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct LinkEnd {
    agent: AgentId,
    port: u32,
}

#[derive(Clone)]
struct LinkState {
    a: LinkEnd,
    b: LinkEnd,
    profile: LinkProfile,
    up: bool,
    /// Transmitter-busy horizon for each direction (a→b, b→a).
    busy: [Time; 2],
    removed: bool,
}

#[derive(Clone)]
struct ConnState {
    ends: [AgentId; 2],
    service: u16,
    profile: ConnProfile,
    /// Per-direction in-order delivery clocks (index = sender side).
    deliver_clock: [Time; 2],
    closed: bool,
}

/// Everything in the simulation except the agent table; [`Ctx`] borrows
/// this during dispatch.
#[derive(Clone)]
struct Inner {
    now: Time,
    queue: EventQueue<Ev>,
    links: Vec<LinkState>,
    /// Dense per-agent port tables: `ports[agent][port]` is the link
    /// wired there, or [`NO_LINK`] for an empty port. Built at wiring
    /// time, so the per-send lookup is two indexed loads instead of a
    /// `HashMap` probe. Stored as `u32` rather than `Option<LinkId>`
    /// (16 bytes per slot): at fat-tree scale a corpus cell carries
    /// thousands of agents × tens of ports, and these rows dominate
    /// the kernel's resident wiring state.
    ports: Vec<Vec<u32>>,
    conns: Vec<ConnState>,
    listeners: HashMap<(AgentId, u16), bool>,
    rng: StdRng,
    tracer: Tracer,
    next_agent: usize,
    pending_spawn: Vec<(AgentId, Box<dyn Agent>)>,
    pending_kill: Vec<AgentId>,
    /// Agents to re-install into previously killed slots (chaos
    /// revive): the id keeps its wiring — links stay attached to the
    /// slot — and the fresh agent's `on_start` re-runs its boot path.
    pending_revive: Vec<(AgentId, Box<dyn Agent>)>,
}

impl Inner {
    #[inline]
    fn link_of(&self, end: LinkEnd) -> Option<LinkId> {
        let raw = *self.ports.get(end.agent.0)?.get(end.port as usize)?;
        (raw != NO_LINK).then_some(LinkId(raw as usize))
    }

    /// Port-table slot for `end`, growing the tables as needed. The
    /// slot holds a raw link index, [`NO_LINK`] when the port is free.
    fn port_slot(&mut self, end: LinkEnd) -> &mut u32 {
        // The table is dense in the port number; an absurd port would
        // allocate proportionally. Real switches here have tens of
        // ports — catch typos (e.g. a dpid passed as a port) loudly.
        assert!(
            end.port < 4096,
            "port {} on {} out of range for the dense port table",
            end.port,
            end.agent
        );
        if self.ports.len() <= end.agent.0 {
            self.ports.resize_with(end.agent.0 + 1, Vec::new);
        }
        let row = &mut self.ports[end.agent.0];
        if row.len() <= end.port as usize {
            row.resize(end.port as usize + 1, NO_LINK);
        }
        &mut row[end.port as usize]
    }

    fn send_frame_from(&mut self, from: AgentId, port: u32, frame: Bytes) {
        let end = LinkEnd { agent: from, port };
        let Some(lid) = self.link_of(end) else {
            self.tracer.count_kernel(KernelCounter::TxNoLink, 1);
            return;
        };
        let (other, dir, profile, up, removed) = {
            let l = &self.links[lid.0];
            let dir = if l.a == end { 0 } else { 1 };
            let other = if dir == 0 { l.b } else { l.a };
            (other, dir, l.profile, l.up, l.removed)
        };
        if !up || removed {
            self.tracer.count_kernel(KernelCounter::TxDown, 1);
            return;
        }
        let ser = profile.serialization_delay(frame.len());
        let start = self.now.max(self.links[lid.0].busy[dir]);
        let done = start + ser;
        self.links[lid.0].busy[dir] = done;
        let arrival = done + profile.latency;
        self.tracer.count_kernel(KernelCounter::TxFrames, 1);
        self.tracer
            .count_kernel(KernelCounter::TxBytes, frame.len() as u64);
        if profile.drops(&mut self.rng) {
            self.tracer.count_kernel(KernelCounter::Dropped, 1);
            return;
        }
        self.queue.push(
            arrival,
            Ev::Frame {
                agent: other.agent,
                port: other.port,
                frame,
            },
        );
    }

    fn connect_from(
        &mut self,
        from: AgentId,
        peer: AgentId,
        service: u16,
        profile: ConnProfile,
    ) -> ConnId {
        let conn = ConnId(self.conns.len());
        let listening = self
            .listeners
            .get(&(peer, service))
            .copied()
            .unwrap_or(false);
        let lat = profile.latency;
        let open_peer = self.now + lat;
        let open_init = self.now + lat + lat;
        self.conns.push(ConnState {
            ends: [from, peer],
            service,
            profile,
            deliver_clock: [open_peer, open_init],
            closed: !listening,
        });
        if listening {
            self.queue
                .push(open_peer, Ev::StreamOpen { conn, to: peer });
            self.queue
                .push(open_init, Ev::StreamOpen { conn, to: from });
            self.tracer.count_kernel(KernelCounter::ConnOpened, 1);
        } else {
            // Connection refused: initiator learns after one round trip.
            self.queue
                .push(open_init, Ev::StreamClosed { conn, to: from });
            self.tracer.count_kernel(KernelCounter::ConnRefused, 1);
        }
        conn
    }

    fn conn_send_from(&mut self, from: AgentId, conn: ConnId, data: Bytes) {
        let Some(c) = self.conns.get_mut(conn.0) else {
            return;
        };
        if c.closed {
            self.tracer.count_kernel(KernelCounter::ConnTxClosed, 1);
            return;
        }
        let side = if c.ends[0] == from {
            0
        } else if c.ends[1] == from {
            1
        } else {
            return;
        };
        let to = c.ends[1 - side];
        let deliver = (self.now + c.profile.latency).max(c.deliver_clock[side]);
        c.deliver_clock[side] = deliver;
        self.tracer
            .count_kernel(KernelCounter::ConnTxBytes, data.len() as u64);
        self.queue.push(deliver, Ev::StreamData { conn, to, data });
    }

    fn conn_close_from(&mut self, from: AgentId, conn: ConnId) {
        let Some(c) = self.conns.get_mut(conn.0) else {
            return;
        };
        if c.closed {
            return;
        }
        c.closed = true;
        let side = if c.ends[0] == from { 0 } else { 1 };
        let to = c.ends[1 - side];
        let deliver = (self.now + c.profile.latency).max(c.deliver_clock[side]);
        self.queue.push(deliver, Ev::StreamClosed { conn, to });
    }

    fn add_link(&mut self, a: (AgentId, u32), b: (AgentId, u32), profile: LinkProfile) -> LinkId {
        let a = LinkEnd {
            agent: a.0,
            port: a.1,
        };
        let b = LinkEnd {
            agent: b.0,
            port: b.1,
        };
        assert!(
            self.link_of(a).is_none(),
            "port {}:{} already linked",
            a.agent,
            a.port
        );
        assert!(
            self.link_of(b).is_none(),
            "port {}:{} already linked",
            b.agent,
            b.port
        );
        let id = LinkId(self.links.len());
        assert!(
            id.0 < NO_LINK as usize,
            "link table exceeded the u32 port-slot encoding"
        );
        *self.port_slot(a) = id.0 as u32;
        *self.port_slot(b) = id.0 as u32;
        self.links.push(LinkState {
            a,
            b,
            profile,
            up: true,
            busy: [Time::ZERO; 2],
            removed: false,
        });
        id
    }

    fn remove_link(&mut self, id: LinkId) {
        if let Some(l) = self.links.get_mut(id.0) {
            if !l.removed {
                l.removed = true;
                l.up = false;
                let (a, b) = (l.a, l.b);
                *self.port_slot(a) = NO_LINK;
                *self.port_slot(b) = NO_LINK;
            }
        }
    }

    fn set_link_loss(&mut self, id: LinkId, pct: f64) {
        if let Some(l) = self.links.get_mut(id.0) {
            if !l.removed {
                l.profile.drop_chance = (pct / 100.0).clamp(0.0, 1.0);
            }
        }
    }

    fn spawn(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.next_agent);
        self.next_agent += 1;
        self.pending_spawn.push((id, agent));
        self.queue.push(self.now, Ev::Start(id));
        id
    }
}

/// The handle an agent uses to interact with the world during an event.
pub struct Ctx<'a> {
    inner: &'a mut Inner,
    id: AgentId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.inner.now
    }

    /// This agent's own id.
    pub fn self_id(&self) -> AgentId {
        self.id
    }

    /// Fire `on_timer(token)` after `delay`.
    pub fn schedule(&mut self, delay: Duration, token: u64) {
        let at = self.inner.now + delay;
        self.inner.queue.push(
            at,
            Ev::Timer {
                agent: self.id,
                token,
            },
        );
    }

    /// Fire `on_timer(token)` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: Time, token: u64) {
        let at = at.max(self.inner.now);
        self.inner.queue.push(
            at,
            Ev::Timer {
                agent: self.id,
                token,
            },
        );
    }

    /// Transmit an Ethernet frame out of `port`.
    pub fn send_frame(&mut self, port: u32, frame: Bytes) {
        self.inner.send_frame_from(self.id, port, frame);
    }

    /// Open a stream connection to `peer:service`. The returned id is
    /// valid immediately; `Opened` (or `Closed` on refusal) arrives
    /// after the handshake latency.
    pub fn connect(&mut self, peer: AgentId, service: u16, profile: ConnProfile) -> ConnId {
        self.inner.connect_from(self.id, peer, service, profile)
    }

    /// Accept incoming connections on `service`.
    pub fn listen(&mut self, service: u16) {
        self.inner.listeners.insert((self.id, service), true);
    }

    /// Send bytes on an open connection.
    pub fn conn_send(&mut self, conn: ConnId, data: Bytes) {
        self.inner.conn_send_from(self.id, conn, data);
    }

    /// Close a connection; the peer receives `Closed`.
    pub fn conn_close(&mut self, conn: ConnId) {
        self.inner.conn_close_from(self.id, conn);
    }

    /// Add a new agent to the running simulation (e.g. a VM being
    /// created by the RPC server). Its `on_start` runs at the current
    /// time, after the current event completes.
    pub fn spawn(&mut self, agent: Box<dyn Agent>) -> AgentId {
        self.inner.spawn(agent)
    }

    /// Remove an agent after the current event (its links stay but
    /// frames to it are dropped, and its connections are closed).
    pub fn kill(&mut self, agent: AgentId) {
        self.inner.pending_kill.push(agent);
    }

    /// Re-install `fresh` into a previously [`kill`](Self::kill)ed
    /// agent slot after the current event. The id keeps its name and
    /// its wiring — links are still attached to the slot's ports — so
    /// the fresh agent boots (its `on_start` fires at the current
    /// time) into the dead agent's place in the topology. Reviving a
    /// *live* slot is a forced reboot: the resident agent is torn down
    /// exactly like a kill (connections closed, listeners dropped)
    /// before the fresh one is installed.
    pub fn revive(&mut self, agent: AgentId, fresh: Box<dyn Agent>) {
        self.inner.pending_revive.push((agent, fresh));
        self.inner.queue.push(self.inner.now, Ev::Start(agent));
    }

    /// Create a packet link between two `(agent, port)` endpoints.
    pub fn add_link(
        &mut self,
        a: (AgentId, u32),
        b: (AgentId, u32),
        profile: LinkProfile,
    ) -> LinkId {
        self.inner.add_link(a, b, profile)
    }

    /// Detach a link permanently, freeing both ports.
    pub fn remove_link(&mut self, id: LinkId) {
        self.inner.remove_link(id);
    }

    /// Administratively set a link up or down.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        if let Some(l) = self.inner.links.get_mut(id.0) {
            if !l.removed {
                l.up = up;
            }
        }
    }

    /// Set a link's per-frame drop probability (both directions) —
    /// sustained-loss fault injection at run time. `pct` is a
    /// percentage; 0 restores a clean link.
    pub fn set_link_loss(&mut self, id: LinkId, pct: f64) {
        self.inner.set_link_loss(id, pct);
    }

    /// Increment a named metric counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.inner.tracer.count(name, delta);
    }
}

/// A complete simulation instance.
///
/// `Clone` is a *deep copy*: the agent table (via [`CloneAgent`]), the
/// event queue with its exact `(time, seq)` order and sequence counter,
/// link/port/connection state, the RNG mid-stream, and the tracer all
/// duplicate, so the copy replays byte-identically to the original.
#[derive(Clone)]
pub struct Sim {
    agents: Vec<Option<Box<dyn Agent>>>,
    inner: Inner,
    cfg: SimConfig,
    /// Events dispatched so far (the perf harness's events/sec basis).
    events_dispatched: u64,
}

impl Sim {
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            agents: Vec::new(),
            inner: Inner {
                now: Time::ZERO,
                queue: EventQueue::new(),
                links: Vec::new(),
                ports: Vec::new(),
                conns: Vec::new(),
                listeners: HashMap::new(),
                rng: StdRng::seed_from_u64(cfg.seed),
                tracer: Tracer::new(cfg.trace_level),
                next_agent: 0,
                pending_spawn: Vec::new(),
                pending_kill: Vec::new(),
                pending_revive: Vec::new(),
            },
            cfg,
            events_dispatched: 0,
        }
    }

    /// Register an agent before (or during) the run; `on_start` fires at
    /// the current simulation time. An agent is known by its id; the
    /// name is not kept.
    pub fn add_agent(&mut self, _name: &str, agent: Box<dyn Agent>) -> AgentId {
        let id = self.inner.spawn(agent);
        self.apply_pending();
        id
    }

    /// Create a link between two `(agent, port)` endpoints.
    pub fn add_link(
        &mut self,
        a: (AgentId, u32),
        b: (AgentId, u32),
        profile: LinkProfile,
    ) -> LinkId {
        self.inner.add_link(a, b, profile)
    }

    /// Administratively set a link up or down.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        if let Some(l) = self.inner.links.get_mut(id.0) {
            if !l.removed {
                l.up = up;
            }
        }
    }

    /// Set a link's per-frame drop probability (percentage, both
    /// directions); 0 restores a clean link.
    pub fn set_link_loss(&mut self, id: LinkId, pct: f64) {
        self.inner.set_link_loss(id, pct);
    }

    /// Schedule a timer for `agent` from outside the simulation — the
    /// hook a harness uses to poke an agent's housekeeping (e.g. "flush
    /// buffered output before I harvest metrics") without waiting for
    /// the agent's own cadence. Delivered through the ordinary event
    /// queue, so determinism is untouched.
    pub fn schedule_timer(&mut self, agent: AgentId, delay: Duration, token: u64) {
        let at = self.inner.now + delay;
        self.inner.queue.push(at, Ev::Timer { agent, token });
    }

    /// Like [`schedule_timer`](Self::schedule_timer), but in the event
    /// queue's reserved lane: the timer dispatches before every
    /// ordinarily scheduled event at the same instant, and reserved
    /// timers order among themselves by scheduling order — not by
    /// *when* they were scheduled. This is the fault-injection hook: a
    /// cold run arms its faults here before the first step, a fork
    /// after its capture, and each fault timer lands in the same
    /// dispatch position either way. Protocol agents use
    /// [`Ctx::schedule`].
    pub fn schedule_timer_reserved(&mut self, agent: AgentId, delay: Duration, token: u64) {
        let at = self.inner.now + delay;
        self.inner
            .queue
            .push_reserved(at, Ev::Timer { agent, token });
    }

    pub fn now(&self) -> Time {
        self.inner.now
    }

    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Borrow an agent by concrete type (returns `None` on wrong type or
    /// dead agent). Intended for test assertions and result harvesting.
    pub fn agent_as<T: Agent>(&self, id: AgentId) -> Option<&T> {
        let boxed = self.agents.get(id.0)?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Sim::agent_as`].
    pub fn agent_as_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        let boxed = self.agents.get_mut(id.0)?.as_mut()?;
        (boxed.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    fn apply_pending(&mut self) {
        // Runs after every event; almost always a no-op.
        if self.inner.pending_spawn.is_empty()
            && self.inner.pending_kill.is_empty()
            && self.inner.pending_revive.is_empty()
        {
            return;
        }
        for (id, agent) in self.inner.pending_spawn.drain(..) {
            while self.agents.len() <= id.0 {
                self.agents.push(None);
            }
            self.agents[id.0] = Some(agent);
        }
        let mut kills: Vec<AgentId> = self.inner.pending_kill.drain(..).collect();
        // A revive of a live slot is a forced reboot: tear the resident
        // agent down like a kill before installing the fresh one.
        let revives: Vec<(AgentId, Box<dyn Agent>)> = self.inner.pending_revive.drain(..).collect();
        for (id, _) in &revives {
            if self.agents.get(id.0).is_some_and(|s| s.is_some()) {
                kills.push(*id);
            }
        }
        for id in kills {
            if self.agents.get_mut(id.0).and_then(|s| s.take()).is_some() {
                // Close this agent's connections so peers observe dead sockets.
                for (cid, c) in self.inner.conns.iter_mut().enumerate() {
                    if !c.closed && (c.ends[0] == id || c.ends[1] == id) {
                        c.closed = true;
                        let to = if c.ends[0] == id {
                            c.ends[1]
                        } else {
                            c.ends[0]
                        };
                        let at = self.inner.now + c.profile.latency;
                        self.inner.queue.push(
                            at,
                            Ev::StreamClosed {
                                conn: ConnId(cid),
                                to,
                            },
                        );
                    }
                }
                // Drop its listeners.
                self.inner.listeners.retain(|(a, _), _| *a != id);
            }
        }
        for (id, agent) in revives {
            assert!(
                id.0 < self.inner.next_agent,
                "revive of never-allocated agent {id}"
            );
            while self.agents.len() <= id.0 {
                self.agents.push(None);
            }
            self.agents[id.0] = Some(agent);
        }
    }

    /// Dispatch a single event. Returns `false` when the queue is
    /// exhausted or `max_time` would be exceeded.
    pub fn step(&mut self) -> bool {
        let Some(peek) = self.inner.queue.peek_time() else {
            return false;
        };
        if let Some(max) = self.cfg.max_time {
            if peek > max {
                self.inner.now = max;
                return false;
            }
        }
        let (at, ev) = self.inner.queue.pop().expect("peeked");
        self.inner.now = at;
        self.events_dispatched += 1;
        self.dispatch(ev);
        self.apply_pending();
        true
    }

    fn dispatch(&mut self, ev: Ev) {
        // Resolve the target (and, for stream opens, the connection
        // metadata) before taking the agent out of its slot, so every
        // early return leaves the table intact. Handlers are invoked
        // directly from the match — no per-event closure allocation.
        let target = match &ev {
            Ev::Start(a) => *a,
            Ev::Timer { agent, .. } | Ev::Frame { agent, .. } => *agent,
            Ev::StreamOpen { to, .. } | Ev::StreamData { to, .. } | Ev::StreamClosed { to, .. } => {
                *to
            }
        };
        let open_info = if let Ev::StreamOpen { conn, to } = &ev {
            let Some(c) = self.inner.conns.get(conn.0) else {
                return;
            };
            let initiated = c.ends[0] == *to;
            let peer = if initiated { c.ends[1] } else { c.ends[0] };
            Some((peer, c.service, initiated))
        } else {
            None
        };
        let Some(slot) = self.agents.get_mut(target.0) else {
            return;
        };
        let Some(mut agent) = slot.take() else {
            // Agent was killed; drop the event silently.
            return;
        };
        let mut ctx = Ctx {
            inner: &mut self.inner,
            id: target,
        };
        match ev {
            Ev::Start(_) => agent.on_start(&mut ctx),
            Ev::Timer { token, .. } => agent.on_timer(&mut ctx, token),
            Ev::Frame { port, frame, .. } => agent.on_frame(&mut ctx, port, frame),
            Ev::StreamOpen { conn, .. } => {
                let (peer, service, initiated_by_us) = open_info.expect("resolved above");
                agent.on_stream(
                    &mut ctx,
                    conn,
                    StreamEvent::Opened {
                        peer,
                        service,
                        initiated_by_us,
                    },
                )
            }
            Ev::StreamData { conn, data, .. } => {
                agent.on_stream(&mut ctx, conn, StreamEvent::Data(data))
            }
            Ev::StreamClosed { conn, .. } => agent.on_stream(&mut ctx, conn, StreamEvent::Closed),
        }
        // The slot cannot have been reused: ids are never recycled.
        self.agents[target.0] = Some(agent);
    }

    /// Run until the queue drains or `max_time` is hit.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: Time) {
        loop {
            match self.inner.queue.peek_time() {
                Some(peek) if peek <= t => {
                    if !self.step() {
                        break;
                    }
                }
                _ => {
                    if self.inner.now < t {
                        self.inner.now = t;
                    }
                    break;
                }
            }
        }
    }

    /// Total events dispatched since construction — the denominator of
    /// the perf harness's events/sec figures. Monotonic, wall-clock
    /// free, and identical across runs of the same scenario.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Agent that records everything it sees.
    #[derive(Clone, Default)]
    struct Probe {
        timers: Vec<(Time, u64)>,
        frames: Vec<(Time, u32, Bytes)>,
        stream_log: Vec<String>,
        conn: Option<ConnId>,
        autoreply: bool,
        listen_service: Option<u16>,
    }

    impl Agent for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(s) = self.listen_service {
                ctx.listen(s);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push((ctx.now(), token));
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: u32, frame: Bytes) {
            self.frames.push((ctx.now(), port, frame.clone()));
            if self.autoreply {
                ctx.send_frame(port, frame);
                self.autoreply = false;
            }
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, ev: StreamEvent) {
            match ev {
                StreamEvent::Opened {
                    initiated_by_us, ..
                } => {
                    self.conn = Some(conn);
                    self.stream_log.push(format!("open:{initiated_by_us}"));
                    if !initiated_by_us {
                        ctx.conn_send(conn, Bytes::from_static(b"hello"));
                    }
                }
                StreamEvent::Data(d) => {
                    self.stream_log
                        .push(format!("data:{}", String::from_utf8_lossy(&d)));
                }
                StreamEvent::Closed => self.stream_log.push("closed".into()),
            }
        }
    }

    /// Agent that sends a frame at start.
    #[derive(Clone)]
    struct Sender {
        port: u32,
        payload: Bytes,
    }
    impl Agent for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_frame(self.port, self.payload.clone());
        }
    }

    #[test]
    fn sim_is_send() {
        // Sweeps move fully built simulations into worker threads; a
        // non-Send field sneaking into the kernel must fail here, not
        // at the distant ScenarioMatrix spawn site.
        fn assert_send<T: Send>() {}
        assert_send::<Sim>();
    }

    #[test]
    fn sim_is_clone() {
        // Checkpoint/fork deep-copies whole simulations; a non-Clone
        // field sneaking into the kernel must fail here, not at the
        // distant Scenario::snapshot site.
        fn assert_clone<T: Clone>() {}
        assert_clone::<Sim>();
    }

    #[test]
    fn cloned_sim_replays_identically() {
        // Clone mid-run, then drive both copies to completion: same
        // delivery schedule, same event count, same RNG draws (the link
        // is lossy, so divergent RNG state would change what arrives).
        fn harvest(sim: &Sim, b: AgentId) -> (Vec<(Time, u32)>, u64) {
            (
                sim.agent_as::<Probe>(b)
                    .unwrap()
                    .frames
                    .iter()
                    .map(|(t, p, _)| (*t, *p))
                    .collect(),
                sim.events_dispatched(),
            )
        }
        #[derive(Clone)]
        struct Sprayer {
            left: u32,
        }
        impl Agent for Sprayer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(Duration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send_frame(1, Bytes::from(vec![0u8; 64]));
                    ctx.schedule(Duration::from_millis(10), 0);
                }
            }
        }
        let mut sim = Sim::new(SimConfig {
            seed: 99,
            ..Default::default()
        });
        let a = sim.add_agent("a", Box::new(Sprayer { left: 40 }));
        let b = sim.add_agent("b", Box::new(Probe::default()));
        sim.add_link(
            (a, 1),
            (b, 1),
            LinkProfile {
                latency: Duration::from_millis(3),
                bandwidth_bps: 10_000_000,
                drop_chance: 0.5,
            },
        );
        sim.run_until(Time::from_millis(200));
        let mut fork = sim.clone();
        sim.run();
        fork.run();
        assert_eq!(harvest(&sim, b), harvest(&fork, b));
    }

    #[test]
    fn timer_fires_at_right_time() {
        #[derive(Clone)]
        struct T;
        impl Agent for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(Duration::from_millis(500), 42);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 42);
                assert_eq!(ctx.now(), Time::from_millis(500));
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_agent("t", Box::new(T));
        sim.run();
        assert_eq!(sim.now(), Time::from_millis(500));
    }

    #[test]
    fn frame_crosses_link_with_latency() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_agent(
            "a",
            Box::new(Sender {
                port: 1,
                payload: Bytes::from_static(b"ping"),
            }),
        );
        let b = sim.add_agent("b", Box::new(Probe::default()));
        sim.add_link(
            (a, 1),
            (b, 3),
            LinkProfile::with_latency(Duration::from_millis(7)),
        );
        sim.run();
        let probe = sim.agent_as::<Probe>(b).unwrap();
        assert_eq!(probe.frames.len(), 1);
        let (t, port, data) = &probe.frames[0];
        assert_eq!(*t, Time::from_millis(7));
        assert_eq!(*port, 3);
        assert_eq!(&data[..], b"ping");
    }

    #[test]
    fn bandwidth_serializes_back_to_back_frames() {
        #[derive(Clone)]
        struct Burst;
        impl Agent for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Two 125-byte frames at 1 Mbps: 1 ms serialization each.
                for _ in 0..2 {
                    ctx.send_frame(1, Bytes::from(vec![0u8; 125]));
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_agent("burst", Box::new(Burst));
        let b = sim.add_agent("probe", Box::new(Probe::default()));
        sim.add_link(
            (a, 1),
            (b, 1),
            LinkProfile {
                latency: Duration::ZERO,
                bandwidth_bps: 1_000_000,
                drop_chance: 0.0,
            },
        );
        sim.run();
        let probe = sim.agent_as::<Probe>(b).unwrap();
        assert_eq!(probe.frames.len(), 2);
        assert_eq!(probe.frames[0].0, Time::from_millis(1));
        assert_eq!(probe.frames[1].0, Time::from_millis(2));
    }

    #[test]
    fn stream_handshake_and_data() {
        #[derive(Clone)]
        struct Dialer {
            peer: AgentId,
            log: Vec<String>,
        }
        impl Agent for Dialer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.peer, 6633, ConnProfile::default());
            }
            fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, ev: StreamEvent) {
                match ev {
                    StreamEvent::Opened { .. } => self.log.push("open".into()),
                    StreamEvent::Data(d) => self
                        .log
                        .push(format!("data:{}", String::from_utf8_lossy(&d))),
                    StreamEvent::Closed => self.log.push("closed".into()),
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let listener = sim.add_agent(
            "listener",
            Box::new(Probe {
                listen_service: Some(6633),
                ..Default::default()
            }),
        );
        let dialer = sim.add_agent(
            "dialer",
            Box::new(Dialer {
                peer: listener,
                log: vec![],
            }),
        );
        sim.run();
        let d = sim.agent_as::<Dialer>(dialer).unwrap();
        // Opened, then the listener's greeting.
        assert_eq!(d.log, vec!["open", "data:hello"]);
        let l = sim.agent_as::<Probe>(listener).unwrap();
        assert_eq!(l.stream_log, vec!["open:false"]);
    }

    #[test]
    fn connect_to_non_listener_is_refused() {
        #[derive(Clone)]
        struct Dialer {
            peer: AgentId,
            refused: bool,
        }
        impl Agent for Dialer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.peer, 9999, ConnProfile::default());
            }
            fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, ev: StreamEvent) {
                if matches!(ev, StreamEvent::Closed) {
                    self.refused = true;
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let silent = sim.add_agent("silent", Box::new(Probe::default()));
        let dialer = sim.add_agent(
            "dialer",
            Box::new(Dialer {
                peer: silent,
                refused: false,
            }),
        );
        sim.run();
        assert!(sim.agent_as::<Dialer>(dialer).unwrap().refused);
    }

    #[test]
    fn stream_data_is_in_order() {
        #[derive(Clone)]
        struct Blast {
            peer: AgentId,
        }
        impl Agent for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let c = ctx.connect(self.peer, 1, ConnProfile::default());
                for i in 0..50u8 {
                    ctx.conn_send(c, Bytes::from(vec![i]));
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let rx = sim.add_agent(
            "rx",
            Box::new(Probe {
                listen_service: Some(1),
                ..Default::default()
            }),
        );
        sim.add_agent("tx", Box::new(Blast { peer: rx }));
        sim.run();
        let p = sim.agent_as::<Probe>(rx).unwrap();
        let data: Vec<&String> = p
            .stream_log
            .iter()
            .filter(|s| s.starts_with("data"))
            .collect();
        assert_eq!(data.len(), 50);
        // Probe logs raw bytes; verify monotone order via length-1 payload bytes.
        for (i, s) in data.iter().enumerate() {
            let byte = s.as_bytes()[5];
            assert_eq!(byte as usize, i);
        }
    }

    #[test]
    fn spawn_at_runtime_starts_agent() {
        #[derive(Clone)]
        struct Spawner;
        impl Agent for Spawner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.spawn(Box::new(Probe::default()));
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_agent("spawner", Box::new(Spawner));
        sim.run();
        assert!(sim.agent_as::<Probe>(AgentId(1)).is_some());
    }

    #[test]
    fn kill_closes_peer_connections() {
        #[derive(Clone)]
        struct Killer {
            victim: AgentId,
        }
        impl Agent for Killer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.victim, 5, ConnProfile::default());
                ctx.schedule(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.kill(self.victim);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let victim = sim.add_agent(
            "victim",
            Box::new(Probe {
                listen_service: Some(5),
                ..Default::default()
            }),
        );
        let killer = sim.add_agent("killer", Box::new(Killer { victim }));
        sim.run();
        // The victim was killed after the handshake: no panic, the
        // victim is gone and the killer lives on.
        assert!(sim.agent_as::<Probe>(victim).is_none());
        assert!(sim.agent_as::<Killer>(killer).is_some());
    }

    #[test]
    fn link_down_drops_frames() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_agent(
            "a",
            Box::new(Sender {
                port: 1,
                payload: Bytes::from_static(b"x"),
            }),
        );
        let b = sim.add_agent("b", Box::new(Probe::default()));
        let l = sim.add_link((a, 1), (b, 1), LinkProfile::default());
        sim.set_link_up(l, false);
        sim.run();
        assert!(sim.agent_as::<Probe>(b).unwrap().frames.is_empty());
        assert_eq!(sim.tracer().counter("link.tx_down"), 1);
    }

    #[test]
    fn run_until_stops_at_time() {
        #[derive(Clone)]
        struct Ticker;
        impl Agent for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.schedule(Duration::from_secs(1), 0);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_agent("tick", Box::new(Ticker));
        sim.run_until(Time::from_millis(3500));
        assert_eq!(sim.now(), Time::from_millis(3500));
        // The 4 s tick is still queued.
        assert!(sim.step());
        assert_eq!(sim.now(), Time::from_secs(4));
    }

    #[test]
    fn max_time_caps_run() {
        #[derive(Clone)]
        struct Ticker;
        impl Agent for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.schedule(Duration::from_secs(1), 0);
            }
        }
        let mut sim = Sim::new(SimConfig {
            max_time: Some(Time::from_secs(10)),
            ..Default::default()
        });
        sim.add_agent("tick", Box::new(Ticker));
        sim.run();
        assert_eq!(sim.now(), Time::from_secs(10));
    }

    #[test]
    fn counters_identical_across_counting_levels() {
        // Info counts the kernel's slots; Off (the release-sweep fast
        // path) leaves them untouched.
        fn counters_at(level: TraceLevel) -> std::collections::BTreeMap<String, u64> {
            let mut sim = Sim::new(SimConfig {
                trace_level: level,
                ..Default::default()
            });
            let a = sim.add_agent(
                "a",
                Box::new(Sender {
                    port: 1,
                    payload: Bytes::from(vec![0u8; 64]),
                }),
            );
            let b = sim.add_agent(
                "b",
                Box::new(Probe {
                    autoreply: true,
                    listen_service: Some(7),
                    ..Default::default()
                }),
            );
            sim.add_link(
                (a, 1),
                (b, 1),
                LinkProfile {
                    latency: Duration::from_millis(2),
                    bandwidth_bps: 10_000_000,
                    drop_chance: 0.3,
                },
            );
            sim.run();
            sim.tracer().counters()
        }
        let info = counters_at(TraceLevel::Info);
        assert!(info.contains_key("link.tx_frames"), "{info:?}");
        assert!(counters_at(TraceLevel::Off).is_empty());
    }

    #[test]
    fn events_dispatched_counts_steps() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_agent(
            "a",
            Box::new(Sender {
                port: 1,
                payload: Bytes::from_static(b"x"),
            }),
        );
        let b = sim.add_agent("b", Box::new(Probe::default()));
        sim.add_link((a, 1), (b, 1), LinkProfile::default());
        sim.run();
        // Two Start events plus one Frame delivery.
        assert_eq!(sim.events_dispatched(), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> Vec<(Time, u32)> {
            let mut sim = Sim::new(SimConfig {
                seed,
                ..Default::default()
            });
            let a = sim.add_agent(
                "a",
                Box::new(Sender {
                    port: 1,
                    payload: Bytes::from(vec![0u8; 100]),
                }),
            );
            let b = sim.add_agent("b", Box::new(Probe::default()));
            sim.add_link(
                (a, 1),
                (b, 1),
                LinkProfile {
                    latency: Duration::from_millis(3),
                    bandwidth_bps: 10_000_000,
                    drop_chance: 0.5,
                },
            );
            sim.run();
            sim.agent_as::<Probe>(b)
                .unwrap()
                .frames
                .iter()
                .map(|(t, p, _)| (*t, *p))
                .collect()
        }
        assert_eq!(run_once(7), run_once(7));
    }

    #[test]
    fn remove_link_frees_ports() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_agent("a", Box::new(Probe::default()));
        let b = sim.add_agent("b", Box::new(Probe::default()));
        let l = sim.inner.add_link((a, 1), (b, 1), LinkProfile::default());
        sim.inner.remove_link(l);
        // Re-adding on the same ports must not panic.
        sim.inner.add_link((a, 1), (b, 1), LinkProfile::default());
    }
}
