//! The sans-IO OSPF daemon.
//!
//! The daemon never touches sockets or clocks: callers feed it received
//! packets ([`OspfDaemon::handle_packet`]) and time
//! ([`OspfDaemon::tick`]), and it returns [`OspfEvent`]s — packets to
//! transmit and route-table updates. [`OspfDaemon::poll_at`] reports
//! the next instant `tick` needs to run (smoltcp's `poll_at` idiom), so
//! the embedding VM schedules exactly one timer.

use super::lsa::{Lsa, LsaHeader, LsaKey, RouterLink, RouterLinkType, INITIAL_SEQ};
use super::neighbor::{Neighbor, NeighborState};
use super::packet::{OspfBodyView, OspfView, PacketWriter, DBD_INIT, DBD_MASTER, DBD_MORE};
use super::spf;
use super::{ALL_SPF_ROUTERS, LS_REFRESH_TIME, MAX_AGE};
use crate::config::OspfConfig;
use crate::rib::Route;
use bytes::Bytes;
use rf_sim::Time;
use rf_wire::Ipv4Cidr;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Output of the daemon.
#[derive(Clone, Debug)]
pub enum OspfEvent {
    /// Send an OSPF packet (raw OSPF bytes; the caller wraps them in
    /// IPv4 proto-89 from the interface address).
    Transmit {
        iface: u16,
        dst: Ipv4Addr,
        packet: Bytes,
    },
    /// The OSPF route set changed; replace all OSPF routes with this.
    RoutesChanged(Vec<Route>),
}

/// Queue `packet` for interface `iface`, to AllSPFRouters.
fn transmit(ev: &mut Vec<OspfEvent>, iface: u16, packet: Bytes) {
    ev.push(OspfEvent::Transmit {
        iface,
        dst: ALL_SPF_ROUTERS,
        packet,
    });
}

/// Interface table: a sorted-by-ifindex vector behind a BTreeMap-like
/// surface. Routers here have a handful of interfaces and
/// `handle_packet` consults the table several times per received
/// packet, so flat scans beat tree walks; iteration order (ascending
/// ifindex) is identical to the `BTreeMap` this replaces. Measured
/// with alternating pairs at `--seconds 5`: going back to the
/// `BTreeMap` costs `fault_fork` 10.2 % more `wall_s`.
#[derive(Clone, Debug)]
struct IfaceTable {
    entries: Vec<(u16, Iface)>,
}

impl IfaceTable {
    fn new() -> IfaceTable {
        IfaceTable {
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, idx: u16, iface: Iface) {
        match self.entries.binary_search_by_key(&idx, |e| e.0) {
            Ok(i) => self.entries[i].1 = iface,
            Err(i) => self.entries.insert(i, (idx, iface)),
        }
    }

    fn remove(&mut self, idx: &u16) -> Option<Iface> {
        match self.entries.binary_search_by_key(idx, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    fn get(&self, idx: &u16) -> Option<&Iface> {
        self.entries
            .binary_search_by_key(idx, |e| e.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn get_mut(&mut self, idx: &u16) -> Option<&mut Iface> {
        self.entries
            .binary_search_by_key(idx, |e| e.0)
            .ok()
            .map(|i| &mut self.entries[i].1)
    }

    fn contains_key(&self, idx: &u16) -> bool {
        self.get(idx).is_some()
    }

    fn iter(&self) -> impl Iterator<Item = (&u16, &Iface)> {
        self.entries.iter().map(|(i, f)| (i, f))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (&u16, &mut Iface)> {
        self.entries.iter_mut().map(|(i, f)| (&*i, f))
    }

    fn values(&self) -> impl Iterator<Item = &Iface> {
        self.entries.iter().map(|e| &e.1)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut Iface> {
        self.entries.iter_mut().map(|e| &mut e.1)
    }
}

impl std::ops::Index<&u16> for IfaceTable {
    type Output = Iface;
    fn index(&self, idx: &u16) -> &Iface {
        self.get(idx).expect("interface exists")
    }
}

impl<'a> IntoIterator for &'a IfaceTable {
    type Item = (&'a u16, &'a Iface);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (u16, Iface)>,
        fn(&'a (u16, Iface)) -> (&'a u16, &'a Iface),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(i, f)| (i, f))
    }
}

#[derive(Clone, Debug)]
struct Iface {
    addr: Ipv4Cidr,
    cost: u16,
    next_hello: Time,
    neighbor: Option<Neighbor>,
    /// Cached emitted hello payload, keyed by the neighbor id it
    /// lists. Steady-state hellos are identical every interval; the
    /// payload is a pure function of fixed daemon parameters plus that
    /// key, so the cache can only ever reproduce what a fresh emit
    /// would. Measured with alternating pairs at `--seconds 5`:
    /// emitting every hello afresh costs `fault_fork` 4.5 % more
    /// `wall_s`.
    hello_cache: Option<(Option<u32>, Bytes)>,
}

/// The OSPF daemon for one router.
#[derive(Clone, Debug)]
pub struct OspfDaemon {
    router_id: u32,
    hello_interval: Duration,
    dead_interval: Duration,
    rxmt_interval: Duration,
    spf_delay: Duration,
    spf_hold: Duration,
    ifaces: IfaceTable,
    /// LSDB: key → (LSA as received/originated, install time).
    lsdb: BTreeMap<LsaKey, (Lsa, Time)>,
    /// Exact earliest MaxAge expiry across the LSDB (`Time::MAX` when
    /// empty). `poll_at` runs after every received packet, and scanning
    /// the whole LSDB there dominated the VM agents' event cost; all
    /// LSDB mutations go through [`Self::lsdb_set`]/[`Self::lsdb_unset`]
    /// to keep this cache exact (never early, never late). Measured
    /// with alternating pairs at `--seconds 5`: scanning instead costs
    /// `fault_fork` 31.3 % and `autoconf_corpus` 10.1 % more `wall_s`.
    lsdb_min_expiry: Time,
    my_seq: i32,
    my_lsa_originated: Time,
    spf_due: Option<Time>,
    last_spf: Time,
    last_routes: Vec<Route>,
    dd_counter: u32,
    /// Diagnostics.
    pub spf_runs: u64,
    pub lsas_flooded: u64,
}

impl OspfDaemon {
    /// Build from a parsed `ospfd.conf` plus the interface table from
    /// `zebra.conf` (`(ifindex, address)`); only interfaces covered by
    /// a `network` statement run OSPF, per Quagga semantics.
    pub fn from_config(cfg: &OspfConfig, interfaces: &[(u16, Ipv4Cidr)]) -> OspfDaemon {
        let mut d = OspfDaemon {
            router_id: u32::from(cfg.router_id),
            hello_interval: Duration::from_secs(u64::from(cfg.hello_interval)),
            dead_interval: Duration::from_secs(u64::from(cfg.dead_interval)),
            rxmt_interval: Duration::from_secs(u64::from(cfg.retransmit_interval)),
            spf_delay: Duration::from_millis(u64::from(cfg.spf_timers.0)),
            spf_hold: Duration::from_millis(u64::from(cfg.spf_timers.1)),
            ifaces: IfaceTable::new(),
            lsdb: BTreeMap::new(),
            lsdb_min_expiry: Time::MAX,
            my_seq: INITIAL_SEQ,
            my_lsa_originated: Time::ZERO,
            spf_due: None,
            last_spf: Time::ZERO,
            last_routes: Vec::new(),
            dd_counter: 0x1000,
            spf_runs: 0,
            lsas_flooded: 0,
        };
        for (idx, addr) in interfaces {
            let enabled = cfg
                .networks
                .iter()
                .any(|(net, _)| net.contains(addr.addr) || addr.contains(net.network()));
            if enabled {
                d.ifaces.insert(
                    *idx,
                    Iface {
                        addr: *addr,
                        cost: 10,
                        next_hello: Time::ZERO,
                        neighbor: None,
                        hello_cache: None,
                    },
                );
            }
        }
        d
    }

    pub fn router_id(&self) -> u32 {
        self.router_id
    }

    /// Effective (hello, dead) intervals — diagnostics for checking
    /// that deployment-level timer settings actually reached the VM.
    pub fn timers(&self) -> (Duration, Duration) {
        (self.hello_interval, self.dead_interval)
    }

    /// `(neighbor router id, state)` per interface.
    pub fn neighbors(&self) -> Vec<(u16, u32, NeighborState)> {
        self.ifaces
            .iter()
            .filter_map(|(i, f)| f.neighbor.as_ref().map(|n| (*i, n.id, n.state)))
            .collect()
    }

    /// True once every interface with a neighbor reached Full.
    pub fn all_adjacencies_full(&self) -> bool {
        self.ifaces
            .values()
            .filter_map(|f| f.neighbor.as_ref())
            .all(|n| n.state == NeighborState::Full)
    }

    pub fn lsdb_len(&self) -> usize {
        self.lsdb.len()
    }

    /// Outstanding link-state requests per interface (diagnostics: a
    /// neighbor stuck in `Loading` has a non-empty list here).
    pub fn pending_requests(&self) -> Vec<(u16, Vec<LsaKey>)> {
        self.ifaces
            .iter()
            .filter_map(|(i, f)| {
                f.neighbor
                    .as_ref()
                    .map(|n| (*i, n.ls_requests.iter().copied().collect()))
            })
            .collect()
    }

    /// Add an interface at runtime (a new virtual link was configured).
    pub fn add_interface(&mut self, idx: u16, addr: Ipv4Cidr, now: Time) -> Vec<OspfEvent> {
        self.ifaces.insert(
            idx,
            Iface {
                addr,
                cost: 10,
                next_hello: now,
                neighbor: None,
                hello_cache: None,
            },
        );
        let mut ev = Vec::new();
        self.originate_router_lsa(now, &mut ev);
        ev.extend(self.tick(now));
        ev
    }

    /// Remove an interface (link torn down).
    pub fn remove_interface(&mut self, idx: u16, now: Time) -> Vec<OspfEvent> {
        self.ifaces.remove(&idx);
        let mut ev = Vec::new();
        self.originate_router_lsa(now, &mut ev);
        self.schedule_spf(now);
        ev.extend(self.tick(now));
        ev
    }

    /// Start the daemon: originate the initial router LSA and send the
    /// first hellos.
    pub fn start(&mut self, now: Time) -> Vec<OspfEvent> {
        let mut ev = Vec::new();
        self.originate_router_lsa(now, &mut ev);
        for f in self.ifaces.values_mut() {
            f.next_hello = now;
        }
        ev.extend(self.tick(now));
        ev
    }

    /// Earliest time `tick` must run again. A `tick` at any earlier
    /// instant does nothing, which lets the VM ignore every wake-up but
    /// the one armed here (`tests/tick_premise.rs` pins it).
    pub fn poll_at(&self) -> Option<Time> {
        let mut t = Time::MAX;
        let mut heard = Time::MAX;
        for f in self.ifaces.values() {
            t = t.min(f.next_hello);
            if let Some(n) = &f.neighbor {
                heard = heard.min(n.last_heard);
                t = t.min(n.next_rxmt);
            }
        }
        // The first neighbor to fall silent is the one heard from first.
        if heard != Time::MAX {
            t = t.min(heard + self.dead_interval);
        }
        if let Some(s) = self.spf_due {
            t = t.min(s);
        }
        // Own-LSA refresh.
        t = t.min(self.my_lsa_originated + Duration::from_secs(LS_REFRESH_TIME));
        // Earliest LSA MaxAge expiry (cached; kept exact by lsdb_set/unset).
        t = t.min(self.lsdb_min_expiry);
        if t == Time::MAX {
            None
        } else {
            Some(t)
        }
    }

    /// When this entry's effective age reaches MaxAge.
    fn entry_expiry(lsa: &Lsa, installed: Time) -> Time {
        installed + Duration::from_secs(u64::from(MAX_AGE.saturating_sub(lsa.header.age)))
    }

    /// Insert/replace an LSDB entry, keeping the min-expiry cache exact.
    fn lsdb_set(&mut self, key: LsaKey, lsa: Lsa, now: Time) {
        let new_exp = Self::entry_expiry(&lsa, now);
        let old = self.lsdb.insert(key, (lsa, now));
        if let Some((old_lsa, old_t)) = old {
            if Self::entry_expiry(&old_lsa, old_t) <= self.lsdb_min_expiry {
                // The replaced entry may have defined the minimum.
                self.recompute_min_expiry();
                return;
            }
        }
        self.lsdb_min_expiry = self.lsdb_min_expiry.min(new_exp);
    }

    /// Remove an LSDB entry, keeping the min-expiry cache exact.
    fn lsdb_unset(&mut self, key: &LsaKey) {
        if let Some((lsa, t)) = self.lsdb.remove(key) {
            if Self::entry_expiry(&lsa, t) <= self.lsdb_min_expiry {
                self.recompute_min_expiry();
            }
        }
    }

    fn recompute_min_expiry(&mut self) {
        self.lsdb_min_expiry = self
            .lsdb
            .values()
            .map(|(l, t)| Self::entry_expiry(l, *t))
            .fold(Time::MAX, Time::min);
    }

    /// The age an LSDB entry, `lsa` installed at `installed`, has
    /// reached by `now` (capped at MaxAge).
    fn age_at(lsa: &Lsa, installed: Time, now: Time) -> u16 {
        let aged = u64::from(lsa.header.age) + now.since(installed).as_secs();
        aged.min(u64::from(MAX_AGE)) as u16
    }

    fn my_key(&self) -> LsaKey {
        LsaKey {
            ls_type: 1,
            ls_id: self.router_id,
            adv_router: self.router_id,
        }
    }

    fn originate_router_lsa(&mut self, now: Time, ev: &mut Vec<OspfEvent>) {
        let mut links = Vec::new();
        for f in self.ifaces.values() {
            if let Some(n) = &f.neighbor {
                if n.state == NeighborState::Full {
                    links.push(RouterLink {
                        link_type: RouterLinkType::PointToPoint,
                        link_id: n.id,
                        link_data: u32::from(f.addr.addr),
                        metric: f.cost,
                    });
                }
            }
            links.push(RouterLink {
                link_type: RouterLinkType::Stub,
                link_id: u32::from(f.addr.network()),
                link_data: f.addr.mask(),
                metric: f.cost,
            });
        }
        let lsa = Lsa::router(self.router_id, self.my_seq, 0, links);
        self.my_seq += 1;
        self.my_lsa_originated = now;
        self.lsdb_set(self.my_key(), lsa, now);
        self.flood(self.my_key(), None, now, ev);
        self.schedule_spf(now);
    }

    fn schedule_spf(&mut self, now: Time) {
        if self.spf_due.is_none() {
            let due = (now + self.spf_delay).max(self.last_spf + self.spf_hold);
            self.spf_due = Some(due);
        }
    }

    /// True when the LSDB entry (`key`, `lsa` installed at
    /// `installed`) participates in SPF right `now`.
    fn spf_live(key: &LsaKey, lsa: &Lsa, installed: Time, now: Time) -> bool {
        key.ls_type == 1
            && Self::age_at(lsa, installed, now) < MAX_AGE
            && lsa.header.seq >= INITIAL_SEQ
    }

    fn run_spf(&mut self, now: Time, ev: &mut Vec<OspfEvent>) {
        self.spf_due = None;
        self.last_spf = now;
        self.spf_runs += 1;
        let mut adjacent: HashMap<u32, (u16, Ipv4Addr)> = HashMap::new();
        for (idx, f) in &self.ifaces {
            if let Some(n) = &f.neighbor {
                if n.state == NeighborState::Full {
                    adjacent.insert(n.id, (*idx, n.addr));
                }
            }
        }
        // The live entries, borrowed where they lie. Every router LSA's
        // link-state id is its advertising router (`LsaView::parse`
        // refuses any other), so the LSDB's key order is router-id
        // order and holds one LSA per router.
        let live = self
            .lsdb
            .iter()
            .filter(|(k, (lsa, installed))| Self::spf_live(k, lsa, *installed, now))
            .map(|(k, (lsa, _))| (&k.adv_router, lsa));
        let routes = spf::compute(live, self.router_id, &adjacent);
        if routes != self.last_routes {
            self.last_routes = routes.clone();
            ev.push(OspfEvent::RoutesChanged(routes));
        }
    }

    /// Send `lsas`, database copies each at its present age, in one
    /// update — or nothing when there are none.
    fn transmit_update(&self, iface: u16, lsas: &[(&Lsa, u16)], ev: &mut Vec<OspfEvent>) {
        if !lsas.is_empty() {
            let packet = PacketWriter::update(self.router_id, lsas);
            transmit(ev, iface, packet.finish());
        }
    }

    fn send_hello(&mut self, idx: u16, ev: &mut Vec<OspfEvent>) {
        let f = self.ifaces.get_mut(&idx).unwrap();
        let key = f.neighbor.as_ref().map(|n| n.id);
        if let Some((cached_key, payload)) = &f.hello_cache {
            if *cached_key == key {
                transmit(ev, idx, payload.clone());
                return;
            }
        }
        let payload = PacketWriter::hello(
            self.router_id,
            f.addr.mask(),
            self.hello_interval.as_secs() as u16,
            self.dead_interval.as_secs() as u32,
            key.as_slice(),
        )
        .finish();
        f.hello_cache = Some((key, payload.clone()));
        transmit(ev, idx, payload);
    }

    /// Flood the database copy of `key` on every adjacency except
    /// `except_iface`, adding it to retransmission lists.
    fn flood(
        &mut self,
        key: LsaKey,
        except_iface: Option<u16>,
        now: Time,
        ev: &mut Vec<OspfEvent>,
    ) {
        let (lsa, _) = &self.lsdb[&key];
        // One encoding serves every interface: the update carries no
        // per-interface field.
        let mut packet: Option<Bytes> = None;
        ev.reserve(self.ifaces.entries.len());
        for (idx, f) in self.ifaces.iter_mut() {
            if Some(*idx) == except_iface {
                continue;
            }
            let Some(n) = f.neighbor.as_mut() else {
                continue;
            };
            if !n.floods() {
                continue;
            }
            n.retransmit.insert(key);
            if n.next_rxmt == Time::MAX {
                n.next_rxmt = now + self.rxmt_interval;
            }
            let packet = packet.get_or_insert_with(|| {
                PacketWriter::update(self.router_id, &[(lsa, lsa.header.age)]).finish()
            });
            transmit(ev, *idx, packet.clone());
            self.lsas_flooded += 1;
        }
    }

    fn start_exstart(&mut self, idx: u16, ev: &mut Vec<OspfEvent>, now: Time) {
        self.dd_counter += 1;
        let dd_seq = self.dd_counter;
        let f = self.ifaces.get_mut(&idx).unwrap();
        let n = f.neighbor.as_mut().unwrap();
        n.state = NeighborState::ExStart;
        n.we_are_master = self.router_id > n.id;
        n.dd_seq = dd_seq;
        n.next_rxmt = now + self.rxmt_interval;
        let flags = DBD_INIT | DBD_MORE | DBD_MASTER;
        self.send_dbd(idx, flags, dd_seq, false, now, ev);
    }

    /// Accept the peer as master of the DBD exchange: respond to its
    /// INIT DBD with our full summary echoing its sequence number, and
    /// enter Exchange as slave.
    fn become_slave_of(&mut self, idx: u16, dd_seq: u32, now: Time, ev: &mut Vec<OspfEvent>) {
        let f = self.ifaces.get_mut(&idx).unwrap();
        let n = f.neighbor.as_mut().unwrap();
        n.we_are_master = false;
        n.dd_seq = dd_seq;
        n.state = NeighborState::Exchange;
        n.next_rxmt = now + self.rxmt_interval;
        self.send_dbd(idx, 0, dd_seq, true, now, ev); // not master, no more
    }

    /// Send a Database Description with `flags` and `dd_seq` — and,
    /// with `summary`, every LSDB header at the age it has reached by
    /// `now`, written straight into the packet.
    fn send_dbd(
        &self,
        idx: u16,
        flags: u8,
        dd_seq: u32,
        summary: bool,
        now: Time,
        ev: &mut Vec<OspfEvent>,
    ) {
        let headers = if summary { self.lsdb.len() } else { 0 };
        let mut w = PacketWriter::dbd(self.router_id, flags, dd_seq, headers);
        for (lsa, installed) in self.lsdb.values().take(headers) {
            w.put_header(&LsaHeader {
                age: Self::age_at(lsa, *installed, now),
                ..lsa.header
            });
        }
        transmit(ev, idx, w.finish());
    }

    /// Build LS requests for headers newer than what we hold.
    fn note_summary(&self, headers: impl Iterator<Item = LsaHeader>) -> Vec<LsaKey> {
        headers
            .filter(|h| match self.lsdb.get(&h.key()) {
                None => true,
                Some((mine, _)) => h.is_newer_than(&mine.header),
            })
            .map(|h| h.key())
            .collect()
    }

    fn send_lsr(&self, idx: u16, ev: &mut Vec<OspfEvent>) {
        let Some(n) = &self.ifaces[&idx].neighbor else {
            return;
        };
        if !n.ls_requests.is_empty() {
            let packet = PacketWriter::request(self.router_id, n.ls_requests.iter());
            transmit(ev, idx, packet.finish());
        }
    }

    fn maybe_finish_loading(&mut self, idx: u16, now: Time, ev: &mut Vec<OspfEvent>) {
        let done = {
            let f = self.ifaces.get_mut(&idx).unwrap();
            let Some(n) = f.neighbor.as_mut() else {
                return;
            };
            if n.state == NeighborState::Loading && n.ls_requests.is_empty() {
                n.state = NeighborState::Full;
                n.next_rxmt = if n.retransmit.is_empty() {
                    Time::MAX
                } else {
                    now + self.rxmt_interval
                };
                true
            } else {
                false
            }
        };
        if done {
            // The adjacency appears in our router LSA only now.
            self.originate_router_lsa(now, ev);
        }
    }

    fn enter_exchange_or_beyond(
        &mut self,
        idx: u16,
        requests: Vec<LsaKey>,
        now: Time,
        ev: &mut Vec<OspfEvent>,
    ) {
        {
            let f = self.ifaces.get_mut(&idx).unwrap();
            let Some(n) = f.neighbor.as_mut() else { return };
            n.ls_requests.extend(requests);
            n.state = NeighborState::Loading;
            n.next_rxmt = now + self.rxmt_interval;
        }
        self.send_lsr(idx, ev);
        self.maybe_finish_loading(idx, now, ev);
    }

    /// RFC 2328 §13 step 7: a received LSA instance satisfies pending
    /// link-state requests for that LSA on *every* adjacency, not just
    /// the one it arrived on (the instance may be flooded in from the
    /// other side of a ring while an LSR to the original neighbor is
    /// still outstanding). Equal instances count: the request asked for
    /// "at least this", and that is what arrived.
    ///
    /// Only a neighbor that still has requests outstanding is looked
    /// into. Finishing one adjacency's Loading touches no other's request
    /// list, so each is finished as soon as its request is struck.
    fn satisfy_requests(&mut self, key: &LsaKey, now: Time, ev: &mut Vec<OspfEvent>) {
        for i in 0..self.ifaces.entries.len() {
            let (idx, f) = &mut self.ifaces.entries[i];
            let Some(n) = f.neighbor.as_mut() else {
                continue;
            };
            if !n.ls_requests.is_empty() && n.ls_requests.remove(key) {
                let idx = *idx;
                self.maybe_finish_loading(idx, now, ev);
            }
        }
    }

    fn kill_neighbor(&mut self, idx: u16, now: Time, ev: &mut Vec<OspfEvent>) {
        if let Some(f) = self.ifaces.get_mut(&idx) {
            f.neighbor = None;
        }
        self.originate_router_lsa(now, ev);
        self.schedule_spf(now);
    }

    /// Process a received OSPF packet (raw OSPF bytes) from `src` on
    /// interface `idx`.
    pub fn handle_packet(
        &mut self,
        idx: u16,
        src: Ipv4Addr,
        data: &[u8],
        now: Time,
    ) -> Vec<OspfEvent> {
        let mut ev = Vec::new();
        let Ok(pkt) = OspfView::parse(data) else {
            return ev;
        };
        if pkt.router_id == self.router_id || pkt.area_id != 0 {
            return ev;
        }
        if !self.ifaces.contains_key(&idx) {
            return ev;
        }
        // Any packet from the neighbor refreshes the inactivity timer.
        if let Some(n) = self.ifaces.get_mut(&idx).unwrap().neighbor.as_mut() {
            if n.id == pkt.router_id {
                n.last_heard = now;
            }
        }
        match pkt.body {
            OspfBodyView::Hello {
                hello_interval,
                dead_interval,
                mut neighbors,
                ..
            } => {
                if hello_interval != self.hello_interval.as_secs() as u16
                    || dead_interval != self.dead_interval.as_secs() as u32
                {
                    return ev; // timer mismatch: not a neighbor
                }
                // Another router on a link whose adjacency is Full: the
                // old neighbor is gone (RFC 2328 §10.3 KillNbr). Its
                // link leaves our router LSA now, not when — or if — the
                // newcomer reaches Full.
                let replaces_full = self.ifaces[&idx]
                    .neighbor
                    .as_ref()
                    .is_some_and(|n| n.id != pkt.router_id && n.state == NeighborState::Full);
                if replaces_full {
                    self.kill_neighbor(idx, now, &mut ev);
                }
                let is_new = {
                    let f = self.ifaces.get_mut(&idx).unwrap();
                    match &mut f.neighbor {
                        Some(n) if n.id == pkt.router_id => false,
                        slot => {
                            *slot = Some(Neighbor::new(pkt.router_id, src, now));
                            true
                        }
                    }
                };
                if is_new {
                    // Reply promptly so the peer learns about us.
                    self.send_hello(idx, &mut ev);
                }
                let sees_us = neighbors.any(|id| id == self.router_id);
                let state = self.ifaces[&idx].neighbor.as_ref().unwrap().state;
                if sees_us && state == NeighborState::Init {
                    self.start_exstart(idx, &mut ev, now);
                } else if !sees_us && state > NeighborState::Init {
                    // RFC 2328 §10.5 1-WayReceived: the neighbor no
                    // longer lists us in its hellos — it restarted or
                    // lost our adjacency. Fall back to Init, discarding
                    // all exchange state; the next 2-way hello restarts
                    // the DBD sequence from scratch.
                    {
                        let f = self.ifaces.get_mut(&idx).unwrap();
                        let n = f.neighbor.as_mut().unwrap();
                        n.state = NeighborState::Init;
                        n.ls_requests.clear();
                        n.retransmit.clear();
                        n.next_rxmt = Time::MAX;
                    }
                    // The adjacency leaves our router LSA (only Full
                    // adjacencies are advertised) and SPF reroutes.
                    self.originate_router_lsa(now, &mut ev);
                }
            }
            OspfBodyView::DatabaseDescription {
                flags,
                dd_seq,
                headers,
                ..
            } => {
                let Some(state) = self.ifaces[&idx].neighbor.as_ref().map(|n| n.state) else {
                    return ev;
                };
                let their_id = pkt.router_id;
                match state {
                    NeighborState::ExStart => {
                        if flags & (DBD_INIT | DBD_MASTER) == (DBD_INIT | DBD_MASTER)
                            && their_id > self.router_id
                        {
                            self.become_slave_of(idx, dd_seq, now, &mut ev);
                        } else if flags & DBD_MASTER == 0 {
                            // A slave response: only meaningful if we
                            // are master and the seq matches ours.
                            let (we_master, our_seq) = {
                                let n = self.ifaces[&idx].neighbor.as_ref().unwrap();
                                (n.we_are_master, n.dd_seq)
                            };
                            if we_master && dd_seq == our_seq {
                                // Their summary received; send ours.
                                let requests = self.note_summary(headers);
                                let next_seq = our_seq + 1;
                                {
                                    let f = self.ifaces.get_mut(&idx).unwrap();
                                    let n = f.neighbor.as_mut().unwrap();
                                    n.dd_seq = next_seq;
                                    n.state = NeighborState::Exchange;
                                    n.next_rxmt = now + self.rxmt_interval;
                                }
                                // M=0: last
                                self.send_dbd(idx, DBD_MASTER, next_seq, true, now, &mut ev);
                                self.enter_exchange_or_beyond(idx, requests, now, &mut ev);
                            }
                        }
                    }
                    NeighborState::Exchange | NeighborState::Loading | NeighborState::Full => {
                        if flags & DBD_INIT != 0 {
                            // RFC 2328 §10.6 SeqNumberMismatch: an INIT
                            // DBD in state >= Exchange means the peer
                            // restarted the exchange (a rebooted VM
                            // whose hellos never lapsed). Discard all
                            // exchange state and renegotiate from
                            // ExStart; if the sender is the higher
                            // router id we can answer it as slave right
                            // away, otherwise our own INIT DBD (sent by
                            // `start_exstart`) triggers the peer's
                            // mismatch handling symmetrically.
                            {
                                let f = self.ifaces.get_mut(&idx).unwrap();
                                let n = f.neighbor.as_mut().unwrap();
                                // Demote before re-originating: only
                                // Full adjacencies are advertised, so
                                // the state change must precede the
                                // LSA build or the fresh LSA would
                                // still carry the dead adjacency.
                                n.state = NeighborState::ExStart;
                                n.ls_requests.clear();
                                n.retransmit.clear();
                            }
                            // The adjacency leaves Full: stop
                            // advertising it and reroute.
                            self.originate_router_lsa(now, &mut ev);
                            if flags & DBD_MASTER != 0 && their_id > self.router_id {
                                self.become_slave_of(idx, dd_seq, now, &mut ev);
                            } else {
                                self.start_exstart(idx, &mut ev, now);
                            }
                            return ev;
                        }
                        let we_master = self.ifaces[&idx]
                            .neighbor
                            .as_ref()
                            .map(|n| n.we_are_master)
                            .unwrap_or(false);
                        if !we_master && flags & DBD_MASTER != 0 {
                            // Master's summary DBD (seq n+1, M=0): note
                            // requests, send empty response, proceed.
                            let cur_seq = self.ifaces[&idx].neighbor.as_ref().unwrap().dd_seq;
                            if dd_seq == cur_seq + 1 || dd_seq == cur_seq {
                                let requests = if dd_seq == cur_seq + 1 {
                                    self.note_summary(headers)
                                } else {
                                    Vec::new() // duplicate: just re-ack
                                };
                                {
                                    let f = self.ifaces.get_mut(&idx).unwrap();
                                    let n = f.neighbor.as_mut().unwrap();
                                    n.dd_seq = dd_seq;
                                }
                                self.send_dbd(idx, 0, dd_seq, false, now, &mut ev);
                                if !requests.is_empty()
                                    || self.ifaces[&idx].neighbor.as_ref().unwrap().state
                                        == NeighborState::Exchange
                                {
                                    self.enter_exchange_or_beyond(idx, requests, now, &mut ev);
                                }
                            }
                        } else if we_master && flags & DBD_MASTER == 0 {
                            // Slave's final ack of our summary DBD.
                            let cur_seq = self.ifaces[&idx].neighbor.as_ref().unwrap().dd_seq;
                            if dd_seq == cur_seq {
                                let state = self.ifaces[&idx].neighbor.as_ref().unwrap().state;
                                if state == NeighborState::Exchange {
                                    self.enter_exchange_or_beyond(idx, Vec::new(), now, &mut ev);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            OspfBodyView::LinkStateRequest { keys } => {
                let lsas: Vec<(&Lsa, u16)> = keys
                    .filter_map(|k| self.lsdb.get(&k))
                    .map(|(lsa, installed)| (lsa, Self::age_at(lsa, *installed, now)))
                    .collect();
                self.transmit_update(idx, &lsas, &mut ev);
            }
            OspfBodyView::LinkStateUpdate { lsas } => {
                // The ack is written header by header as the LSAs are
                // judged; `room` is for the case that all of them are owed one.
                let mut ack: Option<PacketWriter> = None;
                let room = lsas.remaining();
                for lsa in lsas {
                    let header = lsa.header;
                    let key = header.key();
                    // Our copy, looked up once, and its header at the
                    // age it has reached.
                    let mine = self.lsdb.get(&key);
                    let have = mine.map(|(mine, installed)| LsaHeader {
                        age: Self::age_at(mine, *installed, now),
                        ..mine.header
                    });
                    let newer = have.is_none_or(|cur| header.is_newer_than(&cur));
                    if let (Some((mine, _)), Some(cur)) = (mine, have) {
                        if !newer && cur.is_newer_than(&header) {
                            // We hold a newer instance: send it back.
                            self.transmit_update(idx, &[(mine, cur.age)], &mut ev);
                            continue;
                        }
                    }
                    // New to us, or the instance we hold: acked either way.
                    ack.get_or_insert_with(|| PacketWriter::ack(self.router_id, room))
                        .put_header(&header);
                    if !newer {
                        // Same instance (implied ack handling).
                        if let Some(n) = self.ifaces.get_mut(&idx).unwrap().neighbor.as_mut() {
                            n.retransmit.remove(&key);
                        }
                        self.satisfy_requests(&key, now, &mut ev);
                        continue;
                    }
                    if key.adv_router == self.router_id {
                        // Someone has a newer copy of *our* LSA:
                        // out-originate it (RFC 2328 §13.4). This also
                        // answers any pending request for that LSA —
                        // after a restart our own pre-reboot instance
                        // shows up in the peer's summary, and without
                        // clearing the request here the adjacency would
                        // sit in Loading forever.
                        self.my_seq = header.seq + 1;
                        self.originate_router_lsa(now, &mut ev);
                        self.satisfy_requests(&key, now, &mut ev);
                        self.maybe_finish_loading(idx, now, &mut ev);
                        continue;
                    }
                    if header.age >= MAX_AGE {
                        // Premature aging: remove if present.
                        self.lsdb_unset(&key);
                        self.schedule_spf(now);
                        continue;
                    }
                    // Only now are the LSA's links worth decoding.
                    self.lsdb_set(key, lsa.to_lsa(), now);
                    self.flood(key, Some(idx), now, &mut ev);
                    self.schedule_spf(now);
                    self.satisfy_requests(&key, now, &mut ev);
                    self.maybe_finish_loading(idx, now, &mut ev);
                }
                if let Some(ack) = ack {
                    transmit(&mut ev, idx, ack.finish());
                }
            }
            OspfBodyView::LinkStateAck { headers } => {
                let f = self.ifaces.get_mut(&idx).unwrap();
                if let Some(n) = f.neighbor.as_mut() {
                    for h in headers {
                        n.retransmit.remove(&h.key());
                    }
                    if n.retransmit.is_empty() && n.state == NeighborState::Full {
                        n.next_rxmt = Time::MAX;
                    }
                }
            }
        }
        ev
    }

    /// Run all timers due at `now`.
    pub fn tick(&mut self, now: Time) -> Vec<OspfEvent> {
        let mut ev = Vec::new();
        // Hellos.
        for i in 0..self.ifaces.entries.len() {
            let (idx, f) = &mut self.ifaces.entries[i];
            if f.next_hello <= now {
                f.next_hello = now + self.hello_interval;
                let idx = *idx;
                self.send_hello(idx, &mut ev);
            }
        }
        // Dead neighbors.
        let dead: Vec<u16> = self
            .ifaces
            .iter()
            .filter(|(_, f)| {
                f.neighbor
                    .as_ref()
                    .is_some_and(|n| now.since(n.last_heard) >= self.dead_interval)
            })
            .map(|(i, _)| *i)
            .collect();
        for idx in dead {
            self.kill_neighbor(idx, now, &mut ev);
        }
        // Retransmissions.
        let rxmt_due: Vec<u16> = self
            .ifaces
            .iter()
            .filter(|(_, f)| f.neighbor.as_ref().is_some_and(|n| n.next_rxmt <= now))
            .map(|(i, _)| *i)
            .collect();
        for idx in rxmt_due {
            let (state, we_master, dd_seq, retrans_keys) = {
                let n = self.ifaces[&idx].neighbor.as_ref().unwrap();
                (
                    n.state,
                    n.we_are_master,
                    n.dd_seq,
                    n.retransmit.iter().copied().collect::<Vec<_>>(),
                )
            };
            match state {
                NeighborState::ExStart => {
                    let flags = DBD_INIT | DBD_MORE | DBD_MASTER;
                    self.send_dbd(idx, flags, dd_seq, false, now, &mut ev);
                }
                NeighborState::Exchange if we_master => {
                    self.send_dbd(idx, DBD_MASTER, dd_seq, true, now, &mut ev);
                }
                NeighborState::Loading => {
                    self.send_lsr(idx, &mut ev);
                }
                _ => {}
            }
            // Unacked LSAs (any state ≥ Exchange).
            let lsas: Vec<(&Lsa, u16)> = retrans_keys
                .iter()
                .filter_map(|k| self.lsdb.get(k))
                .map(|(lsa, installed)| (lsa, Self::age_at(lsa, *installed, now)))
                .collect();
            self.transmit_update(idx, &lsas, &mut ev);
            let rxmt = self.rxmt_interval;
            if let Some(n) = self.ifaces.get_mut(&idx).unwrap().neighbor.as_mut() {
                let idle = n.state == NeighborState::Full && n.retransmit.is_empty();
                n.next_rxmt = if idle { Time::MAX } else { now + rxmt };
            }
        }
        // Own-LSA refresh.
        if now.since(self.my_lsa_originated).as_secs() >= LS_REFRESH_TIME {
            self.originate_router_lsa(now, &mut ev);
        }
        // Age out foreign LSAs. An entry can only have expired once
        // `now` reaches the cached earliest expiry, so the common tick
        // skips the scan entirely.
        if now >= self.lsdb_min_expiry {
            let expired: Vec<LsaKey> = self
                .lsdb
                .iter()
                .filter(|(k, _)| k.adv_router != self.router_id)
                .filter(|(_, (lsa, installed))| Self::age_at(lsa, *installed, now) >= MAX_AGE)
                .map(|(k, _)| *k)
                .collect();
            if !expired.is_empty() {
                for k in expired {
                    self.lsdb_unset(&k);
                }
                self.schedule_spf(now);
            }
        }
        // SPF.
        if self.spf_due.is_some_and(|t| t <= now) {
            self.run_spf(now, &mut ev);
        }
        ev
    }
}
