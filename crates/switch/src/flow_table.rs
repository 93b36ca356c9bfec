//! The OF 1.0 flow table: priority-ordered matching behind an
//! exact-match cache that answers the repeated frames of an IPv4 flow.

use rf_openflow::{Action, FlowModCommand, OfMatch, PacketKey, PortNumber, OFPP_NONE};
use rf_sim::Time;
use rf_wire::ethernet::ETHERNET_HEADER_LEN;
use rf_wire::ipv4::IPV4_HEADER_LEN;
use rf_wire::EtherType;
use std::net::Ipv4Addr;

/// One installed flow entry. It has no timeout and no counters: it
/// lives until a DELETE_STRICT removes it.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEntry {
    pub of_match: OfMatch,
    pub priority: u16,
    pub cookie: u64,
    pub actions: Vec<Action>,
}

/// The single flow table of an OF 1.0 switch (`n_tables = 1`, matching
/// Open vSwitch 1.4's userspace datapath as the paper used it).
///
/// A flow lives until it is deleted. The paper's loop installs every
/// flow proactively and for good — an ADD per mirrored route, taken
/// back with DELETE_STRICT when the route is withdrawn — so no entry
/// carries a timeout, a `SEND_FLOW_REM` flag or traffic counters, and a
/// lookup writes nothing to the entry it finds.
///
/// What it holds: matches on an EtherType and, for IPv4, a destination
/// prefix — the only matches a switch takes. The RouteFlow apps install
/// one `ipv4_dst_prefix` entry per mirrored RIB route (a host is a /32)
/// and discovery one `lldp` punt, a few dozen entries per switch;
/// `tests/traffic.rs::apps_install_only_wildcard_mac_rewrite_and_punt_flows`
/// pins their actions. There is one lookup order — every entry, sorted by
/// (priority, recency); the first match in it wins, and an entry's
/// position in it is its *rank*.
///
/// A lookup does not walk that order (27–36 entries on the benchmark
/// topologies, and as long as the FIB): the IPv4 entries are filed by
/// prefix length (an EtherType-only IPv4 entry as a /0), so the best of
/// them is one binary search per length present; the others (the LLDP
/// punt, an ARP entry) are scanned in rank order. An IPv4 key can match
/// only an indexed entry and any other key only a scanned one, so each
/// lookup asks one of the two. Counted on one `traffic_packet` pass: of
/// 1 690 447 lookups the index answered 1 639 377 (2.76 lengths probed
/// each) and the scan 50 850 — LLDP, the one entry it ever had to match
/// against — with 220 misses. Lowest rank wins either way, so priority
/// and recency mean what they mean in a plain scan of the order —
/// `indexed_lookup_matches_linear_reference` holds the two against each
/// other. Order and index are rebuilt lazily after table mutations, so
/// a burst of FLOW_MODs costs one sort.
///
/// In front of all that sits an exact-match cache, as in Open vSwitch's
/// datapath: [`FlowTable::classify`], the switch's per-frame entry
/// point, answers a frame of a flow it has classified before without
/// reading a header field or probing the index. A frame is *eligible*
/// when its classification reads nothing but its first 34 bytes and
/// its length: EtherType IPv4, first IPv4 byte `0x45` (no options), at
/// least 34 bytes long (and, so that a slot stays 40 bytes, under
/// 64 KiB, in a table of fewer than 65 535 entries). Such a frame is
/// looked up in 64 direct-mapped slots keyed by (ingress port, frame
/// length, those 34 bytes); a slot holds the matched entry's index or
/// "no match". The key is exactly what classification reads, checksum
/// and fragment bits included, so a hit returns what a fresh
/// classification would. A miss, and every ineligible frame (ARP, LLDP,
/// IPv4 with options), is keyed with `PacketKey::from_frame` and looked
/// up; a miss then fills its slot. The cache is emptied wherever the
/// lookup order is rebuilt — after an add, or a delete that changed the
/// table. It is allocated on the first eligible frame: a table that
/// never sees IPv4 carries none.
/// Counted on the same `traffic_packet` pass: of the 1 690 447 frames
/// the cache answered 1 543 030 (91.3 %); 96 347 eligible frames missed
/// and filled a slot (76 360 would with 4 096 slots: most misses are a
/// flow's first frame at a switch, or its last, shorter one), and the
/// 51 070 ineligible ones — the LLDP probes and ARP — took the index.
#[derive(Clone, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Indices into `entries` by rank: sorted by (priority desc, index
    /// desc), so the first match in this order is the entry a linear
    /// `max_by_key` scan of `entries` returns.
    order: Vec<usize>,
    /// The IPv4 entries of `order` as `(wildcarded low bits, masked
    /// nw_dst, rank)`, sorted: one run per prefix length, each run
    /// sorted by prefix, equal prefixes by rank. A sorted vector, not a
    /// hash map: nothing here depends on hasher state.
    prefixes: Vec<(u32, u32, u32)>,
    /// `(wildcarded low bits, start, end)` of each run of `prefixes` —
    /// what a lookup has to probe.
    runs: Vec<(u32, u32, u32)>,
    /// Ranks of the entries not in `prefixes`, ascending.
    rest: Vec<u32>,
    dirty: bool,
    /// The exact-match cache: [`CACHE_SLOTS`] slots once an eligible
    /// frame arrived, none before.
    cache: Box<[Cached]>,
    /// Frames given to [`FlowTable::classify`].
    pub classified: u64,
    /// How many of them the cache answered.
    pub cache_hits: u64,
}

/// Slots in the exact-match cache.
const CACHE_SLOTS: usize = 64;
/// How much of an eligible frame classification reads: the Ethernet
/// header and an option-less IPv4 header.
const CACHED_HEAD: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
/// `Cached::entry` of a frame that matched nothing. A table of this
/// many entries or more is not cached: every index must fit a slot.
const NO_MATCH: u16 = u16::MAX;

/// One slot of the exact-match cache: an eligible frame's head, length
/// and ingress port, and the index of the entry it matched. 40 bytes,
/// so a switch's cache is 2 560. (44-byte slots, with a 32-bit length
/// and index, raised `traffic_packet`'s peak RSS by 6 %; these do not.)
#[derive(Clone, Copy)]
struct Cached {
    head: [u8; CACHED_HEAD],
    in_port: PortNumber,
    /// 0 in an empty slot: an eligible frame is at least 34 bytes long.
    len: u16,
    entry: u16,
}

impl Cached {
    const EMPTY: Cached = Cached {
        head: [0; CACHED_HEAD],
        in_port: 0,
        len: 0,
        entry: NO_MATCH,
    };
}

/// The cache key of `frame` — its head and length — when its
/// classification reads nothing else of it (and the length fits a
/// slot).
fn cache_key(frame: &[u8]) -> Option<(&[u8; CACHED_HEAD], u16)> {
    let head: &[u8; CACHED_HEAD] = frame.get(..CACHED_HEAD)?.try_into().ok()?;
    let eligible = head[12..15] == [0x08, 0x00, 0x45];
    Some((head, u16::try_from(frame.len()).ok()?)).filter(|_| eligible)
}

/// The slot a key maps to: a hash of the addresses, length and port,
/// which is what tells the flows crossing one switch apart.
fn cache_slot(in_port: PortNumber, len: u16, head: &[u8; CACHED_HEAD]) -> usize {
    let word = |at: usize| u32::from_be_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    let mix = word(30) ^ word(26).rotate_left(16) ^ u32::from(len) ^ (u32::from(in_port) << 24);
    (mix.wrapping_mul(0x9E37_79B1) >> (32 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// `nw_dst` with its `bits` low bits cleared.
fn masked(nw_dst: Ipv4Addr, bits: u32) -> u32 {
    (u64::from(u32::from(nw_dst)) >> bits << bits) as u32
}

impl FlowTable {
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    fn rebuild_order(&mut self) {
        let Self {
            entries,
            order,
            prefixes,
            runs,
            rest,
            dirty,
            cache,
            classified: _,
            cache_hits: _,
        } = self;
        // Entry indices are about to change.
        cache.fill(Cached::EMPTY);
        order.clear();
        order.extend(0..entries.len());
        order.sort_unstable_by(|&a, &b| (entries[b].priority, b).cmp(&(entries[a].priority, a)));
        prefixes.clear();
        rest.clear();
        for (rank, &i) in order.iter().enumerate() {
            let m = &entries[i].of_match;
            if m.dl_type() == EtherType::IPV4.0 {
                let (net, len) = m.nw_dst().unwrap_or((Ipv4Addr::UNSPECIFIED, 0));
                let bits = 32 - u32::from(len);
                prefixes.push((bits, masked(net, bits), rank as u32));
            } else {
                rest.push(rank as u32);
            }
        }
        prefixes.sort_unstable();
        runs.clear();
        let mut start = 0;
        for run in prefixes.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len() as u32;
            runs.push((run[0].0, start, end));
            start = end;
        }
        *dirty = false;
    }

    /// Rank of the first entry in the lookup order that matches `key`:
    /// an IPv4 key's from the prefix index, any other key's from the
    /// scan.
    fn best_rank(&self, key: &PacketKey) -> Option<u32> {
        if key.dl_type != EtherType::IPV4.0 {
            return self.rest.iter().copied().find(|&rank| {
                self.entries[self.order[rank as usize]]
                    .of_match
                    .matches(key)
            });
        }
        let mut best: Option<u32> = None;
        for &(bits, start, end) in &self.runs {
            let run = &self.prefixes[start as usize..end as usize];
            let probe = masked(key.nw_dst, bits);
            // Equal prefixes sort by rank: the first is the best.
            let at = run.partition_point(|&(_, prefix, _)| prefix < probe);
            if let Some(&(_, prefix, rank)) = run.get(at) {
                if prefix == probe && best.is_none_or(|b| rank < b) {
                    best = Some(rank);
                }
            }
        }
        best
    }

    /// Index in `entries` of the first entry in the lookup order that
    /// matches `key`.
    fn best(&self, key: &PacketKey) -> Option<usize> {
        self.best_rank(key).map(|rank| self.order[rank as usize])
    }

    /// Find the highest-priority entry matching `key`. The frame length
    /// and the time are not read: entries count no traffic.
    pub fn lookup(&mut self, key: &PacketKey, _len: usize, _now: Time) -> Option<&FlowEntry> {
        if self.dirty {
            self.rebuild_order();
        }
        self.best(key).map(|i| &self.entries[i])
    }

    /// Classify `frame`, received on `in_port`, and look it up, through
    /// the exact-match cache when the frame is eligible: `None` when it
    /// is too short for an Ethernet header, `Some(None)` on a table
    /// miss. Whatever answers, the entry found is the one `lookup` of
    /// `PacketKey::from_frame(in_port, frame)` would give.
    pub fn classify(&mut self, in_port: PortNumber, frame: &[u8]) -> Option<Option<&FlowEntry>> {
        if self.dirty {
            self.rebuild_order();
        }
        self.classified += 1;
        let cacheable = self.entries.len() < usize::from(NO_MATCH);
        let Some((head, len)) = cache_key(frame).filter(|_| cacheable) else {
            let key = PacketKey::from_frame(in_port, frame)?;
            return Some(self.best(&key).map(|i| &self.entries[i]));
        };
        if self.cache.is_empty() {
            self.cache = vec![Cached::EMPTY; CACHE_SLOTS].into_boxed_slice();
        }
        let slot = cache_slot(in_port, len, head);
        let cached = &self.cache[slot];
        let entry = if cached.len == len && cached.in_port == in_port && cached.head == *head {
            self.cache_hits += 1;
            cached.entry
        } else {
            let key = PacketKey::from_frame(in_port, frame)?;
            let entry = self.best(&key).map_or(NO_MATCH, |i| i as u16);
            self.cache[slot] = Cached {
                head: *head,
                in_port,
                len,
                entry,
            };
            entry
        };
        Some((entry != NO_MATCH).then(|| &self.entries[usize::from(entry)]))
    }

    /// Apply a FLOW_MOD: ADD, or DELETE_STRICT of the entry of identical
    /// match and priority. Returns the entries a delete removed, moved
    /// out of the table. The timeouts and the flags must be 0 and
    /// `out_port` `OFPP_NONE` (a switch refuses any other FLOW_MOD
    /// before it gets here), and `now` is not read: an entry neither
    /// expires nor remembers when it came.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_flow_mod(
        &mut self,
        command: FlowModCommand,
        of_match: OfMatch,
        priority: u16,
        cookie: u64,
        idle_timeout: u16,
        hard_timeout: u16,
        flags: u16,
        out_port: u16,
        actions: Vec<Action>,
        _now: Time,
    ) -> Vec<FlowEntry> {
        assert_eq!(
            (idle_timeout, hard_timeout, flags, out_port),
            (0, 0, 0, OFPP_NONE),
            "a flow entry has no timeout and no flags, and a delete filters by no port"
        );
        match command {
            FlowModCommand::Add => {
                self.add(of_match, priority, cookie, actions);
                Vec::new()
            }
            FlowModCommand::DeleteStrict => {
                let removed: Vec<FlowEntry> = self
                    .entries
                    .extract_if(.., |e| e.of_match == of_match && e.priority == priority)
                    .collect();
                if !removed.is_empty() {
                    self.dirty = true;
                }
                removed
            }
        }
    }

    /// Install an entry, replacing one of identical match and priority
    /// (OF 1.0 §4.6).
    fn add(&mut self, of_match: OfMatch, priority: u16, cookie: u64, actions: Vec<Action>) {
        self.entries
            .retain(|e| e.of_match != of_match || e.priority != priority);
        self.entries.push(FlowEntry {
            of_match,
            priority,
            cookie,
            actions,
        });
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_wire::MacAddr;
    use std::net::Ipv4Addr;

    fn key(dst: Ipv4Addr) -> PacketKey {
        PacketKey {
            in_port: 1,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(1, 1, 1, 1),
            nw_dst: dst,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    fn apply(t: &mut FlowTable, command: FlowModCommand, m: OfMatch, prio: u16, port: u16) {
        t.apply_flow_mod(
            command,
            m,
            prio,
            0,
            0,
            0,
            0,
            OFPP_NONE,
            vec![Action::output(port)],
            Time::ZERO,
        );
    }

    fn add(t: &mut FlowTable, m: OfMatch, prio: u16, port: u16) {
        apply(t, FlowModCommand::Add, m, prio, port);
    }

    fn delete_strict(t: &mut FlowTable, m: OfMatch, prio: u16) -> Vec<FlowEntry> {
        t.apply_flow_mod(
            FlowModCommand::DeleteStrict,
            m,
            prio,
            0,
            0,
            0,
            0,
            OFPP_NONE,
            vec![],
            Time::ZERO,
        )
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new();
        add(
            &mut t,
            OfMatch::ipv4_dst_prefix("10.0.0.0".parse().unwrap(), 8),
            10,
            1,
        );
        add(
            &mut t,
            OfMatch::ipv4_dst_prefix("10.2.0.0".parse().unwrap(), 16),
            20,
            2,
        );
        let e = t
            .lookup(&key("10.2.3.4".parse().unwrap()), 100, Time::ZERO)
            .unwrap();
        assert_eq!(e.actions, vec![Action::output(2)]);
        // Outside the /16, the /8 still matches.
        let e = t
            .lookup(&key("10.9.0.1".parse().unwrap()), 100, Time::ZERO)
            .unwrap();
        assert_eq!(e.actions, vec![Action::output(1)]);
    }

    #[test]
    fn miss_returns_none() {
        let mut t = FlowTable::new();
        add(&mut t, OfMatch::lldp(), 1, 1);
        assert!(t
            .lookup(&key("9.9.9.9".parse().unwrap()), 1, Time::from_secs(1))
            .is_none());
    }

    #[test]
    fn add_identical_replaces() {
        let mut t = FlowTable::new();
        add(&mut t, OfMatch::lldp(), 5, 1);
        add(&mut t, OfMatch::lldp(), 5, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].actions, vec![Action::output(2)]);
    }

    /// What a switch refuses never reaches the table.
    #[test]
    #[should_panic(expected = "a flow entry has no timeout and no flags")]
    fn a_timeout_is_not_installed() {
        let mut t = FlowTable::new();
        t.apply_flow_mod(
            FlowModCommand::Add,
            OfMatch::lldp(),
            1,
            0,
            0,
            5,
            0,
            OFPP_NONE,
            vec![],
            Time::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "a delete filters by no port")]
    fn an_out_port_filter_is_not_applied() {
        let mut t = FlowTable::new();
        add(&mut t, OfMatch::lldp(), 1, 2);
        t.apply_flow_mod(
            FlowModCommand::DeleteStrict,
            OfMatch::lldp(),
            1,
            0,
            0,
            0,
            0,
            2,
            vec![],
            Time::ZERO,
        );
    }

    #[test]
    fn delete_strict_requires_exact_match_and_priority() {
        let mut t = FlowTable::new();
        let m = OfMatch::ipv4_dst_prefix("10.1.0.0".parse().unwrap(), 16);
        add(&mut t, m, 7, 1);
        add(&mut t, OfMatch::lldp(), 7, 2);
        // Wrong priority, or a wider prefix: no-op.
        assert!(delete_strict(&mut t, m, 8).is_empty());
        let wider = OfMatch::ipv4_dst_prefix("10.0.0.0".parse().unwrap(), 8);
        assert!(delete_strict(&mut t, wider, 7).is_empty());
        assert_eq!(t.len(), 2);
        // Moved out whole.
        let removed = delete_strict(&mut t, m, 7);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].actions, [Action::output(1)]);
        assert_eq!(t.entries()[0].of_match, OfMatch::lldp());
        assert!(t
            .lookup(&key("10.1.2.3".parse().unwrap()), 64, Time::ZERO)
            .is_none());
    }

    /// A /0 route and an EtherType-only IPv4 entry match the same
    /// frames but are two entries: each is deleted by its own match.
    #[test]
    fn delete_strict_tells_a_default_route_from_an_ethertype_entry() {
        let default = OfMatch::ipv4_dst_prefix(Ipv4Addr::UNSPECIFIED, 0);
        let ipv4 = OfMatch::ethertype(0x0800);
        let mut t = FlowTable::new();
        add(&mut t, default, 7, 1);
        add(&mut t, ipv4, 7, 2);
        assert_eq!(t.len(), 2);
        let out = |t: &mut FlowTable| {
            t.lookup(&key("1.2.3.4".parse().unwrap()), 64, Time::ZERO)
                .map(|e| e.actions.clone())
        };
        assert_eq!(out(&mut t), Some(vec![Action::output(2)]), "the later one");
        assert_eq!(delete_strict(&mut t, ipv4, 7).len(), 1);
        assert_eq!(out(&mut t), Some(vec![Action::output(1)]));
        assert_eq!(t.entries()[0].of_match, default);
    }

    /// Keys that share a cache slot stay apart: the same head on another
    /// port, or cut to another length, is classified afresh. A cut
    /// inside the IP packet leaves the frame no address, so no route
    /// takes it; the other port is told apart by the hit count.
    #[test]
    fn cache_tells_keys_in_one_slot_apart() {
        use bytes::Bytes;
        use rf_wire::{EthernetFrame, IpProtocol, Ipv4Packet};
        let dst = Ipv4Addr::new(10, 1, 0, 7);
        let payload = Bytes::from(vec![0; 1000]);
        let ip = Ipv4Packet::new(Ipv4Addr::new(10, 2, 0, 9), dst, IpProtocol::UDP, payload);
        let frame = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::IPV4, ip.emit());
        let frame = frame.emit();
        let (head, len) = cache_key(&frame).expect("eligible");
        let slot = cache_slot(1, len, head);
        let port = (2..).find(|&p| cache_slot(p, len, head) == slot).unwrap();
        let cut = (34..len)
            .rev()
            .find(|&l| cache_slot(1, l, head) == slot)
            .unwrap();

        let mut t = FlowTable::new();
        add(&mut t, OfMatch::ipv4_dst_prefix(dst, 16), 1, 7);
        let mut out = |port, frame: &[u8]| {
            let matched = t.classify(port, frame).expect("an Ethernet header");
            matched.map(|e| e.actions.clone())
        };
        for _ in 0..2 {
            assert_eq!(out(1, &frame), Some(vec![Action::output(7)]));
            assert_eq!(out(1, &frame[..cut as usize]), None, "cut to {cut} bytes");
            assert_eq!(out(port, &frame), Some(vec![Action::output(7)]));
        }
        for _ in 0..2 {
            assert_eq!(out(1, &frame), Some(vec![Action::output(7)]));
        }
        assert_eq!(t.cache_hits, 1, "each key evicted the last; the repeat hit");
        assert_eq!(t.classified, 8);
    }

    /// The pre-index lookup semantics: linear scan, last maximal
    /// priority wins.
    fn reference_lookup(entries: &[FlowEntry], key: &PacketKey) -> Option<u64> {
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.of_match.matches(key))
            .max_by_key(|(i, e)| (e.priority, *i))
            .map(|(_, e)| e.cookie)
    }

    #[test]
    fn indexed_lookup_matches_linear_reference() {
        // Drive the real table through a random mix of adds, deletes
        // and lookups, checking every lookup against the
        // historical linear scan. Cookies are unique per install, so
        // "same entry" is checked exactly, not structurally.
        let (mut won_indexed, mut won_scanned, mut lens_seen) = (0u32, 0u32, 0u64);
        for seed in 1u64..=8 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = FlowTable::new();
            // Mostly IPv4 to a handful of destinations the installed
            // prefixes cover at several lengths; ARP (whose target IP no
            // IPv4 prefix may claim) and LLDP.
            let some_key = |r: u64| PacketKey {
                dl_type: match (r >> 8) % 8 {
                    0 => 0x0806,
                    1 => 0x88CC,
                    _ => 0x0800,
                },
                ..key(Ipv4Addr::new(
                    10,
                    (r % 2) as u8,
                    (r % 5) as u8,
                    1 + (r >> 16) as u8 % 6,
                ))
            };
            for step in 0..2500u64 {
                let now = Time::from_secs(step / 100);
                match rng() % 10 {
                    0..=3 => {
                        // Install assorted shapes, colliding priorities
                        // on purpose.
                        let r = rng();
                        let dst = some_key(rng()).nw_dst;
                        let len = [0u8, 8, 16, 24, 30, 32][(r >> 8) as usize % 6];
                        let mut priority = (rng() % 4) as u16;
                        let m = match r % 8 {
                            0 => OfMatch::ethertype(0x0800),
                            1 => OfMatch::ipv4_dst_prefix(dst, len),
                            2 => {
                                // As the apps install them: a route at
                                // its length's priority, a host /32
                                // above the route /32 to the same
                                // address.
                                priority = match (r >> 16) % 3 {
                                    0 => 0x2000,
                                    _ => 0x1000 + u16::from(len) * 8,
                                };
                                let len = if priority == 0x2000 { 32 } else { len };
                                OfMatch::ipv4_dst_prefix(dst, len)
                            }
                            3 => OfMatch::ipv4_dst_prefix(dst, 0),
                            4 => OfMatch::arp(),
                            5 => OfMatch::ipv4_dst_prefix(
                                Ipv4Addr::new(10, (r >> 8) as u8 % 2, 0, 0),
                                16,
                            ),
                            _ => OfMatch::lldp(),
                        };
                        t.apply_flow_mod(
                            FlowModCommand::Add,
                            m,
                            priority,
                            step + 1, // unique cookie
                            0,
                            0,
                            0,
                            OFPP_NONE,
                            vec![Action::output((rng() % 4) as u16)],
                            now,
                        );
                    }
                    4 if !t.is_empty() => {
                        let victim = &t.entries()[rng() as usize % t.len()];
                        let (m, priority) = (victim.of_match, victim.priority);
                        assert_eq!(delete_strict(&mut t, m, priority).len(), 1);
                    }
                    _ => {
                        let key = some_key(rng());
                        let expected = reference_lookup(t.entries(), &key);
                        let got = t.lookup(&key, 64, now).map(|e| (e.cookie, e.of_match));
                        assert_eq!(got.map(|g| g.0), expected, "seed {seed} step {step}");
                        match got.map(|g| g.1.dl_type()) {
                            Some(0x0800) => won_indexed += 1,
                            Some(_) => won_scanned += 1,
                            None => {}
                        }
                        lens_seen |= t.runs.iter().fold(0, |m, r| m | 1 << r.0);
                    }
                }
            }
        }
        // The generator reached what it was widened for: every length
        // filed at some point, and winners from both halves.
        let all_lens = [0u64, 2, 8, 16, 24, 32].iter().fold(0, |m, b| m | 1 << b);
        assert_eq!(lens_seen, all_lens);
        assert!(
            won_indexed > 500 && won_scanned > 500,
            "{won_indexed} / {won_scanned}"
        );
    }
}
