//! VM / Quagga lifecycle: provisions one container per detected switch,
//! mirrors physical links in the virtual interconnect, and (re)writes
//! each VM's routing configuration files.

use super::bus::{AppCtx, ControlEvent, LinkChange, SwitchRec};
use super::channel::VmSendOutcome;
use crate::vnet::rfproto::RfMessage;
use crate::vnet::vm::VmAgent;
use rf_routed::config::VmRouterConfig;
use std::collections::{BTreeSet, VecDeque};

/// Paper §2: "the RPC server creates a VM with an ID identical to the
/// switch ID and the number of ports equivalent to the switch ports."
/// Creation is queued and at most `provision_width` containers are in
/// flight at once. The paper-faithful default of 1 reproduces the
/// serial rftest pipeline — what makes automatic configuration time
/// grow with switch count in Fig. 3; wider pipelines overlap the
/// create/boot latency and flatten that curve. Completion is tracked
/// on the event bus: each [`ControlEvent::VmUp`] retires its dpid from
/// the in-flight set and tops the pipeline back up, so there is no
/// lockstep sequencing anywhere.
#[derive(Clone, Default)]
pub(crate) struct VmLifecycle {
    vm_queue: VecDeque<(u64, u16)>,
    /// Dpids whose VM was spawned but has not reported `VmUp` yet.
    in_flight: BTreeSet<u64>,
}

impl VmLifecycle {
    /// Provision queued VMs until the pipeline holds `provision_width`
    /// in-flight creations (FIFO, so spawn order — and therefore the
    /// whole run — stays deterministic at any width).
    fn fill_pipeline(&mut self, cx: &mut AppCtx<'_, '_>) {
        let width = cx.config.provision_width.max(1);
        while self.in_flight.len() < width {
            let Some((dpid, num_ports)) = self.vm_queue.pop_front() else {
                return;
            };
            let controller = cx.sim.self_id();
            let boot_delay = cx.config.vm_boot_delay;
            let vm = cx.sim.spawn(
                &format!("vm-{dpid:x}"),
                Box::new(VmAgent::new(dpid, controller, boot_delay)),
            );
            self.in_flight.insert(dpid);
            cx.state.switches.insert(
                dpid,
                SwitchRec {
                    num_ports,
                    vm: Some(vm),
                    vm_conn: None,
                    configured_at: None,
                },
            );
            cx.raise(ControlEvent::VmSpawned);
        }
    }

    /// Regenerate and push this VM's configuration files — "the RPC
    /// server writes routing configuration files (e.g. ospf.conf,
    /// zebra.conf, bgp.conf) using the information present in the
    /// configuration message" (§2).
    fn push_configs(&self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        let Some(rec) = cx.state.switches.get(&dpid) else {
            return;
        };
        if rec.vm_conn.is_none() {
            return; // VM not booted yet; configs sent on VmUp
        }
        let ifaces = cx.state.vm_interfaces(cx.config, dpid);
        let cfg = VmRouterConfig::generate_with_timers(
            dpid,
            &ifaces,
            cx.config.ospf_hello,
            cx.config.ospf_dead,
        );
        let (zebra, ospf, bgp) = cfg.render_all();
        match cx.send_to_vm(dpid, RfMessage::WriteConfigs { zebra, ospf, bgp }) {
            VmSendOutcome::Delivered => cx.sim.count("rf.configs_written", 1),
            // Unreachable given the guard above, but the outcome is
            // consumed explicitly: a deferred config push is re-sent by
            // the next `VmUp` (the engine re-raises it on reconnect).
            VmSendOutcome::Deferred => cx.sim.count("rf.configs_deferred", 1),
        }
    }

    pub(crate) fn on_switch_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64, num_ports: u16) {
        if cx.state.switches.contains_key(&dpid) || self.vm_queue.iter().any(|(d, _)| *d == dpid) {
            return;
        }
        self.vm_queue.push_back((dpid, num_ports));
        self.fill_pipeline(cx);
    }

    pub(crate) fn on_switch_down(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        if let Some(rec) = cx.state.switches.remove(&dpid) {
            if let Some(vm) = rec.vm {
                cx.sim.kill(vm);
            }
        }
        self.vm_queue.retain(|(d, _)| *d != dpid);
        if self.in_flight.remove(&dpid) {
            self.fill_pipeline(cx);
        }
    }

    pub(crate) fn on_link(&mut self, cx: &mut AppCtx<'_, '_>, change: LinkChange) {
        match change {
            LinkChange::Up { a, b } => {
                let (Some(va), Some(vb)) = (
                    cx.state.switches.get(&a.0).and_then(|s| s.vm),
                    cx.state.switches.get(&b.0).and_then(|s| s.vm),
                ) else {
                    return; // bridge only raises Up once both exist
                };
                // Mirror the physical link in the virtual environment.
                let profile = cx.config.vm_link_profile;
                let sim_link = cx
                    .sim
                    .add_link((va, u32::from(a.1)), (vb, u32::from(b.1)), profile);
                if let Some(rec) = cx.state.links.iter_mut().find(|l| l.a == a && l.b == b) {
                    rec.sim_link = Some(sim_link);
                }
                // Rewrite both VMs' configuration files.
                self.push_configs(cx, a.0);
                self.push_configs(cx, b.0);
            }
            LinkChange::Down { a, b, sim_link } => {
                if let Some(l) = sim_link {
                    cx.sim.remove_link(l);
                }
                self.push_configs(cx, a.0);
                self.push_configs(cx, b.0);
            }
        }
    }

    pub(crate) fn on_vm_up(&mut self, cx: &mut AppCtx<'_, '_>, dpid: u64) {
        let now = cx.sim.now();
        if let Some(rec) = cx.state.switches.get_mut(&dpid) {
            // The GUI's red → green transition.
            rec.configured_at.get_or_insert(now);
        }
        self.push_configs(cx, dpid);
        // The creation pipeline retires this dpid and tops back up.
        if self.in_flight.remove(&dpid) {
            self.fill_pipeline(cx);
        }
    }
}
