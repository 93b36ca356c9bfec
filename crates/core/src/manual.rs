//! The manual-configuration time model from the paper.
//!
//! §2.1: "In manual configurations, we assume that the administrator
//! takes 5 minutes in creating a VM (writing VM configurations,
//! installing Linux distributions and packages like Quagga), 2 minutes
//! in creating mapping between switch interfaces and VM interfaces, and
//! 8 minutes in writing routing configurations for a VM." — 15 minutes
//! per switch, serially. The intro derives "typically 7 hours for 28
//! switches" and "many days" for 1000 from the same model.

use std::time::Duration;

/// Creating a VM (write configs, install distro + Quagga).
pub const VM_CREATION: Duration = Duration::from_secs(5 * 60);
/// Mapping switch interfaces ↔ VM interfaces.
pub const INTERFACE_MAPPING: Duration = Duration::from_secs(2 * 60);
/// Writing the routing configuration files.
pub const ROUTING_CONFIG: Duration = Duration::from_secs(8 * 60);
/// Time to configure one switch.
pub const PER_SWITCH: Duration = VM_CREATION
    .saturating_add(INTERFACE_MAPPING)
    .saturating_add(ROUTING_CONFIG);

/// Total manual configuration time for `n` switches (serial: one
/// administrator, as in the paper).
pub fn total(n: usize) -> Duration {
    PER_SWITCH * n as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_is_15_minutes_per_switch() {
        assert_eq!(PER_SWITCH, Duration::from_secs(15 * 60));
    }

    #[test]
    fn twenty_eight_switches_take_seven_hours() {
        // The intro's headline number: "typically 7 hours for 28
        // switches".
        assert_eq!(total(28), Duration::from_secs(7 * 3600));
    }

    #[test]
    fn thousand_switches_take_days() {
        // "For a large topology (typically for 1000 switches), it may
        // take many days": 15 min × 1000 = 250 h ≈ 10.4 days.
        let days = total(1000).as_secs_f64() / 86_400.0;
        assert!(days > 10.0 && days < 11.0, "{days} days");
    }
}
