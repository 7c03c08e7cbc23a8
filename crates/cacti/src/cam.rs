//! CAM-structure timing: the wakeup path of an instruction issue window and
//! the lookup path of a rename map.
//!
//! Follows the decomposition of Palacharla, Jouppi & Smith
//! (*Complexity-Effective Superscalar Processors*): the wakeup delay is
//! **tag broadcast** (a wire spanning the window, whose delay grows with the
//! physical span it crosses) plus **tag match** (a comparator over the tag
//! bits) plus the **match OR** that reduces per-bit matches into a ready
//! signal. Their key observation — that broadcast dominates at 180 nm and
//! below — is what motivates the paper's segmented window, and it falls out
//! of these coefficients too.

use fo4depth_fo4::Fo4;

use crate::model::{log2f, AccessBreakdown, Coefficients};
use crate::sram::{Organization, SramTiming};

/// Description of a CAM-like structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamConfig {
    /// Number of entries the broadcast must reach.
    pub entries: u32,
    /// Width of the compared tag in bits.
    pub tag_bits: u32,
    /// Physical height of one entry in bits (sets the broadcast wire span;
    /// an issue-window slot is much taller than a rename-map entry).
    pub entry_bits: u32,
    /// Number of simultaneous broadcast/lookup ports.
    pub broadcast_ports: u32,
}

impl CamConfig {
    /// An instruction issue window: `entries` slots, physical-register tags,
    /// `issue_width` result buses broadcast per cycle.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn issue_window(entries: u32, issue_width: u32) -> Self {
        assert!(entries > 0 && issue_width > 0);
        Self {
            entries,
            tag_bits: 8, // 256 physical registers
            entry_bits: 64,
            broadcast_ports: issue_width,
        }
    }

    /// A register rename map queried associatively.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn rename_map(entries: u32, lookup_width: u32) -> Self {
        assert!(entries > 0 && lookup_width > 0);
        Self {
            entries,
            tag_bits: 6, // architectural register names
            entry_bits: 12,
            broadcast_ports: lookup_width,
        }
    }
}

/// Computes the wakeup/lookup time of a CAM.
///
/// # Examples
///
/// ```
/// use fo4depth_cacti::{cam_access_time, CamConfig};
/// let small = cam_access_time(&CamConfig::issue_window(16, 4));
/// let large = cam_access_time(&CamConfig::issue_window(64, 4));
/// assert!(small.total < large.total);
/// ```
#[must_use]
pub fn cam_access_time(cfg: &CamConfig) -> SramTiming {
    cam_access_time_k(cfg, &Coefficients::default())
}

/// [`cam_access_time`] with explicit coefficients.
#[must_use]
pub fn cam_access_time_k(cfg: &CamConfig, k: &Coefficients) -> SramTiming {
    // Broadcast wire spans all entries; more ports widen every cell, and
    // taller entries stretch the wire.
    let port_factor = 1.0 + k.cam_port_growth * (f64::from(cfg.broadcast_ports) - 1.0);
    let height_factor = (f64::from(cfg.entry_bits) / 64.0).sqrt();
    let span = f64::from(cfg.entries) * port_factor * height_factor / 8.0;
    let broadcast = k.cam_broadcast * span.max(1e-6).powf(k.cam_exponent);
    // Comparators work in parallel; delay grows with tag width only.
    let compare = k.compare_per_log_bit * log2f(f64::from(cfg.tag_bits)) + 0.6;
    // OR-tree over per-bit match lines plus ready-signal drive.
    let or_tree = k.cam_or_per_log_bit * log2f(f64::from(cfg.tag_bits)) + 0.4;

    let breakdown = AccessBreakdown {
        decode: Fo4::ZERO,
        wordline: Fo4::new(broadcast),
        bitline: Fo4::ZERO,
        sense: Fo4::ZERO,
        tag_path: Fo4::new(compare + or_tree),
        output: Fo4::new(0.4),
    };
    SramTiming {
        total: breakdown.total(),
        breakdown,
        organization: Organization {
            ndwl: 1,
            ndbl: 1,
            nspd: 1,
        },
    }
}

/// Wakeup time when the window is segmented into `stages` equal pieces and
/// the broadcast only spans one piece per cycle (the paper's Figure 10).
///
/// Returns the per-cycle critical path — the quantity that must fit in one
/// clock — not the multi-cycle traversal.
///
/// # Panics
///
/// Panics if `stages` is zero or exceeds the entry count.
#[must_use]
pub fn segmented_wakeup_time(cfg: &CamConfig, stages: u32) -> SramTiming {
    assert!(stages > 0 && stages <= cfg.entries, "invalid stage count");
    let per_stage = CamConfig {
        entries: cfg.entries.div_ceil(stages),
        ..*cfg
    };
    // One extra latch-to-wire hop to forward the tags to the next stage.
    let mut t = cam_access_time(&per_stage);
    t.breakdown.output += Fo4::new(0.3);
    t.total = t.breakdown.total();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_dominates_for_large_windows() {
        // Palacharla et al.: tag broadcast is the dominant component for
        // big windows at small feature sizes.
        let t = cam_access_time(&CamConfig::issue_window(64, 4));
        assert!(t.breakdown.wordline.get() > t.breakdown.tag_path.get());
    }

    #[test]
    fn segmentation_shortens_the_cycle() {
        let cfg = CamConfig::issue_window(32, 4);
        let whole = cam_access_time(&cfg).total;
        let halves = segmented_wakeup_time(&cfg, 2).total;
        let quarters = segmented_wakeup_time(&cfg, 4).total;
        assert!(halves < whole);
        assert!(quarters < halves);
        // Four-way segmentation should cut the wakeup critical path by a
        // useful margin — the premise of §5.
        assert!(quarters.get() < whole.get() * 0.8);
    }

    #[test]
    fn ports_lengthen_broadcast() {
        let narrow = cam_access_time(&CamConfig::issue_window(32, 1)).total;
        let wide = cam_access_time(&CamConfig::issue_window(32, 8)).total;
        assert!(wide > narrow);
    }

    #[test]
    fn window_latency_grows_slowly_with_entries() {
        // §4.5 picks a 64-entry window at only one cycle more than (or equal
        // to) the 32-entry window at the optimal clock: latency grows
        // sublinearly.
        let t32 = cam_access_time(&CamConfig::issue_window(32, 4)).total.get();
        let t64 = cam_access_time(&CamConfig::issue_window(64, 4)).total.get();
        assert!(t64 > t32);
        assert!(t64 < t32 * 1.4, "t64 {t64} vs t32 {t32}");
    }

    #[test]
    #[should_panic(expected = "invalid stage count")]
    fn segmented_rejects_zero_stages() {
        let _ = segmented_wakeup_time(&CamConfig::issue_window(32, 4), 0);
    }
}
