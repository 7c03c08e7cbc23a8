//! RAM-structure timing: direct-mapped and set-associative arrays with an
//! organization search over sub-array partitionings.

use fo4depth_fo4::Fo4;

use crate::model::{log2f, AccessBreakdown, Coefficients};

/// Description of a RAM-like storage structure (cache, register file,
/// predictor table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramConfig {
    /// Number of addressable entries (sets, for a cache).
    pub entries: u64,
    /// Bits read per entry per access (the line or word width).
    pub bits_per_entry: u32,
    /// Associativity; 1 for direct-mapped / untagged structures.
    pub associativity: u32,
    /// Whether the structure has a tag path (caches do, register files and
    /// predictor tables do not).
    pub tagged: bool,
    /// Tag width in bits (ignored when untagged).
    pub tag_bits: u32,
    /// Total read + write ports.
    pub ports: u32,
}

impl SramConfig {
    /// A cache of `capacity_bytes` with `associativity` ways and
    /// `line_bytes` lines (single-ported).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity is not a multiple of
    /// `associativity × line_bytes`.
    #[must_use]
    pub fn cache(capacity_bytes: u64, associativity: u32, line_bytes: u32) -> Self {
        assert!(capacity_bytes > 0 && associativity > 0 && line_bytes > 0);
        let set_bytes = u64::from(associativity) * u64::from(line_bytes);
        assert!(
            capacity_bytes.is_multiple_of(set_bytes),
            "capacity must be a whole number of sets"
        );
        let sets = capacity_bytes / set_bytes;
        Self {
            entries: sets,
            bits_per_entry: line_bytes * 8,
            associativity,
            tagged: true,
            // 44-bit physical address minus index and offset bits; clamp low.
            tag_bits: (44_i64 - log2f(sets as f64) as i64 - log2f(f64::from(line_bytes)) as i64)
                .max(8) as u32,
            ports: 1,
        }
    }

    /// An untagged direct RAM (register file, predictor, rename map).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn ram(entries: u64, bits_per_entry: u32, ports: u32) -> Self {
        assert!(entries > 0 && bits_per_entry > 0 && ports > 0);
        Self {
            entries,
            bits_per_entry,
            associativity: 1,
            tagged: false,
            tag_bits: 0,
            ports,
        }
    }

    /// Total storage in kilobits (data only).
    #[must_use]
    pub fn kilobits(&self) -> f64 {
        self.entries as f64 * f64::from(self.bits_per_entry) * f64::from(self.associativity)
            / 1024.0
    }
}

/// A sub-array partitioning: `ndwl` column slices, `ndbl` row slices, and
/// `nspd` sets mapped into one physical row (Cacti's organization
/// parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Organization {
    /// Number of wordline (column) divisions.
    pub ndwl: u32,
    /// Number of bitline (row) divisions.
    pub ndbl: u32,
    /// Sets packed per physical row (reshapes skinny arrays).
    pub nspd: u32,
}

impl Organization {
    /// The candidate organizations searched, mirroring Cacti's small
    /// power-of-two space.
    #[must_use]
    pub fn candidates() -> Vec<Organization> {
        let mut out = Vec::new();
        for &ndwl in &[1u32, 2, 4, 8, 16] {
            for &ndbl in &[1u32, 2, 4, 8, 16, 32] {
                for &nspd in &[1u32, 2, 4, 8, 16, 32] {
                    out.push(Organization { ndwl, ndbl, nspd });
                }
            }
        }
        out
    }
}

/// Result of the organization search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramTiming {
    /// Access time of the best organization.
    pub total: Fo4,
    /// Stage-by-stage breakdown.
    pub breakdown: AccessBreakdown,
    /// The organization that won.
    pub organization: Organization,
}

/// Computes the access time of `cfg` under one specific organization.
#[must_use]
pub fn access_time_with(cfg: &SramConfig, org: Organization, k: &Coefficients) -> AccessBreakdown {
    let rows_total = (cfg.entries as f64 / f64::from(org.nspd)).max(1.0);
    let cols_total =
        f64::from(cfg.bits_per_entry) * f64::from(cfg.associativity) * f64::from(org.nspd);

    let rows_sub = (rows_total / f64::from(org.ndbl)).max(1.0);
    let cols_sub = (cols_total / f64::from(org.ndwl)).max(1.0);

    // Multi-porting grows the cell in both dimensions, lengthening wordlines
    // and bitlines alike.
    let port_factor = 1.0 + k.port_growth * (f64::from(cfg.ports) - 1.0);
    let port_factor_out = 1.0 + k.port_growth_output * (f64::from(cfg.ports) - 1.0);

    let subarrays = f64::from(org.ndwl * org.ndbl);
    let decode = k.decode_base
        + k.decode_per_log_row * log2f(rows_sub)
        + k.decode_per_log_subarray * log2f(subarrays);
    // Distributed-RC wordline: slightly super-linear in length.
    let wl_len = cols_sub * port_factor / 64.0;
    let wordline = k.wordline_per_64_cols * wl_len * (1.0 + k.wordline_quad * wl_len);
    // Bitline: linear in rows (capacitance-dominated discharge).
    let bitline = k.bitline_per_64_rows * (rows_sub * port_factor / 64.0);
    let sense = k.sense_amp;
    let tag_path = if cfg.tagged {
        k.tag_base
            + k.compare_per_log_bit * log2f(f64::from(cfg.tag_bits))
            + k.mux_per_log_assoc * log2f(f64::from(cfg.associativity))
    } else {
        0.0
    };
    // Global H-tree: grows with total capacity; narrow read-out widths need
    // less routed wiring than full cache lines.
    let width_factor = 0.4 + 0.6 * (f64::from(cfg.bits_per_entry).min(512.0) / 512.0);
    let output = k.output_route
        * cfg.kilobits().max(1.0).powf(k.output_exponent)
        * width_factor
        * port_factor_out
        + k.nspd_mux * log2f(f64::from(org.nspd));

    AccessBreakdown {
        decode: Fo4::new(decode),
        wordline: Fo4::new(wordline),
        bitline: Fo4::new(bitline),
        sense: Fo4::new(sense),
        tag_path: Fo4::new(tag_path),
        output: Fo4::new(output),
    }
}

/// Searches organizations and returns the fastest access time.
///
/// # Examples
///
/// ```
/// use fo4depth_cacti::{access_time, SramConfig};
/// let small = access_time(&SramConfig::cache(16 * 1024, 2, 64));
/// let large = access_time(&SramConfig::cache(256 * 1024, 2, 64));
/// assert!(small.total < large.total);
/// ```
#[must_use]
pub fn access_time(cfg: &SramConfig) -> SramTiming {
    access_time_k(cfg, &Coefficients::default())
}

/// [`access_time`] with explicit model coefficients.
#[must_use]
pub fn access_time_k(cfg: &SramConfig, k: &Coefficients) -> SramTiming {
    let mut best: Option<SramTiming> = None;
    for org in Organization::candidates() {
        // Skip degenerate partitionings that would split below one row.
        if f64::from(org.ndbl * org.nspd) > cfg.entries as f64 {
            continue;
        }
        let breakdown = access_time_with(cfg, org, k);
        let total = breakdown.total();
        if best.is_none_or(|b| total < b.total) {
            best = Some(SramTiming {
                total,
                breakdown,
                organization: org,
            });
        }
    }
    best.expect("organization search is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_time_monotone_in_capacity() {
        let mut last = 0.0;
        for kb in [8u64, 16, 32, 64, 128, 256, 512, 1024, 2048] {
            let t = access_time(&SramConfig::cache(kb * 1024, 2, 64))
                .total
                .get();
            assert!(t > last, "{kb} KB: {t} not > {last}");
            last = t;
        }
    }

    #[test]
    fn ports_slow_the_array() {
        let one = access_time(&SramConfig::ram(512, 64, 1)).total;
        let many = access_time(&SramConfig::ram(512, 64, 12)).total;
        assert!(many.get() > one.get() * 1.1);
    }

    #[test]
    fn tags_cost_time() {
        let tagged = SramConfig::cache(64 * 1024, 2, 64);
        let mut untagged = tagged;
        untagged.tagged = false;
        let t1 = access_time(&tagged).total;
        let t0 = access_time(&untagged).total;
        assert!(t1 > t0);
    }

    #[test]
    fn search_beats_monolithic_for_big_arrays() {
        let cfg = SramConfig::cache(2 * 1024 * 1024, 1, 64);
        let k = Coefficients::default();
        let best = access_time(&cfg);
        let mono = access_time_with(
            &cfg,
            Organization {
                ndwl: 1,
                ndbl: 1,
                nspd: 1,
            },
            &k,
        );
        assert!(best.total < mono.total());
    }

    #[test]
    fn nspd_reshapes_skinny_arrays() {
        // A 4096 × 2-bit predictor table is pathologically tall; the search
        // should pack multiple entries per row.
        let cfg = SramConfig::ram(4096, 2, 1);
        let best = access_time(&cfg);
        assert!(best.organization.nspd > 1, "org {:?}", best.organization);
    }

    #[test]
    fn cache_constructor_validates() {
        let c = SramConfig::cache(64 * 1024, 2, 64);
        assert_eq!(c.entries, 512);
        assert_eq!(c.bits_per_entry, 512);
        assert!(c.tagged);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn cache_rejects_ragged_capacity() {
        let _ = SramConfig::cache(1000, 3, 64);
    }

    #[test]
    fn kilobits_accounts_for_ways() {
        let c = SramConfig::cache(64 * 1024, 2, 64);
        assert!((c.kilobits() - 512.0).abs() < 1e-9);
    }
}
