//! Capacity scaling presets.
//!
//! Normalized results are driven by hit-rate structure, i.e. by capacity
//! *ratios* (footprint : DRAM-cache : LLC), not absolute sizes (see
//! DESIGN.md §5). Each preset divides the paper's Table 2/3 capacities and
//! the workload footprints by a common factor while leaving line and page
//! sizes untouched.

use memsim_workloads::Class;

/// A coherent set of cache geometries, capacity divisors, and the workload
/// class to pair with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L3 capacity in bytes.
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: u32,
    /// Cache line size in bytes (all SRAM levels).
    pub line_bytes: u32,
    /// Divisor applied to the Table 2/3 eDRAM/HMC and DRAM-cache capacities.
    pub capacity_divisor: u64,
    /// Associativity of the added eDRAM/HMC/DRAM-cache level.
    pub l4_ways: u32,
    /// Factor between this scale's workload footprints and the paper's
    /// (static-power representation of the main memory; see
    /// `design::represented_bytes`).
    pub footprint_multiplier: u64,
    /// Workload size class this scale is calibrated for.
    pub class: Class,
}

impl Scale {
    /// Resolve a preset by name (`mini`, `demo` or `paper`) — the grammar
    /// of the CLI's `--scale` and the server's job spec.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "mini" => Ok(Scale::mini()),
            "demo" => Ok(Scale::demo()),
            "paper" => Ok(Scale::paper()),
            other => Err(format!("unknown scale '{other}'")),
        }
    }

    /// The paper's exact geometry: L1 32 KB/8w, L2 256 KB/8w, L3 20 MB/20w,
    /// 64 B lines, unscaled Table 2/3 capacities, `Class::Large` workloads.
    /// Usable, but a full experiment grid takes hours.
    pub fn paper() -> Self {
        Self {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l2_bytes: 256 << 10,
            l2_ways: 8,
            l3_bytes: 20 << 20,
            l3_ways: 20,
            line_bytes: 64,
            capacity_divisor: 1,
            l4_ways: 16,
            // Class::Large footprints are still ~1/8 of the paper's
            footprint_multiplier: 8,
            class: Class::Large,
        }
    }

    /// Figure-regeneration scale: capacities ÷ 32 (L3 640 KB, eDRAM 512 KB,
    /// DRAM cache 4–16 MB) against `Class::Demo` footprints (25–128 MiB),
    /// preserving the paper's footprint : capacity ratios.
    pub fn demo() -> Self {
        Self {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l2_bytes: 256 << 10,
            l2_ways: 8,
            l3_bytes: (20 << 20) / 32,
            l3_ways: 20,
            line_bytes: 64,
            capacity_divisor: 32,
            l4_ways: 16,
            footprint_multiplier: 32,
            class: Class::Demo,
        }
    }

    /// Smoke-test scale for unit tests and Criterion runs: capacities ÷ 64
    /// against `Class::Mini` footprints. Ratios are compressed (footprints
    /// shrink faster than capacities) so every level still sees traffic,
    /// but runs take milliseconds.
    pub fn mini() -> Self {
        Self {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l2_bytes: 128 << 10,
            l2_ways: 8,
            l3_bytes: (20 << 20) / 64,
            l3_ways: 20,
            line_bytes: 64,
            capacity_divisor: 64,
            l4_ways: 16,
            // Mini footprints are ~1/256 of the paper's while cache
            // capacities are only 1/64: ratios are compressed for speed
            footprint_multiplier: 256,
            class: Class::Mini,
        }
    }

    /// Scale a Table 2/3 capacity (given in bytes at paper scale).
    pub fn scaled_capacity(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.capacity_divisor)
            .max(u64::from(self.line_bytes) * u64::from(self.l4_ways))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_pyramids() {
        for s in [Scale::paper(), Scale::demo(), Scale::mini()] {
            assert!(s.l1_bytes < s.l2_bytes);
            assert!(s.l2_bytes < s.l3_bytes);
            assert!(s.line_bytes == 64);
        }
    }

    #[test]
    fn paper_scale_matches_reference_system() {
        let s = Scale::paper();
        assert_eq!(s.l1_bytes, 32 * 1024);
        assert_eq!(s.l2_bytes, 256 * 1024);
        assert_eq!(s.l3_bytes, 20 * 1024 * 1024);
        assert_eq!((s.l1_ways, s.l2_ways, s.l3_ways), (8, 8, 20));
        assert_eq!(s.capacity_divisor, 1);
    }

    #[test]
    fn scaled_capacity_divides_and_floors() {
        let s = Scale::demo();
        assert_eq!(s.scaled_capacity(512 << 20), 16 << 20);
        assert_eq!(s.scaled_capacity(16 << 20), 512 << 10);
        // never below one set's worth
        assert_eq!(s.scaled_capacity(1024), 64 * 16);
    }

    #[test]
    fn set_counts_stay_power_of_two() {
        use memsim_cache::CacheConfig;
        for s in [Scale::paper(), Scale::demo(), Scale::mini()] {
            CacheConfig::new("L1", s.l1_bytes, s.line_bytes, s.l1_ways).validate();
            CacheConfig::new("L2", s.l2_bytes, s.line_bytes, s.l2_ways).validate();
            CacheConfig::new("L3", s.l3_bytes, s.line_bytes, s.l3_ways).validate();
        }
    }
}
