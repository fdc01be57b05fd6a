//! Scheme configuration: baseline, static super block, and the dynamic
//! (PrORAM) variants evaluated in the paper.

use std::fmt;

/// How merge decisions are thresholded (paper Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// Never merge (baseline ORAM, or the static scheme where grouping is
    /// fixed at initialization).
    Off,
    /// Static thresholding: merge two size-`n` neighbors when their merge
    /// counter reaches `2n`.
    Static,
    /// Adaptive thresholding: Equation 1.
    Adaptive,
}

/// How break decisions are thresholded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakPolicy {
    /// Never break (the `*_nb` variants of Figure 6b).
    Off,
    /// Static thresholding: break when the break counter falls below 0.
    Static,
    /// Adaptive thresholding: Equation 1.
    Adaptive,
}

/// Full configuration of a super-block scheme.
///
/// # Examples
///
/// ```
/// use proram_core::SchemeConfig;
///
/// let dynamic = SchemeConfig::dynamic(2);
/// assert_eq!(dynamic.label(), "dyn");
/// let stat = SchemeConfig::static_scheme(2);
/// assert_eq!(stat.label(), "stat");
/// assert_eq!(SchemeConfig::baseline().label(), "oram");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    /// Maximum super-block size (paper Table 1 default: 2; Figure 7
    /// sweeps 2/4/8). `1` disables super blocks entirely.
    pub max_sbsize: u64,
    /// Merge thresholding.
    pub merge: MergePolicy,
    /// Break thresholding.
    pub brk: BreakPolicy,
    /// Merge coefficient `C_merge` in Equation 1 (Figure 10 sweeps it).
    pub c_merge: f64,
    /// Break coefficient `C_break` in Equation 1.
    pub c_break: f64,
    /// Size of the aligned groups pre-merged at initialization. The
    /// static super block scheme sets this equal to `max_sbsize`; the
    /// dynamic scheme "does not merge blocks during Path ORAM
    /// initialization" and leaves it at 1.
    pub static_init_size: u64,
    /// Member spacing of super blocks in block addresses (power of two).
    /// `1` is the paper's contiguous scheme; larger values implement the
    /// *strided super blocks* the paper leaves as future work (Section
    /// 6.2), capturing workloads whose spatial locality strides across
    /// the address space (matrix columns, transposes).
    pub stride: u64,
}

impl SchemeConfig {
    /// The `oram` baseline: no super blocks.
    pub fn baseline() -> Self {
        SchemeConfig {
            max_sbsize: 1,
            merge: MergePolicy::Off,
            brk: BreakPolicy::Off,
            c_merge: 1.0,
            c_break: 1.0,
            static_init_size: 1,
            stride: 1,
        }
    }

    /// The static super block scheme (`stat`) of Section 3.3 with
    /// super-block size `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two.
    pub fn static_scheme(n: u64) -> Self {
        assert!(
            n.is_power_of_two(),
            "super block size must be a power of two"
        );
        SchemeConfig {
            max_sbsize: n,
            static_init_size: n,
            ..SchemeConfig::baseline()
        }
    }

    /// PrORAM (`dyn`): dynamic super blocks with adaptive merge and break
    /// thresholds, maximum size `max`.
    ///
    /// # Panics
    ///
    /// Panics unless `max` is a power of two.
    pub fn dynamic(max: u64) -> Self {
        assert!(
            max.is_power_of_two(),
            "max super block size must be a power of two"
        );
        SchemeConfig {
            max_sbsize: max,
            merge: MergePolicy::Adaptive,
            brk: BreakPolicy::Adaptive,
            ..SchemeConfig::baseline()
        }
    }

    /// The `sm_nb` variant of Figure 6b: static merging, no breaking.
    pub fn static_merge_no_break(max: u64) -> Self {
        SchemeConfig {
            merge: MergePolicy::Static,
            brk: BreakPolicy::Off,
            ..SchemeConfig::dynamic(max)
        }
    }

    /// The `am_nb` variant of Figure 6b: adaptive merging, no breaking.
    pub fn adaptive_merge_no_break(max: u64) -> Self {
        SchemeConfig {
            brk: BreakPolicy::Off,
            ..SchemeConfig::dynamic(max)
        }
    }

    /// Sets the Equation-1 coefficients (Figure 10's `mXbY` sweep).
    pub fn with_coefficients(mut self, c_merge: f64, c_break: f64) -> Self {
        self.c_merge = c_merge;
        self.c_break = c_break;
        self
    }

    /// Sets the super-block stride (the Section 6.2 extension).
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is a power of two.
    pub fn with_super_block_stride(mut self, stride: u64) -> Self {
        assert!(stride.is_power_of_two(), "stride must be a power of two");
        self.stride = stride;
        self
    }

    /// Short label used in experiment output, matching the paper's figure
    /// legends (`oram`, `stat`, `dyn`, `sm_nb`, `am_nb`; Figure 6b's `am_ab`
    /// is `dyn`).
    pub fn label(&self) -> &'static str {
        if self.max_sbsize == 1 {
            return "oram";
        }
        match (self.merge, self.brk, self.static_init_size > 1) {
            (MergePolicy::Off, _, true) => "stat",
            (MergePolicy::Off, _, false) => "oram",
            (MergePolicy::Static, BreakPolicy::Off, _) => "sm_nb",
            (MergePolicy::Adaptive, BreakPolicy::Off, _) => "am_nb",
            (MergePolicy::Static, _, _) => "sm_ab",
            (MergePolicy::Adaptive, _, _) => "dyn",
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or coefficients are not
    /// positive.
    pub fn validate(&self) {
        assert!(
            self.max_sbsize.is_power_of_two(),
            "max_sbsize must be a power of two"
        );
        assert!(
            self.static_init_size.is_power_of_two(),
            "static_init_size must be a power of two"
        );
        assert!(
            self.static_init_size <= self.max_sbsize,
            "static groups larger than max_sbsize would immediately exceed the limit"
        );
        assert!(
            self.c_merge > 0.0 && self.c_break > 0.0,
            "coefficients must be positive"
        );
        assert!(
            self.stride.is_power_of_two(),
            "stride must be a power of two"
        );
        assert!(
            self.stride == 1 || self.static_init_size == 1,
            "static initialization groups are contiguous; use stride 1"
        );
    }
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig::dynamic(2)
    }
}

impl fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (max={}, merge={:?}, break={:?}, C=({}, {}))",
            self.label(),
            self.max_sbsize,
            self.merge,
            self.brk,
            self.c_merge,
            self.c_break
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels_match_paper_legends() {
        assert_eq!(SchemeConfig::baseline().label(), "oram");
        assert_eq!(SchemeConfig::static_scheme(4).label(), "stat");
        assert_eq!(SchemeConfig::dynamic(2).label(), "dyn");
        assert_eq!(SchemeConfig::static_merge_no_break(2).label(), "sm_nb");
        assert_eq!(SchemeConfig::adaptive_merge_no_break(2).label(), "am_nb");
    }

    #[test]
    fn presets_validate() {
        for cfg in [
            SchemeConfig::baseline(),
            SchemeConfig::static_scheme(8),
            SchemeConfig::dynamic(8),
            SchemeConfig::static_merge_no_break(4),
            SchemeConfig::adaptive_merge_no_break(4),
        ] {
            cfg.validate();
        }
    }

    #[test]
    fn coefficients_builder() {
        let cfg = SchemeConfig::dynamic(2).with_coefficients(4.0, 1.0);
        assert_eq!(cfg.c_merge, 4.0);
        assert_eq!(cfg.c_break, 1.0);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_static_rejected() {
        SchemeConfig::static_scheme(3);
    }

    #[test]
    #[should_panic(expected = "immediately exceed")]
    fn static_init_above_max_rejected() {
        let cfg = SchemeConfig {
            static_init_size: 4,
            ..SchemeConfig::dynamic(2)
        };
        cfg.validate();
    }

    #[test]
    fn strided_scheme_builds_and_validates() {
        let cfg = SchemeConfig::dynamic(2).with_super_block_stride(8);
        assert_eq!(cfg.stride, 8);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn strided_static_init_rejected() {
        let cfg = SchemeConfig {
            stride: 4,
            static_init_size: 2,
            max_sbsize: 2,
            ..SchemeConfig::dynamic(2)
        };
        cfg.validate();
    }

    #[test]
    fn display_mentions_label() {
        let s = SchemeConfig::dynamic(2).to_string();
        assert!(s.contains("dyn"));
    }
}
