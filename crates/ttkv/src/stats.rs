//! Aggregate store statistics (the shape of the paper's Table I).

use std::fmt;

/// Aggregate access statistics for one TTKV.
///
/// One value of this type corresponds to one row of the paper's Table I
/// ("Summary of trace statistics"): reads, writes, distinct keys and the
/// approximate size of the TTKV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtkvStats {
    /// Distinct keys ever observed.
    pub keys: u64,
    /// Total read accesses.
    pub reads: u64,
    /// Total writes.
    pub writes: u64,
    /// Total deletions.
    pub deletes: u64,
    /// Approximate store size in bytes.
    pub approx_bytes: u64,
}

impl TtkvStats {
    /// Total mutations (writes + deletions).
    pub fn modifications(&self) -> u64 {
        self.writes + self.deletes
    }

    /// Formats a count the way Table I does: `22.80M`, `311.9K`, `480`.
    pub fn humanize(count: u64) -> String {
        match count {
            c if c >= 1_000_000 => format!("{:.2}M", c as f64 / 1e6),
            c if c >= 1_000 => format!("{:.2}K", c as f64 / 1e3),
            c => c.to_string(),
        }
    }

    /// Formats a byte size the way Table I does: `85MB`, `0.1MB`.
    pub fn humanize_bytes(bytes: u64) -> String {
        let mb = bytes as f64 / 1e6;
        if mb >= 1.0 {
            format!("{mb:.0}MB")
        } else {
            format!("{mb:.1}MB")
        }
    }
}

impl fmt::Display for TtkvStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads, {} writes, {} keys, {}",
            Self::humanize(self.reads),
            Self::humanize(self.writes),
            self.keys,
            Self::humanize_bytes(self.approx_bytes),
        )
    }
}

/// What one [`crate::Ttkv::prune_before`] sweep reclaimed.
///
/// Sweeps are periodic in a long-running deployment, so the type is a
/// monoid: per-record stats fold into per-store stats, per-store stats
/// fold into per-shard and per-run totals (see `ocasta-fleet`'s retention
/// sweeper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Historical versions collapsed into (or dropped behind) the horizon.
    pub pruned_versions: u64,
    /// Keys whose entire history was reclaimed and that were dead
    /// (tombstoned) at the horizon. Their records remain — counters plus
    /// the collapsed tombstone baseline — so repair's modification-count
    /// sort stays stable and stragglers cannot resurrect them, but they no
    /// longer appear in [`crate::Ttkv::modified_keys`].
    pub dead_keys: u64,
    /// Approximate bytes reclaimed (pre-prune minus post-prune footprint).
    pub reclaimed_bytes: u64,
}

impl PruneStats {
    /// Folds another sweep's stats into this one.
    pub fn absorb(&mut self, other: PruneStats) {
        self.pruned_versions += other.pruned_versions;
        self.dead_keys += other.dead_keys;
        self.reclaimed_bytes += other.reclaimed_bytes;
    }

    /// `true` if the sweep reclaimed nothing.
    pub fn is_noop(&self) -> bool {
        self.pruned_versions == 0 && self.reclaimed_bytes == 0
    }
}

impl fmt::Display for PruneStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} versions pruned ({} keys died), {} reclaimed",
            TtkvStats::humanize(self.pruned_versions),
            self.dead_keys,
            TtkvStats::humanize_bytes(self.reclaimed_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_stats_fold_and_render() {
        let mut total = PruneStats::default();
        assert!(total.is_noop());
        total.absorb(PruneStats {
            pruned_versions: 1_500,
            dead_keys: 2,
            reclaimed_bytes: 64_000,
        });
        total.absorb(PruneStats {
            pruned_versions: 500,
            dead_keys: 1,
            reclaimed_bytes: 36_000,
        });
        assert_eq!(total.pruned_versions, 2_000);
        assert_eq!(total.dead_keys, 3);
        assert!(!total.is_noop());
        let text = total.to_string();
        assert!(text.contains("2.00K versions"), "{text}");
        assert!(text.contains("0.1MB"), "{text}");
    }

    #[test]
    fn humanize_bands() {
        assert_eq!(TtkvStats::humanize(999), "999");
        assert_eq!(TtkvStats::humanize(3_340), "3.34K");
        assert_eq!(TtkvStats::humanize(22_800_000), "22.80M");
    }

    #[test]
    fn humanize_bytes_bands() {
        assert_eq!(TtkvStats::humanize_bytes(85_000_000), "85MB");
        assert_eq!(TtkvStats::humanize_bytes(100_000), "0.1MB");
    }

    #[test]
    fn display_mentions_every_field_class() {
        let s = TtkvStats {
            keys: 4,
            reads: 1_000,
            writes: 10,
            deletes: 2,
            approx_bytes: 2_000_000,
        };
        let text = s.to_string();
        assert!(text.contains("reads"));
        assert!(text.contains("writes"));
        assert!(text.contains("keys"));
        assert!(text.contains("MB"));
        assert_eq!(s.modifications(), 12);
    }
}
