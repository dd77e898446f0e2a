//! The Ocasta reproduction's end-to-end benchmark.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` declares. The line before it holds the detail: host
//! fingerprint, seed, sample counts and tails, failures, and — traced —
//! the metric registries' snapshots. See `README.md` for the workloads and
//! what each metric measures.

pub mod host;
pub mod json;
pub mod spec;
mod stages;
pub mod stats;
pub mod workload;
