//! End-to-end serving benchmark: closed-loop clients drive the
//! `nfv-serve` engine (in process) or an `nfv-net` router over shard
//! servers (loopback) through their public APIs, check every answer, and
//! report end-to-end metrics, or per-layer metrics from spans in a traced
//! run. See README.md beside this crate for the workloads and metrics.

pub mod host;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod stream;
pub mod target;
pub mod trace;
