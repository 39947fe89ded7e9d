//! The pieces of the `bench_fleet` benchmark (see the binary's
//! documentation for the workloads, metrics and commands): workload
//! inputs and the timed op, output checks, per-layer kernels, span
//! recording, memory instruments, and the statistics `--compare` uses.

#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod mem;
pub mod spans;
pub mod stats;
pub mod workload;
