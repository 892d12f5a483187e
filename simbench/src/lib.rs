//! Host-speed and accuracy benchmark of the SAM simulator.
//!
//! Drives the simulator only through its public library API —
//! `Workload::compile`, `System::run`, the bare `Controller`, the cache
//! `Hierarchy` and `MemoryDevice::issue` — and times the calls from here,
//! so no tracing lives inside the simulator. See `README.md` for the
//! workloads, metrics and how to run it.

pub mod bench;
pub mod ctrl;
pub mod reference;
pub mod replay;
pub mod stats;
