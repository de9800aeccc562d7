//! # eov-sim
//!
//! A deterministic discrete-event simulator of the execute-order-validate pipeline, standing
//! in for the paper's Fabric / FastFabric testbed (see `DESIGN.md` for the substitution
//! argument). The five concurrency-control systems are the *real* implementations from
//! `fabricsharp-core` and `eov-baselines`; the simulator only supplies time: request rates,
//! endorsement latency (including the read-interval model), client delay, consensus latency,
//! block formation, the modelled reordering cost, and the validation bottleneck.
//!
//! * [`profiles`] — calibrated per-phase costs (Fabric ≈677 raw tps, FastFabric ≈3100 raw tps).
//! * [`events`] — simulated time, events, deterministic event queue.
//! * [`runner`] — the event loop ([`runner::Simulator`]) and [`runner::SimulationConfig`].
//! * [`metrics`] — [`metrics::SimReport`]: raw/effective throughput, latency, abort breakdown,
//!   block span, reachability hops, measured CC overheads.

#![forbid(unsafe_code)]

pub mod events;
pub mod metrics;
pub mod profiles;
pub mod runner;

pub use metrics::{FormationTiming, PipelineOccupancy, SimReport};
pub use profiles::PipelineProfile;
pub use runner::{SimulationConfig, Simulator};
