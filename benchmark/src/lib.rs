//! Layered benchmark harness for the sPCA reproduction: six workloads,
//! end-to-end and per-layer metrics, one command. See `README.md` for
//! why each workload exists and what each metric means; `spec` holds the
//! names, `workloads` the inputs and checks, `run` the protocol,
//! `replay` and `spans` the traced run, `compare` the A/B rules.

pub mod compare;
pub mod replay;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
