//! # fg-serve
//!
//! The serving layer: FeatureGuard's defence pipeline as a long-running
//! decision API, plus the load generator that measures it.
//!
//! * [`http`] — hand-rolled HTTP/1.1 parsing and response writing over
//!   `std` I/O (no async runtime; all deps vendored).
//! * [`server`] — accept loop, fixed worker pool with a bounded hand-off
//!   queue (full ⇒ shed with 429), config watcher, graceful drain.
//! * [`service`] — the decision core: one [`fg_scenario::DefendedApp`]
//!   behind a mutex, serving `POST /v1/decide` from the *same* code path
//!   the simulator runs, so wire and sim decisions agree byte-for-byte.
//! * [`config`] — boot-only vs hot-reloadable config split; hot swaps are
//!   gated by `fg_analyze::validate_serve_policy` (reject-and-keep-old).
//! * [`breaker`] — a three-state circuit breaker around the decision path
//!   (open ⇒ 503); with the accept queue, fg-serve's only refusals.
//! * [`observe`] — live observability plumbing: W3C `traceparent` parsing
//!   and echo, the flight-recorder ring (frozen on breaker trips and
//!   sheds), per-request summaries, and the serve SLO alert policy the
//!   embedded sentinel evaluates.
//! * [`loadgen`] — deterministic wire replay of fg-behavior workloads,
//!   reporting p50/p90/p99/p999 latency and sustained decisions/sec as
//!   schema-versioned `BENCH_serve.json`.
//! * [`exit`] — the unified 0/2/3/4 exit-code contract shared with the
//!   `experiments` binary.
//!
//! ## Where determinism stops
//!
//! Everything below the socket — detection, policy, tracing — is a pure
//! function of (request stream, config, seed, shards): requests carry
//! their own session clock (`now_ms`), so *what* is decided never depends
//! on the wall. The serving shell around it is deliberately wall-clock:
//! read timeouts, breaker cool-downs, drain deadlines, and measured
//! latency are properties of *this run on this machine*. That boundary is
//! why `serve` sits on fg-analyze's exempt list while every crate beneath
//! it stays determinism-critical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod config;
pub mod exit;
pub mod http;
pub mod loadgen;
pub mod observe;
pub mod server;
pub mod service;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use config::{ServeConfig, SERVE_CONFIG_SCHEMA};
pub use exit::Exit;
pub use loadgen::{LoadReport, LoadgenConfig, SlowRequest, SERVE_BENCH_SCHEMA};
pub use observe::{FlightRecorder, RequestSummary, TraceParent};
pub use server::{DrainReport, ServeState, Server};
pub use service::{DecisionService, OutcomeReport, ReportAck};
