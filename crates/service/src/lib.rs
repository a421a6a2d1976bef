//! # spotnoise-service — the multi-session synthesis server
//!
//! The paper's whole point is *interactive* spot noise: users steer a
//! running simulation and receive freshly synthesized textures every frame.
//! This crate is the layer that serves that workload to many concurrent
//! clients — the master/slave service topology the paper runs on the Onyx2,
//! lifted into a long-lived server process over the
//! [`spotnoise::Pipeline`] engine:
//!
//! * [`session`] — sessions and their registry: one
//!   [`Pipeline`](spotnoise::pipeline::Pipeline) per private session, keyed
//!   ids, create/advance/steer/close, idle eviction;
//! * shared-field broadcast — one advected spot population and one
//!   synthesis clock per distinct `(field, config, seed)` feeding every
//!   subscribed session, so synthesis cost is O(fields) while delivery is a
//!   fan-out of cached `Arc` frames (steering a shared session forks it
//!   into a private one);
//! * the frame cache — an LRU keyed by
//!   `(field hash, config hash, seed, frame index)`, so repeated or
//!   steered-back requests skip synthesis entirely;
//! * admission control ([`AdmissionConfig`]) — bounded depth, per-session
//!   fairness, shed-with-`503 Busy` beyond a watermark so overload degrades
//!   instead of OOMing;
//! * the graceful-degradation ladder ([`PressureConfig`]) — a tri-state
//!   gauge over queue depth and queue-wait latency that disables channel
//!   look-ahead when elevated and serves stale frontiers / drops to
//!   footprint sampling when saturated, so overload degrades *quality*
//!   before it degrades *availability*;
//! * [`NodeCore`] — the transport-free core that owns all of the above plus
//!   the synthesis workers, with no socket in sight — the seam the cluster
//!   tier is built on (and a peer frame-cache lookup that lets sibling
//!   nodes serve each other's cached frames);
//! * [`http`] + [`serve`] — a std-only HTTP/1.1 codec/dispatch shell over
//!   [`std::net::TcpListener`] that parses each request once into a typed
//!   call (the one wire vocabulary: one variant per route, both session-id
//!   forms and every header name), with endpoints for session CRUD, frame
//!   fetch and streams (raw little-endian `f32` texture bytes), `/stats`
//!   (JSON), `/metrics` (Prometheus text over [`spotnoise::telemetry`]
//!   histograms) and `/trace` (Chrome trace-event JSON from the
//!   frame-lifecycle span ring);
//! * [`serve_router`] + [`ClusterSessionId`] — the sharded cluster tier: a
//!   consistent-hash ring placing sessions (and shared-field channels) on
//!   worker nodes, a front-tier router proxying the full API across them,
//!   cluster-view `/stats`, `/metrics` and `/healthz` aggregation, and
//!   degraded routing around saturated nodes;
//! * [`ServiceClient`] — the blocking client the router, the load bench and
//!   the integration tests drive servers with;
//! * [`spec`] — field/session specifications and their stable content
//!   hashes.
//!
//! ## Frame model
//!
//! Frames of a session are deterministic: frame `i` is the texture after
//! `i + 1` fixed-`dt` advances from the seed, so a frame is a pure function
//! of `(field, config, index)`. Rewinding replays from the seed; steering
//! rebinds the field and restarts the clock. That purity is what makes the
//! cache key sound — and makes steering *back* to a previous field a pure
//! cache hit.
//!
//! ## Quick start
//!
//! ```no_run
//! use spotnoise_service::{serve, ServiceOptions};
//!
//! let handle = serve("127.0.0.1:7997", ServiceOptions::default()).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.join(); // runs until POST /shutdown
//! ```

#![warn(missing_docs)]

mod api;
mod cache;
mod channel;
mod client;
mod cluster;
pub mod http;
mod metrics;
mod node;
mod pressure;
mod queue;
mod router;
mod server;
pub mod session;
pub mod spec;

pub use client::{
    ClientError, FetchedFrame, FrameStream, HttpReply, RetryPolicy, ServiceClient, StreamedFrame,
};
pub use cluster::ClusterSessionId;
pub use node::{FrameResult, NodeCore, ServiceError, ServiceOptions};
pub use pressure::PressureConfig;
pub use queue::AdmissionConfig;
pub use router::{serve_router, Router, RouterHandle, RouterOptions};
pub use server::{serve, FrontHandle, Service, ServiceHandle};
pub use session::Session;
pub use spec::{FieldSpec, SessionSpec};
