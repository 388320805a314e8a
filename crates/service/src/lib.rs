//! Service-mode Fusion: the real store behind worker threads and a wire
//! protocol (DESIGN.md §17).
//!
//! The DES reproduction simulates *time* but its data plane is real —
//! every byte, stripe, and query result is genuinely computed. This
//! crate runs exactly that data plane as a service: requests arrive as
//! length-prefixed frames ([`proto`]), a bounded queue feeds worker
//! threads that execute against the shared [`fusion_core::Store`]
//! ([`service`]), and clients reach it over an in-process loopback or
//! TCP ([`transport`], [`client`]).
//!
//! The load-bearing invariant: a [`Client`] talking to a [`Service`]
//! reaches the *same* store the figures drive in process, so every
//! query must return **bit-identical** results either way — healthy or
//! degraded. `tests/equivalence.rs` enforces it against a plain
//! [`fusion_core::Store`]; `tests/stress.rs` hammers the concurrency.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod service;
pub mod transport;

pub use client::{Client, ClientError, ClientResult};
pub use proto::{ErrorCode, FrameError, Request, Response, MAX_FRAME};
pub use service::{Service, DEFAULT_QUEUE_DEPTH};
pub use transport::{Loopback, PipelinedTcp, TcpServer, Transport};
