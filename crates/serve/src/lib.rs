//! `mube-serve` — the µBE session host.
//!
//! The paper's Section 6 loop is inherently interactive: a user iterates,
//! inspects the mediated schema, feeds edits back, and re-solves. One
//! universe snapshot serves *many* such users at once — building the
//! snapshot (interning, similarity matrix, PCSA sketches) is the
//! expensive part, and everything in it is immutable after construction.
//! This crate turns that ownership model into a long-running host:
//!
//! * [`SessionHost`] — one shared [`Mube`](mube_core::Mube) engine
//!   handle, N live sessions, each on a worker thread that owns its
//!   [`Session`](mube_core::Session) outright. Commands are mpsc
//!   messages; cancellation bypasses the queue through the session's
//!   [`CancelToken`](mube_core::CancelToken).
//! * [`proto`] — the newline-delimited JSON wire protocol
//!   (`create-session` / `edit-constraints` / `solve` / `cancel` /
//!   `inspect` / `diff`), hand-rolled over the [`json`] value type.
//! * [`serve_connection`] — one transport loop: NDJSON in, NDJSON out,
//!   usable over stdin/stdout or a TCP stream (the `mubed` binary wires
//!   both).
//!
//! Everything here is plain std threads and channels — no async runtime.
//! The concurrency contract is inherited from the core, not invented
//! here: sessions share only the immutable snapshot and their own atomic
//! cancel epochs, so a host running N sessions concurrently produces
//! bit-identical histories to the same N sessions run one at a time.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod host;
pub mod json;
pub mod proto;

pub use host::{
    default_weights, serve_connection, solver_by_name, source_by_name, Job, SessionHost, Work,
};
pub use json::{Json, JsonError};
pub use proto::{parse_request, Command, Edit, Request, SessionSpec};
