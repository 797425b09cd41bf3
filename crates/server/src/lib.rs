//! `usi_server` — the serving layer for Useful String Indexing: many
//! [`UsiIndex`](usi_core::UsiIndex)es behind one long-running process.
//!
//! The crate is dependency-free (std only, like the rest of the
//! workspace) and splits into three layers, plus the client that
//! speaks to them:
//!
//! * [`catalog`] — a sharded multi-index registry ([`Catalog`]): loads
//!   `.usix` files or in-process builds, hosts live ingest-enabled
//!   documents (`usi_ingest::IngestPipeline` behind
//!   `POST /v1/docs/{id}/append`), routes queries by document id with a
//!   per-document pattern → answer LRU cache, fans out across every
//!   document, and spreads batches over `std::thread::scope` workers;
//! * [`json`] — a hand-rolled JSON value/parser/encoder plus the API
//!   encodings shared by the server, the CLI's `--json` mode and the
//!   end-to-end tests;
//! * [`http`] — a minimal HTTP/1.1 front end on `std::net::TcpListener`:
//!   a fixed number of worker threads share one epoll set of idle
//!   connections (Linux), each serving whichever connection turns
//!   readable, with graceful shutdown;
//! * [`client`] — the one HTTP/1.1 client for that API (keep-alive,
//!   per-request deadlines, one stale-socket retry, bounded response
//!   framing), used by the remote fan-out backend, tests and benches.
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::sync::Arc;
//! use usi_server::{serve, Catalog, ServerConfig};
//!
//! let catalog = Arc::new(Catalog::new(8));
//! catalog.load_path(std::path::Path::new("indexes/")).unwrap();
//! let listener = TcpListener::bind("127.0.0.1:7878").unwrap();
//! let handle = serve(catalog, listener, ServerConfig::with_workers(4)).unwrap();
//! println!("listening on {}", handle.addr());
//! // … handle.shutdown() stops accepting and joins every thread
//! ```

pub mod catalog;
pub mod client;
pub mod http;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod reactor;

pub use catalog::{
    AppendError, Catalog, CatalogError, Doc, FanOut, LoadOptions, ReloadError, ReplicationStatus,
    Role,
};
pub use http::{respond, serve, AccessLog, Response, ServerConfig, ServerHandle};
pub use json::{Json, JsonError};
