//! Persistence substrate for the HammerHead reproduction.
//!
//! The production system persists its data structures in RocksDB (§4); the
//! protocol only needs durable, replayable state for crash-recovery, which
//! this crate provides from scratch:
//!
//! * [`Wal`] — a write-ahead log of CRC-framed records that tolerates torn
//!   tails (a crash mid-append loses at most the incomplete record);
//! * [`MemBackend`] / [`FileBackend`] — storage media. The memory backend
//!   hands out shareable handles so a simulated validator can "crash" (drop
//!   all volatile state) and "restart" against the same bytes;
//! * [`ValidatorStore`] — the typed layer validators actually use: append
//!   every delivered vertex and periodic commit checkpoints; recovery
//!   returns vertices in insertion-safe order for deterministic replay.
//!
//! # Example
//!
//! ```
//! use hh_storage::{MemBackend, Wal};
//!
//! let backend = MemBackend::new();
//! let mut wal = Wal::new(backend.clone());
//! wal.append(b"record-1").unwrap();
//! wal.append(b"record-2").unwrap();
//!
//! // "Crash" and reopen from the same bytes.
//! let recovered: Vec<Vec<u8>> = Wal::new(backend).replay().unwrap();
//! assert_eq!(recovered, vec![b"record-1".to_vec(), b"record-2".to_vec()]);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod backend;
mod validator_store;
mod wal;

pub use backend::{FileBackend, LogBackend, MemBackend};
pub use validator_store::{RecoveredState, StoreRecord, ValidatorStore};
pub use wal::{Wal, WalError};
