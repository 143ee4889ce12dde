//! Shared HPC-style utilities for the Fuzzy Hash Classifier workspace.
//!
//! This crate provides the small, dependency-light building blocks that the
//! rest of the workspace relies on:
//!
//! * [`par`] — data-parallel helpers built on standard-library scoped threads
//!   (parallel map over slices and index ranges with chunked work stealing),
//!   used to hash corpora, fill similarity matrices, and train forest trees
//!   without data races.
//! * [`table`] — plain-text table rendering used by the experiment binaries
//!   to print the paper's tables in a readable, diff-friendly format.
//! * [`rngseq`] — deterministic seed derivation so every experiment is
//!   reproducible from a single root seed.
//! * [`timing`] — a tiny stopwatch/section timer for reporting wall-clock
//!   cost of pipeline stages.
//! * [`codec`] — a little-endian, length-prefixed binary codec used to
//!   persist trained models as versioned on-disk artifacts.
//! * [`frame`] — checksummed, length-prefixed frames over byte streams,
//!   the transport layer under the distributed shard-serving protocol.
//! * [`mux`] — a connection multiplexer with one reader thread: many
//!   caller threads write their own request frames and pipeline over one
//!   stream, with no mutex held across a round trip; each reply runs the
//!   completion its caller registered, on the reader thread.
//! * [`failpoint`] — deterministic fault injection behind the `failpoints`
//!   feature: named sites in the transport layers where chaos tests inject
//!   I/O errors, delays, corruption, truncation, and dropped connections
//!   on seeded schedules. Compiled to a no-op by default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod failpoint;
pub mod frame;
pub mod mux;
pub mod par;
pub mod rngseq;
pub mod table;
pub mod timing;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use frame::{encode_frame, read_frame, write_assembled_frame, write_frame, FrameError};
pub use mux::{Mux, MuxError, MuxErrorKind, MuxOptions};
pub use par::{par_map, par_map_indexed, ParallelConfig};
pub use rngseq::SeedSequence;
pub use table::TextTable;
pub use timing::SectionTimer;
