//! Memory-system models for the DeLorean reproduction.
//!
//! This crate provides the three hardware structures the chunk-based
//! execution substrate is built from:
//!
//! * [`Memory`] — the committed architectural memory (word granular),
//!   with a content hash used by the determinism checker, and its
//!   [`MemoryImage`]s: the sparse copies that system checkpoints keep,
//!   which store only the blocks holding a non-zero word.
//! * [`Cache`] — a set-associative LRU cache model used both for timing
//!   (hit/miss classification against the Table-5 hierarchy) and for
//!   detecting speculative-overflow chunk truncation.
//! * [`Signature`] — a 2-Kbit Bulk-style address signature with the
//!   usual insert/membership/intersection/union operations, including
//!   hardware-faithful *false positives* (and guaranteed absence of
//!   false negatives).
//!
//! # Examples
//!
//! ```
//! use delorean_mem::{line_of, Signature};
//! let mut w = Signature::default();
//! w.insert(line_of(0x40));
//! let mut r = Signature::default();
//! r.insert(line_of(0x40));
//! assert!(w.intersects(&r));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod image;
mod memory;
mod signature;

pub use cache::{Cache, CacheConfig};
pub use image::{Block, MemoryImage, BLOCK_WORDS};
pub use memory::Memory;
pub use signature::{bit_indices, Signature, SIG_BITS};

/// Words per cache line (32-byte lines, 8-byte words).
pub const LINE_WORDS: u64 = 4;

/// Cache line index of a word address.
pub fn line_of(addr: delorean_isa::Addr) -> u64 {
    addr / LINE_WORDS
}
