//! Bit-packed log I/O and log compression for the DeLorean replay system.
//!
//! The DeLorean paper (ISCA 2008) states that *"all log buffers are
//! enhanced with compression hardware that uses the LZ77 algorithm"*.
//! This crate provides the two building blocks every log in the system is
//! made of:
//!
//! * [`BitWriter`] / [`BitReader`] — logs such as the Processor
//!   Interleaving (PI) log use sub-byte entries (a 4-bit processor ID per
//!   chunk commit), so all log encoders work at bit granularity.
//! * [`lz77`] — a from-scratch sliding-window LZ77 codec used to report
//!   *compressed* log sizes, mirroring the paper's log-size methodology.
//! * [`LogSize`] — a small accounting type carrying both raw and
//!   compressed sizes in bits, with the paper's reporting unit
//!   (bits per processor per kilo-instruction) derivable from it.
//!
//! # Examples
//!
//! ```
//! use delorean_compress::{BitWriter, BitReader};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b1011, 4);
//! w.write_bits(0x3ff, 10);
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(4), Some(0b1011));
//! assert_eq!(r.read_bits(10), Some(0x3ff));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod lz77;
mod size;

pub use bits::{BitReader, BitWriter};
pub use size::{LogSize, SEGMENTED_MEASURE_THRESHOLD};
