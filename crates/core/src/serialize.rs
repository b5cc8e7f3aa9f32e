//! Binary serialization of recordings.
//!
//! A replay log is only useful if it can outlive the recording process.
//! The `.dlrn` format (version 2) is the segmented stream defined in
//! [`crate::stream`]: a checksummed metadata header followed by
//! LZ77-compressed commit-event segments and a trailer carrying the
//! determinism digest. A [`Recording`] holds that stream decoded, so
//! the two functions here only move it between memory and bytes:
//! [`to_bytes`] writes the recording's metadata, events and trailer
//! through a [`crate::FileSink`], and [`from_bytes`] collects a
//! complete buffer's decoded events back into a [`Recording`]. The
//! bytes are identical to what a live streaming recording of the same
//! execution writes, under any arbiter topology.
//!
//! # Examples
//!
//! ```
//! use delorean::{Machine, Mode};
//! use delorean_isa::workload;
//!
//! let machine = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(4_000).build();
//! let recording = machine.record(workload::by_name("lu").unwrap(), 5);
//! let bytes = delorean::serialize::to_bytes(&recording);
//! let back = delorean::serialize::from_bytes(&bytes).unwrap();
//! assert!(machine.replay(&back).unwrap().deterministic);
//! ```

use crate::machine::Recording;
use crate::stream::{self, FileSink};

/// Why deserialization failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a DeLorean recording (bad magic).
    BadMagic,
    /// Produced by an incompatible format version.
    BadVersion(u16),
    /// The payload checksum does not match (corruption).
    BadChecksum,
    /// The buffer ended prematurely or a field is malformed.
    Truncated(&'static str),
    /// The recording references a workload this build does not know.
    UnknownWorkload(String),
    /// The header carries an arbiter-topology tag this build does not
    /// understand (written by a newer or foreign recorder).
    UnknownTopology(u8),
    /// The underlying reader failed with an I/O error.
    Io(String),
    /// The input is zero-length — not a recording at all.
    Empty,
    /// The input carries a valid header and metadata but no segments:
    /// the recorder never wrote (or the file lost) its event stream.
    HeaderOnly,
    /// A start state's memory image does not fit its machine.
    MemoryImage {
        /// Processors in the machine.
        n_procs: u32,
        /// Words in the image.
        words: u64,
        /// Words in the machine's memory.
        expected: u64,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a DeLorean recording"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadChecksum => write!(f, "payload checksum mismatch"),
            DecodeError::Truncated(what) => write!(f, "truncated or malformed field: {what}"),
            DecodeError::UnknownWorkload(name) => {
                write!(f, "recording references unknown workload {name}")
            }
            DecodeError::UnknownTopology(tag) => {
                write!(f, "unknown arbiter-topology tag {tag} in stream header")
            }
            DecodeError::Io(detail) => write!(f, "log stream read failed: {detail}"),
            DecodeError::Empty => write!(f, "empty input: not a recording"),
            DecodeError::HeaderOnly => {
                write!(f, "header-only stream: valid metadata but no segments")
            }
            DecodeError::MemoryImage {
                n_procs,
                words,
                expected,
            } => write!(
                f,
                "start state holds a {words}-word memory image, a {n_procs}-processor \
                 machine has {expected}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a recording to the versioned binary format: the bytes a
/// [`crate::FileSink`] streamed while it was recorded.
// Infallible: the sink writes into a `Vec<u8>`, whose `Write` impl
// never returns an error, so the sink never latches one.
#[allow(clippy::expect_used)]
pub fn to_bytes(recording: &Recording) -> Vec<u8> {
    let mut sink = FileSink::new(Vec::new());
    stream::copy_recording(recording, &mut sink);
    sink.into_inner().expect("writing to a Vec cannot fail")
}

/// Deserializes a recording produced by [`to_bytes`] (or streamed live
/// through a [`crate::FileSink`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] on corruption, version mismatch or an
/// unknown workload name.
pub fn from_bytes(bytes: &[u8]) -> Result<Recording, DecodeError> {
    stream::read_recording(bytes)
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{Machine, Mode};
    use delorean_isa::workload;

    fn sample(mode: Mode) -> (Machine, Recording) {
        let m = Machine::builder().mode(mode).procs(2).budget(5_000).build();
        let r = m.record(workload::by_name("sjbb2k").unwrap(), 9);
        (m, r)
    }

    #[test]
    fn round_trip_all_modes() {
        for mode in Mode::all() {
            let (machine, rec) = sample(mode);
            let bytes = to_bytes(&rec);
            let back = from_bytes(&bytes).expect("round trip");
            assert_eq!(back.meta.mode, rec.meta.mode);
            assert_eq!(back.events, rec.events);
            assert_eq!(back.logs(), rec.logs());
            assert_eq!(back.stats.digest, rec.stats.digest);
            // And the deserialized recording replays deterministically.
            let report = machine.replay(&back).expect("shape");
            assert!(report.deterministic, "{mode}: {:?}", report.divergence);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let (_, rec) = sample(Mode::OrderOnly);
        let mut bytes = to_bytes(&rec);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        // Every byte past the frame header is checksum-covered; a flip
        // either fails a checksum or breaks segment framing.
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let (_, rec) = sample(Mode::OrderOnly);
        let mut bytes = to_bytes(&rec);
        bytes[0] ^= 0x01;
        assert_eq!(from_bytes(&bytes).err(), Some(DecodeError::BadMagic));
        let mut bytes = to_bytes(&rec);
        bytes[4] = 0x7f;
        assert!(matches!(
            from_bytes(&bytes),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let (_, rec) = sample(Mode::OrderOnly);
        let bytes = to_bytes(&rec);
        for cut in [3usize, 13, bytes.len() / 3] {
            assert!(from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn stratification_survives_round_trip() {
        let (_, rec) = sample(Mode::OrderOnly);
        let back = from_bytes(&to_bytes(&rec)).unwrap();
        assert_eq!(
            rec.stratified_pi(3).unwrap().strata(),
            back.stratified_pi(3).unwrap().strata(),
            "footprints must survive so post-hoc stratification matches"
        );
    }

    #[test]
    fn display_errors() {
        assert!(DecodeError::BadMagic.to_string().contains("not a DeLorean"));
        assert!(DecodeError::UnknownWorkload("x".into())
            .to_string()
            .contains('x'));
        assert!(DecodeError::Io("pipe closed".into())
            .to_string()
            .contains("pipe closed"));
    }
}
