//! Fault-injecting writer and byte-image corruption.
//!
//! [`FaultySink`] interposes on the writer a
//! [`FileSink`](delorean::FileSink) runs over, injecting the
//! write-layer faults a [`FaultPlan`] schedules: torn writes and
//! transient `io::Error`s. [`apply_to_bytes`] applies the byte-image
//! ops of a plan to a finished stream (flips, truncation, duplicated
//! segments, garbage bursts) — the crash left on disk rather than the
//! crash in flight.

use crate::plan::{FaultOp, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;

/// The error kind injected for transient faults — retryable by
/// [`RetryWriter`](delorean::recover::RetryWriter), fatal otherwise.
const TRANSIENT: io::ErrorKind = io::ErrorKind::TimedOut;

/// A writer that injects the write-layer faults of a [`FaultPlan`].
///
/// Torn writes persist a prefix of the buffer and then fail with a
/// transient error: with no retry layer the sink latches the error and
/// the stream ends at the tear; behind a
/// [`RetryWriter`](delorean::recover::RetryWriter) the retry re-sends
/// the whole buffer, leaving the torn prefix duplicated in the stream
/// — both outcomes the salvage pass must survive.
#[derive(Debug)]
pub struct FaultySink<W> {
    inner: W,
    ops: Vec<FaultOp>,
    writes: u64,
}

impl<W: io::Write> FaultySink<W> {
    /// Wraps `inner`, injecting the write-layer ops of `plan`.
    pub fn new(inner: W, plan: &FaultPlan) -> Self {
        Self {
            inner,
            ops: plan
                .ops
                .iter()
                .filter(|op| matches!(op, FaultOp::Torn { .. } | FaultOp::TransientWrite { .. }))
                .copied()
                .collect(),
            writes: 0,
        }
    }

    /// Recovers the wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Number of write calls observed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl<W: io::Write> io::Write for FaultySink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let at = self.writes;
        self.writes += 1;
        for op in &self.ops {
            match *op {
                FaultOp::Torn { at: when, keep } if when == at => {
                    let keep = keep.min(buf.len());
                    self.inner.write_all(&buf[..keep])?;
                    return Err(io::Error::new(TRANSIENT, "injected torn write"));
                }
                FaultOp::TransientWrite { at: when } if when == at => {
                    return Err(io::Error::new(TRANSIENT, "injected transient write error"));
                }
                _ => {}
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Applies the byte-image ops of `plan` to a finished stream.
pub fn apply_to_bytes(plan: &FaultPlan, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for op in &plan.ops {
        match *op {
            FaultOp::FlipBit { offset, bit } => {
                if let Some(b) = out.get_mut(offset as usize) {
                    *b ^= 1 << (bit & 7);
                }
            }
            FaultOp::TruncateAt { offset } => {
                out.truncate(offset as usize);
            }
            FaultOp::Duplicate { start, end } => {
                let (start, end) = (start as usize, (end as usize).min(out.len()));
                if start < end {
                    let dup = out[start..end].to_vec();
                    // Splice the copy in right after the original.
                    let tail = out.split_off(end);
                    out.extend_from_slice(&dup);
                    out.extend_from_slice(&tail);
                }
            }
            FaultOp::Garbage {
                offset,
                len,
                fill_seed,
            } => {
                let mut rng = SmallRng::seed_from_u64(fill_seed);
                let start = (offset as usize).min(out.len());
                let end = (offset.saturating_add(len) as usize).min(out.len());
                for b in &mut out[start..end] {
                    *b = rng.gen::<u8>();
                }
            }
            FaultOp::Torn { .. } | FaultOp::TransientWrite { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use std::io::Write;

    #[test]
    fn torn_write_persists_prefix_then_fails() {
        let plan = FaultPlan {
            seed: 1,
            ops: vec![FaultOp::Torn { at: 1, keep: 3 }],
        };
        let mut sink = FaultySink::new(Vec::new(), &plan);
        sink.write_all(b"aaaa").unwrap();
        let err = sink.write_all(b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        sink.write_all(b"cccc").unwrap();
        assert_eq!(sink.into_inner(), b"aaaabbbcccc");
    }

    #[test]
    fn source_flips_and_truncates() {
        let plan = FaultPlan {
            seed: 2,
            ops: vec![
                FaultOp::FlipBit { offset: 1, bit: 0 },
                FaultOp::TruncateAt { offset: 4 },
            ],
        };
        assert_eq!(apply_to_bytes(&plan, &[0; 6]), [0, 1, 0, 0]);
    }

    #[test]
    fn byte_image_ops_apply() {
        let plan = FaultPlan {
            seed: 3,
            ops: vec![FaultOp::Duplicate { start: 1, end: 3 }],
        };
        assert_eq!(apply_to_bytes(&plan, b"abcde"), b"abcbcde");
        let plan = FaultPlan {
            seed: 3,
            ops: vec![FaultOp::Garbage {
                offset: 1,
                len: 2,
                fill_seed: 9,
            }],
        };
        let out = apply_to_bytes(&plan, b"abcde");
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], b'a');
        assert_eq!(out[3..], b"de"[..]);
        // Identical seeds produce identical garbage.
        assert_eq!(out, apply_to_bytes(&plan, b"abcde"));
    }

    #[test]
    fn plan_round_trips_through_text() {
        let plan = FaultPlan {
            seed: 42,
            ops: vec![
                FaultOp::Torn { at: 3, keep: 17 },
                FaultOp::TransientWrite { at: 5 },
                FaultOp::FlipBit {
                    offset: 1234,
                    bit: 3,
                },
                FaultOp::TruncateAt { offset: 900 },
                FaultOp::Duplicate {
                    start: 100,
                    end: 200,
                },
                FaultOp::Garbage {
                    offset: 7,
                    len: 11,
                    fill_seed: 13,
                },
            ],
        };
        let text = plan.render();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
        assert!(FaultPlan::parse("nonsense").is_err());
    }
}
