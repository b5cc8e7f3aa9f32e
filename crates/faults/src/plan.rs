//! Seeded, serializable fault schedules.
//!
//! A [`FaultPlan`] is the unit of reproducibility: every fault the
//! engine injects — at the I/O layer or against a byte image — is
//! listed in the plan as a concrete [`FaultOp`], derived once from a
//! seed. Identical seeds produce byte-identical plans, plans render to
//! a line-oriented text format and parse back losslessly, so a failing
//! crashtest scenario can be replayed exactly from its printed plan.

use delorean::recover::StreamLayout;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One concrete fault. Offsets are byte offsets into the stream;
/// `at` counters are 0-based I/O call indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// At write call `at`: persist only the first `keep` bytes of the
    /// buffer, then fail with a transient error (a torn write).
    Torn {
        /// Write call index the tear happens on.
        at: u64,
        /// Bytes that reach the medium before the failure.
        keep: usize,
    },
    /// At write call `at`: fail with a transient error before writing.
    TransientWrite {
        /// Write call index that fails.
        at: u64,
    },
    /// Flip bit `bit` of the byte at `offset`.
    FlipBit {
        /// Byte offset of the victim.
        offset: u64,
        /// Bit index, 0–7.
        bit: u8,
    },
    /// Drop every byte at or past `offset` (a truncated tail).
    TruncateAt {
        /// First dropped offset.
        offset: u64,
    },
    /// Re-insert the byte range `[start, end)` immediately after
    /// itself (a duplicated segment, as left by a replayed buffer).
    Duplicate {
        /// First duplicated offset.
        start: u64,
        /// One past the last duplicated offset.
        end: u64,
    },
    /// Overwrite `len` bytes at `offset` with seeded garbage.
    Garbage {
        /// First overwritten offset.
        offset: u64,
        /// Overwritten byte count.
        len: u64,
        /// Seed for the garbage bytes.
        fill_seed: u64,
    },
}

impl core::fmt::Display for FaultOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            FaultOp::Torn { at, keep } => write!(f, "torn at={at} keep={keep}"),
            FaultOp::TransientWrite { at } => write!(f, "transient-write at={at}"),
            FaultOp::FlipBit { offset, bit } => write!(f, "flip offset={offset} bit={bit}"),
            FaultOp::TruncateAt { offset } => write!(f, "truncate offset={offset}"),
            FaultOp::Duplicate { start, end } => write!(f, "duplicate start={start} end={end}"),
            FaultOp::Garbage {
                offset,
                len,
                fill_seed,
            } => write!(f, "garbage offset={offset} len={len} fill-seed={fill_seed}"),
        }
    }
}

/// A deterministic fault schedule: the seed it was derived from plus
/// every concrete fault, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// The faults, in application order.
    pub ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// A plan with no faults (the control arm of a matrix).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            ops: Vec::new(),
        }
    }

    /// Renders the plan in its line-oriented text format.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut s = format!("faultplan v1 seed={}\n", self.seed);
        for op in &self.ops {
            let _ = writeln!(s, "{op}");
        }
        s
    }

    /// Parses a plan rendered by [`FaultPlan::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines.next().ok_or("empty fault plan")?;
        let seed = head
            .strip_prefix("faultplan v1 seed=")
            .ok_or_else(|| format!("bad fault plan header: {head}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad fault plan seed: {e}"))?;
        let mut ops = Vec::new();
        for line in lines {
            ops.push(parse_op(line)?);
        }
        Ok(Self { seed, ops })
    }
}

/// Reads `key=value` as a number from a token.
fn field(tok: Option<&str>, key: &str) -> Result<u64, String> {
    let tok = tok.ok_or_else(|| format!("missing field {key}"))?;
    let v = tok
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=N, got {tok}"))?;
    v.parse().map_err(|e| format!("bad {key} value: {e}"))
}

fn parse_op(line: &str) -> Result<FaultOp, String> {
    let mut toks = line.split_whitespace();
    let kind = toks.next().ok_or("empty fault line")?;
    match kind {
        "torn" => Ok(FaultOp::Torn {
            at: field(toks.next(), "at")?,
            keep: field(toks.next(), "keep")? as usize,
        }),
        "transient-write" => Ok(FaultOp::TransientWrite {
            at: field(toks.next(), "at")?,
        }),
        "flip" => Ok(FaultOp::FlipBit {
            offset: field(toks.next(), "offset")?,
            bit: field(toks.next(), "bit")? as u8,
        }),
        "truncate" => Ok(FaultOp::TruncateAt {
            offset: field(toks.next(), "offset")?,
        }),
        "duplicate" => Ok(FaultOp::Duplicate {
            start: field(toks.next(), "start")?,
            end: field(toks.next(), "end")?,
        }),
        "garbage" => Ok(FaultOp::Garbage {
            offset: field(toks.next(), "offset")?,
            len: field(toks.next(), "len")?,
            fill_seed: field(toks.next(), "fill-seed")?,
        }),
        other => Err(format!("unknown fault op {other}")),
    }
}

/// The fault classes the crashtest matrix sweeps. Byte-image classes
/// corrupt a recorded stream; I/O classes interpose on the sink during
/// recording; substrate classes perturb the chunk engine itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Control arm: no fault; salvage must be lossless and the
    /// recovered stream must replay through the engine.
    None,
    /// Flip one bit inside an event segment body.
    BitFlipBody,
    /// Cut the stream mid-segment (a crash before the final flush).
    TruncateTail,
    /// Duplicate a whole segment frame (a replayed write buffer).
    DuplicateSegment,
    /// Overwrite a span crossing a frame boundary with garbage.
    GarbageBurst,
    /// Corrupt the metadata header: salvage must fail with a typed
    /// error, never guess a machine shape.
    CorruptHeader,
    /// Torn write during recording with no retry layer: the tail past
    /// the tear is lost but the prefix must salvage.
    TornWrite,
    /// Transient write errors during recording behind a
    /// [`RetryWriter`](delorean::recover::RetryWriter): the stream
    /// must come out byte-identical to the pristine one.
    TransientWrite,
    /// Substrate-layer squash storms plus forced non-deterministic
    /// chunk truncations: recording must stay replayable.
    SubstrateStorm,
    /// Substrate-layer DMA/IRQ interference burst: ditto.
    DeviceBurst,
}

impl FaultClass {
    /// Every class, in matrix order.
    pub fn all() -> [FaultClass; 10] {
        [
            FaultClass::None,
            FaultClass::BitFlipBody,
            FaultClass::TruncateTail,
            FaultClass::DuplicateSegment,
            FaultClass::GarbageBurst,
            FaultClass::CorruptHeader,
            FaultClass::TornWrite,
            FaultClass::TransientWrite,
            FaultClass::SubstrateStorm,
            FaultClass::DeviceBurst,
        ]
    }

    /// Stable matrix label.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::BitFlipBody => "bit-flip-body",
            FaultClass::TruncateTail => "truncate-tail",
            FaultClass::DuplicateSegment => "duplicate-segment",
            FaultClass::GarbageBurst => "garbage-burst",
            FaultClass::CorruptHeader => "corrupt-header",
            FaultClass::TornWrite => "torn-write",
            FaultClass::TransientWrite => "transient-write",
            FaultClass::SubstrateStorm => "substrate-storm",
            FaultClass::DeviceBurst => "device-burst",
        }
    }
}

/// Derives the concrete byte-image fault plan for `class` against a
/// stream with layout `lay`, deterministically from `seed`.
///
/// Only byte-image classes produce ops here; I/O and substrate classes
/// are parameterized directly by their scenario seed.
pub fn plan_for(class: FaultClass, seed: u64, lay: &StreamLayout, stream_len: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Events segments only (the trailer is the last frame); fall back
    // to the whole byte range for degenerate streams.
    let n_events = lay.segments.len().saturating_sub(1);
    let ops = match class {
        FaultClass::BitFlipBody => {
            let seg = lay.segments[rng.gen_range(0..n_events.max(1))];
            let body = (seg.start + 17) as u64..seg.end as u64;
            vec![FaultOp::FlipBit {
                offset: rng.gen_range(body),
                bit: rng.gen_range(0u8..8) & 7,
            }]
        }
        FaultClass::TruncateTail => {
            let seg = lay.segments[rng.gen_range(n_events / 2..n_events.max(1))];
            vec![FaultOp::TruncateAt {
                offset: rng.gen_range(seg.start as u64 + 1..seg.end as u64),
            }]
        }
        FaultClass::DuplicateSegment => {
            let seg = lay.segments[rng.gen_range(0..n_events.max(1))];
            vec![FaultOp::Duplicate {
                start: seg.start as u64,
                end: seg.end as u64,
            }]
        }
        FaultClass::GarbageBurst => {
            let seg = lay.segments[rng.gen_range(0..n_events.max(1))];
            // Start inside the segment, run past its end: breaks both
            // this frame and the next frame's head.
            let offset = rng.gen_range(seg.start as u64 + 1..seg.end as u64);
            let len = (seg.end as u64 - offset + rng.gen_range(4u64..24)).min(stream_len - offset);
            vec![FaultOp::Garbage {
                offset,
                len,
                fill_seed: rng.gen::<u64>(),
            }]
        }
        FaultClass::CorruptHeader => {
            // Anywhere in the metadata header past the magic/version:
            // the checksum must catch it.
            vec![FaultOp::FlipBit {
                offset: rng.gen_range(6..lay.header_end as u64),
                bit: rng.gen_range(0u8..8) & 7,
            }]
        }
        _ => Vec::new(),
    };
    FaultPlan { seed, ops }
}
