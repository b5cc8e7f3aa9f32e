//! The machine-readable unit of the bench trajectory.
//!
//! Every sweep job produces one [`BenchRecord`]; the full document
//! written to `BENCH_results.json` is a [`records`] array plus
//! per-figure summary metrics (see [`crate::runner`]). The schema is
//! versioned: consumers (CI's regression gate, the diff mode) refuse
//! documents whose [`SCHEMA_VERSION`] differs.
//!
//! Fields split into two classes:
//!
//! * **deterministic** — identical for identical job specs at any
//!   `--jobs` value (cycles, log sizes, commit counts, the
//!   arbitration-cycle counter);
//! * **volatile** — wall-clock and memory observations (`wall_ms`,
//!   `peak_rss_kb`, the `*_ms` stage timers), excluded from the
//!   canonical form used by determinism comparisons.
//!
//! [`records`]: BenchRecord

use delorean::json::Json;

/// Version of the `BENCH_results.json` schema. Bump on any
/// field addition, removal or rename.
///
/// Encoding invariants: counter fields (cycles, commits, budgets, …)
/// are JSON numbers and therefore exact only up to 2^53 — far beyond
/// any value a sweep can measure — while the `seed`, which genuinely
/// spans the full u64 range, is a `0x…` hex string.
pub const SCHEMA_VERSION: u64 = 1;

/// Lightweight per-stage counters for one job.
///
/// The `*_ms` fields are wall-clock stage timers (volatile); the
/// arbitration counter is measured in *simulated cycles* and is fully
/// deterministic: it sums the engine's commit-arbitration exposure —
/// per-processor cycles stalled with every chunk slot full, plus (for
/// token-based PicoLog runs) cycles the commit token spent in flight or
/// waiting on chunk completion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    /// Wall-clock milliseconds recording (or baseline-executing) the
    /// point. Volatile.
    pub record_ms: f64,
    /// Wall-clock milliseconds in replay verification. Volatile.
    pub replay_ms: f64,
    /// Wall-clock milliseconds measuring/compressing logs. Volatile.
    pub compress_ms: f64,
    /// Simulated commit-arbitration cycles (deterministic).
    pub arb_cycles: u64,
}

impl StageTimings {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("record_ms".into(), Json::Num(self.record_ms)),
            ("replay_ms".into(), Json::Num(self.replay_ms)),
            ("compress_ms".into(), Json::Num(self.compress_ms)),
            ("arb_cycles".into(), Json::int(self.arb_cycles)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StageTimings {
            record_ms: num(v, "record_ms")?,
            replay_ms: num(v, "replay_ms")?,
            compress_ms: num(v, "compress_ms")?,
            arb_cycles: uint(v, "arb_cycles")?,
        })
    }
}

/// One measured point of the sweep: a (figure, workload, mode,
/// chunk-size, processor-count) combination and everything the job
/// observed about it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable identity, e.g. `fig10/barnes/picolog/c1000/p8` — also the
    /// input of the per-job seed derivation.
    pub id: String,
    /// Figure/table this point belongs to (`fig06`…`fig12`, `tab01`,
    /// `tab06`).
    pub figure: String,
    /// Workload name as the paper reports it.
    pub workload: String,
    /// Mode/configuration label: a DeLorean mode (`ordersize`,
    /// `orderonly`, `picolog`), a substrate baseline (`rc`, `sc`,
    /// `bulksc`), or a related-work recorder (`fdr`, `rtr`, `strata`).
    pub mode: String,
    /// Standard (or maximum) chunk size in instructions; 0 for
    /// unchunked baselines.
    pub chunk_size: u32,
    /// Processor count.
    pub procs: u32,
    /// Retired-instruction budget per processor.
    pub budget: u64,
    /// The derived per-job seed actually used.
    pub seed: u64,
    /// Simulated execution cycles of the initial run.
    pub cycles: u64,
    /// Application work units completed (fixed-work speedup
    /// denominator).
    pub work_units: u64,
    /// Chunk commits granted (0 for unchunked baselines).
    pub commits: u64,
    /// Estimated network traffic in bytes.
    pub traffic_bytes: u64,
    /// Raw memory-ordering log size, bits per processor per
    /// kilo-instruction (0 when the config keeps no log).
    pub raw_bits_pp_pki: f64,
    /// Compressed memory-ordering log size in the same unit.
    pub comp_bits_pp_pki: f64,
    /// Number of perturbed verification replays run for this point.
    pub replays: u32,
    /// Mean simulated cycles across those replays (0 when none ran).
    pub replay_cycles: u64,
    /// Whether every verification replay was bit-exact (vacuously true
    /// when none ran).
    pub replay_deterministic: bool,
    /// Figure-specific extra metrics (token statistics, stratification
    /// ratios, …), deterministic.
    pub extra: Vec<(String, f64)>,
    /// Wall-clock milliseconds the whole job took. Volatile.
    pub wall_ms: f64,
    /// Process peak RSS in KiB observed at job completion (Linux
    /// `VmHWM`; 0 where unavailable). Volatile: it is a process-wide
    /// high-water mark, not a per-job measurement.
    pub peak_rss_kb: u64,
    /// Per-stage counters.
    pub timings: StageTimings,
}

impl BenchRecord {
    /// Serializes the record, including volatile fields.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("figure".into(), Json::Str(self.figure.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("chunk_size".into(), Json::int(u64::from(self.chunk_size))),
            ("procs".into(), Json::int(u64::from(self.procs))),
            ("budget".into(), Json::int(self.budget)),
            // Seeds span the full u64 range, which JSON numbers (f64)
            // cannot hold exactly — serialized as a hex string.
            ("seed".into(), Json::Str(format!("{:#x}", self.seed))),
            ("cycles".into(), Json::int(self.cycles)),
            ("work_units".into(), Json::int(self.work_units)),
            ("commits".into(), Json::int(self.commits)),
            ("traffic_bytes".into(), Json::int(self.traffic_bytes)),
            ("raw_bits_pp_pki".into(), Json::Num(self.raw_bits_pp_pki)),
            ("comp_bits_pp_pki".into(), Json::Num(self.comp_bits_pp_pki)),
            ("replays".into(), Json::int(u64::from(self.replays))),
            ("replay_cycles".into(), Json::int(self.replay_cycles)),
            (
                "replay_deterministic".into(),
                Json::Bool(self.replay_deterministic),
            ),
            (
                "extra".into(),
                Json::Obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("wall_ms".into(), Json::Num(self.wall_ms)),
            ("peak_rss_kb".into(), Json::int(self.peak_rss_kb)),
            ("timings".into(), self.timings.to_json()),
        ];
        fields.shrink_to_fit();
        Json::Obj(fields)
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field —
    /// the signal the CI gate reports as schema drift.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let extra = match v.get("extra") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, val)| {
                    val.as_num()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("extra.{k}: expected number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("extra: expected object".to_string()),
            None => return Err("missing field extra".to_string()),
        };
        Ok(BenchRecord {
            id: string(v, "id")?,
            figure: string(v, "figure")?,
            workload: string(v, "workload")?,
            mode: string(v, "mode")?,
            chunk_size: uint(v, "chunk_size")? as u32,
            procs: uint(v, "procs")? as u32,
            budget: uint(v, "budget")?,
            seed: hex(v, "seed")?,
            cycles: uint(v, "cycles")?,
            work_units: uint(v, "work_units")?,
            commits: uint(v, "commits")?,
            traffic_bytes: uint(v, "traffic_bytes")?,
            raw_bits_pp_pki: num(v, "raw_bits_pp_pki")?,
            comp_bits_pp_pki: num(v, "comp_bits_pp_pki")?,
            replays: uint(v, "replays")? as u32,
            replay_cycles: uint(v, "replay_cycles")?,
            replay_deterministic: v
                .get("replay_deterministic")
                .and_then(Json::as_bool)
                .ok_or("missing field replay_deterministic")?,
            extra,
            wall_ms: num(v, "wall_ms")?,
            peak_rss_kb: uint(v, "peak_rss_kb")?,
            timings: StageTimings::from_json(v.get("timings").ok_or("missing field timings")?)?,
        })
    }

    /// The record with volatile fields (wall time, RSS, `*_ms` stage
    /// timers) zeroed — the form compared by the determinism test and
    /// anything else that asserts `--jobs N` invariance.
    #[must_use]
    pub fn canonical(&self) -> BenchRecord {
        let mut c = self.clone();
        c.wall_ms = 0.0;
        c.peak_rss_kb = 0;
        c.timings.record_ms = 0.0;
        c.timings.replay_ms = 0.0;
        c.timings.compress_ms = 0.0;
        c
    }

    /// Names of every field a schema-valid record must carry, used by
    /// the drift check.
    pub fn required_fields() -> &'static [&'static str] {
        &[
            "id",
            "figure",
            "workload",
            "mode",
            "chunk_size",
            "procs",
            "budget",
            "seed",
            "cycles",
            "work_units",
            "commits",
            "traffic_bytes",
            "raw_bits_pp_pki",
            "comp_bits_pp_pki",
            "replays",
            "replay_cycles",
            "replay_deterministic",
            "extra",
            "wall_ms",
            "peak_rss_kb",
            "timings",
        ]
    }
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key}"))
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field {key}"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key}"))
}

fn hex(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s.strip_prefix("0x")?, 16).ok())
        .ok_or_else(|| format!("missing hex field {key}"))
}

/// Process peak RSS in KiB from `/proc/self/status` (`VmHWM`), 0 where
/// unavailable (non-Linux, or the file cannot be parsed).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    pub(crate) fn sample() -> BenchRecord {
        BenchRecord {
            id: "fig10/barnes/picolog/c1000/p8".into(),
            figure: "fig10".into(),
            workload: "barnes".into(),
            mode: "picolog".into(),
            chunk_size: 1000,
            procs: 8,
            budget: 20_000,
            // Deliberately above 2^53: locks the hex-string encoding.
            seed: 0xdead_beef_cafe_f00d,
            cycles: 123_456,
            work_units: 789,
            commits: 160,
            traffic_bytes: 9_876,
            raw_bits_pp_pki: 0.0,
            comp_bits_pp_pki: 0.004,
            replays: 2,
            replay_cycles: 150_000,
            replay_deterministic: true,
            extra: vec![("proc_ready_pct".into(), 81.25)],
            wall_ms: 12.5,
            peak_rss_kb: 40_000,
            timings: StageTimings {
                record_ms: 10.0,
                replay_ms: 2.0,
                compress_ms: 0.5,
                arb_cycles: 42_000,
            },
        }
    }

    #[test]
    fn record_round_trips() {
        let r = sample();
        let back = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // And through actual text.
        let text = r.to_json().pretty();
        let back = BenchRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn canonical_zeroes_only_volatile_fields() {
        let r = sample();
        let c = r.canonical();
        assert_eq!(c.wall_ms, 0.0);
        assert_eq!(c.peak_rss_kb, 0);
        assert_eq!(c.timings.record_ms, 0.0);
        assert_eq!(c.timings.arb_cycles, r.timings.arb_cycles);
        assert_eq!(c.cycles, r.cycles);
        assert_eq!(c.extra, r.extra);
    }

    #[test]
    fn missing_fields_are_schema_errors() {
        let r = sample();
        for field in BenchRecord::required_fields() {
            let Json::Obj(fields) = r.to_json() else {
                unreachable!()
            };
            let pruned = Json::Obj(fields.into_iter().filter(|(k, _)| k != field).collect());
            let err = BenchRecord::from_json(&pruned).unwrap_err();
            assert!(err.contains(field), "dropping {field} gave: {err}");
        }
    }

    #[test]
    fn json_lists_every_required_field() {
        let r = sample().to_json();
        let obj = r.as_obj().unwrap();
        for field in BenchRecord::required_fields() {
            assert!(obj.iter().any(|(k, _)| k == field), "{field} missing");
        }
        assert_eq!(obj.len(), BenchRecord::required_fields().len());
    }

    #[test]
    fn peak_rss_reads_without_panicking() {
        // Linux hosts report a positive high-water mark; elsewhere 0.
        let _ = peak_rss_kb();
    }
}
