//! Chunk dependence-graph analysis (pass 4).
//!
//! DeLorean's commit log records a *total* order, but the true
//! constraint on replay is only a *partial* order: chunks whose
//! footprints do not conflict could have committed — and can replay —
//! in either relative order. This pass replays a recording through
//! [`ReplayInspector`](delorean::inspect::ReplayInspector) with
//! footprint collection enabled and builds the chunk dependence DAG
//! twice, from the crate's conflict tracker:
//!
//! * **exact** — conflict edges from the reconstructed line-granular
//!   footprints (last writer plus readers-since-write per line, the
//!   same line edges the race pass folds into its clocks), unioned with
//!   program order;
//! * **approximate** — the same construction in the *signature domain*:
//!   every cache line is hashed to its two 2-Kbit signature bits
//!   ([`delorean_mem::bit_indices`]) and conflicts are detected on bit
//!   overlap, exactly how the hardware's Bulk signature intersection
//!   behaves. Hash aliasing makes this a conservative superset of the
//!   exact graph.
//!
//! Diffing the two graphs quantifies **signature-aliasing false
//! positives**: approximate direct edges whose endpoints' exact
//! footprints do not conflict at all. The pass then computes the
//! transitive reduction of the exact DAG, its critical-path length
//! (instruction-weighted), and an available-parallelism profile —
//! deterministic list-scheduling makespans at k ∈ {2,4,…,256} cores —
//! and verifies as a hard lint invariant that the recorded commit order
//! is a **linear extension of the exact DAG**: the replay digest must
//! match the trailer, which fails exactly when conflicting chunks were
//! reordered (commuting independent chunks is legal and passes).
//!
//! [`races_and_deps`] runs the race pass from the same replay, so
//! `analyze --deps` walks the log once. The report's JSON rendering
//! (the `deps` object of `analyze --deps --json`) is byte-deterministic
//! across runs. It measures how much replay parallelism a recording
//! holds; no replayer consumes it.

use crate::conflicts::{column, walk, who_label, Tracker};
use crate::races::{Detector, RaceOptions, RaceReport};
use crate::report::{diagnostics_json, Diagnostic};
use delorean::inspect::{CommitEvent, InspectError};
use delorean::json;
use delorean::recover::RecoveringSource;
use delorean::{FileSource, LogSource};
use delorean_chunk::footprint::footprints_conflict;
use delorean_mem::bit_indices;

/// Core counts the available-parallelism profile is evaluated at.
pub const PROFILE_CORES: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Options for the dependence pass.
#[derive(Debug, Clone)]
pub struct DepsOptions {
    /// Core counts the parallelism profile is computed at.
    pub cores: Vec<u32>,
}

impl Default for DepsOptions {
    fn default() -> Self {
        Self {
            cores: PROFILE_CORES.to_vec(),
        }
    }
}

/// One node of the dependence DAG: a committed chunk or DMA transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepNode {
    /// Global commit slot (1-based; the recorded total order).
    pub slot: u64,
    /// Committer label (`P3` or `DMA`).
    pub who: String,
    /// Per-committer chunk index (0 for DMA).
    pub chunk: u64,
    /// Scheduling weight: retired instructions, or the payload word
    /// count for DMA transfers (minimum 1).
    pub weight: u64,
}

/// Output of the dependence pass.
#[derive(Debug, Clone, Default)]
pub struct DepsReport {
    /// Workload name from the stream metadata.
    pub workload: String,
    /// Execution mode label.
    pub mode: String,
    /// Processors in the recorded machine.
    pub n_procs: u32,
    /// Arbiter topology label (`global` or `sharded:K`).
    pub arbiter: String,
    /// DAG nodes in commit-slot order.
    pub nodes: Vec<DepNode>,
    /// Transitive reduction of the exact DAG, as `(earlier_slot,
    /// later_slot)` pairs sorted by (later, earlier).
    pub reduced_edges: Vec<(u64, u64)>,
    /// Direct exact edges (conflict + program order) before reduction.
    pub exact_edges: u64,
    /// Direct signature-domain edges (conservative superset).
    pub approx_edges: u64,
    /// Approximate edges whose endpoints do not exactly conflict —
    /// pure hash-aliasing false positives.
    pub aliased_edges: u64,
    /// `aliased_edges / approx_edges` (0 when the graph has no edges).
    pub aliasing_rate: f64,
    /// Instruction-weighted critical-path length of the exact DAG.
    pub critical_path: u64,
    /// Total instruction weight across all nodes.
    pub total_work: u64,
    /// `(cores, speedup)` profile: `total_work / makespan(k)` under
    /// deterministic list scheduling.
    pub parallelism: Vec<(u32, f64)>,
    /// Whether the graph covers only a salvaged prefix of a damaged
    /// stream.
    pub partial: bool,
    /// Human-readable lost commit ranges, when partial.
    pub lost_ranges: Vec<String>,
    /// Whether the replay reached a clean end (full stream or salvaged
    /// prefix); the graph fields are empty when it did not.
    pub replay_complete: bool,
    /// Findings, including the linear-extension verdict.
    pub diagnostics: Vec<Diagnostic>,
}

impl DepsReport {
    /// A report for a replay that failed before completing.
    pub fn failed(err: &InspectError) -> Self {
        Self {
            diagnostics: vec![Diagnostic::error("replay-failed", err.to_string())],
            ..Self::default()
        }
    }

    /// Maximum speedup the DAG admits at unbounded cores
    /// (`total_work / critical_path`).
    pub fn max_speedup(&self) -> f64 {
        if self.critical_path == 0 {
            0.0
        } else {
            self.total_work as f64 / self.critical_path as f64
        }
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"chunks\":{},\"exact_edges\":{},\"reduced_edges\":{},\"approx_edges\":{},\"aliased_edges\":{},\"aliasing_rate\":{},\"critical_path\":{},\"total_work\":{},\"max_speedup\":{},\"partial\":{},\"lost_ranges\":[",
            self.nodes.len(),
            self.exact_edges,
            self.reduced_edges.len(),
            self.approx_edges,
            self.aliased_edges,
            fmt6(self.aliasing_rate),
            self.critical_path,
            self.total_work,
            fmt6(self.max_speedup()),
            self.partial,
        ));
        for (i, r) in self.lost_ranges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json::escape(r)));
        }
        out.push_str("],\"parallelism\":[");
        for (i, (cores, speedup)) in self.parallelism.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cores\":{cores},\"speedup\":{}}}",
                fmt6(*speedup)
            ));
        }
        out.push_str("],\"diagnostics\":");
        diagnostics_json(&self.diagnostics, out);
        out.push('}');
    }
}

impl core::fmt::Display for DepsReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if !self.replay_complete {
            writeln!(f, "dependence analysis: replay did not complete")?;
        } else {
            writeln!(
                f,
                "dependence analysis: {} chunks, {} exact edge(s) ({} after reduction), {} signature edge(s) of which {} aliased ({:.2}%)",
                self.nodes.len(),
                self.exact_edges,
                self.reduced_edges.len(),
                self.approx_edges,
                self.aliased_edges,
                self.aliasing_rate * 100.0
            )?;
            writeln!(
                f,
                "  critical path {} of {} instructions (max speedup {:.2}x)",
                self.critical_path,
                self.total_work,
                self.max_speedup()
            )?;
            if !self.parallelism.is_empty() {
                write!(f, "  speedup profile:")?;
                for (cores, s) in &self.parallelism {
                    write!(f, " {cores}c={s:.2}x")?;
                }
                writeln!(f)?;
            }
            if self.partial {
                writeln!(
                    f,
                    "  PARTIAL graph: lost commit range(s) {}",
                    self.lost_ranges.join(", ")
                )?;
            }
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Fixed-precision float rendering, the JSON report's determinism
/// contract for non-integer values.
fn fmt6(x: f64) -> String {
    format!("{x:.6}")
}

/// The signature bits a sorted line set hashes to, sorted and
/// deduplicated.
fn signature_bits(lines: &[u64]) -> Vec<u64> {
    let mut bits: Vec<u64> = lines
        .iter()
        .flat_map(|&l| bit_indices(l))
        .map(|b| b as u64)
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// A commit's direct predecessors in one domain: its program-order
/// predecessor plus every earlier commit `tracker` reports a conflict
/// with, sorted and deduplicated.
fn direct_preds(
    tracker: &Tracker<u32>,
    program_order: Option<u32>,
    col: u32,
    reads: &[u64],
    writes: &[u64],
) -> Vec<u32> {
    let mut preds: Vec<u32> = program_order.into_iter().collect();
    tracker.conflicts(col, reads.iter().copied(), writes, |&p, _, _| preds.push(p));
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Builds both dependence graphs online, one commit at a time.
struct GraphBuilder {
    n_procs: u32,
    nodes: Vec<DepNode>,
    /// Each commit's exact footprint: the sorted lines it read and wrote.
    footprints: Vec<(Vec<u64>, Vec<u64>)>,
    last_of_col: Vec<Option<u32>>,
    lines: Tracker<u32>,
    bits: Tracker<u32>,
    exact_preds: Vec<Vec<u32>>,
    approx_preds: Vec<Vec<u32>>,
}

impl GraphBuilder {
    fn new(n_procs: u32) -> Self {
        Self {
            n_procs,
            nodes: Vec::new(),
            footprints: Vec::new(),
            last_of_col: vec![None; n_procs as usize + 1],
            lines: Tracker::lines(),
            bits: Tracker::bits(),
            exact_preds: Vec::new(),
            approx_preds: Vec::new(),
        }
    }

    fn observe(&mut self, ev: &CommitEvent) {
        let col = column(ev.committer, self.n_procs);
        let idx = self.nodes.len() as u32;
        let weight = if ev.size > 0 {
            u64::from(ev.size)
        } else {
            u64::from(ev.dma_words.max(1))
        };
        self.nodes.push(DepNode {
            slot: ev.gcc,
            who: who_label(col, self.n_procs),
            chunk: ev.chunk_index,
            weight,
        });

        // Exact predecessors come from the line tracker; approximate
        // ones from the identical construction over signature bits,
        // where any shared bit is a conflict (how a hardware signature
        // intersection behaves). Aliasing can only add edges.
        let (reads, writes) = (&ev.read_lines, &ev.write_lines);
        let (read_bits, write_bits) = (signature_bits(reads), signature_bits(writes));
        let program_order = self.last_of_col[col as usize];
        let exact = direct_preds(&self.lines, program_order, col, reads, writes);
        let approx = direct_preds(&self.bits, program_order, col, &read_bits, &write_bits);
        self.lines.record(col, &idx, reads, writes);
        self.bits.record(col, &idx, &read_bits, &write_bits);

        self.last_of_col[col as usize] = Some(idx);
        self.footprints.push((reads.clone(), writes.clone()));
        self.exact_preds.push(exact);
        self.approx_preds.push(approx);
    }

    /// Finalizes the graphs into a report over a completed replay, with
    /// the stream's labels and findings left for the caller to fill in.
    fn finish(self, opts: &DepsOptions) -> DepsReport {
        let n = self.nodes.len();
        let exact_edges: u64 = self.exact_preds.iter().map(|p| p.len() as u64).sum();
        let approx_edges: u64 = self.approx_preds.iter().map(|p| p.len() as u64).sum();

        // Aliased edges: approximate direct edges not present in the
        // exact direct set *and* whose endpoints' exact footprints do
        // not conflict at all — pure hash-aliasing artifacts. (An
        // approximate-only edge between exactly-conflicting chunks is
        // merely a transitive dependence surfacing early, not a false
        // positive.)
        let footprint = |i: usize| {
            let (reads, writes) = &self.footprints[i];
            (&reads[..], &writes[..])
        };
        let mut aliased_edges = 0u64;
        for (v, approx) in self.approx_preds.iter().enumerate() {
            for &u in approx {
                if self.exact_preds[v].binary_search(&u).is_err()
                    && !footprints_conflict(footprint(u as usize), footprint(v))
                {
                    aliased_edges += 1;
                }
            }
        }

        // Transitive reduction via ancestor bitsets, nodes in slot
        // (= topological) order: a direct edge (u, v) is redundant iff
        // u is a strict ancestor of another predecessor of v.
        let words = n.div_ceil(64);
        let mut anc: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut reduced: Vec<(u64, u64)> = Vec::new();
        let mut reduced_preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, rp) in reduced_preds.iter_mut().enumerate() {
            let preds = &self.exact_preds[v];
            let mut mine = vec![0u64; words];
            for &p in preds {
                let p = p as usize;
                for (w, bits) in mine.iter_mut().zip(&anc[p]) {
                    *w |= bits;
                }
                mine[p / 64] |= 1u64 << (p % 64);
            }
            for &u in preds {
                let redundant = preds.iter().any(|&p| {
                    p != u && anc[p as usize][u as usize / 64] & (1u64 << (u as usize % 64)) != 0
                });
                if !redundant {
                    reduced.push((self.nodes[u as usize].slot, self.nodes[v].slot));
                    rp.push(u);
                }
            }
            anc.push(mine);
        }

        // Critical path (longest instruction-weighted chain) and total
        // work over the full exact DAG.
        let mut cp = vec![0u64; n];
        let mut critical_path = 0u64;
        let mut total_work = 0u64;
        for v in 0..n {
            let longest_pred = self.exact_preds[v]
                .iter()
                .map(|&p| cp[p as usize])
                .max()
                .unwrap_or(0);
            cp[v] = longest_pred + self.nodes[v].weight;
            critical_path = critical_path.max(cp[v]);
            total_work += self.nodes[v].weight;
        }

        // Available-parallelism profile: deterministic list scheduling
        // (lowest-slot-first among ready nodes) at each core count.
        let parallelism = opts
            .cores
            .iter()
            .map(|&k| {
                let makespan = list_schedule(&self.nodes, &reduced_preds, k);
                let speedup = if makespan == 0 {
                    0.0
                } else {
                    total_work as f64 / makespan as f64
                };
                (k, speedup)
            })
            .collect();

        DepsReport {
            n_procs: self.n_procs,
            nodes: self.nodes,
            reduced_edges: reduced,
            exact_edges,
            approx_edges,
            aliased_edges,
            aliasing_rate: if approx_edges == 0 {
                0.0
            } else {
                aliased_edges as f64 / approx_edges as f64
            },
            critical_path,
            total_work,
            parallelism,
            replay_complete: true,
            ..DepsReport::default()
        }
    }
}

/// Deterministic list-scheduling makespan with `k` workers: among
/// ready nodes always start the lowest commit slot first; ties in
/// finish times break on node index. Purely a function of the DAG.
fn list_schedule(nodes: &[DepNode], preds: &[Vec<u32>], k: u32) -> u64 {
    let n = nodes.len();
    if n == 0 || k == 0 {
        return 0;
    }
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, ps) in preds.iter().enumerate() {
        indeg[v] = ps.len();
        for &u in ps {
            succs[u as usize].push(v as u32);
        }
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&v| indeg[v] == 0).map(Reverse).collect();
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut makespan = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        while running.len() < k as usize {
            let Some(Reverse(v)) = ready.pop() else { break };
            running.push(Reverse((now + nodes[v].weight, v)));
        }
        let Some(Reverse((t, v))) = running.pop() else {
            // No node ready and none running: impossible in a DAG with
            // remaining nodes, but never loop on a malformed input.
            break;
        };
        now = t;
        makespan = makespan.max(t);
        remaining -= 1;
        for &s in &succs[v] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(Reverse(s as usize));
            }
        }
    }
    makespan
}

/// Runs the dependence pass over a full `.dlrn` byte image, degrading
/// gracefully on damaged streams: when the intact-path replay fails,
/// the salvage pass of [`delorean::recover`] recovers what it can and
/// the DAG is built over the salvaged *prefix*, with the report
/// marked `partial: true` and the lost commit ranges named. Never
/// panics; an unusable stream yields a report whose single finding is
/// the decode error.
pub fn deps_from_bytes(bytes: &[u8], opts: &DepsOptions) -> DepsReport {
    races_and_deps(bytes, None, opts).1
}

/// [`deps_from_bytes`] with the race pass too, when `races` is given:
/// one replay of an intact stream feeds both. The race report is `None`
/// when the stream header is rejected, so no replay starts, and a
/// [`RaceReport::failed`] when the replay fails; the dependence report
/// then covers the salvaged prefix as [`deps_from_bytes`] describes.
pub fn races_and_deps(
    bytes: &[u8],
    races: Option<&RaceOptions>,
    opts: &DepsOptions,
) -> (Option<RaceReport>, DepsReport) {
    let source = match FileSource::open(bytes) {
        Ok(source) => source,
        Err(e) => {
            let err = InspectError {
                detail: format!("stream header rejected: {e}"),
                commit: None,
            };
            return (None, salvaged(bytes, &err, opts));
        }
    };
    let meta = source.meta();
    let (workload, mode, arbiter) = (
        meta.workload.name.to_string(),
        meta.mode.to_string(),
        meta.arbiter.to_string(),
    );
    let mut detector = races.map(|o| Detector::new(meta.mode, meta.n_procs, o));
    let mut graph = GraphBuilder::new(meta.n_procs);
    let walked = walk(source, |ev| {
        if let Some(d) = &mut detector {
            d.observe(ev);
        }
        graph.observe(ev);
    });
    let races = detector.map(|d| match &walked {
        Ok(_) => d.finish(),
        Err(e) => RaceReport::failed(e),
    });
    let verdict = match walked.and_then(|mut inspector| inspector.run_to_end()) {
        Ok(verdict) => verdict,
        Err(err) => return (races, salvaged(bytes, &err, opts)),
    };
    let diagnostic = if verdict.matches_recording {
        Diagnostic::info(
            "linear-extension",
            format!(
                "recorded commit order verified as a linear extension of the exact dependence DAG over {} commit(s) (replay digest matches the trailer)",
                verdict.commits
            ),
        )
    } else {
        Diagnostic::error(
            "linear-extension",
            format!(
                "recorded commit order is NOT a linear extension of the exact dependence DAG: conflicting chunks were reordered and the replay digest diverges ({})",
                verdict.mismatch.unwrap_or_default()
            ),
        )
    };
    let deps = DepsReport {
        workload,
        mode,
        arbiter,
        diagnostics: vec![diagnostic],
        ..graph.finish(opts)
    };
    (races, deps)
}

/// The dependence report of a stream whose intact replay failed with
/// `err`: the graph over the prefix [`delorean::recover::salvage`]
/// recovers from `bytes`.
fn salvaged(bytes: &[u8], err: &InspectError, opts: &DepsOptions) -> DepsReport {
    let Ok(s) = delorean::recover::salvage(bytes) else {
        return DepsReport::failed(err);
    };
    let Some(source) = RecoveringSource::prefix(&s) else {
        let mut r = DepsReport::failed(err);
        r.diagnostics.push(Diagnostic::warning(
            "deps-partial",
            "salvage recovered no prefix region starting at commit 1; no dependence graph can be built",
        ));
        return r;
    };
    let covered = source.commits();
    let mut graph = GraphBuilder::new(s.meta.n_procs);
    let mut inspector = match walk(source, |ev| graph.observe(ev)) {
        Ok(inspector) => inspector,
        Err(e) => return DepsReport::failed(&e),
    };
    let mut diagnostics = vec![Diagnostic::warning(
        "deps-partial",
        format!(
            "stream is damaged ({}); dependence graph covers the salvaged prefix of {covered} commit(s) and skips the quarantined ranges",
            err.detail
        ),
    )];
    let mut lost_ranges: Vec<String> = s.report.lost.iter().map(ToString::to_string).collect();
    if lost_ranges.is_empty() {
        lost_ranges.push(format!("{}.. (unbounded)", covered + 1));
    }
    // A salvaged prefix reaching the trailer can still verify the
    // digest; otherwise the linear-extension verdict is limited to
    // replay self-consistency over the recovered range.
    match inspector.run_to_end() {
        Ok(verdict) if verdict.matches_recording => diagnostics.push(Diagnostic::info(
            "linear-extension",
            "salvaged prefix verified as a linear extension of the exact dependence DAG".to_string(),
        )),
        Ok(verdict) => diagnostics.push(Diagnostic::error(
            "linear-extension",
            format!(
                "salvaged prefix is NOT a linear extension of the exact dependence DAG ({})",
                verdict.mismatch.unwrap_or_default()
            ),
        )),
        Err(_) => diagnostics.push(Diagnostic::warning(
            "linear-extension",
            "trailer digest unavailable on the salvaged prefix; linear extension verified only by replay consistency".to_string(),
        )),
    }
    DepsReport {
        workload: s.meta.workload.name.to_string(),
        mode: s.meta.mode.to_string(),
        arbiter: s.meta.arbiter.to_string(),
        partial: true,
        lost_ranges,
        diagnostics,
        ..graph.finish(opts)
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::conflicts::commit as ev;
    use delorean_chunk::Committer;

    fn summary(events: &[CommitEvent], n_procs: u32) -> DepsReport {
        let mut gb = GraphBuilder::new(n_procs);
        for e in events {
            gb.observe(e);
        }
        gb.finish(&DepsOptions::default())
    }

    #[test]
    fn independent_chunks_have_no_cross_edges() {
        let g = summary(
            &[
                ev(1, Committer::Proc(0), 1, 10, vec![1], vec![2]),
                ev(2, Committer::Proc(1), 1, 10, vec![3], vec![4]),
            ],
            2,
        );
        assert_eq!(g.exact_edges, 0);
        assert_eq!(g.critical_path, 10);
        assert_eq!(g.total_work, 20);
        // Two independent equal chunks: 2 cores give exactly 2x.
        assert_eq!(g.parallelism[0], (2, 2.0));
    }

    #[test]
    fn conflicts_and_program_order_form_chains() {
        // P0 writes line 7, P1 reads it, P1's next chunk follows in
        // program order: one chain of three.
        let g = summary(
            &[
                ev(1, Committer::Proc(0), 1, 10, vec![], vec![7]),
                ev(2, Committer::Proc(1), 1, 10, vec![7], vec![]),
                ev(3, Committer::Proc(1), 2, 10, vec![], vec![]),
            ],
            2,
        );
        assert_eq!(g.exact_edges, 2);
        assert_eq!(g.critical_path, 30);
        // Fully serial chain: no speedup at any core count.
        assert!(g.parallelism.iter().all(|&(_, s)| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn transitive_reduction_drops_redundant_edges() {
        // P0 -> P1 (line 7), P1 -> P2 (line 9), and P2 also reads
        // line 7: the direct P0 -> P2 edge is transitively implied.
        let g = summary(
            &[
                ev(1, Committer::Proc(0), 1, 1, vec![], vec![7]),
                ev(2, Committer::Proc(1), 1, 1, vec![7], vec![9]),
                ev(3, Committer::Proc(2), 1, 1, vec![7, 9], vec![]),
            ],
            3,
        );
        assert_eq!(g.exact_edges, 3);
        assert_eq!(g.reduced_edges, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn signature_graph_is_a_superset_with_aliased_edges() {
        // Writer floods many lines; a disjoint reader aliases in the
        // signature domain but not exactly.
        let flood: Vec<u64> = (0..400).map(|l| l * 977).collect();
        let g = summary(
            &[
                ev(1, Committer::Proc(0), 1, 10, vec![], flood),
                ev(2, Committer::Proc(1), 1, 10, vec![1_000_000], vec![]),
            ],
            2,
        );
        assert!(g.approx_edges >= g.exact_edges);
        assert_eq!(g.exact_edges, 0, "no true conflict");
        assert_eq!(g.aliased_edges, 1, "dense signature must alias");
        assert!(g.aliasing_rate > 0.0);
    }

    #[test]
    fn dma_transfers_participate_with_payload_weight() {
        let mut dma = ev(1, Committer::Dma, 0, 0, vec![], vec![11]);
        dma.dma_words = 16;
        let g = summary(
            &[dma, ev(2, Committer::Proc(0), 1, 10, vec![11], vec![])],
            2,
        );
        assert_eq!(g.exact_edges, 1);
        assert_eq!(g.total_work, 26);
        assert_eq!(g.critical_path, 26);
    }

    #[test]
    fn list_schedule_respects_worker_limit() {
        // Four independent unit chunks on 2 workers: makespan 2.
        let nodes: Vec<DepNode> = (1..=4)
            .map(|slot| DepNode {
                slot,
                who: format!("P{}", slot - 1),
                chunk: 1,
                weight: 1,
            })
            .collect();
        let preds = vec![Vec::new(); 4];
        assert_eq!(list_schedule(&nodes, &preds, 2), 2);
        assert_eq!(list_schedule(&nodes, &preds, 4), 1);
        assert_eq!(list_schedule(&nodes, &preds, 1), 4);
    }

    #[test]
    fn failed_reports_carry_the_replay_error() {
        let r = DepsReport::failed(&InspectError {
            detail: "boom".into(),
            commit: Some(3),
        });
        assert!(!r.replay_complete);
        assert!(r.nodes.is_empty());
        assert_eq!(r.diagnostics[0].code, "replay-failed");
    }
}
