//! Chunk dependence-graph analysis (pass 4).
//!
//! DeLorean's commit log records a *total* order, but the true
//! constraint on replay is only a *partial* order: chunks whose
//! footprints do not conflict could have committed — and can replay —
//! in either relative order. This pass replays a recording through
//! [`ReplayInspector`] with footprint collection enabled and builds the
//! chunk dependence DAG twice:
//!
//! * **exact** — conflict edges from the reconstructed line-granular
//!   footprints (last writer plus readers-since-write per line, the
//!   same per-line state the race pass keeps), unioned with program
//!   order;
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
//! The report's JSON rendering (the `deps` object of `analyze --deps
//! --json`) is byte-deterministic across runs. It measures how much
//! replay parallelism a recording holds; no replayer consumes it.

use crate::report::{diagnostics_json, Diagnostic};
use delorean::inspect::{CommitEvent, InspectError, ReplayInspector};
use delorean::json;
use delorean::recover::RecoveringSource;
use delorean::{FileSource, LogSource};
use delorean_chunk::{ChunkFootprint, Committer};
use delorean_mem::{bit_indices, SIG_BITS};
use std::collections::HashMap;

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
#[derive(Debug, Clone)]
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
            workload: String::new(),
            mode: String::new(),
            n_procs: 0,
            arbiter: String::new(),
            nodes: Vec::new(),
            reduced_edges: Vec::new(),
            exact_edges: 0,
            approx_edges: 0,
            aliased_edges: 0,
            aliasing_rate: 0.0,
            critical_path: 0,
            total_work: 0,
            parallelism: Vec::new(),
            partial: false,
            lost_ranges: Vec::new(),
            replay_complete: false,
            diagnostics: vec![Diagnostic::error("replay-failed", err.to_string())],
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

fn who_label(col: usize, n_procs: u32) -> String {
    if col == n_procs as usize {
        "DMA".to_string()
    } else {
        format!("P{col}")
    }
}

/// Per-line (or per-signature-bit) conflict state: the last writer and
/// the readers since that write, as node indices.
#[derive(Debug, Clone, Default)]
struct SlotState {
    last_writer: Option<u32>,
    readers: Vec<u32>,
}

/// Builds both dependence graphs online, one commit at a time.
struct GraphBuilder {
    n_procs: u32,
    nodes: Vec<DepNode>,
    cols: Vec<u32>,
    fps: Vec<ChunkFootprint>,
    last_of_col: Vec<Option<u32>>,
    lines: HashMap<u64, SlotState>,
    bits: Vec<SlotState>,
    exact_preds: Vec<Vec<u32>>,
    approx_preds: Vec<Vec<u32>>,
}

impl GraphBuilder {
    fn new(n_procs: u32) -> Self {
        Self {
            n_procs,
            nodes: Vec::new(),
            cols: Vec::new(),
            fps: Vec::new(),
            last_of_col: vec![None; n_procs as usize + 1],
            lines: HashMap::new(),
            bits: vec![SlotState::default(); SIG_BITS],
            exact_preds: Vec::new(),
            approx_preds: Vec::new(),
        }
    }

    fn observe(&mut self, ev: &CommitEvent) {
        let col = match ev.committer {
            Committer::Proc(p) => p as usize,
            Committer::Dma => self.n_procs as usize,
        };
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
        self.cols.push(col as u32);
        let fp = ev.footprint();

        // Exact direct predecessors: program order plus per-line
        // conflicts against the current last-writer/readers state.
        // Same-column conflicts are subsumed by the program-order
        // chain, so only cross-column state contributes edges.
        let mut exact: Vec<u32> = Vec::new();
        if let Some(po) = self.last_of_col[col] {
            exact.push(po);
        }
        for &line in &fp.read_lines {
            if let Some(w) = self.lines.get(&line).and_then(|s| s.last_writer) {
                if self.cols[w as usize] as usize != col {
                    exact.push(w);
                }
            }
        }
        for &line in &fp.write_lines {
            if let Some(state) = self.lines.get(&line) {
                if let Some(w) = state.last_writer {
                    if self.cols[w as usize] as usize != col {
                        exact.push(w);
                    }
                }
                for &r in &state.readers {
                    if self.cols[r as usize] as usize != col {
                        exact.push(r);
                    }
                }
            }
        }
        exact.sort_unstable();
        exact.dedup();

        // Approximate predecessors: the identical construction in the
        // signature domain — each line contributes its two hashed bits,
        // and any shared bit is a conflict (how a hardware signature
        // intersection behaves). Aliasing can only add edges.
        let mut read_bits: Vec<usize> =
            fp.read_lines.iter().flat_map(|&l| bit_indices(l)).collect();
        read_bits.sort_unstable();
        read_bits.dedup();
        let mut write_bits: Vec<usize> = fp
            .write_lines
            .iter()
            .flat_map(|&l| bit_indices(l))
            .collect();
        write_bits.sort_unstable();
        write_bits.dedup();
        let mut approx: Vec<u32> = Vec::new();
        if let Some(po) = self.last_of_col[col] {
            approx.push(po);
        }
        for &b in &read_bits {
            if let Some(w) = self.bits[b].last_writer {
                if self.cols[w as usize] as usize != col {
                    approx.push(w);
                }
            }
        }
        for &b in &write_bits {
            let state = &self.bits[b];
            if let Some(w) = state.last_writer {
                if self.cols[w as usize] as usize != col {
                    approx.push(w);
                }
            }
            for &r in &state.readers {
                if self.cols[r as usize] as usize != col {
                    approx.push(r);
                }
            }
        }
        approx.sort_unstable();
        approx.dedup();

        // Update per-line state.
        for &line in &fp.write_lines {
            let state = self.lines.entry(line).or_default();
            state.last_writer = Some(idx);
            state.readers.clear();
        }
        for &line in &fp.read_lines {
            let state = self.lines.entry(line).or_default();
            let cols = &self.cols;
            state.readers.retain(|&r| cols[r as usize] as usize != col);
            state.readers.push(idx);
        }
        // And per-bit state.
        for &b in &write_bits {
            let state = &mut self.bits[b];
            state.last_writer = Some(idx);
            state.readers.clear();
        }
        for &b in &read_bits {
            let state = &mut self.bits[b];
            let cols = &self.cols;
            state.readers.retain(|&r| cols[r as usize] as usize != col);
            state.readers.push(idx);
        }

        self.last_of_col[col] = Some(idx);
        self.fps.push(fp);
        self.exact_preds.push(exact);
        self.approx_preds.push(approx);
    }

    /// Finalizes the graphs into a report (without stream-level fields,
    /// which the callers fill in).
    fn finish(self, opts: &DepsOptions) -> GraphSummary {
        let n = self.nodes.len();
        let exact_edges: u64 = self.exact_preds.iter().map(|p| p.len() as u64).sum();
        let approx_edges: u64 = self.approx_preds.iter().map(|p| p.len() as u64).sum();

        // Aliased edges: approximate direct edges not present in the
        // exact direct set *and* whose endpoints' exact footprints do
        // not conflict at all — pure hash-aliasing artifacts. (An
        // approximate-only edge between exactly-conflicting chunks is
        // merely a transitive dependence surfacing early, not a false
        // positive.)
        let mut aliased_edges = 0u64;
        for (v, approx) in self.approx_preds.iter().enumerate() {
            for &u in approx {
                if self.exact_preds[v].binary_search(&u).is_err()
                    && !self.fps[u as usize].conflicts_exact(&self.fps[v])
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

        GraphSummary {
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
        }
    }
}

/// The graph-derived half of a [`DepsReport`].
struct GraphSummary {
    nodes: Vec<DepNode>,
    reduced_edges: Vec<(u64, u64)>,
    exact_edges: u64,
    approx_edges: u64,
    aliased_edges: u64,
    aliasing_rate: f64,
    critical_path: u64,
    total_work: u64,
    parallelism: Vec<(u32, f64)>,
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

/// Replays `source` to the end, building the dependence DAG, and
/// verifies the linear-extension invariant against the trailer digest.
///
/// # Errors
///
/// Returns the [`InspectError`] if the stream is malformed or the
/// replay fails mid-way (the graceful salvage path lives in
/// [`deps_from_bytes`]).
pub fn analyze_deps<S: LogSource>(
    source: S,
    opts: &DepsOptions,
) -> Result<DepsReport, InspectError> {
    let (workload, mode, n_procs, arbiter) = meta_of(&source)?;
    let mut inspector = ReplayInspector::from_source(source)?;
    inspector.collect_footprints(true);
    let mut gb = GraphBuilder::new(n_procs);
    while let Some(ev) = inspector.step()? {
        gb.observe(&ev);
    }
    let verdict = inspector.run_to_end()?;
    let mut diagnostics = Vec::new();
    if verdict.matches_recording {
        diagnostics.push(Diagnostic::info(
            "linear-extension",
            format!(
                "recorded commit order verified as a linear extension of the exact dependence DAG over {} commit(s) (replay digest matches the trailer)",
                verdict.commits
            ),
        ));
    } else {
        diagnostics.push(Diagnostic::error(
            "linear-extension",
            format!(
                "recorded commit order is NOT a linear extension of the exact dependence DAG: conflicting chunks were reordered and the replay digest diverges ({})",
                verdict.mismatch.unwrap_or_default()
            ),
        ));
    }
    Ok(assemble(
        gb.finish(opts),
        workload,
        mode,
        n_procs,
        arbiter,
        false,
        Vec::new(),
        diagnostics,
    ))
}

fn meta_of<S: LogSource>(source: &S) -> Result<(String, String, u32, String), InspectError> {
    let Some(meta) = source.meta() else {
        return Err(InspectError {
            detail: "log source carries no recording metadata".to_string(),
            commit: None,
        });
    };
    Ok((
        meta.workload.name.to_string(),
        meta.mode.to_string(),
        meta.n_procs,
        meta.arbiter.to_string(),
    ))
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    g: GraphSummary,
    workload: String,
    mode: String,
    n_procs: u32,
    arbiter: String,
    partial: bool,
    lost_ranges: Vec<String>,
    diagnostics: Vec<Diagnostic>,
) -> DepsReport {
    DepsReport {
        workload,
        mode,
        n_procs,
        arbiter,
        nodes: g.nodes,
        reduced_edges: g.reduced_edges,
        exact_edges: g.exact_edges,
        approx_edges: g.approx_edges,
        aliased_edges: g.aliased_edges,
        aliasing_rate: g.aliasing_rate,
        critical_path: g.critical_path,
        total_work: g.total_work,
        parallelism: g.parallelism,
        partial,
        lost_ranges,
        replay_complete: true,
        diagnostics,
    }
}

/// Runs the dependence pass over a full `.dlrn` byte image, degrading
/// gracefully on damaged streams: when the intact-path replay fails,
/// the salvage pass of [`delorean::recover`] recovers what it can and
/// the DAG is built over the salvaged *prefix*, with the report
/// marked `partial: true` and the lost commit ranges named. Never
/// panics; an unusable stream yields a report whose single finding is
/// the decode error.
pub fn deps_from_bytes(bytes: &[u8], opts: &DepsOptions) -> DepsReport {
    // The intact path; falls through with the failure when the stream
    // is damaged.
    let err = match FileSource::open(bytes) {
        Ok(source) => match analyze_deps(source, opts) {
            Ok(r) => return r,
            Err(e) => e,
        },
        Err(e) => InspectError {
            detail: format!("stream header rejected: {e}"),
            commit: None,
        },
    };
    let Ok(s) = delorean::recover::salvage(bytes) else {
        return DepsReport::failed(&err);
    };
    let Some(source) = RecoveringSource::prefix(&s) else {
        let mut r = DepsReport::failed(&err);
        r.diagnostics.push(Diagnostic::warning(
            "deps-partial",
            "salvage recovered no prefix region starting at commit 1; no dependence graph can be built",
        ));
        return r;
    };
    let covered = source.commits();
    let partial_graph =
        (|| -> Result<(GraphBuilder, ReplayInspector<RecoveringSource>), InspectError> {
            let mut inspector = ReplayInspector::from_source(source)?;
            inspector.collect_footprints(true);
            let mut gb = GraphBuilder::new(s.meta.n_procs);
            while let Some(ev) = inspector.step()? {
                gb.observe(&ev);
            }
            Ok((gb, inspector))
        })();
    let (gb, mut inspector) = match partial_graph {
        Ok(pair) => pair,
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
    assemble(
        gb.finish(opts),
        s.meta.workload.name.to_string(),
        s.meta.mode.to_string(),
        s.meta.n_procs,
        s.meta.arbiter.to_string(),
        true,
        lost_ranges,
        diagnostics,
    )
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_chunk::TruncationReason;

    fn ev(
        gcc: u64,
        committer: Committer,
        chunk_index: u64,
        size: u32,
        read_lines: Vec<u64>,
        write_lines: Vec<u64>,
    ) -> CommitEvent {
        CommitEvent {
            gcc,
            committer,
            chunk_index,
            size,
            interrupt: false,
            truncation: TruncationReason::StandardSize,
            io_loads: 0,
            dma_words: 0,
            watch_hits: Vec::new(),
            read_lines,
            write_lines,
        }
    }

    fn summary(events: &[CommitEvent], n_procs: u32) -> GraphSummary {
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
