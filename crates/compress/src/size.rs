//! Log-size accounting in the units the paper reports.

use crate::lz77;

/// Raw and compressed size of a log, in bits.
///
/// The paper reports memory-ordering log sizes as *bits per processor per
/// kilo-instruction*; [`LogSize::bits_per_proc_per_kiloinst`] computes
/// that from total committed instructions and processor count.
///
/// # Examples
///
/// ```
/// use delorean_compress::LogSize;
/// let size = LogSize::from_bytes(&[0u8; 1000]);
/// assert_eq!(size.raw_bits, 8000);
/// assert!(size.compressed_bits < 1000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogSize {
    /// Size of the uncompressed bit stream.
    pub raw_bits: u64,
    /// Size after LZ77 compression (excluding headers).
    pub compressed_bits: u64,
}

/// Logs at least this large are measured with segmented compression
/// ([`lz77::compressed_bits_segmented`], one block per 256 KiB) instead
/// of a one-shot pass. The threshold and segment size are fixed, so the
/// measured value depends only on the bytes.
pub const SEGMENTED_MEASURE_THRESHOLD: usize = 1 << 20;

/// Block size of the segmented measurement.
const SEGMENT: usize = 256 * 1024;

fn measured_bits(bytes: &[u8]) -> u64 {
    if bytes.len() >= SEGMENTED_MEASURE_THRESHOLD {
        lz77::compressed_bits_segmented(bytes, SEGMENT)
    } else {
        lz77::compressed_bits(bytes)
    }
}

impl LogSize {
    /// Measures a byte buffer, compressing it with [`lz77`].
    ///
    /// Buffers of [`SEGMENTED_MEASURE_THRESHOLD`] bytes or more are
    /// compressed per segment, as a streaming encoder flushing every
    /// 256 KiB would compress them.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self {
            raw_bits: bytes.len() as u64 * 8,
            compressed_bits: measured_bits(bytes),
        }
    }

    /// Measures a bit stream of `raw_bits` whose packed bytes are `bytes`.
    ///
    /// Used when the logical log is not byte-aligned (e.g. 4-bit PI
    /// entries): `raw_bits` counts the logical bits while compression
    /// operates on the packed representation. Large buffers take the
    /// same segmented path as [`LogSize::from_bytes`].
    pub fn from_bits(bytes: &[u8], raw_bits: u64) -> Self {
        Self {
            raw_bits,
            compressed_bits: measured_bits(bytes).min(raw_bits),
        }
    }

    /// Sums two log sizes (e.g. PI + CS logs).
    #[must_use]
    pub fn combined(self, other: LogSize) -> LogSize {
        LogSize {
            raw_bits: self.raw_bits + other.raw_bits,
            compressed_bits: self.compressed_bits + other.compressed_bits,
        }
    }

    /// Raw size in the paper's reporting unit.
    pub fn bits_per_proc_per_kiloinst(&self, total_insts: u64, procs: u32) -> f64 {
        per_proc_per_kiloinst(self.raw_bits, total_insts, procs)
    }

    /// Compressed size in the paper's reporting unit.
    pub fn compressed_bits_per_proc_per_kiloinst(&self, total_insts: u64, procs: u32) -> f64 {
        per_proc_per_kiloinst(self.compressed_bits, total_insts, procs)
    }

    /// Estimated compressed log production of a machine with `procs`
    /// processors at `ghz` GHz and `ipc` retired instructions per cycle,
    /// in gigabytes per day — the "20 GB per day" figure of Section 6.1.
    pub fn gigabytes_per_day(&self, total_insts: u64, procs: u32, ghz: f64, ipc: f64) -> f64 {
        let bits_pp_pki = self.compressed_bits_per_proc_per_kiloinst(total_insts, procs);
        let insts_per_day_per_proc = ghz * 1e9 * ipc * 86_400.0;
        let bits_per_day = bits_pp_pki / 1000.0 * insts_per_day_per_proc * f64::from(procs);
        bits_per_day / 8.0 / 1e9
    }
}

fn per_proc_per_kiloinst(bits: u64, total_insts: u64, procs: u32) -> f64 {
    assert!(procs > 0, "processor count must be positive");
    if total_insts == 0 {
        return 0.0;
    }
    // total bits, divided evenly across processors, per 1000 instructions
    // executed by each processor (total_insts is machine-wide).
    let per_proc_insts = total_insts as f64 / f64::from(procs);
    bits as f64 / f64::from(procs) / per_proc_insts * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_math_matches_paper_example() {
        // 4-bit PI entry per 2000-instruction chunk => 2 bits/proc/kiloinst
        // regardless of processor count.
        let procs = 8u32;
        let chunks_per_proc = 100u64;
        let insts = 2000 * chunks_per_proc * u64::from(procs);
        let size = LogSize {
            raw_bits: 4 * chunks_per_proc * u64::from(procs),
            compressed_bits: 0,
        };
        let b = size.bits_per_proc_per_kiloinst(insts, procs);
        assert!((b - 2.0).abs() < 1e-9, "got {b}");
    }

    #[test]
    fn gigabytes_per_day_matches_picolog_estimate() {
        // 0.05 bits/proc/kiloinst at IPC=1, 8 procs, 5GHz ~= 21.6 GB/day.
        let procs = 8u32;
        let insts = 1_000_000u64;
        let bits = (0.05 * (insts as f64 / f64::from(procs)) / 1000.0 * f64::from(procs)) as u64;
        let size = LogSize {
            raw_bits: bits,
            compressed_bits: bits,
        };
        let gb = size.gigabytes_per_day(insts, procs, 5.0, 1.0);
        assert!((gb - 21.6).abs() < 1.0, "got {gb}");
    }

    #[test]
    fn combined_adds() {
        let a = LogSize {
            raw_bits: 10,
            compressed_bits: 5,
        };
        let b = LogSize {
            raw_bits: 2,
            compressed_bits: 2,
        };
        let c = a.combined(b);
        assert_eq!(c.raw_bits, 12);
        assert_eq!(c.compressed_bits, 7);
    }

    #[test]
    fn zero_instructions_yields_zero_rate() {
        let s = LogSize::from_bytes(&[1, 2, 3]);
        assert_eq!(s.bits_per_proc_per_kiloinst(0, 8), 0.0);
    }

    #[test]
    fn large_buffers_measure_via_segmented_parallel_path() {
        // Above the threshold the measured size must equal the
        // fixed-segmentation measurement, not the one-shot size.
        let data: Vec<u8> = (0..SEGMENTED_MEASURE_THRESHOLD as u32 + 17)
            .map(|i| ((i % 9) | ((i % 7) << 4)) as u8)
            .collect();
        let s = LogSize::from_bytes(&data);
        assert_eq!(
            s.compressed_bits,
            lz77::compressed_bits_segmented(&data, SEGMENT)
        );
        assert_eq!(s.raw_bits, data.len() as u64 * 8);
    }

    #[test]
    fn from_bits_caps_compressed_at_raw() {
        // A tiny logical log must never report compressed > raw.
        let s = LogSize::from_bits(&[0xff], 3);
        assert!(s.compressed_bits <= s.raw_bits);
    }
}
