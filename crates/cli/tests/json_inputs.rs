//! The JSON artifacts users keep — trace JSONL, deps certificates and
//! bench documents — are all parsed by `delorean::json`. Real ones must
//! validate, and damaged copies must come back from every reader as a
//! value, never as a panic.

use delorean::json::Json;
use delorean::{FileSink, Machine, Mode};
use delorean_analyze::{deps_from_bytes, validate_certificate, DepsOptions};
use delorean_bench::parse_document;
use delorean_isa::workload;
use delorean_trace::{validate, JsonlTracer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Records fft with the tracer attached; returns the trace and the
/// `.dlrn` bytes.
fn traced_fft(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let m = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(2)
        .budget(4_000)
        .build();
    let mut tracer = JsonlTracer::new(Vec::new());
    let mut sink = FileSink::new(Vec::new());
    m.session().with_stage(&mut tracer).record_to(
        workload::by_name("fft").unwrap(),
        seed,
        &mut sink,
    );
    let (trace, err) = tracer.finish();
    assert!(err.is_none(), "{err:?}");
    (trace, sink.into_inner().unwrap())
}

/// A real trace, a real certificate and the first records of the
/// committed bench baseline, each accepted by its reader.
fn inputs() -> &'static [Vec<u8>; 3] {
    static INPUTS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let (trace, dlrn) = traced_fft(7);
        validate(&trace[..]).unwrap();
        let cert = deps_from_bytes(&dlrn, &DepsOptions::default())
            .certificate()
            .unwrap();
        validate_certificate(&cert, Some(&dlrn)).unwrap();
        let baseline = Json::parse(include_str!("../../../BENCH_results.json")).unwrap();
        let records = baseline.get("records").and_then(Json::as_arr).unwrap();
        let slice = Json::Obj(vec![
            (
                "schema_version".into(),
                baseline.get("schema_version").unwrap().clone(),
            ),
            ("records".into(), Json::Arr(records[..3].to_vec())),
        ]);
        let slice = slice.pretty();
        assert_eq!(parse_document(&slice).unwrap().len(), 3);
        [trace, cert.into_bytes(), slice.into_bytes()]
    })
}

#[test]
fn traces_with_a_full_range_seed_validate() {
    let (trace, _) = traced_fft(u64::MAX);
    let text = String::from_utf8(trace).unwrap();
    assert!(text.contains("\"app_seed\":18446744073709551615"), "{text}");
    let summary = validate(text.as_bytes()).unwrap();
    assert_eq!(summary.workload, "fft");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Truncated, bit-flipped and spliced inputs are errors or values.
    #[test]
    fn damaged_json_inputs_never_panic_a_reader(
        which in 0usize..3,
        kind in 0u8..3,
        at in 0u64..1_000_000,
        from in 0u64..1_000_000,
        donor in 0usize..3,
        bit in 0u32..8,
    ) {
        let docs = inputs();
        let mut bytes = docs[which].clone();
        let at = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << bit,
            _ => {
                // Overwrite up to 64 bytes with a run from any input.
                let src = &docs[donor];
                let from = (from % src.len() as u64) as usize;
                let run = &src[from..(from + 64).min(src.len())];
                let end = (at + run.len()).min(bytes.len());
                bytes.splice(at..end, run.iter().copied());
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = parse_document(&text);
        let _ = validate(&bytes[..]);
        let _ = validate_certificate(&text, None);
    }
}
