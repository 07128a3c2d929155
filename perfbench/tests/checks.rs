//! The benchmark's checks must be able to fail, its statistics must
//! match hand-computed values, and the traced replay must equal the
//! pipeline it replays.

use std::sync::Arc;

use br_minic::HeuristicSet;
use br_serve::endpoints::Endpoints;
use br_serve::proto::{Frame, Section};
use perfbench::check::{self, Behaviour};
use perfbench::pipeline::{self, Config};
use perfbench::stats::{geomean, median, percentile};
use perfbench::trace::Tracer;
use perfbench::workloads;

fn wc_job() -> (pipeline::JobOutput, Vec<u8>) {
    let c = Config::all()
        .into_iter()
        .find(|c| c.workload.name == "wc")
        .expect("wc is a pipeline configuration");
    let out = pipeline::run_job(&c, &workloads::pipeline_training(&c, 0, 0)).expect("wc job runs");
    (out, workloads::test_input(&c.workload, 0))
}

#[test]
fn a_flipped_output_byte_is_rejected() {
    let (out, test) = wc_job();
    let (expected, _) = check::reference_run(&out.original, &test).expect("reference run");
    check::check_deployed(&expected, &out.deployed, &test).expect("the deployed wc behaves");
    check::check_wc(&test, &expected.output).expect("wc counts match the oracle");

    let mut flipped = expected.clone();
    flipped.output[0] ^= 1;
    assert!(check::same_behaviour(&expected, &flipped).is_err());
    assert!(check::check_deployed(&flipped, &out.deployed, &test).is_err());
    assert!(check::check_wc(&test, &flipped.output).is_err());
    let exit = Behaviour {
        exit: expected.exit + 1,
        ..expected.clone()
    };
    assert!(check::same_behaviour(&expected, &exit).is_err());
}

#[test]
fn wc_oracle_counts_by_hand() {
    assert_eq!(check::wc_oracle(b"ab cd\n\tef\n"), b"2\n3\n10\n");
    assert_eq!(check::wc_oracle(b""), b"0\n0\n0\n");
    assert_eq!(check::wc_oracle(b"  x"), b"0\n1\n3\n");
}

#[test]
fn a_tampered_certificate_line_is_rejected() {
    let (out, _) = wc_job();
    assert!(
        !out.certificates.is_empty(),
        "wc commits a certified reordering"
    );
    let cert = &out.certificates[0];
    check::check_certificates([cert.as_str()]).expect("the certificate checks");
    let tampered: String = cert
        .lines()
        .map(|l| match l.strip_prefix("head ") {
            Some(h) => format!("head {}\n", h.parse::<u32>().expect("numeric head") + 1),
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(&tampered, cert);
    assert!(check::check_certificates([tampered.as_str()]).is_err());
}

fn served_reorder() -> Vec<u8> {
    let w = br_workloads::by_name("wc").expect("wc exists");
    let module = pipeline::build(&w, HeuristicSet::SET_II).expect("wc builds");
    let text = br_ir::print_module(&module);
    let train = w.training_input(2048);
    let endpoints = Endpoints::new(None, Arc::default()).expect("endpoints without a cache");
    let frame = Frame::structured(
        "reorder",
        &[
            Section {
                name: "module",
                bytes: text.as_bytes(),
            },
            Section {
                name: "train",
                bytes: &train,
            },
        ],
    );
    let response = endpoints.handle(&frame);
    assert_eq!(response.frame.kind, "ok");
    response.frame.payload
}

fn replace_section(payload: &[u8], name: &str, edit: impl Fn(&str) -> String) -> Vec<u8> {
    let sections = Frame {
        kind: "ok".into(),
        payload: payload.to_vec(),
    }
    .sections()
    .expect("a structured payload");
    let texts: Vec<(String, Vec<u8>)> = sections
        .iter()
        .map(|s| {
            let bytes = if s.name == name {
                edit(s.text().expect("text section")).into_bytes()
            } else {
                s.bytes.clone()
            };
            (s.name.clone(), bytes)
        })
        .collect();
    let refs: Vec<Section<'_>> = texts
        .iter()
        .map(|(n, b)| Section { name: n, bytes: b })
        .collect();
    Frame::structured("ok", &refs).payload
}

#[test]
fn a_tampered_cert_line_in_a_reorder_response_is_rejected() {
    let payload = served_reorder();
    let reordered = check::check_reorder_response(&payload).expect("the response checks");
    assert!(!reordered.is_empty());

    let moved = replace_section(&payload, "certs", |t| {
        t.lines()
            .map(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                let head: u32 = f[1].parse().expect("numeric head");
                format!("{} {} {}\n", f[0], head + 1, f[2])
            })
            .collect()
    });
    assert!(check::check_reorder_response(&moved).is_err());
    let dropped = replace_section(&payload, "certs", |_| String::new());
    assert!(check::check_reorder_response(&dropped).is_err());
    let failing = replace_section(&payload, "validation", |t| {
        t.replace("failures 0", "failures 1")
    });
    assert!(check::check_reorder_response(&failing).is_err());
}

#[test]
fn a_mismatched_warm_response_is_rejected() {
    let cold = served_reorder();
    check::check_warm(&cold, &cold.clone()).expect("identical bytes pass");
    let mut warm = cold.clone();
    let last = warm.len() - 1;
    warm[last] ^= 1;
    assert!(check::check_warm(&cold, &warm).is_err());
    assert!(check::check_warm(&cold, &cold[..last]).is_err());
}

#[test]
fn percentiles_and_geomean_match_hand_computed_values() {
    let samples: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), Some(5.0));
    assert_eq!(percentile(&samples, 90.0), Some(9.0));
    assert_eq!(percentile(&samples, 91.0), Some(10.0));
    assert_eq!(percentile(&samples, 100.0), Some(10.0));
    assert_eq!(percentile(&[7.0, 3.0, 5.0], 50.0), Some(5.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&samples), Some(5.5));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    let g = geomean(&[1.0, 4.0, 16.0]).expect("positive ratios");
    assert!((g - 4.0).abs() < 1e-12, "{g}");
    let g = geomean(&[0.5, 2.0]).expect("positive ratios");
    assert!((g - 1.0).abs() < 1e-12, "{g}");
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[]), None);
}

#[test]
fn self_time_subtracts_direct_children() {
    let mut t = Tracer::default();
    t.span("outer", |t| {
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.span("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(8))
        });
    });
    let times = t.self_times();
    let (outer, inner) = (times["outer"], times["inner"]);
    assert!(inner.as_millis() >= 8);
    assert!(
        outer.as_millis() >= 4 && outer < inner,
        "{outer:?} {inner:?}"
    );
    let total = t.durations("outer")[0];
    assert_eq!(outer + inner, total);
}

#[test]
fn replay_equals_the_pipeline_on_all_34_configurations() {
    for c in Config::all() {
        let train = workloads::pipeline_training(&c, 0, 0);
        let optimized = pipeline::build(&c.workload, c.set).expect("builds");
        let direct = br_reorder::reorder_module_with_inputs(&optimized, &[&train], &c.options())
            .expect("the pipeline runs");
        let (replayed, certificates) =
            pipeline::replay(&mut Tracer::default(), &optimized, &[&train], &c.options())
                .expect("the replay runs");
        assert_eq!(
            br_ir::print_module(&replayed),
            br_ir::print_module(&direct.module),
            "{}",
            c.label()
        );
        let direct_certs: Vec<&str> = direct
            .validation
            .as_ref()
            .expect("certified runs validate")
            .certificates
            .iter()
            .map(|c| c.text.as_str())
            .collect();
        assert_eq!(certificates, direct_certs, "{}", c.label());
    }
}
