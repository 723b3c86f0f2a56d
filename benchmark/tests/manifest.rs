//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this package measures.

use egeria_benchmark::metrics::{per_layer, END_TO_END};
use egeria_benchmark::workloads::SPECS;
use egeria_obs::jsonl::{parse, Value};

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

#[test]
fn benchmark_json_lists_what_is_measured() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(text.trim()).expect("valid JSON");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("no {key}"))
    };

    let workloads: Vec<(&str, &str)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let specs: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(workloads, specs);
    assert!(specs.iter().all(|(_, why)| why.len() <= 200));

    let e2e: Vec<(&str, &str, &str, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let expected: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(e2e, expected);
    assert!(expected.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));

    let layers: Vec<(&str, &str, &str)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let expected: Vec<_> = per_layer().copied().collect();
    assert_eq!(layers, expected);
    assert!(expected.len() <= 128);
}
