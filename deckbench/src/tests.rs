//! The benchmark's self-test at toy sizes: the full measure path on small
//! decks of every workload, checked against the metric lists declared in
//! `BENCHMARK.json`.

use super::*;

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = start + json[start..].find(']').expect("a closed list");
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().unwrap();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap();
            (
                name.to_string(),
                unit.split('"').next().unwrap().to_string(),
            )
        })
        .collect()
}

fn emitted(record: &Record) -> Vec<(String, String)> {
    record
        .metrics
        .iter()
        .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
        .collect()
}

fn toy_decks(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        (
            "array_kmc",
            decks::array_kmc(seed, 3, 400, (0.3, 0.4, 0.05)),
        ),
        (
            "chain_ensemble",
            decks::chain_ensemble(seed, 8, 12, 300, (0.1, 0.12, 0.02)),
        ),
        (
            "master_map",
            decks::master_map(seed, 2, (0.1, 0.18, 0.04), (0.0, 0.16, 0.08)),
        ),
        (
            "hybrid_map",
            decks::hybrid_map(seed, (0.0, 0.008, 0.004), (0.40, 0.402, 0.001)),
        ),
    ]
}

#[test]
fn every_toy_workload_is_correct_and_emits_every_declared_metric_with_its_unit() {
    let machine = Machine::probe();
    for (name, text) in toy_decks(5) {
        let end_to_end = measure(name, &text, 0.01, false, &machine).unwrap();
        assert!(end_to_end.correct, "{name}: {}", end_to_end.to_json());
        assert_eq!(end_to_end.failed, 0, "{name}");
        assert_eq!(emitted(&end_to_end), declared("end_to_end"), "{name}");
        assert!(
            end_to_end.metrics.iter().all(|(_, _, v)| *v > 0.0),
            "{name}"
        );

        let per_layer = measure(name, &text, 0.01, true, &machine).unwrap();
        assert!(per_layer.correct, "{name}: {}", per_layer.to_json());
        assert_eq!(emitted(&per_layer), declared("per_layer"), "{name}");
    }
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let record = Record {
        correct: true,
        attempted: 2,
        failed: 0,
        metrics: vec![("setup_s", "s", 0.25), ("points_per_s", "1/s", 1e-7)],
    };
    assert_eq!(
        record.to_json(),
        "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": \
         {\"value\": 0.25, \"unit\": \"s\"}, \"points_per_s\": {\"value\": 1e-7, \"unit\": \"1/s\"}}}"
    );
}

#[test]
fn a_deck_that_fails_to_run_counts_every_point_as_failed() {
    // Two states cannot hold a 3x3-point map's 4-island window.
    let text = decks::master_map(1, 2, (0.004, 0.012, 0.004), (0.0, 0.032, 0.016))
        .replace("window=2", "window=2 maxstates=2");
    let machine = Machine::probe();
    for trace in [false, true] {
        let record = measure("broken", &text, 0.01, trace, &machine).unwrap();
        assert!(!record.correct);
        assert_eq!((record.attempted, record.failed), (9, 9));
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(emitted(&record), declared(section));
    }
}

#[test]
fn arguments_parse_and_reject_garbage() {
    let args = |line: &str| parse_args(line.split_whitespace().map(String::from));
    assert_eq!(
        args("--workload master_map --seed 3 --seconds 10 --trace 1"),
        Ok(Args {
            workload: Workload::MasterMap,
            seed: 3,
            seconds: 10.0,
            trace: true
        })
    );
    assert!(args("--workload nope --seed 3 --seconds 1 --trace 0").is_err());
    assert!(args("--workload master_map --seed 3 --seconds 1 --trace 2").is_err());
    assert!(args("--workload master_map --seed 3 --seconds 0 --trace 0").is_err());
    assert!(args("--workload master_map --seed 3 --trace 0").is_err());
}

#[test]
fn medians_and_percentiles() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.5), 50.0);
    assert_eq!(percentile(&values, 0.99), 99.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
}
