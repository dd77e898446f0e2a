//! Self-tests of the benchmark harness: the statistics it reports, its
//! failure accounting, and its names against `BENCHMARK.json`.

use std::time::{Duration, Instant};

use perfbench::host::{nproc, on_cpu, Walled, CONTENDED_STEAL_SHARE};
use perfbench::json;
use perfbench::spec::{is_valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::stats::{median, summarize, Tally, TAIL_MIN_BEYOND};
use perfbench::workload::Workload;

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled so the tests do not depend on input order.
    let mut values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    values.reverse();
    values.rotate_left(n / 3);
    values
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn no_tail_is_reported_without_ten_samples_beyond_it() {
    // 19 samples: even the median has only 9 beyond it.
    let summary = summarize(&ramp(19)).expect("samples");
    assert_eq!(summary.count, 19);
    assert_eq!(summary.p50, 10.0);
    assert_eq!(summary.tail, None);
    assert!(summarize(&[]).is_none());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 20 samples: p50 (rank 10) leaves exactly 10 beyond; p75 only 5.
    assert_eq!(
        summarize(&ramp(20)).expect("samples").tail,
        Some((50.0, 10.0))
    );
    // 100 samples: p90 (rank 90) leaves 10; p95 would leave 5.
    assert_eq!(
        summarize(&ramp(100)).expect("samples").tail,
        Some((90.0, 90.0))
    );
    // 1000 samples: p99 (rank 990) leaves 10; p99.9 would leave 1.
    let summary = summarize(&ramp(1000)).expect("samples");
    assert_eq!(summary.count, 1000);
    assert_eq!(summary.p50, 500.5);
    assert_eq!(summary.tail, Some((99.0, 990.0)));
}

#[test]
fn every_reported_tail_has_enough_samples_beyond_it() {
    for n in 1..400 {
        let values = ramp(n);
        if let Some((_, tail)) = summarize(&values).expect("samples").tail {
            let beyond = values.iter().filter(|&&v| v > tail).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond {tail}");
        }
    }
}

#[test]
fn failures_are_counted_against_attempts() {
    let mut tally = Tally::default();
    assert_eq!(tally.failure_share(), 0.0);
    assert!(!tally.all_passed(), "nothing attempted is not a pass");
    tally.record(true);
    tally.record(true);
    tally.record(true);
    assert!(tally.all_passed());
    tally.record(false);
    assert_eq!((tally.attempted, tally.failed), (4, 1));
    assert_eq!(tally.failure_share(), 0.25);
    assert!(!tally.all_passed());
}

#[test]
fn names_are_legal_and_unique() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(is_valid_name(name), "{name}");
        assert_eq!(names.iter().filter(|n| n == &name).count(), 1, "{name}");
    }
    for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            (1..=16).contains(&metric.unit.len())
                && metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}",
            metric.name
        );
    }
    for bad in ["", "-x", "a b", "x/y", &"a".repeat(65)] {
        assert!(!is_valid_name(bad), "{bad:?}");
    }
    for name in WORKLOADS {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
    }
}

/// The text of `BENCHMARK.json` between `"key": [` and the matching `]`.
fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &text[start..];
    &rest[..rest.find("\n  ]").expect("section closes")]
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let count = |haystack: &str| haystack.matches("{\"name\": ").count();

    let workloads = section(&text, "workloads");
    assert_eq!(count(workloads), WORKLOADS.len());
    for name in WORKLOADS {
        assert!(
            workloads.contains(&format!("{{\"name\": {}", json::string(name))),
            "{name}"
        );
    }
    for (key, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = section(&text, key);
        assert_eq!(count(declared), metrics.len(), "{key}");
        for metric in metrics {
            let entry = format!(
                "{{\"name\": {}, \"unit\": {}",
                json::string(metric.name),
                json::string(metric.unit)
            );
            assert!(declared.contains(&entry), "{key} lacks {entry}");
        }
    }
}

#[test]
fn json_numbers_keep_every_digit_and_never_emit_nan() {
    assert_eq!(json::number(0.1 + 0.2), "0.30000000000000004");
    assert_eq!(json::number(2.0), "2.0");
    assert_eq!(json::number(f64::NAN), "null");
    assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

#[test]
fn the_cpu_clock_skips_time_the_thread_is_off_the_cpu() {
    let ((), asleep) = on_cpu(|| std::thread::sleep(Duration::from_millis(200)));
    assert!(
        asleep < Duration::from_millis(50),
        "{asleep:?} while asleep"
    );
    let (spun, busy) = on_cpu(|| {
        let started = Instant::now();
        let mut spins = 0u64;
        while started.elapsed() < Duration::from_millis(200) {
            spins = std::hint::black_box(spins + 1);
        }
        spins
    });
    assert!(spun > 0);
    assert!(busy > Duration::from_millis(20), "{busy:?} while busy");
}

#[test]
fn contention_is_a_share_of_the_machines_cpu_time() {
    let share = |steal_s: f64| Walled {
        wall: Duration::from_secs(2),
        steal_s: steal_s * 2.0 * nproc() as f64,
    };
    assert!(!share(0.0).contended());
    assert!(!share(CONTENDED_STEAL_SHARE * 0.9).contended());
    assert!(share(CONTENDED_STEAL_SHARE * 1.1).contended());
}

#[test]
fn steal_comes_off_the_wall_but_never_below_its_share() {
    let walled = |steal_s: f64| Walled {
        wall: Duration::from_secs(10),
        steal_s,
    };
    assert_eq!(walled(0.0).less_steal_s(), 10.0);
    assert_eq!(
        walled(4.0).less_steal_s(),
        6.0_f64.max(10.0 / nproc() as f64)
    );
    assert_eq!(walled(20.0).less_steal_s(), 10.0 / nproc() as f64);
}
