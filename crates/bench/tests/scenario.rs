//! The pieces the serving-stack scenarios share: the ordered JSON
//! writer, the two tagged circuit families, and the `twice` replay
//! check.

use adapt_service::logical_hash;
use bench_harness::scenario::{ghz_x, ghz_xz, twice, Json, Replay};
use std::collections::HashSet;

#[test]
fn json_escapes_quotes_backslashes_and_control_characters() {
    let s: Json = "a\"b\\c\nd\te\u{1}f\u{1f}g é".into();
    assert_eq!(
        s.render(),
        "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u001fg é\"\n",
        "quote, backslash and every control character below 0x20 are escaped"
    );
    let keyed = Json::obj([("k\"ey", true.into())]);
    assert_eq!(keyed.render(), "{\n  \"k\\\"ey\": true\n}\n", "keys too");
}

#[test]
fn json_keeps_key_order_and_layout() {
    let report = Json::obj([
        ("zeta", 1u32.into()),
        ("alpha", Json::obj([("b", 2u64.into()), ("a", "x".into())])),
        ("empty", Json::obj([])),
        ("list", vec![3usize, 4].into()),
        ("rows", Json::Arr(vec![Json::obj([("n", 5u32.into())])])),
    ]);
    assert_eq!(
        report.render(),
        "{\n  \"zeta\": 1,\n  \"alpha\": { \"b\": 2, \"a\": \"x\" },\n  \"empty\": {},\n  \
         \"list\": [3, 4],\n  \"rows\": [\n    { \"n\": 5 }\n  ]\n}\n",
        "insertion order, not sorted; nested objects inline; arrays of objects one per line"
    );
    let collected: Json = [("y", 1u32), ("x", 2u32)].into_iter().collect();
    assert_eq!(collected.render(), "{\n  \"y\": 1,\n  \"x\": 2\n}\n");
}

#[test]
fn json_numbers_use_fixed_decimals_and_null_when_not_finite() {
    let row = |v: f64| Json::Arr(vec![Json::Num(v, 2)]).render();
    assert_eq!(row(1.0 / 3.0), "[0.33]\n");
    assert_eq!(row(-2.5), "[-2.50]\n");
    assert_eq!(row(f64::NAN), "[null]\n");
    assert_eq!(row(f64::INFINITY), "[null]\n");
    assert_eq!(row(f64::NEG_INFINITY), "[null]\n");
    assert_eq!(Json::Num(7.0, 0).render(), "7\n");
}

#[test]
fn ghz_x_tags_give_distinct_logical_hashes() {
    for n in [5u32, 6] {
        let hashes: HashSet<u64> = (0..1usize << n)
            .map(|tag| logical_hash(&ghz_x(n, tag)))
            .collect();
        assert_eq!(hashes.len(), 1 << n, "{n} qubits: a ghz_x tag collided");
    }
}

#[test]
fn ghz_xz_tags_give_distinct_logical_hashes() {
    for n in [5u32, 6] {
        let hashes: HashSet<u64> = (0..1usize << (2 * n))
            .map(|tag| logical_hash(&ghz_xz(n, tag)))
            .collect();
        assert_eq!(
            hashes.len(),
            1 << (2 * n),
            "{n} qubits: a ghz_xz tag collided"
        );
    }
}

/// A phase whose second run can be made to diverge.
struct Run {
    lines: Vec<String>,
    counter: u64,
}

impl Replay for Run {
    fn lines(&self) -> Vec<&String> {
        self.lines.iter().collect()
    }
    fn counters(&self) -> String {
        format!("counter={}", self.counter)
    }
}

/// Runs `twice` over a phase whose `k`-th run (0-based) is `make(k)`.
fn replay(make: impl Fn(u32) -> Run) -> Run {
    let mut k = 0;
    twice("test phase", || {
        k += 1;
        make(k - 1)
    })
}

#[test]
fn twice_returns_the_first_of_two_identical_runs() {
    let run = replay(|_| Run {
        lines: vec!["a".into(), "b".into()],
        counter: 7,
    });
    assert_eq!(run.lines, ["a", "b"]);
    assert_eq!(run.counter, 7);
}

#[test]
#[should_panic(expected = "test phase: responses must be bit-identical")]
fn twice_panics_when_the_second_run_answers_differently() {
    replay(|k| Run {
        lines: vec!["a".into(), if k == 0 { "b" } else { "c" }.into()],
        counter: 7,
    });
}

#[test]
#[should_panic(expected = "test phase: responses must be bit-identical")]
fn twice_panics_when_the_second_run_drops_a_line() {
    replay(|k| Run {
        lines: ["a", "b"][..2 - k as usize]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        counter: 7,
    });
}

#[test]
#[should_panic(expected = "test phase: counters must be reproducible")]
fn twice_panics_when_the_second_run_counts_differently() {
    replay(|k| Run {
        lines: vec!["a".into()],
        counter: 7 + u64::from(k),
    });
}
