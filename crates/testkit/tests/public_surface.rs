//! Integration tests exercising the testkit through its public surface,
//! the way downstream crates consume it: the prelude, the macros, and
//! the JSON serializer against hand-written expected strings.

use seceda_testkit::json::{Json, ToJson};
use seceda_testkit::prelude::*;

// ---------------------------------------------------------------- rng

#[test]
fn same_seed_same_stream_across_instances() {
    let mut a = StdRng::seed_from_u64(0xDEAD_BEEF);
    let mut b = StdRng::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..1000 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[test]
fn different_seeds_diverge() {
    let mut a = StdRng::seed_from_u64(1);
    let mut b = StdRng::seed_from_u64(2);
    let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
    assert_eq!(same, 0, "independent seeds should not collide in 64 draws");
}

#[test]
fn gen_range_respects_bounds_for_every_supported_shape() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..2000 {
        let v: usize = rng.gen_range(0..17);
        assert!(v < 17);
        let v: i64 = rng.gen_range(-50..=50);
        assert!((-50..=50).contains(&v));
        let v: u64 = rng.gen_range(1_000_000..1_000_003);
        assert!((1_000_000..1_000_003).contains(&v));
        let v: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&v));
    }
}

#[test]
fn gen_range_covers_the_whole_interval() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut seen = [false; 8];
    for _ in 0..512 {
        seen[rng.gen_range(0..8usize)] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "all 8 values should appear: {seen:?}"
    );
}

#[test]
fn shuffle_permutes_and_fill_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(123);
    let mut v: Vec<u32> = (0..64).collect();
    rng.shuffle(&mut v);
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..64).collect::<Vec<_>>());

    let mut a = [0u8; 32];
    let mut b = [0u8; 32];
    StdRng::seed_from_u64(77).fill_bytes(&mut a);
    StdRng::seed_from_u64(77).fill_bytes(&mut b);
    assert_eq!(a, b);
}

// --------------------------------------------------------------- prop

proptest! {
    #[test]
    fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn vec_len_in_range(v in collection::vec(0u8..255, 3..=9)) {
        prop_assert!((3..=9).contains(&v.len()));
        prop_assert!(v.iter().all(|&x| x < 255));
    }

    #[test]
    fn assume_skips_rejected_cases(n in 0u32..100) {
        prop_assume!(n % 2 == 0);
        prop_assert_eq!(n % 2, 0);
    }
}

#[test]
fn failing_property_reports_the_inputs() {
    // run the expansion by hand so the panic can be inspected
    let result = std::panic::catch_unwind(|| {
        proptest! {
            fn always_fails(x in 10u32..20) {
                prop_assert!(x > 1000, "x was small");
            }
        }
        always_fails();
    });
    let err = result.expect_err("the property must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(
        msg.contains("failed"),
        "message should say it failed: {msg}"
    );
    assert!(
        msg.contains("inputs:"),
        "message should report inputs: {msg}"
    );
    assert!(
        msg.contains("x was small"),
        "custom text should survive: {msg}"
    );
}

#[test]
fn property_runs_are_deterministic() {
    // the same property body sees the same cases on every run: collect
    // generated values twice via side channel and compare
    use std::sync::Mutex;
    static SEEN: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    fn run_once() -> Vec<u64> {
        SEEN.lock().unwrap().clear();
        proptest! {
            fn observe(x in any::<u64>()) {
                SEEN.lock().unwrap().push(x);
                prop_assert!(true);
            }
        }
        observe();
        SEEN.lock().unwrap().clone()
    }

    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty());
    assert_eq!(first, second, "cases must be identical across runs");
}

// --------------------------------------------------------------- json

#[test]
fn json_matches_hand_written_strings() {
    assert_eq!(Json::Null.render(), "null");
    assert_eq!(Json::from(true).render(), "true");
    assert_eq!(Json::from(42i64).render(), "42");
    assert_eq!(Json::from(2.5f64).render(), "2.5");
    assert_eq!(
        Json::from("a \"quoted\"\nline").render(),
        "\"a \\\"quoted\\\"\\nline\""
    );
    assert_eq!(
        Json::obj()
            .field("name", "aes")
            .field("gates", 1024i64)
            .field("pass", true)
            .build()
            .render(),
        "{\"name\":\"aes\",\"gates\":1024,\"pass\":true}"
    );
    assert_eq!(
        Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Int(3)]).render(),
        "[1,2,3]"
    );
}

#[test]
fn json_round_trips_through_the_parser() {
    let doc = Json::obj()
        .field("label", "secure flow")
        .field("all_pass", true)
        .field(
            "metrics",
            Json::Arr(vec![
                Json::obj()
                    .field("name", "tvla")
                    .field("value", 3.5f64)
                    .build(),
                Json::obj()
                    .field("name", "barriers")
                    .field("value", 12i64)
                    .build(),
            ]),
        )
        .field("nothing", Json::Null)
        .build();
    let text = doc.render();
    let back = Json::parse(&text).expect("parse what we rendered");
    assert_eq!(back.render(), text, "render→parse→render must be stable");
    assert_eq!(
        back.get("metrics").and_then(|m| match m {
            Json::Arr(v) => v.first().and_then(|f| f.get("name")),
            _ => None,
        }),
        Some(&Json::Str("tvla".into()))
    );
}

#[test]
fn to_json_trait_is_usable_downstream() {
    struct Stage {
        name: &'static str,
        gates: usize,
    }
    impl ToJson for Stage {
        fn to_json(&self) -> Json {
            Json::obj()
                .field("name", self.name)
                .field("gates", self.gates as i64)
                .build()
        }
    }
    let s = Stage {
        name: "synthesis",
        gates: 77,
    };
    assert_eq!(s.to_json_string(), "{\"name\":\"synthesis\",\"gates\":77}");
    assert_eq!(
        Json::arr(&[s]).render(),
        "[{\"name\":\"synthesis\",\"gates\":77}]"
    );
}
