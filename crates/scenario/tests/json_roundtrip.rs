//! Codec fuzzing: `ScenarioSpec::parse` must be the exact inverse of
//! `ScenarioSpec::to_json` on every representable spec. A SplitMix64
//! stream generates thousands of random specs — sweeping every enum
//! variant, every optional section, and names that exercise the string
//! escaper — and each must survive `parse(to_json(s)) == s`. The second
//! hop (`to_json ∘ parse ∘ to_json`) must also be textually identical,
//! so checked-in `scenarios/*.json` files are canonical by
//! construction.

use ruo_scenario::{
    CheckerKind, CrashAt, EngineKind, ExploreSpec, Family, FaultSpec, Json, OpKind, OpMix,
    RealSpec, ScenarioOp, ScenarioSpec, SchedulePolicy, TelemetrySpec, TraceSpec,
};
use ruo_sim::SplitMix64;

/// Characters chosen to stress the JSON string escaper: quotes,
/// backslashes, control characters, and some multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '9', '-', '_', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '/', 'é', '∀',
];

fn random_name(rng: &mut SplitMix64) -> String {
    let len = 1 + rng.gen_index(24);
    (0..len)
        .map(|_| NAME_CHARS[rng.gen_index(NAME_CHARS.len())])
        .collect()
}

fn random_spec(rng: &mut SplitMix64) -> ScenarioSpec {
    let family = match rng.gen_index(3) {
        0 => Family::MaxReg,
        1 => Family::Counter,
        _ => Family::Snapshot,
    };
    let engine = match rng.gen_index(3) {
        0 => EngineKind::Real,
        1 => EngineKind::Sim,
        _ => EngineKind::Explore,
    };
    let n = 1 + rng.gen_index(8);
    let mut spec = ScenarioSpec::new(random_name(rng), family, random_name(rng), engine, n);
    if rng.gen_bool(0.5) {
        spec.capacity = Some(rng.gen_below(1 << 20));
    }
    spec.seed = rng.next_u64();
    spec.seeds = 1 + rng.gen_below(10_000);
    spec.ops_per_process = 1 + rng.gen_index(32);
    spec.read_pct = rng.gen_index(101) as u8;
    spec.value_bound = 1 + rng.gen_below(1 << 30);
    spec.mix = if rng.gen_bool(0.5) {
        OpMix::Random
    } else {
        OpMix::Alternate
    };
    spec.schedule = if rng.gen_bool(0.5) {
        SchedulePolicy::Random
    } else {
        SchedulePolicy::RoundRobin
    };
    if rng.gen_bool(0.3) {
        spec.step_budget = Some(1 + rng.gen_index(1 << 20));
    }
    spec.faults = match rng.gen_index(3) {
        0 => None,
        1 => Some(FaultSpec::Random {
            crashes: 1 + rng.gen_index(n),
            max_after: 1 + rng.gen_index(64),
        }),
        _ => Some(FaultSpec::Explicit {
            crashes: (0..1 + rng.gen_index(3))
                .map(|_| CrashAt {
                    pid: rng.gen_index(n),
                    after: 1 + rng.gen_index(16),
                })
                .collect(),
        }),
    };
    spec.checker = match rng.gen_index(3) {
        0 => CheckerKind::Interval,
        1 => CheckerKind::Exact,
        _ => CheckerKind::Auto,
    };
    spec.certify = rng.gen_bool(0.3);
    spec.root_fast_path = rng.gen_bool(0.3);
    // The explore section is mandatory for the explore engine and
    // optional (ignored but representable) otherwise.
    if engine == EngineKind::Explore || rng.gen_bool(0.2) {
        spec.explore = Some(ExploreSpec {
            seed_update: rng.gen_bool(0.5).then(|| rng.gen_below(1 << 16)),
            ops: (0..1 + rng.gen_index(8))
                .map(|_| ScenarioOp {
                    pid: rng.gen_index(n),
                    kind: if rng.gen_bool(0.6) {
                        OpKind::Update
                    } else {
                        OpKind::Read
                    },
                    value: rng.gen_below(1 << 16),
                })
                .collect(),
            max_schedules: 1 + rng.gen_index(1 << 20),
            prune: rng.gen_bool(0.5),
            max_crashes: rng.gen_index(3),
        });
    }
    if rng.gen_bool(0.4) {
        spec.real = Some(RealSpec {
            threads: 1 + rng.gen_index(16),
            ops_per_thread: 1 + rng.gen_below(100_000),
            samples: 1 + rng.gen_index(9),
        });
    }
    if rng.gen_bool(0.4) {
        // Export paths reuse the escaper-stressing name alphabet.
        spec.trace = Some(TraceSpec {
            steps: rng.gen_bool(0.8),
            jsonl: rng.gen_bool(0.5).then(|| random_name(rng)),
            chrome: rng.gen_bool(0.5).then(|| random_name(rng)),
        });
    }
    if rng.gen_bool(0.4) {
        spec.telemetry = Some(TelemetrySpec {
            capacity: 1 + rng.gen_index(1 << 12),
            every: 1 + rng.gen_below(1 << 16),
        });
    }
    if rng.gen_bool(0.4) {
        spec.watchdog_secs = Some(rng.gen_below(100_000));
    }
    spec
}

#[test]
fn random_specs_round_trip_through_json() {
    let mut rng = SplitMix64::new(0x5ca1_ab1e);
    for case in 0..2_000 {
        let spec = random_spec(&mut rng);
        let text = spec.to_json();
        let back = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted JSON rejected: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}: round trip diverged\n{text}");
        assert_eq!(
            back.to_json(),
            text,
            "case {case}: re-emission is not canonical"
        );
    }
}

/// Generates a random JSON tree that mixes all four numeric shapes the
/// codec distinguishes — unsigned, negative integer, float — with
/// strings, arrays and objects, like an exported trace document.
fn random_json(rng: &mut SplitMix64, depth: usize) -> Json {
    match rng.gen_index(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(rng.next_u64() >> rng.gen_index(64)),
        3 => {
            // Strictly negative, spanning small trace values to i64::MIN.
            let n = (rng.next_u64() >> rng.gen_index(64)) as i64;
            Json::Int(n.checked_neg().map_or(i64::MIN, |m| m.min(-1)))
        }
        4 => Json::Float((rng.gen_below(2_000_001) as f64 - 1_000_000.0) / 16.0),
        5 => Json::Str(random_name(rng)),
        6 => Json::Arr(
            (0..rng.gen_index(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_index(4))
                .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The codec bugfix regression: negative integers used to re-import as
/// `Json::Float`, so exported traces with signed word values failed
/// strict integer reads. Random trees mixing every numeric shape must
/// now survive `parse(pretty(v)) == v` exactly.
#[test]
fn json_values_with_negative_integers_round_trip() {
    let mut rng = SplitMix64::new(0x4E47_1A7E);
    let mut negatives = 0usize;
    for case in 0..2_000 {
        let v = random_json(&mut rng, 3);
        let mut stack = vec![&v];
        while let Some(node) = stack.pop() {
            match node {
                Json::Int(n) => {
                    assert!(*n < 0, "Int must be strictly negative, got {n}");
                    negatives += 1;
                }
                Json::Arr(items) => stack.extend(items),
                Json::Obj(pairs) => stack.extend(pairs.iter().map(|(_, v)| v)),
                _ => {}
            }
        }
        let text = v.pretty();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted JSON rejected: {e}\n{text}"));
        assert_eq!(back, v, "case {case}: round trip diverged\n{text}");
    }
    assert!(negatives > 100, "fuzz generated too few negative ints");
}

/// The strict codec stays strict inside the `trace` section: an unknown
/// key there is a parse error, exactly like a top-level typo.
#[test]
fn unknown_trace_keys_are_rejected() {
    let mut rng = SplitMix64::new(0xbeef);
    let mut checked = 0;
    while checked < 50 {
        let spec = random_spec(&mut rng);
        if spec.trace.is_none() {
            continue;
        }
        checked += 1;
        // `"steps"` only occurs as the trace key: the name alphabet
        // cannot spell it and `"step_budget"` doesn't match with the
        // closing quote included.
        let typo = spec.to_json().replace("\"steps\"", "\"stepz\"");
        let e = ScenarioSpec::parse(&typo).expect_err("trace typo must be rejected");
        assert!(e.to_string().contains("trace"), "{e}");
    }
}

/// Field-order independence: a reordered document parses to the same
/// spec the canonical emission does.
#[test]
fn parse_does_not_depend_on_key_order() {
    let mut rng = SplitMix64::new(7_2014);
    for _ in 0..200 {
        let spec = random_spec(&mut rng);
        let text = spec.to_json();
        // Reverse the top-level key order by hand: split the object
        // body on top-level commas and reassemble backwards.
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .expect("top-level object");
        let mut parts: Vec<String> = Vec::new();
        let (mut depth, mut start, mut in_str, mut esc) = (0i32, 0usize, false, false);
        for (i, c) in body.char_indices() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                ',' if !in_str && depth == 0 => {
                    parts.push(body[start..i].to_string());
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(body[start..].to_string());
        parts.reverse();
        let reordered = format!("{{{}}}", parts.join(","));
        assert_eq!(
            ScenarioSpec::parse(&reordered).expect("reordered doc parses"),
            spec
        );
    }
}
