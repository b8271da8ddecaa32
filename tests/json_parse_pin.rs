//! Pins what the JSON reader accepts and what it builds, on the documents
//! the engine reads: the wire types, the store's `CacheEntry` and the spec
//! types, each with systematic damage.
//!
//! Every fixture in `tests/fixtures/parse_pin/` is turned into variants —
//! each object member dropped, nulled, or duplicated with another value
//! before and after it; an unknown member added to each object; integers
//! written as floats (`2.0`), one at a time and all at once; pretty
//! whitespace; the compact text cut at every byte; seeded ASCII byte
//! substitutions. Each variant is parsed as the fixture's type and as a
//! `Value`, and its outcome is `err` or `ok:` plus the digest of the
//! re-serialized result. One combined digest of all outcomes is pinned, so
//! a reader change that accepts, rejects or builds anything differently
//! moves it. Surrogate escapes and nesting deeper than the reader's limit
//! are left out on purpose (their handling is tested where it is defined).
//!
//! The test calls only `serde_json::from_str` and `to_string(_pretty)`.

use cosa_repro::prelude::*;
use serde::{Deserialize, Serialize, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `err`, or `ok:` and the digest of the re-serialized value.
fn outcome<T: Deserialize + Serialize>(doc: &str) -> String {
    match serde_json::from_str::<T>(doc) {
        // A number too large for `f64` parses as infinity, which JSON
        // cannot write back.
        Ok(value) => match serde_json::to_string(&value) {
            Ok(json) => format!("ok:{:016x}", fnv(FNV_OFFSET, json.as_bytes())),
            Err(_) => "ok:non-finite".to_string(),
        },
        Err(_) => "err".to_string(),
    }
}

/// One fixture: its file name and its type's [`outcome`].
type Fixture = (&'static str, &'static str, fn(&str) -> String);

const FIXTURES: [Fixture; 9] = [
    (
        "cache_entry",
        include_str!("fixtures/parse_pin/cache_entry.json"),
        outcome::<CacheEntry>,
    ),
    (
        "schedule_request",
        include_str!("fixtures/parse_pin/schedule_request.json"),
        outcome::<ScheduleRequest>,
    ),
    (
        "schedule_response",
        include_str!("fixtures/parse_pin/schedule_response.json"),
        outcome::<ScheduleResponse>,
    ),
    (
        "network_report",
        include_str!("fixtures/parse_pin/network_report.json"),
        outcome::<NetworkReport>,
    ),
    (
        "stats_response",
        include_str!("fixtures/parse_pin/stats_response.json"),
        outcome::<StatsResponse>,
    ),
    (
        "arch",
        include_str!("fixtures/parse_pin/arch.json"),
        outcome::<Arch>,
    ),
    (
        "layer",
        include_str!("fixtures/parse_pin/layer.json"),
        outcome::<Layer>,
    ),
    (
        "network",
        include_str!("fixtures/parse_pin/network.json"),
        outcome::<Network>,
    ),
    (
        "interlayer_options",
        include_str!("fixtures/parse_pin/interlayer_options.json"),
        outcome::<InterlayerOptions>,
    ),
];

/// Index paths (map entry / sequence element positions) of every object
/// member and of every object in `value`.
fn collect_paths(
    value: &Value,
    path: &mut Vec<usize>,
    members: &mut Vec<Vec<usize>>,
    objects: &mut Vec<Vec<usize>>,
    integers: &mut Vec<Vec<usize>>,
) {
    match value {
        Value::Map(entries) => {
            objects.push(path.clone());
            for (i, (_, child)) in entries.iter().enumerate() {
                path.push(i);
                members.push(path.clone());
                collect_paths(child, path, members, objects, integers);
                path.pop();
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(i);
                collect_paths(child, path, members, objects, integers);
                path.pop();
            }
        }
        Value::U64(_) | Value::I64(_) => integers.push(path.clone()),
        _ => {}
    }
}

fn at_mut<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Map(entries) => &mut entries[i].1,
        Value::Seq(items) => &mut items[i],
        _ => unreachable!("paths only descend into containers"),
    })
}

/// The object holding member `path`, and the member's index in it.
fn member_mut<'v>(value: &'v mut Value, path: &[usize]) -> (&'v mut Vec<(String, Value)>, usize) {
    let (&index, parent) = path.split_last().expect("a member path is not empty");
    match at_mut(value, parent) {
        Value::Map(entries) => (entries, index),
        _ => unreachable!("a member's parent is an object"),
    }
}

/// A different value of the same kind.
fn other(value: &Value) -> Value {
    match value {
        Value::Null => Value::U64(0),
        Value::Bool(b) => Value::Bool(!b),
        Value::U64(n) => Value::U64(n.wrapping_add(1)),
        Value::I64(n) => Value::I64(n.wrapping_sub(1)),
        Value::F64(x) => Value::F64(x * 2.0 + 1.0),
        Value::Str(s) => Value::Str(format!("{s}x")),
        Value::Seq(_) => Value::Seq(Vec::new()),
        Value::Map(_) => Value::Map(Vec::new()),
    }
}

fn as_float(value: &mut Value) {
    match value {
        Value::U64(n) => *value = Value::F64(*n as f64),
        Value::I64(n) => *value = Value::F64(*n as f64),
        _ => {}
    }
}

fn floats_everywhere(value: &mut Value) {
    match value {
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| floats_everywhere(v)),
        Value::Seq(items) => items.iter_mut().for_each(floats_everywhere),
        scalar => as_float(scalar),
    }
}

/// Every variant document of one fixture.
fn variants(text: &str) -> Vec<String> {
    let root: Value = serde_json::from_str(text).expect("fixture parses");
    let compact = serde_json::to_string(&root).expect("fixture serializes");
    let json = |v: &Value| serde_json::to_string(v).expect("variant serializes");
    let (mut members, mut objects, mut integers) = (Vec::new(), Vec::new(), Vec::new());
    collect_paths(
        &root,
        &mut Vec::new(),
        &mut members,
        &mut objects,
        &mut integers,
    );

    let mut docs = vec![
        compact.clone(),
        serde_json::to_string_pretty(&root).expect("fixture serializes"),
    ];
    for path in &members {
        let mut dropped = root.clone();
        let (entries, i) = member_mut(&mut dropped, path);
        entries.remove(i);
        docs.push(json(&dropped));

        let mut nulled = root.clone();
        let (entries, i) = member_mut(&mut nulled, path);
        entries[i].1 = Value::Null;
        docs.push(json(&nulled));

        for before in [false, true] {
            let mut duplicated = root.clone();
            let (entries, i) = member_mut(&mut duplicated, path);
            let twin = (entries[i].0.clone(), other(&entries[i].1));
            entries.insert(if before { i } else { i + 1 }, twin);
            docs.push(json(&duplicated));
        }
    }
    for path in &objects {
        let mut extended = root.clone();
        if let Value::Map(entries) = at_mut(&mut extended, path) {
            let extra = Value::Seq(vec![Value::U64(1), Value::Map(Vec::new())]);
            entries.push(("zz_unknown".to_string(), extra));
        }
        docs.push(json(&extended));
    }
    for path in &integers {
        let mut floated = root.clone();
        as_float(at_mut(&mut floated, path));
        docs.push(json(&floated));
    }
    let mut floated = root.clone();
    floats_everywhere(&mut floated);
    docs.push(json(&floated));

    // Cut the compact text at every byte (it is ASCII, so every cut is a
    // `str` boundary).
    assert!(compact.is_ascii(), "fixtures are ASCII");
    docs.extend((0..compact.len()).map(|n| compact[..n].to_string()));

    // Seeded single-byte substitutions with JSON-significant ASCII.
    const ALPHABET: &[u8] = b"{}[],:\"\\ 0123456789.-+eEtrufalsn x";
    let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ compact.len() as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..256 {
        let mut bytes = compact.clone().into_bytes();
        let at = (next() % bytes.len() as u64) as usize;
        bytes[at] = ALPHABET[(next() % ALPHABET.len() as u64) as usize];
        docs.push(String::from_utf8(bytes).expect("ASCII stays UTF-8"));
    }
    docs
}

#[test]
fn parse_outcomes_are_pinned() {
    let mut combined = FNV_OFFSET;
    let mut summary = Vec::new();
    for (name, text, parse) in FIXTURES {
        let docs = variants(text);
        let mut accepted = 0;
        for doc in &docs {
            let typed = parse(doc);
            let tree = outcome::<Value>(doc);
            accepted += usize::from(typed != "err");
            for part in [name, doc.as_str(), &typed, &tree] {
                combined = fnv(combined, part.as_bytes());
                combined = fnv(combined, &[0]);
            }
        }
        summary.push(format!("{name}: {accepted}/{} accepted", docs.len()));
    }
    assert_eq!(
        format!("{combined:016x}"),
        "9c3160b6793bbc8f",
        "parse outcomes moved:\n{}",
        summary.join("\n")
    );
}
