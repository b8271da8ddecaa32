//! JSON building on the workspace's `serde::Value` tree: the result line,
//! `results.json` and the trace files all go through these.

use std::io;
use std::path::Path;

use serde::Value;

/// A JSON object from `(key, value)` pairs, in the given order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number with all its digits.
pub fn num(x: f64) -> Value {
    Value::F64(x)
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Field `key` of a JSON object.
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Compact one-line rendering.
pub fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("benchmark output holds finite numbers only")
}

/// Write `value` pretty-printed to `path`, creating its directory.
pub fn write_pretty(path: &Path, value: &Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, body + "\n")
}
