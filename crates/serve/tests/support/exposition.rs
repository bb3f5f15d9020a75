//! Cross-checks a `/metrics` exposition against the stats body it is
//! read from. Shared by the worker and the gateway test binaries.

use serde::Value;

/// The value at a dotted path.
fn walk<'a>(value: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.')
        .filter(|key| !key.is_empty())
        .try_fold(value, |v, key| v.get(key))
}

/// The number at `path` for one sample. A `[]` segment picks the array
/// element whose `label_key` field equals `label` (in a map, the entry
/// keyed `label`); a boolean reads as 1/0.
fn stats_number(stats: &Value, path: &str, label_key: &str, label: &str) -> Option<f64> {
    let value = match path.split_once("[]") {
        None => walk(stats, path)?,
        Some((head, tail)) => {
            let element = match walk(stats, head)? {
                Value::Seq(items) => items
                    .iter()
                    .find(|e| e.get(label_key).and_then(Value::as_str) == Some(label))?,
                Value::Map(entries) => &entries.iter().find(|(k, _)| k == label)?.1,
                _ => return None,
            };
            walk(element, tail)?
        }
    };
    match value {
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        v => v.as_f64(),
    }
}

/// `(family, label value, number)` per counter and gauge sample.
fn samples(text: &str) -> Vec<(String, String, f64)> {
    let scalars: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter(|l| !l.ends_with(" histogram"))
        .filter_map(|l| l.split(' ').next())
        .collect();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, number) = l.rsplit_once(' ')?;
            let (name, label) = match series.split_once('{') {
                Some((name, labels)) => (name, labels.split('"').nth(1).unwrap_or("")),
                None => (series, ""),
            };
            scalars.contains(&name).then(|| {
                let number = number.parse().expect("sample value");
                (name.to_owned(), label.to_owned(), number)
            })
        })
        .collect()
}

/// Asserts that every counter and gauge sample of a `{prefix}_*` family
/// on `/metrics`, bar the `skip` families, holds the number at its key
/// in `stats`. `keys` names each family (after the prefix) with its
/// `(key path, label key)`; a family whose scalar key is `null` must be
/// absent. `before` and `after` are
/// `/metrics` scrapes taken around the stats read, and the stats number
/// must lie between their two samples. That is exact for a number that
/// did not move, and it tolerates counters that other tests in the same
/// process move meanwhile (the stage tables are process-wide).
pub fn assert_metrics_match_stats(
    prefix: &str,
    before: &str,
    stats: &Value,
    after: &str,
    keys: &[(&str, &str, &str)],
    skip: &[&str],
) {
    let (before, after) = (samples(before), samples(after));
    assert_eq!(before.len(), after.len(), "the two scrapes differ in shape");
    for ((name, label, a), (_, _, b)) in before.iter().zip(&after) {
        let Some(name) = name.strip_prefix(prefix).and_then(|n| n.strip_prefix('_')) else {
            continue;
        };
        if skip.contains(&name) {
            continue;
        }
        let &(_, path, label_key) = keys
            .iter()
            .find(|(family, ..)| *family == name)
            .unwrap_or_else(|| panic!("family `{name}` has no expected stats key"));
        let s = stats_number(stats, path, label_key, label)
            .unwrap_or_else(|| panic!("`{path}` ({label:?}) is not a number in the stats body"));
        assert!(
            a.min(*b) <= s && s <= a.max(*b),
            "{name} {label:?}: /metrics read {a} then {b}, stats `{path}` holds {s}"
        );
    }
    for &(family, path, _) in keys {
        let present = before
            .iter()
            .any(|(name, ..)| *name == format!("{prefix}_{family}"));
        let expected = path.contains("[]") || stats_number(stats, path, "", "").is_some();
        assert_eq!(present, expected, "family `{family}` (stats `{path}`)");
    }
}
