//! Cross-schema reader for previous `bench_sweep` perf snapshots.
//!
//! `bench_sweep` embeds per-row regression deltas (`delta_pct`) against
//! whatever snapshot already sits at the output path. That prior snapshot
//! can be *any* schema version — a fresh checkout may carry a years-old
//! committed `BENCH_sweep.json` — so [`PrevSnapshot`] parses it as a raw
//! JSON tree instead of the current typed [`Snapshot`] shape: every row
//! lookup degrades independently. A section the old schema lacks (e.g.
//! `hot` before schema 5) yields `None` for its rows only, and a section
//! the new schema dropped (`batch` since schema 6) is never asked for;
//! every section
//! both snapshots share backfills its deltas immediately, and the first
//! re-run after a schema bump records a fully-populated trajectory for the
//! shared rows rather than waiting a generation of `null`s.
//!
//! [`Snapshot`]: ../../bench_sweep/index.html

use serde::Value;

/// A previous perf snapshot, schema-agnostic.
///
/// Rows are addressed `(section, key_field, key, value_field)` — e.g. the
/// β = 5 hot-row throughput is `("hot", "beta", 5.0, "updates_per_sec")`
/// — and every lookup returns `Option` so callers inherit cross-schema
/// robustness for free.
pub struct PrevSnapshot {
    root: Value,
}

impl PrevSnapshot {
    /// Reads and parses the snapshot at `path`; `None` if the file is
    /// missing or not JSON (both mean "no trajectory yet", not an error).
    pub fn load(path: &str) -> Option<PrevSnapshot> {
        let text = std::fs::read_to_string(path).ok()?;
        Self::parse(&text)
    }

    /// Parses a snapshot from JSON text.
    pub fn parse(text: &str) -> Option<PrevSnapshot> {
        let root = serde_json::parse_value_str(text).ok()?;
        Some(PrevSnapshot { root })
    }

    /// The recorded `git_rev`, if the snapshot carries one (schema ≥ 2).
    pub fn rev(&self) -> Option<String> {
        match self.root.field("git_rev").ok()? {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// The `value_field` of the row in `section` whose `key_field` equals
    /// `key` — the lookup every delta computation shares.
    pub fn row_value(
        &self,
        section: &str,
        key_field: &str,
        key: f64,
        value_field: &str,
    ) -> Option<f64> {
        let rows = match self.root.field(section).ok()? {
            Value::Array(items) => items,
            _ => return None,
        };
        rows.iter()
            .find(|row| {
                row.field(key_field)
                    .ok()
                    .and_then(value_as_f64)
                    .is_some_and(|k| (k - key).abs() < 1e-9)
            })
            .and_then(|row| row.field(value_field).ok())
            .and_then(value_as_f64)
    }

    /// Percent change of `new` vs the matching previous row, `None` when
    /// the previous snapshot has no comparable row (older schema, new row
    /// key) or recorded a zero value.
    pub fn delta_pct(
        &self,
        section: &str,
        key_field: &str,
        key: f64,
        value_field: &str,
        new: f64,
    ) -> Option<f64> {
        let old = self.row_value(section, key_field, key, value_field)?;
        (old.abs() > 1e-12).then(|| (new - old) / old * 100.0)
    }
}

fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema-4 snapshot: `service` exists, `hot` and the trajectory
    /// fields don't, and rows carry no `delta_pct` of their own.
    const SCHEMA_4: &str = r#"{
        "schema": 4,
        "cores": 8,
        "git_rev": "20dbe11",
        "unix_timestamp": 1747000000,
        "sweep": [
            {"n": 213, "density": 0.5, "sweeps_timed": 9389,
             "updates_per_sec": 312000000.0, "ns_per_sweep": 683.0}
        ],
        "batch": [
            {"n": 213, "density": 0.5, "beta": 50.0, "width": 8,
             "sweeps_timed": 4694, "updates_per_sec": 190000000.0,
             "serial_updates_per_sec": 413000000.0, "speedup_vs_serial": 0.46}
        ],
        "ensemble": [
            {"replicas": 8, "all_cores_sec": 0.0011, "one_thread_sec": 0.0014,
             "speedup": 1.27, "parallel_efficiency": 1.27}
        ],
        "service": [
            {"workers": 2, "jobs": 24, "wall_sec": 0.031,
             "jobs_per_sec": 774.0, "speedup_vs_one_worker": 1.05}
        ]
    }"#;

    /// A schema-5 snapshot: the `hot` section and trajectory fields exist,
    /// with some rows already carrying deltas of their own.
    const SCHEMA_5: &str = r#"{
        "schema": 5,
        "cores": 1,
        "git_rev": "325871c",
        "previous_rev": "20dbe11",
        "unix_timestamp": 1754000000,
        "sweep": [
            {"n": 213, "density": 0.5, "sweeps_timed": 9389,
             "updates_per_sec": 400000000.0, "ns_per_sweep": 532.0,
             "delta_pct": 28.2}
        ],
        "batch": [
            {"n": 213, "density": 0.5, "beta": 50.0, "width": 8,
             "sweeps_timed": 4694, "updates_per_sec": 250000000.0,
             "serial_updates_per_sec": 310000000.0, "speedup_vs_serial": 0.81,
             "delta_pct": null}
        ],
        "hot": [
            {"n": 213, "density": 0.5, "beta": 5.0, "width": 8,
             "sweeps_timed": 9389, "updates_per_sec": 500000000.0,
             "exact_updates_per_sec": 250000000.0, "speedup_vs_exact": 2.0,
             "delta_pct": null}
        ]
    }"#;

    #[test]
    fn schema_4_backfills_shared_sections_and_skips_missing_ones() {
        let prev = PrevSnapshot::parse(SCHEMA_4).expect("valid JSON");
        assert_eq!(prev.rev().as_deref(), Some("20dbe11"));

        // sections both schemas share produce deltas immediately
        let sweep = prev
            .delta_pct("sweep", "n", 213.0, "updates_per_sec", 390_000_000.0)
            .expect("sweep row exists in schema 4");
        assert!((sweep - 25.0).abs() < 1e-9, "got {sweep}");
        assert!(prev
            .delta_pct("batch", "width", 8.0, "updates_per_sec", 2e8)
            .is_some());

        // the hot section predates schema 5: no comparable row, no delta —
        // but only for that section
        assert!(prev
            .delta_pct("hot", "beta", 5.0, "updates_per_sec", 5e8)
            .is_none());
    }

    #[test]
    fn schema_5_supplies_hot_deltas_even_where_its_own_were_null() {
        let prev = PrevSnapshot::parse(SCHEMA_5).expect("valid JSON");
        assert_eq!(prev.rev().as_deref(), Some("325871c"));

        // the prior run's own delta_pct being null must not block the
        // backfill: the lookup reads the measured value, not the delta
        let hot = prev
            .delta_pct("hot", "beta", 5.0, "updates_per_sec", 550_000_000.0)
            .expect("hot row exists in schema 5");
        assert!((hot - 10.0).abs() < 1e-9, "got {hot}");

        // unknown row keys within a known section still degrade to None
        assert!(prev
            .delta_pct("hot", "beta", 2.0, "updates_per_sec", 5e8)
            .is_none());
        assert!(prev
            .delta_pct("batch", "width", 16.0, "updates_per_sec", 2e8)
            .is_none());
    }

    #[test]
    fn malformed_or_alien_documents_read_as_no_trajectory() {
        assert!(PrevSnapshot::parse("not json").is_none());
        let alien = PrevSnapshot::parse(r#"{"schema": "x", "sweep": 3}"#).expect("valid JSON");
        assert!(alien.rev().is_none());
        assert!(alien
            .delta_pct("sweep", "n", 213.0, "updates_per_sec", 1.0)
            .is_none());
        // a zero previous value yields no delta rather than a division blowup
        let zero = PrevSnapshot::parse(r#"{"sweep": [{"n": 1, "updates_per_sec": 0.0}]}"#).unwrap();
        assert!(zero
            .delta_pct("sweep", "n", 1.0, "updates_per_sec", 5.0)
            .is_none());
    }
}
