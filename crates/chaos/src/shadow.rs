//! The shadow model: a trivially-correct replica of committed state.
//!
//! The harness mirrors every transaction it runs into staged [`ShadowOp`]s
//! and applies them to plain `BTreeMap`s only when the engine acknowledges
//! the commit. After recovery, the real `Database` must agree with the
//! shadow exactly — any divergence is classified by direction: a row the
//! shadow has but the database lost is a **durability** violation (acked
//! work vanished), a row the database has but the shadow doesn't is an
//! **atomicity** violation (loser effect survived), and a row present on
//! both sides with different bytes is an **equivalence** violation.

use std::collections::BTreeMap;

use cb_engine::{Database, Row};
use cb_store::TableId;

/// One mirrored effect of a transaction, staged until commit-ack.
#[derive(Clone, Debug)]
pub enum ShadowOp {
    /// Insert or overwrite the row at `key`.
    Put(TableId, i64, Row),
    /// Remove the row at `key`.
    Delete(TableId, i64),
}

/// Where a database diverged from the shadow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShadowDiff {
    /// Keys the shadow holds but the database lost: `(table, key)`.
    pub missing: Vec<(String, i64)>,
    /// Keys the database holds but the shadow doesn't.
    pub extra: Vec<(String, i64)>,
    /// Keys present on both sides with different row bytes.
    pub mismatched: Vec<(String, i64)>,
}

impl ShadowDiff {
    /// True when the database matches the shadow exactly.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty() && self.mismatched.is_empty()
    }

    /// A short human-readable summary (first few divergences per class).
    pub fn summary(&self) -> String {
        fn head(label: &str, xs: &[(String, i64)]) -> String {
            if xs.is_empty() {
                return String::new();
            }
            let shown: Vec<String> = xs
                .iter()
                .take(3)
                .map(|(t, k)| format!("{t}[{k}]"))
                .collect();
            let more = if xs.len() > 3 {
                format!(" (+{} more)", xs.len() - 3)
            } else {
                String::new()
            };
            format!("{label}: {}{more}; ", shown.join(", "))
        }
        let mut s = String::new();
        s.push_str(&head("missing", &self.missing));
        s.push_str(&head("extra", &self.extra));
        s.push_str(&head("mismatched", &self.mismatched));
        s.trim_end_matches("; ").to_string()
    }
}

/// Committed state mirrored per table as `key -> Row`.
pub struct ShadowModel {
    tables: Vec<(String, TableId, BTreeMap<i64, Row>)>,
}

impl ShadowModel {
    /// Snapshot the current (fully committed) state of `db`.
    pub fn from_db(db: &Database) -> Self {
        let tables = db
            .tables()
            .iter()
            .map(|t| {
                let mut rows = BTreeMap::new();
                db.for_each_image(t.id(), |k, img| {
                    rows.insert(k, Row::decode(img));
                    true
                });
                (t.name().to_string(), t.id(), rows)
            })
            .collect();
        ShadowModel { tables }
    }

    fn table_mut(&mut self, id: TableId) -> &mut BTreeMap<i64, Row> {
        &mut self.tables[id.0 as usize].2
    }

    /// Apply one committed effect.
    pub fn apply(&mut self, op: ShadowOp) {
        match op {
            ShadowOp::Put(t, key, row) => {
                self.table_mut(t).insert(key, row);
            }
            ShadowOp::Delete(t, key) => {
                self.table_mut(t).remove(&key);
            }
        }
    }

    /// The committed (acknowledged) image of one row, if present. The
    /// snapshot-consistency oracle compares MVCC snapshot reads against
    /// this: a snapshot taken now must see exactly the acked state, never
    /// a commit whose ack is still pending in an open group-commit batch.
    pub fn get(&self, table: TableId, key: i64) -> Option<&Row> {
        self.tables[table.0 as usize].2.get(&key)
    }

    /// The acked rows of `table` in `[lo, hi]`, in key order. The scan
    /// branch of the snapshot-consistency oracle compares an MVCC snapshot
    /// range scan against this window.
    pub fn range(&self, table: TableId, lo: i64, hi: i64) -> Vec<(i64, &Row)> {
        self.tables[table.0 as usize]
            .2
            .range(lo..=hi)
            .map(|(k, r)| (*k, r))
            .collect()
    }

    /// Total rows across all tables.
    pub fn rows(&self) -> usize {
        self.tables.iter().map(|(_, _, m)| m.len()).sum()
    }

    /// Compare `db` against the shadow, classifying every divergence.
    ///
    /// A key-ordered merge-join of each table's page images against the
    /// shadow's map: a row matches when the shadow row's encoding equals the
    /// page bytes. Every `Value` variant has exactly one encoding, so byte
    /// equality is row equality — no image is decoded and the only per-row
    /// work is one encode into a reused scratch buffer. Each divergence
    /// class comes out in per-table key order.
    pub fn diff(&self, db: &Database) -> ShadowDiff {
        let mut d = ShadowDiff::default();
        let mut scratch = Vec::new();
        for (name, id, model) in &self.tables {
            let mut expected = model.iter().peekable();
            db.for_each_image(*id, |k, img| {
                while let Some((&mk, _)) = expected.next_if(|&(&mk, _)| mk < k) {
                    d.missing.push((name.clone(), mk));
                }
                match expected.next_if(|&(&mk, _)| mk == k) {
                    Some((_, row)) => {
                        scratch.clear();
                        row.encode_into(&mut scratch);
                        if scratch != img {
                            d.mismatched.push((name.clone(), k));
                        }
                    }
                    None => d.extra.push((name.clone(), k)),
                }
                true
            });
            d.missing
                .extend(expected.map(|(&mk, _)| (name.clone(), mk)));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{ColumnDef, DataType, Schema, Value};

    fn db_with_rows() -> Database {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("V", DataType::Int),
            ]),
        );
        db.load_bulk(
            t,
            (1..=3).map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 10)])),
        );
        db
    }

    #[test]
    fn snapshot_matches_itself() {
        let db = db_with_rows();
        let shadow = ShadowModel::from_db(&db);
        assert_eq!(shadow.rows(), 3);
        assert!(shadow.diff(&db).is_empty());
    }

    #[test]
    fn diff_classifies_by_direction() {
        let db = db_with_rows();
        let t = db.table_id("t").unwrap();
        let mut shadow = ShadowModel::from_db(&db);
        // Shadow thinks key 4 was committed (db lost it) => durability.
        shadow.apply(ShadowOp::Put(
            t,
            4,
            Row::new(vec![Value::Int(4), Value::Int(40)]),
        ));
        // Shadow thinks key 1 was deleted (db kept it) => atomicity.
        shadow.apply(ShadowOp::Delete(t, 1));
        // Shadow thinks key 2 has a different value => equivalence.
        shadow.apply(ShadowOp::Put(
            t,
            2,
            Row::new(vec![Value::Int(2), Value::Int(-2)]),
        ));
        let d = shadow.diff(&db);
        assert_eq!(d.missing, vec![("t".to_string(), 4)]);
        assert_eq!(d.extra, vec![("t".to_string(), 1)]);
        assert_eq!(d.mismatched, vec![("t".to_string(), 2)]);
        let s = d.summary();
        assert!(s.contains("missing: t[4]"), "{s}");
        assert!(s.contains("extra: t[1]"), "{s}");
    }
}
