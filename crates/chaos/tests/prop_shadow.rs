//! The streaming state oracle against a materialising reference.
//!
//! `ShadowModel::diff` merge-joins page images against the shadow's maps
//! and compares encodings. The reference below decodes every row into an
//! owned map and compares `Row`s, key by key. On random tables with planted
//! missing, extra and mismatched rows the two must agree on every
//! divergence vector (order included) and on the summary line.

use std::collections::BTreeMap;

use cb_chaos::{ShadowDiff, ShadowModel, ShadowOp};
use cb_engine::{ColumnDef, DataType, Database, Row, Schema, Value};
use cb_store::TableId;
use proptest::prelude::*;

/// The materialising diff: decode each table into a map, then compare
/// rows with `Row ==`.
fn reference_diff(shadow: &ShadowModel, db: &Database) -> ShadowDiff {
    let mut d = ShadowDiff::default();
    for t in db.tables() {
        let name = t.name().to_string();
        let model = shadow.range(t.id(), i64::MIN, i64::MAX);
        let actual: BTreeMap<i64, Row> = db
            .dump_table(t.id())
            .into_iter()
            .map(|r| (r.key(), r))
            .collect();
        for (k, row) in &model {
            match actual.get(k) {
                None => d.missing.push((name.clone(), *k)),
                Some(r) if r != *row => d.mismatched.push((name.clone(), *k)),
                Some(_) => {}
            }
        }
        for k in actual.keys() {
            if model.binary_search_by_key(k, |(mk, _)| *mk).is_err() {
                d.extra.push((name.clone(), *k));
            }
        }
    }
    d
}

/// Table 0 holds `Int`/`Timestamp` columns, table 1 a `Text` column.
fn row_for(table: u8, key: i64, v: i64, s: &str) -> Row {
    if table == 0 {
        Row::new(vec![
            Value::Int(key),
            Value::Int(v),
            Value::Timestamp(v * 7),
        ])
    } else {
        Row::new(vec![
            Value::Int(key),
            Value::Text(s.to_string()),
            Value::Int(v),
        ])
    }
}

fn build_db(rows: [&[(i64, i64, String)]; 2]) -> (Database, [TableId; 2]) {
    let mut db = Database::new();
    let ints = db.create_table(
        "ints",
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
            ColumnDef::new("TS", DataType::Timestamp),
        ]),
    );
    let texts = db.create_table(
        "texts",
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("S", DataType::Text),
            ColumnDef::new("V", DataType::Int),
        ]),
    );
    for (table, (id, spec)) in [(ints, rows[0]), (texts, rows[1])].into_iter().enumerate() {
        let unique: BTreeMap<i64, Row> = spec
            .iter()
            .map(|(k, v, s)| (*k, row_for(table as u8, *k, *v, s)))
            .collect();
        db.load_bulk(id, unique.into_values());
    }
    (db, [ints, texts])
}

fn assert_agrees(shadow: &ShadowModel, db: &Database) -> ShadowDiff {
    let got = shadow.diff(db);
    let want = reference_diff(shadow, db);
    assert_eq!(got, want);
    assert_eq!(got.summary(), want.summary());
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Base rows live on keys 0..40 (tables may be empty); planted shadow
    /// edits land on -3..44, so divergences fall before the first row,
    /// after the last, and in between.
    #[test]
    fn streaming_diff_matches_reference(
        int_rows in prop::collection::vec((0i64..40, 0i64..4, "[ab]{0,3}"), 0..30),
        text_rows in prop::collection::vec((0i64..40, 0i64..4, "[ab]{0,3}"), 0..30),
        edits in prop::collection::vec((0u8..2, -3i64..44, 0u8..3, 0i64..4, "[ab]{0,3}"), 0..12),
    ) {
        let (db, ids) = build_db([&int_rows, &text_rows]);
        let mut shadow = ShadowModel::from_db(&db);
        prop_assert!(shadow.diff(&db).is_empty());
        for (table, key, kind, v, s) in edits {
            let id = ids[table as usize];
            shadow.apply(if kind == 0 {
                ShadowOp::Delete(id, key)
            } else {
                ShadowOp::Put(id, key, row_for(table, key, v, &s))
            });
        }
        assert_agrees(&shadow, &db);
    }
}

#[test]
fn divergences_at_both_ends_of_every_class() {
    let rows: Vec<(i64, i64, String)> = (1..=5).map(|k| (k, k, "ab".to_string())).collect();
    let (db, [ints, texts]) = build_db([&rows, &rows]);
    let mut shadow = ShadowModel::from_db(&db);
    for (table, id) in [(0u8, ints), (1u8, texts)] {
        // Missing before the first row and after the last.
        shadow.apply(ShadowOp::Put(id, 0, row_for(table, 0, 0, "")));
        shadow.apply(ShadowOp::Put(id, 6, row_for(table, 6, 6, "")));
        // Extra at the first and the last row.
        shadow.apply(ShadowOp::Delete(id, 1));
        shadow.apply(ShadowOp::Delete(id, 5));
        // Mismatched next to both ends.
        let v = if table == 0 { 9 } else { 2 };
        shadow.apply(ShadowOp::Put(id, 2, row_for(table, 2, v, "b")));
        shadow.apply(ShadowOp::Put(id, 4, row_for(table, 4, 3, "ab")));
    }
    let d = assert_agrees(&shadow, &db);
    let keys = |xs: &[(String, i64)]| {
        xs.iter()
            .map(|(t, k)| format!("{t}[{k}]"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        keys(&d.missing),
        ["ints[0]", "ints[6]", "texts[0]", "texts[6]"]
    );
    assert_eq!(
        keys(&d.extra),
        ["ints[1]", "ints[5]", "texts[1]", "texts[5]"]
    );
    // `texts[2]` differs from the page only in its text column, `texts[4]`
    // only in an Int column; both `ints` rows differ in Int and Timestamp.
    assert_eq!(
        keys(&d.mismatched),
        ["ints[2]", "ints[4]", "texts[2]", "texts[4]"]
    );
}

#[test]
fn empty_tables_on_either_side() {
    let (db, [ints, _]) = build_db([&[], &[]]);
    let mut shadow = ShadowModel::from_db(&db);
    assert!(assert_agrees(&shadow, &db).is_empty());
    shadow.apply(ShadowOp::Put(ints, 3, row_for(0, 3, 1, "")));
    assert_eq!(
        assert_agrees(&shadow, &db).missing,
        [("ints".to_string(), 3)]
    );

    let rows = [(7, 1, String::new())];
    let (db, _) = build_db([&rows, &[]]);
    let shadow = ShadowModel::from_db(&build_db([&[], &[]]).0);
    assert_eq!(assert_agrees(&shadow, &db).extra, [("ints".to_string(), 7)]);
}
