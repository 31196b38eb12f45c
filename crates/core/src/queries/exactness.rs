//! Exactness of step iii's dimension-side semi-join: embedding only the
//! dimension documents the intermediate references must leave the
//! intermediate byte-identical to the unpruned Fig 4.7 loop, which
//! fetches every document of the dimension (or the WHERE-filtered ones),
//! and must report the same summed `modified` count.
//!
//! Each check runs the production steps i–ii once, copies the
//! intermediate with its `_id`s, then runs the production step iii on
//! the original and the unpruned loop below on the copy.

use super::{q21, q46, q50, q7, referenced_dims, semi_join_into};
use crate::denormalize::embed_documents_from;
use crate::load_table_direct;
use crate::store::Store;
use doclite_bson::codec::encode_document;
use doclite_bson::{Document, Value};
use doclite_docstore::{Database, Filter, OrdValue};
use doclite_tpcds::{Generator, QueryParams};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

const SF: f64 = 0.003;

/// The normalized workload tables, loaded once for every query check.
fn workload() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let db = Database::new("exactness");
        let gen = Generator::new(SF);
        for t in crate::experiment::WORKLOAD_TABLES {
            load_table_direct(&db, &gen, t).expect("load");
        }
        db
    })
}

/// Copies `intermediate`, `_id`s included, to `<intermediate>_unpruned`.
fn copy_of(store: &dyn Store, intermediate: &str) -> String {
    let copy = format!("{intermediate}_unpruned");
    store.drop_collection(&copy);
    store.insert_many(&copy, store.find(intermediate, &Filter::True)).expect("copy");
    copy
}

/// The collection's documents as encoded bytes, in a canonical order.
fn encoded(store: &dyn Store, collection: &str) -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> =
        store.find(collection, &Filter::True).iter().map(encode_document).collect();
    docs.sort();
    docs
}

fn assert_identical(store: &dyn Store, pruned: &str, unpruned: &str) {
    let (a, b) = (encoded(store, pruned), encoded(store, unpruned));
    assert!(!a.is_empty(), "{pruned}: empty intermediate");
    assert!(a == b, "{pruned}: pruned and unpruned step iii diverge");
}

/// The Fig 4.7 loop over every `dim` document matching `filter`.
fn unpruned(
    store: &dyn Store,
    intermediate: &str,
    (field, dim, pk): (&str, &str, &str),
    filter: &Filter,
) -> usize {
    let docs = store.find(dim, filter);
    embed_documents_from(store, intermediate, field, pk, docs).expect("embed").facts_modified
}

#[test]
fn q7_pruned_step_iii_is_exact() {
    let db = workload();
    let p = QueryParams::for_scale(SF).q7;
    let joined = q7::semi_join(db, &q7::dim_pks(db, &p)).expect("semi-join");
    let copy = copy_of(db, "query7_intermediate");

    let pruned = q7::embed_dimensions(db, "query7_intermediate", &joined).expect("embed");
    let old = unpruned(db, &copy, ("ss_item_sk", "item", "i_item_sk"), &Filter::True);

    assert_eq!(pruned, old);
    assert_eq!(pruned, joined.rows, "every intermediate row embeds its item");
    assert!(joined.keys[0].len() < db.collection_len("item"), "every item is referenced");
    assert_identical(db, "query7_intermediate", &copy);
}

#[test]
fn q21_pruned_step_iii_is_exact() {
    let db = workload();
    let p = QueryParams::for_scale(SF).q21;
    let joined = q21::semi_join(db, &p).expect("semi-join");
    let copy = copy_of(db, "query21_intermediate");

    let pruned = q21::embed_dimensions(db, "query21_intermediate", &joined).expect("embed");
    let (item_filter, date_filter) = q21::dim_filters(&p);
    let old =
        unpruned(db, &copy, ("inv_warehouse_sk", "warehouse", "w_warehouse_sk"), &Filter::True)
            + unpruned(db, &copy, ("inv_item_sk", "item", "i_item_sk"), &item_filter)
            + unpruned(db, &copy, ("inv_date_sk", "date_dim", "d_date_sk"), &date_filter);

    assert_eq!(pruned, old);
    assert_eq!(pruned, 3 * joined.rows, "every row embeds all three dimensions");
    assert_identical(db, "query21_intermediate", &copy);
}

#[test]
fn q46_pruned_step_iii_is_exact() {
    let db = workload();
    let p = QueryParams::for_scale(SF).q46;
    let joined = q46::semi_join(db, &p).expect("semi-join");
    let copy = copy_of(db, "query46_intermediate");

    let pruned = q46::embed_dimensions(db, "query46_intermediate", &joined).expect("embed");

    // The unpruned step iii as Fig 4.8 first wrote it: every address and
    // every customer, current addresses expanded from the full address
    // collection.
    let addresses = db.find("customer_address", &Filter::True);
    let mut old = embed_documents_from(db, &copy, "ss_addr_sk", "ca_address_sk", addresses.clone())
        .expect("embed")
        .facts_modified;
    let addr_by_pk: HashMap<i64, &Document> = addresses
        .iter()
        .filter_map(|a| a.get("ca_address_sk").and_then(Value::as_i64).map(|k| (k, a)))
        .collect();
    let mut customers = db.find("customer", &Filter::True);
    for c in &mut customers {
        if let Some(addr) =
            c.get("c_current_addr_sk").and_then(Value::as_i64).and_then(|k| addr_by_pk.get(&k))
        {
            let mut a = (*addr).clone();
            a.remove("_id");
            c.set("c_current_addr_sk", Value::Document(a));
        }
    }
    old += embed_documents_from(db, &copy, "ss_customer_sk", "c_customer_sk", customers)
        .expect("embed")
        .facts_modified;

    assert_eq!(pruned, old);
    // The data exercises the current-address expansion: some referenced
    // customer's current address is not a bought address.
    let (bought, customer_keys) = (&joined.keys[0], &joined.keys[1]);
    let referenced = referenced_dims(db, "customer", "c_customer_sk", customer_keys);
    assert!(referenced.iter().any(|c| {
        c.get("c_current_addr_sk").is_some_and(|k| !bought.contains(&OrdValue(k.clone())))
    }));
    assert!(referenced.len() < db.collection_len("customer"), "every customer is referenced");
    assert_identical(db, "query46_intermediate", &copy);
}

/// Step iii-a (embedding returns under `sr`) fetches no dimension and
/// leaves `ss_store_sk` alone, so step iii-b is checked on its own.
#[test]
fn q50_pruned_step_iii_is_exact() {
    let db = workload();
    let p = QueryParams::for_scale(SF).q50;
    let (joined, _) = q50::semi_join(db, &p).expect("semi-join");
    let copy = copy_of(db, "query50_intermediate");

    let pruned = q50::embed_dimensions(db, "query50_intermediate", &joined).expect("embed");
    let old = unpruned(db, &copy, ("ss_store_sk", "store", "s_store_sk"), &Filter::True);

    assert_eq!(pruned, old);
    assert_identical(db, "query50_intermediate", &copy);
}

// ----- generated fact and dimension documents --------------------------

/// A fact key: `Int32`, `Int64` or `Double` of the same integer, a
/// non-integral double no dimension has, null, or a missing field.
fn fact_key(kind: u8, i: i64) -> Option<Value> {
    match kind {
        0 => Some(Value::Int32(i as i32)),
        1 => Some(Value::Int64(i)),
        2 => Some(Value::Double(i as f64)),
        3 => Some(Value::Double(i as f64 + 0.5)),
        4 => Some(Value::Null),
        _ => None,
    }
}

/// A dimension with unique primary keys drawn from `0..present.len()`
/// (fewer than the fact keys, so some fact keys have no document): key
/// `i` exists when `present[i]` is `Some(kind)`, stored as `Int32`,
/// `Int64` or `Double` by `kind`. Optionally adds a null key; always adds
/// one document without a key.
fn dimension(present: &[Option<u8>], null_pk: bool) -> Vec<Document> {
    let mut docs: Vec<Document> = present
        .iter()
        .enumerate()
        .filter_map(|(i, kind)| {
            let pk = match (*kind)? {
                0 => Value::Int32(i as i32),
                1 => Value::Int64(i as i64),
                _ => Value::Double(i as f64),
            };
            let mut d = Document::new();
            d.set("pk", pk);
            d.set("name", format!("dim-{i}"));
            Some(d)
        })
        .collect();
    let mut extra = Document::new();
    extra.set("name", "no key");
    docs.push(extra);
    if null_pk {
        let mut d = Document::new();
        d.set("pk", Value::Null);
        d.set("name", "null key");
        docs.push(d);
    }
    docs
}

fn dim_strategy() -> impl Strategy<Value = (Vec<Option<u8>>, bool)> {
    (prop::collection::vec(prop_oneof![Just(None), (0..3u8).prop_map(Some)], 8..9), any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_embedding_equals_unpruned_on_generated_documents(
        facts in prop::collection::vec((0..6u8, 0..12i64, 0..6u8, 0..12i64, 0..10i64), 0..40),
        dim_a in dim_strategy(),
        dim_b in dim_strategy(),
        cut in 0..11i64,
    ) {
        let db = Database::new("generated");
        let fact_docs: Vec<Document> = facts
            .iter()
            .map(|&(ka, a, kb, b, v)| {
                let mut d = Document::new();
                if let Some(a) = fact_key(ka, a) {
                    d.set("a", a);
                }
                if let Some(b) = fact_key(kb, b) {
                    d.set("b", b);
                }
                d.set("v", v);
                d
            })
            .collect();
        if !fact_docs.is_empty() {
            db.insert_many("fact", fact_docs).unwrap();
        }
        db.insert_many("dim_a", dimension(&dim_a.0, dim_a.1)).unwrap();
        db.insert_many("dim_b", dimension(&dim_b.0, dim_b.1)).unwrap();

        let joined =
            semi_join_into(&db, "fact", &[], Filter::lt("v", cut), "inter", &["a", "b"]).unwrap();
        prop_assert_eq!(joined.rows, facts.iter().filter(|f| f.4 < cut).count());
        let copy = copy_of(&db, "inter");

        let mut pruned = 0;
        let mut old = 0;
        for ((field, dim), keys) in [("a", "dim_a"), ("b", "dim_b")].into_iter().zip(&joined.keys) {
            let docs = referenced_dims(&db, dim, "pk", keys);
            pruned += embed_documents_from(&db, "inter", field, "pk", docs).unwrap().facts_modified;
            old += unpruned(&db, &copy, (field, dim, "pk"), &Filter::True);
        }
        prop_assert_eq!(pruned, old);
        prop_assert!(encoded(&db, "inter") == encoded(&db, &copy));
    }
}
