//! Query 21 (thesis Fig 3.6): per warehouse × item, the on-hand
//! inventory before and after a pivot date, keeping the pairs whose
//! after/before ratio lies in [2/3, 3/2].

use super::{filter_dim_pks, output_collection, referenced_dims, semi_join_into, SemiJoin};
use crate::denormalize::embed_documents_from;
use crate::store::Store;
use doclite_bson::Document;
use doclite_docstore::{
    Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField, Result,
};
use doclite_tpcds::queries::Q21Params;
use doclite_tpcds::QueryId;

fn window(p: &Q21Params) -> (String, String, String) {
    let pivot = p.pivot_date.to_iso();
    let lo = p.pivot_date.plus_days(-p.window_days).to_iso();
    let hi = p.pivot_date.plus_days(p.window_days).to_iso();
    (pivot, lo, hi)
}

/// The before/after accumulators over the embedded date's `d_date`
/// (ISO date strings compare correctly under lexicographic order).
fn before_after(date_path: &str, qty_path: &str, pivot: &str) -> [(String, Accumulator); 2] {
    [
        (
            "inv_before".to_owned(),
            Accumulator::Sum(Expr::cond(
                Expr::cmp(CmpOp::Lt, Expr::field(date_path), Expr::lit(pivot)),
                Expr::field(qty_path),
                Expr::lit(0i64),
            )),
        ),
        (
            "inv_after".to_owned(),
            Accumulator::Sum(Expr::cond(
                Expr::cmp(CmpOp::Gte, Expr::field(date_path), Expr::lit(pivot)),
                Expr::field(qty_path),
                Expr::lit(0i64),
            )),
        ),
    ]
}

/// The shared tail of both strategies: ratio filter, final projection,
/// sort, `$out`.
fn tail(pipeline: Pipeline) -> Pipeline {
    pipeline
        .project([
            ("_id", ProjectField::Include),
            (
                "temp",
                ProjectField::Compute(Expr::divide(
                    Expr::field("inv_after"),
                    Expr::field("inv_before"),
                )),
            ),
            ("inv_before", ProjectField::Include),
            ("inv_after", ProjectField::Include),
        ])
        .match_stage(Filter::between("temp", 2.0 / 3.0, 3.0 / 2.0))
        .project([
            ("_id", ProjectField::Exclude),
            ("w_warehouse_name", ProjectField::Compute(Expr::field("_id.w_name"))),
            ("i_item_id", ProjectField::Compute(Expr::field("_id.i_id"))),
            ("inv_before", ProjectField::Include),
            ("inv_after", ProjectField::Include),
        ])
        .sort([("w_warehouse_name", 1), ("i_item_id", 1)])
        .out(output_collection(QueryId::Q21))
}

/// The Appendix B pipeline against the denormalized `inventory`
/// collection.
pub fn denormalized_pipeline(p: &Q21Params) -> Pipeline {
    let (pivot, lo, hi) = window(p);
    let head = Pipeline::new()
        .match_stage(Filter::and([
            Filter::between("inv_item_sk.i_current_price", p.price_lo, p.price_hi),
            Filter::exists("inv_warehouse_sk.w_warehouse_sk"),
            Filter::between("inv_date_sk.d_date", lo.as_str(), hi.as_str()),
        ]))
        .group(
            GroupId::Expr(Expr::Doc(vec![
                ("w_name".into(), Expr::field("inv_warehouse_sk.w_warehouse_name")),
                ("i_id".into(), Expr::field("inv_item_sk.i_item_id")),
            ])),
            before_after("inv_date_sk.d_date", "inv_quantity_on_hand", &pivot),
        );
    tail(head)
}

const INTERMEDIATE: &str = "query21_intermediate";

/// The Fig 4.8 algorithm against the normalized model.
pub fn run_normalized(store: &dyn Store, p: &Q21Params) -> Result<Vec<Document>> {
    let (pivot, _, _) = window(p);
    let joined = semi_join(store, p)?;
    embed_dimensions(store, INTERMEDIATE, &joined)?;

    // Step iv: aggregate (same shape as the denormalized pipeline).
    let head = Pipeline::new().group(
        GroupId::Expr(Expr::Doc(vec![
            ("w_name".into(), Expr::field("inv_warehouse_sk.w_warehouse_name")),
            ("i_id".into(), Expr::field("inv_item_sk.i_item_id")),
        ])),
        before_after("inv_date_sk.d_date", "inv_quantity_on_hand", &pivot),
    );
    store.aggregate(INTERMEDIATE, &tail(head))
}

/// The WHERE predicates of step i: item on price, date_dim on the
/// ±30-day window.
pub(super) fn dim_filters(p: &Q21Params) -> (Filter, Filter) {
    let (_, lo, hi) = window(p);
    (
        Filter::between("i_current_price", p.price_lo, p.price_hi),
        Filter::between("d_date", lo.as_str(), hi.as_str()),
    )
}

/// Steps i–ii: filter item and date_dim, then semi-join inventory,
/// collecting the warehouse, item and date keys.
pub(super) fn semi_join(store: &dyn Store, p: &Q21Params) -> Result<SemiJoin> {
    let (item_filter, date_filter) = dim_filters(p);
    let item_pks = filter_dim_pks(store, "item", &item_filter, "i_item_sk");
    let date_pks = filter_dim_pks(store, "date_dim", &date_filter, "d_date_sk");
    semi_join_into(
        store,
        "inventory",
        &[("inv_item_sk", &item_pks), ("inv_date_sk", &date_pks)],
        Filter::exists("inv_warehouse_sk"),
        INTERMEDIATE,
        &["inv_warehouse_sk", "inv_item_sk", "inv_date_sk"],
    )
}

/// Step iii: embed the aggregation-relevant dimensions — warehouse
/// (name), item (id) and date (d_date drives the before/after
/// conditions) — each restricted to the documents the intermediate
/// references, which for item and date are a subset of the filtered
/// ones. Returns the documents modified.
pub(super) fn embed_dimensions(
    store: &dyn Store,
    intermediate: &str,
    joined: &SemiJoin,
) -> Result<usize> {
    let mut modified = 0;
    for ((field, dim, pk), keys) in [
        ("inv_warehouse_sk", "warehouse", "w_warehouse_sk"),
        ("inv_item_sk", "item", "i_item_sk"),
        ("inv_date_sk", "date_dim", "d_date_sk"),
    ]
    .into_iter()
    .zip(&joined.keys)
    {
        let docs = referenced_dims(store, dim, pk, keys);
        modified += embed_documents_from(store, intermediate, field, pk, docs)?.facts_modified;
    }
    Ok(modified)
}
