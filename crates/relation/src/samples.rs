//! Sample datasets from the paper.

use crate::schema::{ColumnType, Schema};
use crate::table::Table;
use crate::tuple;

/// The `GoodEats` restaurant guide table of the paper's Figure 1.
///
/// Columns: restaurant name, `S` (service), `F` (food), `D` (decor) — each
/// scored 1–30, higher is better — and `price` (lower is better).
///
/// Its skyline under `S MAX, F MAX, D MAX, price MIN` is Figure 2:
/// Summer Moon, Zakopane, Yamanote, and Fenton & Pickle.
///
/// # Panics
/// Never: the rows are static and match the schema.
pub fn good_eats() -> Table {
    let schema = Schema::of(&[
        ("restaurant", ColumnType::Str),
        ("S", ColumnType::Int),
        ("F", ColumnType::Int),
        ("D", ColumnType::Int),
        ("price", ColumnType::Float),
    ]);
    Table::new(
        schema,
        vec![
            tuple!["Summer Moon", 21, 25, 19, 47.50],
            tuple!["Zakopane", 24, 20, 21, 56.00],
            tuple!["Brearton Grill", 15, 18, 20, 62.00],
            tuple!["Yamanote", 22, 22, 17, 51.50],
            tuple!["Fenton & Pickle", 16, 14, 10, 17.50],
            tuple!["Briar Patch BBQ", 14, 13, 3, 22.50],
        ],
    )
    .expect("static sample data is well-formed")
}

/// Names of the skyline restaurants of Figure 2, in table order.
pub const GOOD_EATS_SKYLINE: [&str; 4] = ["Summer Moon", "Zakopane", "Yamanote", "Fenton & Pickle"];

/// The three-point relation of Theorem 4's proof: `{(4,1), (2,2), (1,4)}`
/// over schema `(a1, a2)`. All three tuples are skyline, but `(2,2)` is not
/// the maximum of any *positive linear* scoring function — only of a
/// non-linear monotone one.
///
/// # Panics
/// Never: the rows are static and match the schema.
pub fn theorem4_points() -> Table {
    let schema = Schema::of(&[("a1", ColumnType::Int), ("a2", ColumnType::Int)]);
    Table::new(schema, vec![tuple![4, 1], tuple![2, 2], tuple![1, 4]])
        .expect("static sample data is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn good_eats_shape() {
        let t = good_eats();
        assert_eq!(t.len(), 6);
        assert_eq!(t.schema().len(), 5);
        assert_eq!(t.schema().index_of("price"), Some(4));
    }

    #[test]
    fn good_eats_values_match_figure_1() {
        let t = good_eats();
        // Zakopane is best on service (24).
        let s_idx = t.schema().index_of("S").unwrap();
        let best_s = t
            .rows()
            .iter()
            .max_by_key(|r| r.get(s_idx).as_i64().unwrap())
            .unwrap();
        assert_eq!(best_s.get(0).as_str(), Some("Zakopane"));
        // Summer Moon is best on food (25).
        let f_idx = t.schema().index_of("F").unwrap();
        let best_f = t
            .rows()
            .iter()
            .max_by_key(|r| r.get(f_idx).as_i64().unwrap())
            .unwrap();
        assert_eq!(best_f.get(0).as_str(), Some("Summer Moon"));
    }

    #[test]
    fn theorem4_shape() {
        let t = theorem4_points();
        assert_eq!(t.len(), 3);
        assert_eq!(t.numeric_matrix(&["a1", "a2"]).unwrap()[1], vec![2.0, 2.0]);
    }
}
