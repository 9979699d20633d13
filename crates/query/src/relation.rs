//! Named relations (materialized tables with provenance).

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use copycat_provenance::Provenance;

/// A named, materialized relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        Self { name: name.into(), schema, tuples: Vec::new() }
    }

    /// A relation over already-built tuples (executor output).
    pub(crate) fn from_tuples(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.arity()));
        Self { name: name.into(), schema, tuples }
    }

    /// Build a *source* relation from raw rows: row `i` gets base
    /// provenance `name#i`. Rows are truncated/padded to the schema arity.
    pub fn from_rows(name: impl Into<String>, schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let name = name.into();
        let arity = schema.arity();
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, mut values)| {
                values.resize(arity, Value::Null);
                Tuple::new(values, Provenance::base(name.clone(), i as u64))
            })
            .collect();
        Self { name, schema, tuples }
    }

    /// Build a source relation from string rows (empty strings → null).
    pub fn from_strings(name: impl Into<String>, schema: Schema, rows: &[Vec<String>]) -> Self {
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|s| Value::parse(s)).collect())
            .collect();
        Self::from_rows(name, schema, rows)
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a tuple (provenance supplied by the caller).
    pub fn push(&mut self, t: Tuple) {
        debug_assert_eq!(t.arity(), self.schema.arity());
        self.tuples.push(t);
    }

    /// The rows as text (for workspace display and tests).
    pub fn as_texts(&self) -> Vec<Vec<String>> {
        self.tuples.iter().map(Tuple::as_texts).collect()
    }

    /// A column's values as text, nulls skipped (for type recognition).
    pub fn column_texts(&self, col: usize) -> Vec<String> {
        self.tuples
            .iter()
            .filter_map(|t| t.get(col))
            .filter(|v| !v.is_null())
            .map(Value::as_text)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_assigns_base_provenance() {
        let r = Relation::from_strings(
            "shelters",
            Schema::of(&["Name", "City"]),
            &[
                vec!["Creek HS".into(), "Margate".into()],
                vec!["Rec Ctr".into(), "Tamarac".into()],
            ],
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[1].provenance, Provenance::base("shelters", 1));
    }

    #[test]
    fn rows_are_padded_to_schema() {
        let r = Relation::from_rows(
            "r",
            Schema::of(&["A", "B"]),
            vec![vec![Value::str("only")]],
        );
        assert_eq!(r.tuples()[0].values, vec![Value::str("only"), Value::Null]);
    }

    #[test]
    fn column_texts_skip_nulls() {
        let r = Relation::from_strings(
            "r",
            Schema::of(&["A"]),
            &[vec!["x".into()], vec!["".into()], vec!["y".into()]],
        );
        assert_eq!(r.column_texts(0), vec!["x", "y"]);
    }
}
