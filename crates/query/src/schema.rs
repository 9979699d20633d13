//! Schemas: named, optionally semantically-typed columns.

use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::fmt;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Semantic type assigned by the model learner (e.g. `PR-Zip`), when
    /// known. Semantic types drive association discovery (§4.1).
    pub sem_type: Option<String>,
}

impl Field {
    /// An untyped field.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), sem_type: None }
    }

    /// A field with a semantic type.
    pub fn typed(name: impl Into<String>, sem_type: impl Into<String>) -> Self {
        Self { name: name.into(), sem_type: Some(sem_type.into()) }
    }
}

impl ToJson for Field {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("name", &self.name);
            w.field("sem_type", &self.sem_type);
        });
    }
}

impl FromJson for Field {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(Field {
            name: String::from_json(j.require("name")?)?,
            sem_type: Option::from_json(j.require("sem_type")?)?,
        })
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// Build untyped from names.
    pub fn of(names: &[&str]) -> Self {
        Self { fields: names.iter().map(|n| Field::new(*n)).collect() }
    }

    /// The fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column with this name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field at an index.
    pub fn field(&self, i: usize) -> Option<&Field> {
        self.fields.get(i)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Merge for union: the left schema's columns, followed by right
    /// columns whose names are new. (§4.2: "extending the schema and
    /// padding with nulls as necessary to form a homogeneous schema".)
    pub fn union_merge(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            match fields.iter_mut().find(|g| g.name == f.name) {
                Some(existing) => {
                    // Adopt a semantic type the left side lacked.
                    if existing.sem_type.is_none() {
                        existing.sem_type = f.sem_type.clone();
                    }
                }
                None => fields.push(f.clone()),
            }
        }
        Schema { fields }
    }

    /// For a tuple under `self`, the column mapping into `target`:
    /// `mapping[t]` is the source index for target column `t`, or `None`
    /// (pad with null).
    pub fn mapping_into(&self, target: &Schema) -> Vec<Option<usize>> {
        target
            .fields
            .iter()
            .map(|f| self.index_of(&f.name))
            .collect()
    }

    /// Columns (name pairs) shared with another schema.
    pub fn common_columns<'a>(&'a self, other: &'a Schema) -> Vec<&'a str> {
        self.fields
            .iter()
            .filter(|f| other.index_of(&f.name).is_some())
            .map(|f| f.name.as_str())
            .collect()
    }
}

impl ToJson for Schema {
    /// A schema serializes as its field array.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.fields.write_json(w);
    }
}

impl FromJson for Schema {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(Schema { fields: Vec::from_json(j)? })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", field.name)?;
            if let Some(t) = &field.sem_type {
                write!(f, ":{t}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_names() {
        let s = Schema::of(&["Name", "Street", "City"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("Street"), Some(1));
        assert_eq!(s.index_of("Zip"), None);
        assert_eq!(s.names(), vec!["Name", "Street", "City"]);
    }

    #[test]
    fn union_merge_pads_and_keeps_order() {
        let a = Schema::of(&["Name", "City"]);
        let b = Schema::new(vec![Field::new("City"), Field::typed("Zip", "PR-Zip")]);
        let m = a.union_merge(&b);
        assert_eq!(m.names(), vec!["Name", "City", "Zip"]);
        assert_eq!(m.field(2).unwrap().sem_type.as_deref(), Some("PR-Zip"));
        // Mapping from b into the merged schema pads Name.
        assert_eq!(b.mapping_into(&m), vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn union_merge_adopts_types() {
        let a = Schema::of(&["City"]);
        let b = Schema::new(vec![Field::typed("City", "PR-City")]);
        let m = a.union_merge(&b);
        assert_eq!(m.field(0).unwrap().sem_type.as_deref(), Some("PR-City"));
    }

    #[test]
    fn common_columns() {
        let a = Schema::of(&["Name", "City", "Zip"]);
        let b = Schema::of(&["City", "Zip", "Phone"]);
        assert_eq!(a.common_columns(&b), vec!["City", "Zip"]);
    }

    #[test]
    fn display() {
        let s = Schema::new(vec![Field::new("A"), Field::typed("B", "PR-Zip")]);
        assert_eq!(s.to_string(), "(A, B:PR-Zip)");
    }

    #[test]
    fn json_roundtrip() {
        let s = Schema::new(vec![Field::new("A"), Field::typed("B", "PR-Zip")]);
        let back: Schema = copycat_util::json::from_str(&copycat_util::json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }
}
