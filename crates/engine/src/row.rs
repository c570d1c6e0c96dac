//! Table schemas. Rows and values, and their encoding, belong to the
//! storage layer that stores them; they are re-exported here.

pub use remem_storage::row::{Row, Value};

/// A column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Str,
}

/// A table schema: named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub columns: Vec<(String, ColType)>,
}

impl Schema {
    pub fn new(columns: Vec<(&str, ColType)>) -> Schema {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no column named {name}"))
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![("custkey", ColType::Int), ("acctbal", ColType::Float)]);
        assert_eq!(s.col("acctbal"), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        Schema::new(vec![("a", ColType::Int)]).col("b");
    }
}
