//! Logical query plans.
//!
//! Plans are the hypotheses the integration learner proposes and the
//! executor evaluates. They reference catalog relations and services by
//! name, so they can be stored, ranked, re-executed and explained.

use crate::value::Value;
use std::fmt;

/// A tuple predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Column equals a constant.
    Eq {
        /// Column name.
        column: String,
        /// The constant.
        value: Value,
    },
    /// Column is non-null.
    NotNull {
        /// Column name.
        column: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a catalog relation.
    Scan {
        /// Relation name.
        relation: String,
    },
    /// Filter.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate to satisfy.
        predicate: Predicate,
    },
    /// Projection (by column name, in the given order).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output column names.
        columns: Vec<String>,
    },
    /// Hash equi-join on name pairs. The output schema is the left schema
    /// followed by the right schema minus the right join columns.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// `(left column, right column)` equality pairs.
        on: Vec<(String, String)>,
    },
    /// Dependent join (bind-join): feed each input tuple's binding columns
    /// to a service; append the service outputs. Figure 2's arrows from
    /// Street/City into the Zipcode Resolver are exactly this operator.
    DependentJoin {
        /// Input plan.
        input: Box<Plan>,
        /// Catalog service name.
        service: String,
        /// Input column names bound to the service inputs, in order.
        bindings: Vec<String>,
    },
    /// Derived column: apply a learned string-transform program to one
    /// input column, appending the result as a new column (the
    /// join-with-transformation step; rows where the program does not
    /// apply get a null).
    Derive {
        /// Input plan.
        input: Box<Plan>,
        /// Column the program reads.
        column: String,
        /// Name of the appended derived column.
        name: String,
        /// The learned program.
        program: copycat_transform::Program,
    },
    /// Bag union with schema homogenization (null padding).
    Union {
        /// The input plans.
        inputs: Vec<Plan>,
    },
    /// Duplicate elimination; alternative derivations merge with ⊕.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// First `n` tuples.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
}

impl Plan {
    /// Scan shorthand.
    pub fn scan(relation: impl Into<String>) -> Plan {
        Plan::Scan { relation: relation.into() }
    }

    /// Select shorthand.
    pub fn select(self, predicate: Predicate) -> Plan {
        Plan::Select { input: Box::new(self), predicate }
    }

    /// Project shorthand.
    pub fn project(self, columns: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Join shorthand.
    pub fn join(self, right: Plan, on: &[(&str, &str)]) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on.iter().map(|(l, r)| (l.to_string(), r.to_string())).collect(),
        }
    }

    /// Dependent-join shorthand.
    pub fn dependent_join(self, service: impl Into<String>, bindings: &[&str]) -> Plan {
        Plan::DependentJoin {
            input: Box::new(self),
            service: service.into(),
            bindings: bindings.iter().map(|b| b.to_string()).collect(),
        }
    }

    /// Derive shorthand.
    pub fn derive(
        self,
        column: impl Into<String>,
        name: impl Into<String>,
        program: copycat_transform::Program,
    ) -> Plan {
        Plan::Derive {
            input: Box::new(self),
            column: column.into(),
            name: name.into(),
            program,
        }
    }

    /// Distinct shorthand.
    pub fn distinct(self) -> Plan {
        Plan::Distinct { input: Box::new(self) }
    }

    /// Limit shorthand.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit { input: Box::new(self), n }
    }

    /// All relation and service names the plan touches, deduplicated in
    /// dataflow order (inputs before the services they feed) — this is the
    /// order explanations present them in.
    pub fn sources(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.walk_postorder(&mut |p| {
            let name = match p {
                Plan::Scan { relation } => Some(relation.as_str()),
                Plan::DependentJoin { service, .. } => Some(service.as_str()),
                _ => None,
            };
            if let Some(n) = name {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        });
        out
    }

    pub(crate) fn walk_postorder<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        match self {
            Plan::Scan { .. } => {}
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::DependentJoin { input, .. }
            | Plan::Derive { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => input.walk_postorder(f),
            Plan::Join { left, right, .. } => {
                left.walk_postorder(f);
                right.walk_postorder(f);
            }
            Plan::Union { inputs } => {
                for i in inputs {
                    i.walk_postorder(f);
                }
            }
        }
        f(self);
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Scan { relation } => write!(f, "{relation}"),
            Plan::Select { input, .. } => write!(f, "σ({input})"),
            Plan::Project { input, columns } => {
                write!(f, "π[{}]({input})", columns.join(","))
            }
            Plan::Join { left, right, on } => {
                let conds: Vec<String> =
                    on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                write!(f, "({left} ⋈[{}] {right})", conds.join("∧"))
            }
            Plan::DependentJoin { input, service, bindings } => {
                write!(f, "({input} →[{}] {service})", bindings.join(","))
            }
            Plan::Derive { input, column, name, program } => {
                write!(f, "τ[{name}:={program}({column})]({input})")
            }
            Plan::Union { inputs } => {
                let parts: Vec<String> = inputs.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" ∪ "))
            }
            Plan::Distinct { input } => write!(f, "δ({input})"),
            Plan::Limit { input, n } => write!(f, "limit[{n}]({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let p = Plan::scan("shelters")
            .dependent_join("zip_resolver", &["Street", "City"])
            .project(&["Name", "Zip"]);
        assert_eq!(
            p.to_string(),
            "π[Name,Zip]((shelters →[Street,City] zip_resolver))"
        );
        assert_eq!(p.sources(), vec!["shelters", "zip_resolver"]);
    }

    #[test]
    fn sources_dedup() {
        let p = Plan::Union {
            inputs: vec![Plan::scan("a"), Plan::scan("a"), Plan::scan("b")],
        };
        assert_eq!(p.sources(), vec!["a", "b"]);
    }
}
