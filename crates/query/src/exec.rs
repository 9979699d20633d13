//! The provenance-annotating executor.

use crate::catalog::Catalog;
use crate::plan::{Plan, Predicate};
use crate::relation::Relation;
use crate::schema::{Field, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use copycat_provenance::Provenance;
use copycat_util::hash::FxHashMap;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Plan referenced a relation the catalog does not hold.
    UnknownRelation(String),
    /// Plan referenced a service the catalog does not hold.
    UnknownService(String),
    /// Plan referenced a column absent from its input schema.
    UnknownColumn(String),
    /// A dependent join bound the wrong number of columns.
    BindingArity {
        /// The service.
        service: String,
        /// Expected input arity.
        expected: usize,
        /// Provided binding count.
        got: usize,
    },
    /// Union over zero inputs.
    EmptyUnion,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation '{r}'"),
            ExecError::UnknownService(s) => write!(f, "unknown service '{s}'"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExecError::BindingArity { service, expected, got } => write!(
                f,
                "service '{service}' expects {expected} bound inputs, got {got}"
            ),
            ExecError::EmptyUnion => write!(f, "union of zero inputs"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One service failure observed while executing a plan: which service,
/// which failure mode (`unavailable` / `too_slow` / `incomplete`), and
/// a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceFailure {
    /// The failing service's catalog name.
    pub service: String,
    /// The failure mode ([`crate::service::ServiceError::kind`]).
    pub kind: String,
    /// Display form of the underlying error.
    pub detail: String,
}

/// What went wrong *inside* an otherwise successful execution. A plan
/// whose dependent join hits a down service still returns the rows it
/// could derive; the report records that the answer may be degraded —
/// the distinction §3.2 needs between "empty because there is no
/// match" and "empty because the source failed".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Every service failure, in call order.
    pub failures: Vec<ServiceFailure>,
}

impl ExecReport {
    /// True when no service failed — the answer is complete.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The distinct failing services, first-failure order.
    pub fn failed_services(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for f in &self.failures {
            if !out.contains(&f.service.as_str()) {
                out.push(&f.service);
            }
        }
        out
    }
}

/// Execute a plan against the catalog. The result is named `result`.
/// Lenient: service failures degrade to skipped tuples (the report is
/// discarded); use [`execute_reported`] to observe them.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Relation, ExecError> {
    let (rel, _report) = run(plan, catalog, |provenance| provenance)?;
    Ok(rel)
}

/// Execute and wrap every output tuple's provenance in a query label —
/// the form the SCP engine uses so feedback can be traced to the query
/// — and return the [`ExecReport`] alongside the rows, so callers can
/// tell a complete answer from one degraded by service failures (and
/// know *which* services to fail over from).
pub fn execute_reported(
    plan: &Plan,
    catalog: &Catalog,
    label: &str,
) -> Result<(Relation, ExecReport), ExecError> {
    // One shared label for every output tuple.
    let label: Arc<str> = Arc::from(label);
    run(plan, catalog, |provenance| {
        Provenance::labeled(Arc::clone(&label), provenance)
    })
}

/// Execute for the answer's shape and size only: the output schema,
/// the number of rows [`execute_reported`] would return, and the same
/// [`ExecReport`]. Every operator below the root is evaluated as usual;
/// a root join or dependent join is counted without building its
/// output tuples or their provenance, calling the same services in the
/// same order. This is what query discovery needs to rank and show its
/// answers.
pub fn execute_counted(
    plan: &Plan,
    catalog: &Catalog,
) -> Result<(Schema, usize, ExecReport), ExecError> {
    let mut report = ExecReport::default();
    let pins = pin_relations(plan, catalog);
    let (schema, rows) = match plan {
        Plan::Join { left, right, on } => {
            let (ls, lt) = eval(left, &pins, catalog, &mut report)?;
            let (rs, rt) = eval(right, &pins, catalog, &mut report)?;
            let shape = join_shape(&ls, &rs, on)?;
            let index = JoinIndex::build(&rt, &shape.rcols);
            (shape.schema, index.count(&lt, &shape.lcols))
        }
        Plan::DependentJoin { input, service, bindings } => {
            let (schema, tuples) = eval(input, &pins, catalog, &mut report)?;
            let mut bound = BoundService::bind(&schema, service, bindings, catalog)?;
            let mut rows = 0;
            // lint:hotpath(begin)
            for t in &tuples {
                if let Some(answers) = bound.call(t, &mut report) {
                    rows += answers.len();
                }
            }
            // lint:hotpath(end)
            (bound.schema, rows)
        }
        _ => {
            let (schema, rows) = eval(plan, &pins, catalog, &mut report)?;
            (schema.into_owned(), rows.len())
        }
    };
    Ok((schema, rows, report))
}

/// Evaluate `plan` and materialize its rows as the `result` relation,
/// passing each tuple's provenance through `wrap`.
fn run(
    plan: &Plan,
    catalog: &Catalog,
    wrap: impl Fn(Provenance) -> Provenance,
) -> Result<(Relation, ExecReport), ExecError> {
    let mut report = ExecReport::default();
    let pins = pin_relations(plan, catalog);
    let (schema, rows) = eval(plan, &pins, catalog, &mut report)?;
    let tuples = rows
        .into_iter()
        .map(|row| {
            let (values, provenance) = into_parts(row);
            Tuple::new(values, wrap(provenance))
        })
        .collect();
    Ok((Relation::from_tuples("result", schema.into_owned(), tuples), report))
}

/// A row flowing between operators: borrowed straight from a catalog
/// relation (scans, and whatever selects, unions and limits pass
/// through untouched), or owned when an operator built it. Only the
/// rows an operator creates are ever materialized.
type Row<'a> = Cow<'a, Tuple>;

/// The catalog relations a plan scans, looked up once before execution
/// and held for its duration so rows can borrow from them. `None` marks
/// a relation the catalog does not hold (reported when the scan runs).
type Pins<'p> = Vec<(&'p str, Option<Arc<Relation>>)>;

fn pin_relations<'p>(plan: &'p Plan, catalog: &Catalog) -> Pins<'p> {
    let mut pins: Pins<'p> = Vec::new();
    plan.walk_postorder(&mut |p| {
        if let Plan::Scan { relation } = p {
            if !pins.iter().any(|(name, _)| name == relation) {
                pins.push((relation, catalog.relation(relation)));
            }
        }
    });
    pins
}

/// A row's values and provenance: moved out of an owned row, cloned
/// (reference-count bumps for the strings) from a borrowed one.
fn into_parts(row: Row<'_>) -> (Vec<Value>, Provenance) {
    match row {
        Cow::Borrowed(t) => (t.values.clone(), t.provenance.clone()),
        Cow::Owned(t) => (t.values, t.provenance),
    }
}

fn provenance_of(row: Row<'_>) -> Provenance {
    match row {
        Cow::Borrowed(t) => t.provenance.clone(),
        Cow::Owned(t) => t.provenance,
    }
}

/// The values of `cols` in a row, borrowed: a hash-join key.
struct Key<'a> {
    values: &'a [Value],
    cols: &'a [usize],
}

impl Key<'_> {
    fn has_null(&self) -> bool {
        self.cols.iter().any(|&c| self.values[c].is_null())
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols
            .iter()
            .zip(other.cols)
            .all(|(&a, &b)| self.values[a] == other.values[b])
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &c in self.cols {
            self.values[c].hash(state);
        }
    }
}

/// "No further match" in a join's match chains.
const CHAIN_END: usize = usize::MAX;

/// A join's key columns on each side and its output schema: left +
/// right minus the right join columns, a right name that clashes
/// taking a `_2` suffix.
struct JoinShape {
    lcols: Vec<usize>,
    rcols: Vec<usize>,
    keep_right: Vec<usize>,
    schema: Schema,
}

fn join_shape(ls: &Schema, rs: &Schema, on: &[(String, String)]) -> Result<JoinShape, ExecError> {
    let lcols: Vec<usize> = on
        .iter()
        .map(|(l, _)| ls.index_of(l).ok_or_else(|| ExecError::UnknownColumn(l.clone())))
        .collect::<Result<_, _>>()?;
    let rcols: Vec<usize> = on
        .iter()
        .map(|(_, r)| rs.index_of(r).ok_or_else(|| ExecError::UnknownColumn(r.clone())))
        .collect::<Result<_, _>>()?;
    let keep_right: Vec<usize> = (0..rs.arity()).filter(|i| !rcols.contains(i)).collect();
    let mut fields = ls.fields().to_vec();
    push_disambiguated(&mut fields, keep_right.iter().map(|&i| rs.field(i).expect("in range")));
    Ok(JoinShape { lcols, rcols, keep_right, schema: Schema::new(fields) })
}

/// Append `added` to `fields`, suffixing `_2` to a name already taken.
fn push_disambiguated<'f>(fields: &mut Vec<Field>, added: impl Iterator<Item = &'f Field>) {
    for f in added {
        let name = if fields.iter().any(|g| g.name == f.name) {
            format!("{}_2", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field { name, sem_type: f.sem_type.clone() });
    }
}

/// The right side of a hash join, indexed on its borrowed key values.
/// Each key maps to the first and last right row holding it; `next`
/// chains the rest in input order. Null keys are left out: they never
/// join.
struct JoinIndex<'r> {
    index: FxHashMap<Key<'r>, (usize, usize)>,
    next: Vec<usize>,
}

impl<'r> JoinIndex<'r> {
    fn build(rows: &'r [Row<'_>], cols: &'r [usize]) -> Self {
        let mut index: FxHashMap<Key<'r>, (usize, usize)> = FxHashMap::default();
        let mut next = vec![CHAIN_END; rows.len()];
        for (i, t) in rows.iter().enumerate() {
            let key = Key { values: &t.values, cols };
            if key.has_null() {
                continue;
            }
            match index.entry(key) {
                Entry::Occupied(mut e) => {
                    let (_, last) = e.get_mut();
                    next[*last] = i;
                    *last = i;
                }
                Entry::Vacant(e) => {
                    e.insert((i, i));
                }
            }
        }
        JoinIndex { index, next }
    }

    // lint:hotpath(begin)

    /// The right rows matching `values` on `cols`, in input order.
    fn matches<'s>(&'s self, values: &'s [Value], cols: &'s [usize]) -> Chain<'s> {
        let key = Key { values, cols };
        let at = if key.has_null() {
            CHAIN_END
        } else {
            self.index.get(&key).map_or(CHAIN_END, |&(first, _)| first)
        };
        Chain { next: &self.next, at }
    }

    /// How many rows joining `left` against this index yields.
    fn count(&self, left: &[Row<'_>], cols: &[usize]) -> usize {
        left.iter().map(|l| self.matches(&l.values, cols).count()).sum()
    }
}

/// One key's match chain in a [`JoinIndex`].
struct Chain<'s> {
    next: &'s [usize],
    at: usize,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let m = self.at;
        if m == CHAIN_END {
            return None;
        }
        self.at = self.next[m];
        Some(m)
    }
}

// lint:hotpath(end)

/// A dependent join's service, checked against its input schema, with
/// the output schema it produces (a clashing output name takes a `_2`
/// suffix).
struct BoundService<'p> {
    name: &'p str,
    svc: Arc<dyn crate::service::Service>,
    bind_idx: Vec<usize>,
    /// The bound input values of the current call (reused).
    inputs: Vec<Value>,
    out_arity: usize,
    schema: Schema,
}

impl<'p> BoundService<'p> {
    fn bind(
        schema: &Schema,
        service: &'p str,
        bindings: &[String],
        catalog: &Catalog,
    ) -> Result<Self, ExecError> {
        let svc = catalog
            .service(service)
            .ok_or_else(|| ExecError::UnknownService(service.to_string()))?;
        let sig = svc.signature();
        if bindings.len() != sig.inputs.arity() {
            return Err(ExecError::BindingArity {
                service: service.to_string(),
                expected: sig.inputs.arity(),
                got: bindings.len(),
            });
        }
        let bind_idx: Vec<usize> = bindings
            .iter()
            .map(|c| schema.index_of(c).ok_or_else(|| ExecError::UnknownColumn(c.clone())))
            .collect::<Result<_, _>>()?;
        let mut fields = schema.fields().to_vec();
        push_disambiguated(&mut fields, sig.outputs.fields().iter());
        let out_arity = sig.outputs.arity();
        Ok(BoundService {
            name: service,
            svc,
            inputs: Vec::with_capacity(bind_idx.len()),
            bind_idx,
            out_arity,
            schema: Schema::new(fields),
        })
    }

    // lint:hotpath(begin)

    /// Call the service for one input row. `None` when the row has an
    /// unbound (null) input or the call failed outright; a truncated
    /// answer is kept. Every failure is recorded in `report`, in call
    /// order.
    fn call(&mut self, row: &Tuple, report: &mut ExecReport) -> Option<Vec<Vec<Value>>> {
        self.inputs.clear();
        // lint:allow(hot-path-alloc) a value clone bumps a string's reference count
        self.inputs.extend(self.bind_idx.iter().map(|&i| row.values[i].clone()));
        if self.inputs.iter().any(Value::is_null) {
            return None; // unbound input: the service cannot be called
        }
        match self.svc.try_call(&self.inputs) {
            Ok(answers) => Some(answers),
            Err(crate::service::ServiceError::Incomplete { partial, .. }) => {
                // Keep what the source did return; the report marks the
                // answer as possibly missing rows.
                report.failures.push(ServiceFailure {
                    service: self.name.into(),
                    kind: "incomplete".into(),
                    // lint:allow(hot-path-alloc) failure arm: a degraded answer
                    detail: format!("service '{}' returned a truncated answer", self.name),
                });
                Some(partial)
            }
            Err(e) => {
                // Unavailable / too slow: no answer for this input
                // tuple — a failed bind drops the tuple, never the
                // whole query.
                report.failures.push(ServiceFailure {
                    service: self.name.into(),
                    kind: e.kind().into(),
                    // lint:allow(hot-path-alloc) failure arm: a degraded answer
                    detail: e.to_string(),
                });
                None
            }
        }
    }

    // lint:hotpath(end)
}

/// A projection's source column indices and output schema.
fn project_shape(
    schema: &Schema,
    columns: &[String],
) -> Result<(Vec<usize>, Schema), ExecError> {
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| schema.index_of(c).ok_or_else(|| ExecError::UnknownColumn(c.clone())))
        .collect::<Result<_, _>>()?;
    let fields = idx.iter().map(|&i| schema.field(i).expect("validated").clone()).collect();
    Ok((idx, Schema::new(fields)))
}

/// A derived column's source index and output schema: the input's
/// columns plus the untyped derived one.
fn derive_shape(schema: &Schema, column: &str, name: &str) -> Result<(usize, Schema), ExecError> {
    let src = schema
        .index_of(column)
        .ok_or_else(|| ExecError::UnknownColumn(column.to_string()))?;
    let mut fields = schema.fields().to_vec();
    fields.push(Field::new(name));
    Ok((src, Schema::new(fields)))
}

/// A union's output schema: its inputs' schemas merged left to right.
fn union_shape<'s>(mut schemas: impl Iterator<Item = &'s Schema>) -> Schema {
    let first = schemas.next().expect("non-empty union").clone();
    schemas.fold(first, |merged, s| merged.union_merge(s))
}

/// The output schema [`execute`] would give `plan`, without evaluating
/// any row or calling any service: a walk over the plan applying the
/// same per-operator schema rules as evaluation (`join_shape`,
/// `BoundService::bind`, `project_shape`, `derive_shape`,
/// `union_shape`), so the two cannot disagree.
pub fn output_schema(plan: &Plan, catalog: &Catalog) -> Result<Schema, ExecError> {
    let pins = pin_relations(plan, catalog);
    shape(plan, &pins, catalog).map(Cow::into_owned)
}

fn shape<'a>(
    plan: &Plan,
    pins: &'a Pins<'_>,
    catalog: &Catalog,
) -> Result<Cow<'a, Schema>, ExecError> {
    Ok(match plan {
        Plan::Scan { relation } => Cow::Borrowed(pinned(pins, relation)?.schema()),
        Plan::Select { input, predicate } => {
            let schema = shape(input, pins, catalog)?;
            check_predicate_columns(predicate, &schema)?;
            schema
        }
        Plan::Project { input, columns } => {
            let schema = shape(input, pins, catalog)?;
            Cow::Owned(project_shape(&schema, columns)?.1)
        }
        Plan::Derive { input, column, name, .. } => {
            let schema = shape(input, pins, catalog)?;
            Cow::Owned(derive_shape(&schema, column, name)?.1)
        }
        Plan::Join { left, right, on } => {
            let ls = shape(left, pins, catalog)?;
            let rs = shape(right, pins, catalog)?;
            Cow::Owned(join_shape(&ls, &rs, on)?.schema)
        }
        Plan::DependentJoin { input, service, bindings } => {
            let schema = shape(input, pins, catalog)?;
            Cow::Owned(BoundService::bind(&schema, service, bindings, catalog)?.schema)
        }
        Plan::Union { inputs } => {
            if inputs.is_empty() {
                return Err(ExecError::EmptyUnion);
            }
            let schemas =
                inputs.iter().map(|i| shape(i, pins, catalog)).collect::<Result<Vec<_>, _>>()?;
            Cow::Owned(union_shape(schemas.iter().map(Cow::as_ref)))
        }
        Plan::Distinct { input } | Plan::Limit { input, .. } => shape(input, pins, catalog)?,
    })
}

/// The pinned relation a scan reads.
fn pinned<'a>(pins: &'a Pins<'_>, relation: &str) -> Result<&'a Relation, ExecError> {
    pins.iter()
        .find(|(name, _)| *name == relation)
        .and_then(|(_, rel)| rel.as_deref())
        .ok_or_else(|| ExecError::UnknownRelation(relation.to_string()))
}

fn eval<'a>(
    plan: &Plan,
    pins: &'a Pins<'_>,
    catalog: &Catalog,
    report: &mut ExecReport,
) -> Result<(Cow<'a, Schema>, Vec<Row<'a>>), ExecError> {
    match plan {
        Plan::Scan { relation } => {
            let rel = pinned(pins, relation)?;
            let rows = rel.tuples().iter().map(Cow::Borrowed).collect();
            Ok((Cow::Borrowed(rel.schema()), rows))
        }
        Plan::Select { input, predicate } => {
            let (schema, tuples) = eval(input, pins, catalog, report)?;
            check_predicate_columns(predicate, &schema)?;
            let kept = tuples
                .into_iter()
                .filter(|t| eval_predicate(predicate, &schema, t))
                .collect();
            Ok((schema, kept))
        }
        Plan::Project { input, columns } => {
            let (schema, tuples) = eval(input, pins, catalog, report)?;
            let (idx, out_schema) = project_shape(&schema, columns)?;
            let out = tuples
                .into_iter()
                .map(|t| {
                    let values = idx.iter().map(|&i| t.values[i].clone()).collect();
                    Cow::Owned(Tuple::new(values, provenance_of(t)))
                })
                .collect();
            Ok((Cow::Owned(out_schema), out))
        }
        Plan::Derive { input, column, name, program } => {
            let (schema, tuples) = eval(input, pins, catalog, report)?;
            let (src, out_schema) = derive_shape(&schema, column, name)?;
            let out = tuples
                .into_iter()
                .map(|t| {
                    // A null feeds nothing; a program that does not
                    // apply derives a null (never joins downstream).
                    let derived = if t.values[src].is_null() {
                        None
                    } else {
                        program.apply(&t.values[src].as_text())
                    };
                    let mut values = Vec::with_capacity(t.values.len() + 1);
                    values.extend_from_slice(&t.values);
                    values.push(derived.map_or(Value::Null, Value::str));
                    Cow::Owned(Tuple::new(values, provenance_of(t)))
                })
                .collect();
            Ok((Cow::Owned(out_schema), out))
        }
        Plan::Join { left, right, on } => {
            let (ls, lt) = eval(left, pins, catalog, report)?;
            let (rs, rt) = eval(right, pins, catalog, report)?;
            let shape = join_shape(&ls, &rs, on)?;
            let index = JoinIndex::build(&rt, &shape.rcols);
            let width = shape.schema.arity();
            let mut out = Vec::new();
            for l in &lt {
                for m in index.matches(&l.values, &shape.lcols) {
                    let r = &rt[m];
                    let mut values = Vec::with_capacity(width);
                    values.extend_from_slice(&l.values);
                    values.extend(shape.keep_right.iter().map(|&i| r.values[i].clone()));
                    out.push(Cow::Owned(Tuple::new(
                        values,
                        Provenance::times(l.provenance.clone(), r.provenance.clone()),
                    )));
                }
            }
            Ok((Cow::Owned(shape.schema), out))
        }
        Plan::DependentJoin { input, service, bindings } => {
            let (schema, tuples) = eval(input, pins, catalog, report)?;
            let mut bound = BoundService::bind(&schema, service, bindings, catalog)?;
            // The service's provenance leaf name, shared by every answer.
            let source: Arc<str> = Arc::from(service.as_str());
            let mut out = Vec::new();
            let mut call_ordinal: u64 = 0;
            for t in &tuples {
                let Some(answers) = bound.call(t, report) else {
                    continue;
                };
                let width = t.values.len() + bound.out_arity;
                for mut answer in answers {
                    answer.resize(bound.out_arity, Value::Null);
                    let mut values = Vec::with_capacity(width);
                    values.extend_from_slice(&t.values);
                    values.extend(answer);
                    out.push(Cow::Owned(Tuple::new(
                        values,
                        Provenance::times(
                            t.provenance.clone(),
                            Provenance::base(Arc::clone(&source), call_ordinal),
                        ),
                    )));
                    call_ordinal += 1;
                }
            }
            Ok((Cow::Owned(bound.schema), out))
        }
        Plan::Union { inputs } => {
            if inputs.is_empty() {
                return Err(ExecError::EmptyUnion);
            }
            let mut evaluated = Vec::with_capacity(inputs.len());
            for i in inputs {
                evaluated.push(eval(i, pins, catalog, report)?);
            }
            let merged = union_shape(evaluated.iter().map(|(s, _)| s.as_ref()));
            let mut out = Vec::new();
            for (schema, tuples) in evaluated {
                let mapping = schema.mapping_into(&merged);
                let identity = schema.arity() == merged.arity()
                    && mapping.iter().enumerate().all(|(j, m)| *m == Some(j));
                if identity {
                    // Already in the merged layout: pass the rows through.
                    out.extend(tuples);
                    continue;
                }
                for t in tuples {
                    let values: Vec<Value> = mapping
                        .iter()
                        .map(|m| match m {
                            Some(i) => t.values[*i].clone(),
                            None => Value::Null,
                        })
                        .collect();
                    out.push(Cow::Owned(Tuple::new(values, provenance_of(t))));
                }
            }
            Ok((Cow::Owned(merged), out))
        }
        Plan::Distinct { input } => {
            let (schema, tuples) = eval(input, pins, catalog, report)?;
            // Group rows by their borrowed values; the first row of each
            // group is its representative, later ones add alternative
            // derivations with ⊕.
            let mut index: FxHashMap<&[Value], usize> = FxHashMap::default();
            let mut groups: Vec<(usize, Provenance)> = Vec::new();
            for (i, t) in tuples.iter().enumerate() {
                match index.get(t.values.as_slice()) {
                    Some(&g) => {
                        let acc = &mut groups[g].1;
                        let merged = std::mem::replace(acc, Provenance::Union(Vec::new()));
                        *acc = Provenance::plus(merged, t.provenance.clone());
                    }
                    None => {
                        index.insert(&t.values, groups.len());
                        groups.push((i, t.provenance.clone()));
                    }
                }
            }
            let mut groups = groups.into_iter().peekable();
            let mut out = Vec::with_capacity(groups.len());
            for (i, t) in tuples.into_iter().enumerate() {
                if let Some((_, prov)) = groups.next_if(|(first, _)| *first == i) {
                    let (values, _) = into_parts(t);
                    out.push(Cow::Owned(Tuple::new(values, prov)));
                }
            }
            Ok((schema, out))
        }
        Plan::Limit { input, n } => {
            let (schema, mut tuples) = eval(input, pins, catalog, report)?;
            tuples.truncate(*n);
            Ok((schema, tuples))
        }
    }
}

fn check_predicate_columns(p: &Predicate, schema: &Schema) -> Result<(), ExecError> {
    match p {
        Predicate::Eq { column, .. } | Predicate::NotNull { column } => schema
            .index_of(column)
            .map(|_| ())
            .ok_or_else(|| ExecError::UnknownColumn(column.clone())),
        Predicate::And(ps) => ps.iter().try_for_each(|p| check_predicate_columns(p, schema)),
    }
}

fn eval_predicate(p: &Predicate, schema: &Schema, t: &Tuple) -> bool {
    match p {
        Predicate::Eq { column, value } => {
            let i = schema.index_of(column).expect("validated");
            t.values[i] == *value
        }
        Predicate::NotNull { column } => {
            let i = schema.index_of(column).expect("validated");
            !t.values[i].is_null()
        }
        Predicate::And(ps) => ps.iter().all(|p| eval_predicate(p, schema, t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FnService, Signature};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.add_relation(Relation::from_strings(
            "shelters",
            Schema::of(&["Name", "Street", "City"]),
            &[
                vec!["Creek HS".into(), "100 Oak St".into(), "Margate".into()],
                vec!["Rec Ctr".into(), "200 Elm Ave".into(), "Tamarac".into()],
                vec!["Civic".into(), "300 Pine Rd".into(), "Margate".into()],
            ],
        ));
        cat.add_relation(Relation::from_strings(
            "contacts",
            Schema::of(&["Venue", "Phone"]),
            &[
                vec!["Creek HS".into(), "555-0101".into()],
                vec!["Civic".into(), "555-0103".into()],
            ],
        ));
        cat.add_service(Arc::new(FnService::new(
            "zip_resolver",
            Signature {
                inputs: Schema::of(&["street", "city"]),
                outputs: Schema::new(vec![Field::typed("Zip", "PR-Zip")]),
            },
            |inp: &[Value]| match inp[1].as_text().as_str() {
                "Margate" => vec![vec![Value::str("33063")]],
                "Tamarac" => vec![vec![Value::str("33321")]],
                _ => vec![],
            },
        )));
        cat
    }

    /// [`execute_counted`] gives the schema, row count and report that
    /// [`execute_reported`] gives for the same plan.
    fn assert_counted_agrees(plan: &Plan, cat: &Catalog) {
        let (rel, report) = execute_reported(plan, cat, "Q").unwrap();
        assert_eq!(
            execute_counted(plan, cat).unwrap(),
            (rel.schema().clone(), rel.len(), report),
            "counted and executed answers differ for {plan}"
        );
        assert_eq!(
            &output_schema(plan, cat).unwrap(),
            rel.schema(),
            "shape walk and execution disagree on the columns of {plan}"
        );
    }

    #[test]
    fn scan_select_project() {
        let cat = catalog();
        let plan = Plan::scan("shelters")
            .select(Predicate::Eq { column: "City".into(), value: Value::str("Margate") })
            .project(&["Name"]);
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.as_texts(), vec![vec!["Creek HS"], vec!["Civic"]]);
    }

    #[test]
    fn hash_join_with_provenance() {
        let cat = catalog();
        let plan = Plan::scan("shelters").join(Plan::scan("contacts"), &[("Name", "Venue")]);
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().names(), vec!["Name", "Street", "City", "Phone"]);
        let prov = &r.tuples()[0].provenance;
        assert_eq!(prov.relations(), vec!["shelters", "contacts"]);
        assert_counted_agrees(&plan, &cat);
    }

    #[test]
    fn dependent_join_calls_service() {
        let cat = catalog();
        let plan = Plan::scan("shelters").dependent_join("zip_resolver", &["Street", "City"]);
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().names(), vec!["Name", "Street", "City", "Zip"]);
        assert_eq!(r.tuples()[0].values[3], Value::str("33063"));
        // Provenance includes the service as a source.
        assert!(r.tuples()[0].provenance.relations().contains(&"zip_resolver"));
        // The zip column carries its semantic type.
        assert_eq!(
            r.schema().field(3).unwrap().sem_type.as_deref(),
            Some("PR-Zip")
        );
        assert_counted_agrees(&plan, &cat);
    }

    #[test]
    fn union_pads_with_nulls() {
        let cat = catalog();
        let plan = Plan::Union {
            inputs: vec![
                Plan::scan("shelters").project(&["Name", "City"]),
                Plan::scan("contacts").project(&["Venue", "Phone"]),
            ],
        };
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.schema().names(), vec!["Name", "City", "Venue", "Phone"]);
        assert_eq!(r.len(), 5);
        // Contact rows have null Name/City.
        assert!(r.tuples()[3].values[0].is_null());
    }

    #[test]
    fn distinct_merges_provenance() {
        let cat = Catalog::new();
        cat.add_relation(Relation::from_strings(
            "dup",
            Schema::of(&["X"]),
            &[vec!["a".into()], vec!["a".into()], vec!["b".into()]],
        ));
        let r = execute(&Plan::scan("dup").distinct(), &cat).unwrap();
        assert_eq!(r.len(), 2);
        // The merged tuple has two alternative derivations.
        let p = &r.tuples()[0].provenance;
        assert_eq!(p.base_tuples().len(), 2);
    }

    #[test]
    fn labeled_execution_tags_queries() {
        let cat = catalog();
        let plan = Plan::scan("shelters").dependent_join("zip_resolver", &["Street", "City"]);
        let (r, _) = execute_reported(&plan, &cat, "Q-zip").unwrap();
        assert_eq!(r.tuples()[0].provenance.labels(), vec!["Q-zip"]);
    }

    #[test]
    fn errors_are_reported() {
        let cat = catalog();
        assert_eq!(
            execute(&Plan::scan("nope"), &cat),
            Err(ExecError::UnknownRelation("nope".into()))
        );
        assert_eq!(
            execute(&Plan::scan("shelters").project(&["Nope"]), &cat),
            Err(ExecError::UnknownColumn("Nope".into()))
        );
        assert_eq!(
            execute(&Plan::scan("shelters").dependent_join("zip_resolver", &["City"]), &cat),
            Err(ExecError::BindingArity {
                service: "zip_resolver".into(),
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            execute(&Plan::Union { inputs: vec![] }, &cat),
            Err(ExecError::EmptyUnion)
        );
    }

    #[test]
    fn null_keys_never_join() {
        let cat = Catalog::new();
        cat.add_relation(Relation::from_strings(
            "l",
            Schema::of(&["K"]),
            &[vec!["".into()], vec!["x".into()]],
        ));
        cat.add_relation(Relation::from_strings(
            "r",
            Schema::of(&["K2"]),
            &[vec!["".into()], vec!["x".into()]],
        ));
        let plan = Plan::scan("l").join(Plan::scan("r"), &[("K", "K2")]);
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.len(), 1);
        assert_counted_agrees(&plan, &cat);
    }

    #[test]
    fn limit_and_name_clash_suffix() {
        let cat = catalog();
        let plan = Plan::scan("shelters")
            .join(Plan::scan("shelters"), &[("Name", "Name")])
            .limit(2);
        let r = execute(&plan, &cat).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.schema().names(),
            vec!["Name", "Street", "City", "Street_2", "City_2"]
        );
    }

    #[test]
    fn reported_execution_distinguishes_failure_from_empty() {
        use crate::service::{CallOutcome, Service, ServiceError};

        // A resolver that is down for Margate, empty for Tamarac.
        struct Partial;
        impl Service for Partial {
            fn name(&self) -> &str {
                "zip_resolver"
            }
            fn signature(&self) -> &Signature {
                static SIG: std::sync::OnceLock<Signature> = std::sync::OnceLock::new();
                SIG.get_or_init(|| Signature {
                    inputs: Schema::of(&["street", "city"]),
                    outputs: Schema::of(&["Zip"]),
                })
            }
            fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
                self.try_call(inputs).unwrap_or_default()
            }
            fn try_call(&self, inputs: &[Value]) -> CallOutcome {
                match inputs[1].as_text().as_str() {
                    "Margate" => Err(ServiceError::Unavailable { service: "zip_resolver".into() }),
                    _ => Ok(vec![]),
                }
            }
        }

        let cat = catalog();
        cat.add_service(Arc::new(Partial)); // replaces the healthy one
        let plan = Plan::scan("shelters").dependent_join("zip_resolver", &["Street", "City"]);
        let (rel, report) = execute_reported(&plan, &cat, "Q-zip").unwrap();
        // Both answers are empty-or-failed, so zero rows either way …
        assert_eq!(rel.len(), 0);
        // … but the report says two of the three lookups *failed*
        // (the Tamarac row was a legitimate no-match, not a failure).
        assert!(!report.is_complete());
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failed_services(), vec!["zip_resolver"]);
        assert_eq!(report.failures[0].kind, "unavailable");
        assert_eq!(execute_counted(&plan, &cat).unwrap(), (rel.schema().clone(), 0, report));
    }

    #[test]
    fn incomplete_answers_keep_partial_rows() {
        use crate::service::{CallOutcome, Service, ServiceError};

        struct Truncating;
        impl Service for Truncating {
            fn name(&self) -> &str {
                "multi"
            }
            fn signature(&self) -> &Signature {
                static SIG: std::sync::OnceLock<Signature> = std::sync::OnceLock::new();
                SIG.get_or_init(|| Signature {
                    inputs: Schema::of(&["city"]),
                    outputs: Schema::of(&["Zip"]),
                })
            }
            fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
                self.try_call(inputs).unwrap_or_default()
            }
            fn try_call(&self, _inputs: &[Value]) -> CallOutcome {
                Err(ServiceError::Incomplete {
                    service: "multi".into(),
                    partial: vec![vec![Value::str("33063")]],
                })
            }
        }

        let cat = catalog();
        cat.add_service(Arc::new(Truncating));
        let plan = Plan::scan("shelters").dependent_join("multi", &["City"]);
        let (rel, report) = execute_reported(&plan, &cat, "Q").unwrap();
        // The partial rows survive (one per input tuple) …
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.tuples()[0].values[3], Value::str("33063"));
        // … and the report flags every truncated call.
        assert_eq!(report.failures.len(), 3);
        assert_eq!(report.failures[0].kind, "incomplete");
        assert_eq!(execute_counted(&plan, &cat).unwrap(), (rel.schema().clone(), 3, report));
    }
}
