//! The system catalog.
//!
//! §2.2: "The resulting source description gets added to a system
//! catalog." The catalog holds imported source relations (materialized by
//! executed wrappers) and registered services. It is shared between the
//! SCP engine, the integration learner and the executor, so access is
//! synchronized.
//!
//! A catalog can be layered over a shared immutable *base* catalog
//! ([`Catalog::with_base`]): reads fall through to the base, writes land
//! only in the session-local layer, and removals of base entries are
//! recorded as tombstones. Many tenant sessions over one synthetic world
//! share the base's relations and service implementations by `Arc`
//! instead of rebuilding them per session.
//!
//! Every mutation bumps the catalog's [`Catalog::generation`]. Relations
//! are immutable `Arc`s, so an answer computed from relations alone is
//! fixed by the generation it was computed at.

use crate::relation::Relation;
use crate::service::Service;
use copycat_util::sync::RwLock;
use copycat_util::hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared catalog of relations and services.
#[derive(Default)]
pub struct Catalog {
    /// The shared immutable layer below this one, if any. The base is
    /// never written through — mutating methods only touch the local
    /// maps and tombstones.
    base: Option<Arc<Catalog>>,
    /// Local relations, ordered by name.
    relations: RwLock<BTreeMap<String, Arc<Relation>>>,
    services: RwLock<FxHashMap<String, Arc<dyn Service>>>,
    /// Base relation names this layer has removed (source retraction of
    /// a shared relation hides it for this session only).
    removed: RwLock<FxHashSet<String>>,
    /// Mutations of this layer, bumped after each one lands.
    generation: AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session-local catalog layered over a shared base. The base is
    /// read-only from this layer's perspective; same-name local entries
    /// shadow base entries.
    pub fn with_base(base: Arc<Catalog>) -> Self {
        Self { base: Some(base), ..Self::default() }
    }

    /// Whether this catalog layers over a shared base.
    pub fn has_base(&self) -> bool {
        self.base.is_some()
    }

    /// How many times this catalog has changed: every
    /// [`add_relation`](Self::add_relation) (a replacement too),
    /// effective [`remove_relation`](Self::remove_relation) and
    /// [`add_service`](Self::add_service) counts one. An overlay adds its
    /// base's count, so a change on either layer moves it. Read it
    /// before reading the catalog: a change that lands meanwhile moves
    /// it past the value read.
    pub fn generation(&self) -> u64 {
        let own = self.generation.load(Ordering::Acquire);
        own + self.base.as_ref().map_or(0, |base| base.generation())
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Register (or replace) a relation under its own name.
    pub fn add_relation(&self, rel: Relation) -> Arc<Relation> {
        let arc = Arc::new(rel);
        self.removed.write().remove(arc.name());
        self.relations
            .write()
            .insert(arc.name().to_string(), Arc::clone(&arc));
        self.bump();
        arc
    }

    /// Register (or replace) a service under its own name.
    pub fn add_service(&self, svc: Arc<dyn Service>) {
        self.services.write().insert(svc.name().to_string(), svc);
        self.bump();
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        if let Some(rel) = self.relations.read().get(name).cloned() {
            return Some(rel);
        }
        let base = self.base.as_ref()?;
        if self.removed.read().contains(name) {
            return None;
        }
        base.relation(name)
    }

    /// Look up a service.
    pub fn service(&self, name: &str) -> Option<Arc<dyn Service>> {
        if let Some(svc) = self.services.read().get(name).cloned() {
            return Some(svc);
        }
        self.base.as_ref()?.service(name)
    }

    /// The first relation, by name, that `pred` accepts. Allocates
    /// nothing: each layer is walked in name order, stopping at its
    /// first match.
    pub fn first_relation(
        &self,
        mut pred: impl FnMut(&Relation) -> bool,
    ) -> Option<Arc<Relation>> {
        self.first_relation_before(None, &mut pred)
    }

    /// [`Catalog::first_relation`] among names before `bound`.
    fn first_relation_before(
        &self,
        bound: Option<&str>,
        pred: &mut dyn FnMut(&Relation) -> bool,
    ) -> Option<Arc<Relation>> {
        let relations = self.relations.read();
        let local = relations
            .values()
            .take_while(|rel| bound.is_none_or(|b| rel.name() < b))
            .find(|rel| pred(rel));
        let Some(base) = &self.base else {
            return local.cloned();
        };
        // A base relation wins only below the local match, and only
        // when this layer neither shadows nor removed it.
        let removed = self.removed.read();
        let bound = local.map_or(bound, |rel| Some(rel.name()));
        base.first_relation_before(bound, &mut |rel| {
            !relations.contains_key(rel.name()) && !removed.contains(rel.name()) && pred(rel)
        })
        .or_else(|| local.cloned())
    }

    /// Sorted relation names.
    pub fn relation_names(&self) -> Vec<String> {
        let mut v = Vec::new();
        self.visit_relation_names(&mut |name| v.push(name.to_string()));
        v.sort();
        v
    }

    /// Number of relations [`relation_names`](Self::relation_names)
    /// lists, counted without collecting a name.
    pub fn relation_count(&self) -> usize {
        let mut n = 0;
        self.visit_relation_names(&mut |_| n += 1);
        n
    }

    /// Visit each relation name once, unordered: this layer's, then the
    /// base's that this layer neither shadows nor removed.
    fn visit_relation_names(&self, f: &mut dyn FnMut(&str)) {
        let relations = self.relations.read();
        relations.keys().for_each(|name| f(name));
        if let Some(base) = &self.base {
            let removed = self.removed.read();
            base.visit_relation_names(&mut |name| {
                if !removed.contains(name) && !relations.contains_key(name) {
                    f(name);
                }
            });
        }
    }

    /// Sorted service names.
    pub fn service_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.read().keys().cloned().collect();
        if let Some(base) = &self.base {
            for name in base.service_names() {
                if !self.services.read().contains_key(&name) {
                    v.push(name);
                }
            }
        }
        v.sort();
        v
    }

    /// Remove a relation (source retraction). Removing a base relation
    /// tombstones it in this layer; the shared base is untouched.
    pub fn remove_relation(&self, name: &str) -> bool {
        let had_local = self.relations.write().remove(name).is_some();
        // Tombstone a base entry whether or not a local shadow also
        // existed, so it doesn't resurface after the removal.
        let tombstoned = self.base.as_ref().is_some_and(|base| {
            base.relation(name).is_some() && self.removed.write().insert(name.to_string())
        });
        let removed = had_local || tombstoned;
        if removed {
            self.bump();
        }
        removed
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Catalog(relations: {:?}, services: {:?})",
            self.relation_names(),
            self.service_names()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::service::{FnService, Signature};

    fn echo_service(name: &str) -> Arc<dyn Service> {
        let sig = Signature {
            inputs: Schema::of(&["x"]),
            outputs: Schema::of(&["y"]),
        };
        Arc::new(FnService::new(name, sig, |i: &[crate::Value]| vec![i.to_vec()]))
    }

    #[test]
    fn add_and_lookup() {
        let cat = Catalog::new();
        cat.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        assert!(cat.relation("shelters").is_some());
        assert!(cat.relation("nope").is_none());
        assert_eq!(cat.relation_names(), vec!["shelters"]);
        assert!(cat.remove_relation("shelters"));
        assert!(!cat.remove_relation("shelters"));
    }

    #[test]
    fn services_registry() {
        let cat = Catalog::new();
        cat.add_service(echo_service("echo"));
        assert!(cat.service("echo").is_some());
        assert_eq!(cat.service_names(), vec!["echo"]);
    }

    #[test]
    fn layered_catalog_reads_through_and_shadows() {
        let base = Arc::new(Catalog::new());
        base.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        base.add_service(echo_service("zip"));
        let layered = Catalog::with_base(Arc::clone(&base));
        assert!(layered.has_base());
        // Reads fall through.
        assert!(layered.relation("shelters").is_some());
        assert!(layered.service("zip").is_some());
        assert_eq!(layered.relation_names(), vec!["shelters"]);
        assert_eq!(layered.service_names(), vec!["zip"]);
        // The shared Arc is the same allocation, not a copy.
        assert!(Arc::ptr_eq(
            &base.relation("shelters").unwrap(),
            &layered.relation("shelters").unwrap()
        ));
        // A local shadow replaces the base entry without touching it.
        layered.add_relation(Relation::empty("shelters", Schema::of(&["Name", "Zip"])));
        assert_eq!(layered.relation("shelters").unwrap().schema().arity(), 2);
        assert_eq!(base.relation("shelters").unwrap().schema().arity(), 1);
        assert_eq!(layered.relation_names(), vec!["shelters"]);
        assert_eq!(layered.relation_count(), 1, "a shadow counts once");
        layered.add_relation(Relation::empty("contacts", Schema::of(&["Name"])));
        assert_eq!(layered.relation_count(), 2);
        assert!(layered.remove_relation("shelters"));
        assert_eq!(layered.relation_count(), layered.relation_names().len());
        assert_eq!(layered.relation_count(), 1, "a tombstone hides the base's copy");
    }

    #[test]
    fn removing_a_base_relation_tombstones_locally() {
        let base = Arc::new(Catalog::new());
        base.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        let a = Catalog::with_base(Arc::clone(&base));
        let b = Catalog::with_base(Arc::clone(&base));
        assert!(a.remove_relation("shelters"));
        assert!(a.relation("shelters").is_none());
        assert!(a.relation_names().is_empty());
        assert!(!a.remove_relation("shelters"), "second removal is a no-op");
        // Sibling layer and base are unaffected.
        assert!(b.relation("shelters").is_some());
        assert!(base.relation("shelters").is_some());
        // Re-adding clears the tombstone.
        a.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        assert!(a.relation("shelters").is_some());
        // Removing a shadowed base relation hides both copies.
        let c = Catalog::with_base(Arc::clone(&base));
        c.add_relation(Relation::empty("shelters", Schema::of(&["Name", "Zip"])));
        assert!(c.remove_relation("shelters"));
        assert!(c.relation("shelters").is_none());
    }

    #[test]
    fn first_relation_goes_by_name_across_layers() {
        let holding = |name: &str, value: &str| {
            Relation::from_strings(name, Schema::of(&["V"]), &[vec![value.to_string()]])
        };
        let name_of = |cat: &Catalog, value: &str| {
            cat.first_relation(|rel| rel.tuples().iter().any(|t| t.values[0].text_eq(value)))
                .map(|rel| rel.name().to_string())
        };
        let base = Arc::new(Catalog::new());
        base.add_relation(holding("b", "x"));
        base.add_relation(holding("d", "x"));
        let layered = Catalog::with_base(Arc::clone(&base));
        assert_eq!(name_of(&layered, "x").as_deref(), Some("b"));
        assert_eq!(name_of(&layered, "y"), None);
        // A later local name loses to an earlier base one, an earlier
        // local one wins.
        layered.add_relation(holding("c", "x"));
        assert_eq!(name_of(&layered, "x").as_deref(), Some("b"));
        layered.add_relation(holding("a", "x"));
        assert_eq!(name_of(&layered, "x").as_deref(), Some("a"));
        // A shadow hides its base relation's rows; a removal hides it.
        layered.add_relation(holding("a", "y"));
        layered.add_relation(holding("b", "y"));
        assert_eq!(name_of(&layered, "x").as_deref(), Some("c"));
        assert!(layered.remove_relation("c"));
        assert_eq!(name_of(&layered, "x").as_deref(), Some("d"));
        assert!(layered.remove_relation("d"));
        assert_eq!(name_of(&layered, "x"), None);
        assert_eq!(name_of(&base, "x").as_deref(), Some("b"), "the base is untouched");
    }

    #[test]
    fn every_change_moves_the_generation() {
        let base = Arc::new(Catalog::new());
        base.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        let layered = Catalog::with_base(Arc::clone(&base));
        let g0 = layered.generation();
        assert_eq!(g0, base.generation(), "an overlay starts at its base's count");
        layered.add_relation(Relation::empty("shelters", Schema::of(&["Name"])));
        let g1 = layered.generation();
        assert!(g1 > g0, "a replacement counts");
        assert!(layered.remove_relation("shelters"));
        let g2 = layered.generation();
        assert!(g2 > g1, "a removal counts");
        assert!(!layered.remove_relation("shelters"));
        assert_eq!(layered.generation(), g2, "a no-op removal does not");
        layered.add_service(echo_service("echo"));
        let g3 = layered.generation();
        assert!(g3 > g2, "a service counts");
        base.add_service(echo_service("zip"));
        assert!(layered.generation() > g3, "a base change shows through the overlay");
    }
}
