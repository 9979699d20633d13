//! Shared world bases for copy-on-write tenant sessions.
//!
//! A [`WorldBase`] freezes everything about a synthetic world that is
//! identical across tenants — the generated [`World`] corpus, the
//! catalog of its relations and service implementations, the source
//! graph with discovered associations, and the semantic type registry —
//! into `Arc`'d immutable state. [`CopyCat::with_base`] then builds an
//! engine whose catalog, graph and registry are *overlays* over that
//! base: reads fall through, writes stay session-local. A tenant
//! session over a shared world costs kilobytes of overlay bookkeeping
//! instead of megabytes of rebuilt corpus, so one box holds orders of
//! magnitude more sessions.
//!
//! Construction is deterministic: the same [`WorldConfig`] always
//! produces the same base (the world generator is seeded and
//! association discovery is order-stable), which is what lets a
//! journaled `create_session {"world": …}` replay after a crash and
//! land every follow-up request on byte-identical state.

use crate::engine::CopyCat;
use copycat_graph::GraphBase;
use copycat_query::{Catalog, Field, Relation, Schema};
use copycat_semantic::SemanticType;
use copycat_services::{
    AddressResolver, CurrencyConverter, Geocoder, ReversePhone, UnitConverter, World,
    WorldConfig, ZipResolver,
};
use std::sync::Arc;

/// The frozen, shareable state of one synthetic world. Cheap to clone
/// handles out of (every part is an `Arc`), impossible to mutate.
pub struct WorldBase {
    world: Arc<World>,
    catalog: Arc<Catalog>,
    graph: Arc<GraphBase>,
    types: Arc<Vec<SemanticType>>,
}

/// The running example's shelters schema: `[Venue, Street, City]`.
fn shelters_schema() -> Schema {
    Schema::new(vec![
        Field::new("Venue"),
        Field::typed("Street", "PR-Street"),
        Field::typed("City", "PR-City"),
    ])
}

/// The running example's contacts schema: `[Person, Phone, Venue]`.
fn contacts_schema() -> Schema {
    Schema::new(vec![
        Field::typed("Person", "PR-Person"),
        Field::typed("Phone", "PR-Phone"),
        Field::new("Venue"),
    ])
}

impl WorldBase {
    /// Build and freeze the base for one synthetic world: the paper's
    /// running example (Shelters ⋈ Contacts plus the resolver services),
    /// at whatever scale `config` asks for.
    ///
    /// The base is built by driving a plain flat engine through the same
    /// public API a session would use — commit relations, register
    /// services (in the serve layer's `register_world` order), let
    /// association discovery run — and then freezing the result. There
    /// is no second "base construction" code path to drift.
    pub fn synthetic(config: &WorldConfig) -> WorldBase {
        let world = Arc::new(World::generate(config));
        let engine = world_engine(&world);
        let (catalog, graph, registry) = engine.into_shared_parts();
        WorldBase {
            world,
            catalog: Arc::new(catalog),
            graph: Arc::new(graph.freeze()),
            types: registry.freeze(),
        }
    }

    /// A flat engine holding exactly what [`WorldBase::synthetic`]
    /// freezes for `config` — the same relations, graph and services —
    /// privately owned rather than shared: the control side of every
    /// copy-on-write comparison.
    pub fn flat_engine(config: &WorldConfig) -> CopyCat {
        world_engine(&Arc::new(World::generate(config)))
    }

    /// The generated world corpus (row material, service ground truth).
    pub fn world(&self) -> Arc<World> {
        Arc::clone(&self.world)
    }

    /// The frozen catalog layer (relations + service implementations).
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The frozen source-graph prefix.
    pub fn graph(&self) -> Arc<GraphBase> {
        Arc::clone(&self.graph)
    }

    /// The frozen semantic type vector.
    pub fn types(&self) -> Arc<Vec<SemanticType>> {
        Arc::clone(&self.types)
    }
}

/// A plain engine over `world`, built through the public API a session
/// would use.
fn world_engine(world: &Arc<World>) -> CopyCat {
    let mut engine = CopyCat::new();
    let shelters = shelters_schema();
    let contacts = contacts_schema();
    engine.catalog().add_relation(Relation::from_strings(
        "Shelters",
        shelters.clone(),
        &world.shelter_rows(),
    ));
    engine.add_graph_relation("Shelters", shelters);
    engine.catalog().add_relation(Relation::from_strings(
        "Contacts",
        contacts.clone(),
        &world.contact_rows(),
    ));
    engine.add_graph_relation("Contacts", contacts);
    engine.register_service(Arc::new(ZipResolver::new(Arc::clone(world))));
    engine.register_service(Arc::new(Geocoder::new(Arc::clone(world))));
    engine.register_service(Arc::new(AddressResolver::new(Arc::clone(world))));
    engine.register_service(Arc::new(ReversePhone::new(Arc::clone(world))));
    engine.register_service(Arc::new(CurrencyConverter::new()));
    engine.register_service(Arc::new(UnitConverter::new()));
    engine
}

impl std::fmt::Debug for WorldBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorldBase(relations: {}, services: {}, graph: {} nodes / {} edges, types: {})",
            self.catalog.relation_names().len(),
            self.catalog.service_names().len(),
            self.graph.node_count(),
            self.graph.edge_count(),
            self.types.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Arc<WorldBase> {
        Arc::new(WorldBase::synthetic(&WorldConfig::default()))
    }

    #[test]
    fn synthetic_base_holds_the_running_example() {
        let b = base();
        assert_eq!(b.catalog().relation_names(), vec!["Contacts", "Shelters"]);
        assert_eq!(
            b.catalog().service_names(),
            vec![
                "address_resolver",
                "currency_converter",
                "geocoder",
                "reverse_phone",
                "unit_converter",
                "zip_resolver"
            ]
        );
        // Discovery ran: the Figure-4 shape exists in the frozen graph.
        assert!(b.graph().node_count() >= 8);
        assert!(b.graph().edge_count() > 0);
        assert!(!b.types().is_empty());
    }

    #[test]
    fn synthetic_base_is_deterministic() {
        let a = WorldBase::synthetic(&WorldConfig::default());
        let b = WorldBase::synthetic(&WorldConfig::default());
        assert_eq!(a.world().shelter_rows(), b.world().shelter_rows());
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.graph().version(), b.graph().version());
        assert_eq!(a.types().len(), b.types().len());
    }

    #[test]
    fn sessions_over_a_base_share_rather_than_copy() {
        let b = base();
        let s1 = CopyCat::with_base(&b);
        let s2 = CopyCat::with_base(&b);
        // Both sessions see the world…
        assert_eq!(s1.catalog().relation_names(), s2.catalog().relation_names());
        // …through the *same* allocations, not copies.
        assert!(Arc::ptr_eq(
            &s1.catalog().relation("Shelters").unwrap(),
            &s2.catalog().relation("Shelters").unwrap()
        ));
        assert!(s1.graph().has_base());
        assert_eq!(s1.graph().version(), b.graph().version());
    }

    #[test]
    fn hot_path_works_on_a_fresh_overlay_session() {
        let b = base();
        let engine = CopyCat::with_base(&b);
        let shelters = b.world().shelter_rows();
        let contacts = b.world().contact_rows();
        let probes = vec![shelters[0][1].as_str(), contacts[0][1].as_str()];
        let queries = engine.discover_queries_for_tuple(&probes, 3);
        assert!(
            !queries.is_empty(),
            "a shared-world session must answer autocomplete without per-session warm-up"
        );
    }
}
