//! The synthetic world: a seeded, internally consistent geography.
//!
//! Everything the corpora and services mention is generated here once, so
//! a shelter page, the contact spreadsheet, the zip resolver and the
//! geocoder all agree — which is what makes end-to-end integration results
//! verifiable in the experiments.

use copycat_util::rng::{Rng, SeedableRng, StdRng};

const CITY_NAMES: &[&str] = &[
    "Coconut Creek", "Pompano Beach", "Fort Lauderdale", "Margate", "Coral Springs",
    "Deerfield Beach", "Tamarac", "Plantation", "Sunrise", "Hollywood", "Davie",
    "Lauderhill", "Weston", "Parkland", "Cooper City",
];
const STREET_NAMES: &[&str] = &[
    "Oak", "Maple", "Palmetto", "Cypress", "Hibiscus", "Atlantic", "Sunrise", "Coral",
    "Banyan", "Seagrape", "Pine Island", "Lyons", "Riverside", "Sample", "Wiles", "Royal Palm",
];
const STREET_SUFFIXES: &[&str] = &["St", "Ave", "Rd", "Blvd", "Dr", "Ln", "Way"];
const VENUE_KINDS: &[&str] = &[
    "High School", "Middle School", "Elementary", "Recreation Center", "Community Center",
    "Civic Center", "Church", "Park Pavilion",
];
const FIRST_NAMES: &[&str] = &[
    "Ann", "Bob", "Carla", "David", "Elena", "Frank", "Grace", "Hector", "Irene", "James",
    "Keisha", "Luis", "Maria", "Nadia", "Omar", "Paula",
];
const LAST_NAMES: &[&str] = &[
    "Alvarez", "Brooks", "Chen", "Diaz", "Evans", "Foster", "Garcia", "Huang", "Ivanov",
    "Johnson", "Kim", "Lopez", "Miller", "Nguyen", "Ortiz", "Patel",
];

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed; equal seeds produce identical worlds.
    pub seed: u64,
    /// Number of cities (≤ 15).
    pub cities: usize,
    /// Streets per city.
    pub streets_per_city: usize,
    /// Number of shelters/venues.
    pub venues: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self { seed: 2009, cities: 8, streets_per_city: 12, venues: 30 }
    }
}

/// A city with its zip blocks and centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// City name.
    pub name: String,
    /// Two-letter state.
    pub state: String,
    /// Centroid latitude.
    pub lat: f64,
    /// Centroid longitude.
    pub lon: f64,
}

/// A street with its zip and coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Street {
    /// Full address line, e.g. `4213 Palmetto Ave`.
    pub address: String,
    /// Index into [`World::cities`].
    pub city: usize,
    /// 5-digit zip.
    pub zip: String,
    /// Latitude.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
}

/// A shelter/venue at a street address.
#[derive(Debug, Clone, PartialEq)]
pub struct Venue {
    /// Venue name, e.g. `Margate Civic Center`.
    pub name: String,
    /// Index into [`World::streets`].
    pub street: usize,
    /// Capacity (for richer workloads).
    pub capacity: u32,
}

/// A contact person affiliated with a venue.
#[derive(Debug, Clone, PartialEq)]
pub struct Person {
    /// Full name.
    pub name: String,
    /// Phone number.
    pub phone: String,
    /// Index into [`World::venues`].
    pub venue: usize,
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Cities.
    pub cities: Vec<City>,
    /// Streets (addresses).
    pub streets: Vec<Street>,
    /// Venues (shelters).
    pub venues: Vec<Venue>,
    /// Contact people (one per venue).
    pub people: Vec<Person>,
    /// The generation seed, kept so derived views (like the messy
    /// directory) can vary formats per row without touching the RNG
    /// stream that produced the values above.
    pub seed: u64,
}

/// A splitmix64-style finalizer over `(seed, salt)`. Derived views use
/// this instead of drawing from the generation RNG: interleaving new
/// draws into [`World::generate`] would shift every value generated
/// after them and break the pinned golden fixtures.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl World {
    /// Generate a world from a config.
    pub fn generate(config: &WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_cities = config.cities.min(CITY_NAMES.len());
        let cities: Vec<City> = (0..n_cities)
            .map(|i| City {
                name: CITY_NAMES[i].to_string(),
                state: "FL".to_string(),
                lat: 26.0 + rng.gen_range(0.0..0.5),
                lon: -80.4 + rng.gen_range(0.0..0.3),
            })
            .collect();

        let mut streets = Vec::new();
        for (ci, city) in cities.iter().enumerate() {
            // Each city owns a zip block: 33000 + 40*ci .. +40.
            for s in 0..config.streets_per_city {
                let name = STREET_NAMES[(s * 3 + ci) % STREET_NAMES.len()];
                let suffix = STREET_SUFFIXES[(s + ci) % STREET_SUFFIXES.len()];
                let number = 100 + rng.gen_range(0..9000);
                let zip = format!("{:05}", 33000 + ci * 40 + s % 40);
                streets.push(Street {
                    address: format!("{number} {name} {suffix}"),
                    city: ci,
                    zip,
                    lat: city.lat + rng.gen_range(-0.05..0.05),
                    lon: city.lon + rng.gen_range(-0.05..0.05),
                });
            }
        }

        let mut venues = Vec::new();
        let mut seen = copycat_util::hash::FxHashSet::default();
        while venues.len() < config.venues && !streets.is_empty() {
            let street = rng.gen_range(0..streets.len());
            let city = &cities[streets[street].city];
            let kind = VENUE_KINDS[rng.gen_range(0..VENUE_KINDS.len())];
            let mut name = format!("{} {}", city.name, kind);
            if !seen.insert(name.clone()) {
                name = format!("{} #{}", name, venues.len() + 1);
                if !seen.insert(name.clone()) {
                    continue;
                }
            }
            venues.push(Venue { name, street, capacity: rng.gen_range(50..800) });
        }

        let people = venues
            .iter()
            .enumerate()
            .map(|(vi, _)| Person {
                name: format!(
                    "{} {}",
                    FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                    LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
                ),
                phone: format!("(954) 555-{:04}", rng.gen_range(1000..10000)),
                venue: vi,
            })
            .collect();

        World { cities, streets, venues, people, seed: config.seed }
    }

    /// A default mid-sized world.
    pub fn default_world() -> World {
        Self::generate(&WorldConfig::default())
    }

    /// The street of a venue.
    pub fn venue_street(&self, v: &Venue) -> &Street {
        &self.streets[v.street]
    }

    /// The city of a street.
    pub fn street_city(&self, s: &Street) -> &City {
        &self.cities[s.city]
    }

    /// Look up a street by `(address, city name)`, case-insensitive.
    pub fn find_street(&self, address: &str, city: &str) -> Option<&Street> {
        self.streets.iter().find(|s| {
            s.address.eq_ignore_ascii_case(address.trim())
                && self.cities[s.city].name.eq_ignore_ascii_case(city.trim())
        })
    }

    /// All venues whose name contains the query (case-insensitive) — the
    /// ambiguity source for address resolution.
    pub fn find_venues(&self, name_query: &str) -> Vec<&Venue> {
        let q = name_query.trim().to_lowercase();
        if q.is_empty() {
            return Vec::new();
        }
        self.venues
            .iter()
            .filter(|v| v.name.to_lowercase().contains(&q))
            .collect()
    }

    /// Shelter rows `[name, street, city]` — the content of the synthetic
    /// shelter Web pages.
    pub fn shelter_rows(&self) -> Vec<Vec<String>> {
        self.venues
            .iter()
            .map(|v| {
                let s = self.venue_street(v);
                vec![
                    v.name.clone(),
                    s.address.clone(),
                    self.street_city(s).name.clone(),
                ]
            })
            .collect()
    }

    /// Contact rows `[person, phone, venue name]` — the content of the
    /// contacts spreadsheet.
    pub fn contact_rows(&self) -> Vec<Vec<String>> {
        self.people
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.phone.clone(),
                    self.venues[p.venue].name.clone(),
                ]
            })
            .collect()
    }

    /// The true zip of venue `v` (ground truth for experiments).
    pub fn venue_zip(&self, v: &Venue) -> &str {
        &self.venue_street(v).zip
    }

    /// A phone in the county directory's house style: dashed, no
    /// parentheses — `954-555-1234` where the contacts sheet says
    /// `(954) 555-1234`. One consistent style per column, so a single
    /// learned program can bridge the formats.
    pub fn directory_phone(phone: &str) -> String {
        let digits: String = phone.chars().filter(|c| c.is_ascii_digit()).collect();
        if digits.len() == 10 {
            format!("{}-{}-{}", &digits[..3], &digits[3..6], &digits[6..])
        } else {
            phone.to_string()
        }
    }

    /// Casing noise: the same venue name as typed by three different
    /// clerks — verbatim, SHOUTED, or lowercased — picked by `variant`.
    fn noisy_case(name: &str, variant: u64) -> String {
        match variant % 3 {
            0 => name.to_string(),
            1 => name.to_uppercase(),
            _ => name.to_lowercase(),
        }
    }

    /// A registration date rendered in one of three clashing styles
    /// (US slashed, ISO, day-first abbreviated), all derived from `h`.
    fn noisy_date(h: u64) -> String {
        const MONTHS: &[&str] = &[
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let year = 2006 + (h % 4) as usize;
        let month = 1 + ((h >> 2) % 12) as usize;
        let day = 1 + ((h >> 6) % 28) as usize;
        match (h >> 11) % 3 {
            0 => format!("{month:02}/{day:02}/{year}"),
            1 => format!("{year}-{month:02}-{day:02}"),
            _ => format!("{day} {} {year}", MONTHS[month - 1]),
        }
    }

    /// County directory rows `[venue (casing noise), phone (dashed),
    /// registered (mixed date styles)]` — row `i` belongs to person/venue
    /// `i`, which is the ground truth experiments score against.
    ///
    /// This is the messy heterogeneous source: its phones disagree with
    /// [`World::contact_rows`] on format and its venue names on casing,
    /// so value-overlap joins stall and integration *requires* a learned
    /// transform. Every value is derived from already-generated data and
    /// [`mix`] — never from new RNG draws — so the directory can be
    /// added (or extended) without shifting any pinned fixture.
    pub fn directory_rows(&self) -> Vec<Vec<String>> {
        self.people
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let h = mix(self.seed, i as u64);
                vec![
                    Self::noisy_case(&self.venues[p.venue].name, h),
                    Self::directory_phone(&p.phone),
                    Self::noisy_date(h >> 16),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::default());
        let b = World::generate(&WorldConfig::default());
        assert_eq!(a.shelter_rows(), b.shelter_rows());
        assert_eq!(a.contact_rows(), b.contact_rows());
    }

    #[test]
    fn sizes_match_config() {
        let cfg = WorldConfig { seed: 1, cities: 5, streets_per_city: 7, venues: 12 };
        let w = World::generate(&cfg);
        assert_eq!(w.cities.len(), 5);
        assert_eq!(w.streets.len(), 35);
        assert_eq!(w.venues.len(), 12);
        assert_eq!(w.people.len(), 12);
    }

    #[test]
    fn venue_names_unique() {
        let w = World::generate(&WorldConfig { venues: 100, ..WorldConfig::default() });
        let names: copycat_util::hash::FxHashSet<_> = w.venues.iter().map(|v| &v.name).collect();
        assert_eq!(names.len(), w.venues.len());
    }

    #[test]
    fn streets_resolve_consistently() {
        let w = World::default_world();
        let v = &w.venues[0];
        let s = w.venue_street(v);
        let city = w.street_city(s);
        let found = w.find_street(&s.address, &city.name).expect("findable");
        assert_eq!(found.zip, s.zip);
    }

    #[test]
    fn venue_search_is_substring_and_ambiguous() {
        let w = World::default_world();
        let v = &w.venues[0];
        assert!(!w.find_venues(&v.name).is_empty());
        // A bare city name matches every venue in that city (ambiguity).
        let city = &w.street_city(w.venue_street(v)).name;
        assert!(!w.find_venues(city).is_empty());
        assert!(w.find_venues("").is_empty());
    }

    /// The messy directory is a pure function of the seed: pinned values
    /// catch any accidental re-ordering of RNG draws or hash changes,
    /// and the underlying contact values stay exactly what they were
    /// before the directory existed.
    #[test]
    fn directory_rows_are_seed_pinned_and_shift_nothing() {
        let w = World::generate(&WorldConfig { venues: 10, ..WorldConfig::default() });
        let dir = w.directory_rows();
        assert_eq!(dir.len(), w.people.len());
        // Pinned: exact first rows for the default seed (2009).
        assert_eq!(dir[0], vec!["Deerfield Beach High School", "954-555-7735", "20 Dec 2006"]);
        assert_eq!(dir[1], vec!["deerfield beach civic center", "954-555-8376", "2009-08-03"]);
        assert_eq!(dir[2], vec!["fort lauderdale middle school", "954-555-9376", "08/21/2008"]);
        // Pinned: the pre-directory stream is untouched (same values the
        // serve golden transcript records for this seed).
        assert_eq!(w.venues[0].name, "Deerfield Beach High School");
        assert_eq!(w.people[0].phone, "(954) 555-7735");
        // Every phone is the dashed rendering of the contact phone, and
        // every name a casing of the venue name: same world, new format.
        for (i, row) in dir.iter().enumerate() {
            assert_eq!(row[1], World::directory_phone(&w.people[i].phone));
            assert_eq!(
                row[0].to_lowercase(),
                w.venues[w.people[i].venue].name.to_lowercase()
            );
        }
        // All three casing and date styles actually occur.
        let w = World::generate(&WorldConfig::default());
        let dir = w.directory_rows();
        assert!(dir.iter().any(|r| r[0].chars().any(|c| c.is_ascii_uppercase())
            && r[0].chars().any(|c| c.is_ascii_lowercase())));
        assert!(dir.iter().any(|r| r[0] == r[0].to_uppercase() && r[0] != r[0].to_lowercase()));
        assert!(dir.iter().any(|r| r[2].contains('/')));
        assert!(dir.iter().any(|r| r[2].len() == 10 && r[2].as_bytes()[4] == b'-'));
    }

    #[test]
    fn zips_are_city_blocked() {
        let w = World::default_world();
        for s in &w.streets {
            let block: usize = s.zip.parse::<usize>().unwrap();
            assert_eq!((block - 33000) / 40, s.city);
        }
    }
}
