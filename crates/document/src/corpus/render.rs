//! Render data rows into synthetic Web sites across complexity tiers.
//!
//! Each tier stresses a different part of the structure learner (§3.1):
//!
//! * [`Tier::Clean`] — a regular single-page table; one example should be
//!   enough to generalize.
//! * [`Tier::Noisy`] — the same table salted with advertisement rows,
//!   random inline wrappers, and sloppy markup; naive index-wildcard
//!   hypotheses over-extract and must be refined by feedback.
//! * [`Tier::Nested`] — records grouped into per-city sections (the
//!   "complex lists of data" case); the record template spans heterogeneous
//!   elements.
//! * [`Tier::MultiPage`] — rows paginated across linked pages (the
//!   "multiple pages … accessible via a form" case); the correct hypothesis
//!   must generalize across the site hierarchy.

use crate::html::{HtmlDocument, NodeId};
use crate::site::{Url, Website};
use copycat_util::rng::{Rng, SeedableRng, StdRng};

/// Page-complexity tier; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Regular single-page table.
    Clean,
    /// Table with ad rows, inline wrappers, sloppy markup.
    Noisy,
    /// Per-group sections with list-item records.
    Nested,
    /// Rows paginated across linked pages.
    MultiPage,
}

impl Tier {
    /// All tiers, in increasing expected difficulty.
    pub const ALL: [Tier; 4] = [Tier::Clean, Tier::Noisy, Tier::Nested, Tier::MultiPage];

    /// Stable lower-case name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Clean => "clean",
            Tier::Noisy => "noisy",
            Tier::Nested => "nested",
            Tier::MultiPage => "multipage",
        }
    }
}

/// Parameters for rendering one synthetic list source.
#[derive(Debug, Clone)]
pub struct ListSpec {
    /// Page `<h1>`/`<title>`.
    pub title: String,
    /// Column labels (shown as `<th>`s on table tiers).
    pub columns: Vec<String>,
    /// Complexity tier.
    pub tier: Tier,
    /// Rows per page for [`Tier::MultiPage`] (ignored otherwise).
    pub rows_per_page: usize,
    /// Noise seed.
    pub seed: u64,
    /// Noise intensity multiplier for [`Tier::Noisy`] (1.0 = default ad /
    /// markup-noise rates; higher values make extraction harder — the E4
    /// difficulty knob).
    pub noise: f64,
}

impl ListSpec {
    /// A spec with sensible defaults for the given tier.
    pub fn new(title: impl Into<String>, columns: &[&str], tier: Tier, seed: u64) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            tier,
            rows_per_page: 8,
            seed,
            noise: 1.0,
        }
    }

    /// Set the noise multiplier.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.max(0.0);
        self
    }
}

/// A rendered site plus ground truth: which data rows appear on which page.
#[derive(Debug)]
pub struct Rendered {
    /// The generated site.
    pub site: Website,
    /// `(url, indices into the input rows)` per data page, in page order.
    pub pages: Vec<(Url, Vec<usize>)>,
}

const AD_COPY: &[&str] = &[
    "Sponsored: Generators in stock now!",
    "Advertisement - Storm shutters 20% off",
    "Sign up for SMS alerts",
    "Your ad here - call today",
];

fn boilerplate_top(title: &str) -> String {
    format!(
        "<html><head><title>{title}</title></head><body>\
         <div class=\"nav\"><a href=\"/\">Home</a> <a href=\"/about\">About</a></div>\
         <h1>{title}</h1>"
    )
}

const BOILERPLATE_BOTTOM: &str =
    "<div class=\"footer\">Copyright 2008 County Emergency News</div></body></html>";

/// Render `rows` per `spec`. Row cells are HTML-escaped by the renderer, so
/// arbitrary strings are safe.
pub fn render_list(spec: &ListSpec, rows: &[Vec<String>]) -> Rendered {
    match spec.tier {
        Tier::Clean => render_table(spec, rows, false),
        Tier::Noisy => render_table(spec, rows, true),
        Tier::Nested => render_nested(spec, rows),
        Tier::MultiPage => render_multipage(spec, rows),
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn render_table(spec: &ListSpec, rows: &[Vec<String>], noisy: bool) -> Rendered {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let p = |base: f64| (base * spec.noise).clamp(0.0, 0.9);
    let mut html = boilerplate_top(&spec.title);
    html.push_str("<table class=\"data\">");
    html.push_str("<tr>");
    for c in &spec.columns {
        html.push_str(&format!("<th>{}</th>", esc(c)));
    }
    html.push_str("</tr>");
    for row in rows {
        if noisy && rng.gen_bool(p(0.25)) {
            let ad = AD_COPY[rng.gen_range(0..AD_COPY.len())];
            html.push_str(&format!(
                "<tr class=\"ad\"><td colspan=\"{}\">{}</td></tr>",
                spec.columns.len(),
                ad
            ));
        }
        if noisy && rng.gen_bool(p(0.3)) {
            html.push_str(&format!("<tr class=\"row{}\">", rng.gen_range(0..2)));
        } else {
            html.push_str("<tr>");
        }
        for (i, cell) in row.iter().enumerate() {
            let inner = if noisy && rng.gen_bool(p(0.3)) {
                match rng.gen_range(0..3) {
                    0 => format!("<b>{}</b>", esc(cell)),
                    1 => format!("<i>{}</i>", esc(cell)),
                    _ => format!("<span class=\"v{}\">{}</span>", i, esc(cell)),
                }
            } else {
                esc(cell)
            };
            // Sloppy markup: occasionally omit the closing </td>.
            if noisy && rng.gen_bool(p(0.15)) {
                html.push_str(&format!("<td>{inner}"));
            } else {
                html.push_str(&format!("<td>{inner}</td>"));
            }
        }
        html.push_str("</tr>");
    }
    html.push_str("</table>");
    html.push_str(BOILERPLATE_BOTTOM);

    let mut site = Website::new();
    site.add_html("/", &html);
    add_about(&mut site);
    Rendered { site, pages: vec![(Url::new("/"), (0..rows.len()).collect())] }
}

fn render_nested(spec: &ListSpec, rows: &[Vec<String>]) -> Rendered {
    // Group by the final column (city in the shelter corpora), preserving
    // first-appearance order.
    let group_col = spec.columns.len().saturating_sub(1);
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let key = row.get(group_col).cloned().unwrap_or_default();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut html = boilerplate_top(&spec.title);
    for (key, members) in &groups {
        html.push_str(&format!("<h2>{}</h2><ul>", esc(key)));
        for &i in members {
            html.push_str("<li>");
            for (c, cell) in rows[i].iter().enumerate() {
                if c == group_col {
                    continue; // the group heading carries this field
                }
                if c > 0 {
                    html.push_str(", ");
                }
                html.push_str(&format!("<span class=\"f{}\">{}</span>", c, esc(cell)));
            }
            html.push_str("</li>");
        }
        html.push_str("</ul>");
    }
    html.push_str(BOILERPLATE_BOTTOM);
    let mut site = Website::new();
    site.add_html("/", &html);
    add_about(&mut site);
    Rendered { site, pages: vec![(Url::new("/"), (0..rows.len()).collect())] }
}

fn render_multipage(spec: &ListSpec, rows: &[Vec<String>]) -> Rendered {
    let per = spec.rows_per_page.max(1);
    let page_count = rows.len().div_ceil(per).max(1);
    let mut site = Website::new();
    let mut pages = Vec::new();
    for p in 0..page_count {
        let url = if p == 0 {
            Url::new("/")
        } else {
            Url::new(format!("/page{}", p + 1))
        };
        let lo = p * per;
        let hi = (lo + per).min(rows.len());
        let mut html = boilerplate_top(&format!("{} (page {})", spec.title, p + 1));
        html.push_str("<table class=\"data\"><tr>");
        for c in &spec.columns {
            html.push_str(&format!("<th>{}</th>", esc(c)));
        }
        html.push_str("</tr>");
        for row in &rows[lo..hi] {
            html.push_str("<tr>");
            for cell in row {
                html.push_str(&format!("<td>{}</td>", esc(cell)));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table>");
        if p + 1 < page_count {
            html.push_str(&format!("<a class=\"next\" href=\"/page{}\">Next</a>", p + 2));
        }
        if p > 0 {
            let prev = if p == 1 { "/".to_string() } else { format!("/page{}", p) };
            html.push_str(&format!("<a class=\"prev\" href=\"{prev}\">Prev</a>"));
        }
        html.push_str(BOILERPLATE_BOTTOM);
        site.add_html(url.as_str(), &html);
        pages.push((url, (lo..hi).collect()));
    }
    add_about(&mut site);
    Rendered { site, pages }
}

fn add_about(site: &mut Website) {
    site.add_html(
        "/about",
        &format!(
            "{}<p>This site lists emergency information for the county.</p>{}",
            boilerplate_top("About"),
            BOILERPLATE_BOTTOM
        ),
    );
}

/// Locate, for each cell of `row_values`, an element on the page whose text
/// equals the value. The first cell anchors the record; remaining cells
/// prefer the match nearest (by node id) to the anchor — this resolves
/// shared group headings (Nested tier) and duplicate city names. Returns
/// `None` if any value has no matching element.
pub fn locate_row_nodes(html: &HtmlDocument, row_values: &[String]) -> Option<Vec<NodeId>> {
    let matches_of = |value: &str| -> Vec<NodeId> {
        html.iter()
            .filter(|&id| html.tag(id).is_some())
            .filter(|&id| html.text_content(id) == value)
            .collect()
    };
    let first = row_values.first()?;
    let anchor = *matches_of(first).first()?;
    let mut out = vec![anchor];
    for value in &row_values[1..] {
        let cands = matches_of(value);
        let best = cands
            .into_iter()
            .min_by_key(|id| id.0.abs_diff(anchor.0))?;
        out.push(best);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Faker;

    fn shelter_spec(tier: Tier) -> (ListSpec, Vec<Vec<String>>) {
        let mut f = Faker::new(42);
        let rows = f.shelters(20);
        (ListSpec::new("Shelters", &["Name", "Street", "City"], tier, 7), rows)
    }

    #[test]
    fn clean_has_one_data_page_with_all_rows() {
        let (spec, rows) = shelter_spec(Tier::Clean);
        let r = render_list(&spec, &rows);
        assert_eq!(r.pages.len(), 1);
        assert_eq!(r.pages[0].1.len(), 20);
        let page = r.site.get(&r.pages[0].0).unwrap();
        assert_eq!(page.html.elements_by_tag("tr").len(), 21); // header + 20
    }

    #[test]
    fn noisy_inserts_ads_but_keeps_all_rows() {
        let (spec, rows) = shelter_spec(Tier::Noisy);
        let r = render_list(&spec, &rows);
        let page = r.site.get(&r.pages[0].0).unwrap();
        let trs = page.html.elements_by_tag("tr");
        assert!(trs.len() > 21, "ad rows should be present");
        // Every ground-truth cell is still locatable.
        for row in &rows {
            assert!(locate_row_nodes(&page.html, row).is_some(), "row lost: {row:?}");
        }
    }

    #[test]
    fn nested_groups_by_city() {
        let (spec, rows) = shelter_spec(Tier::Nested);
        let r = render_list(&spec, &rows);
        let page = r.site.get(&r.pages[0].0).unwrap();
        let cities: copycat_util::hash::FxHashSet<_> = rows.iter().map(|r| r[2].clone()).collect();
        assert_eq!(page.html.elements_by_tag("h2").len(), cities.len());
        assert_eq!(page.html.elements_by_tag("li").len(), rows.len());
        for row in &rows {
            let nodes = locate_row_nodes(&page.html, row).expect("locatable");
            assert_eq!(nodes.len(), 3);
        }
    }

    #[test]
    fn multipage_paginates_and_links() {
        let (mut spec, rows) = shelter_spec(Tier::MultiPage);
        spec.rows_per_page = 6;
        let r = render_list(&spec, &rows);
        assert_eq!(r.pages.len(), 4); // 20 rows / 6 per page
        let total: usize = r.pages.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 20);
        // Crawl reaches every data page.
        let crawled = r.site.crawl();
        assert!(crawled.len() >= 4);
    }

    #[test]
    fn rendering_is_deterministic() {
        let (spec, rows) = shelter_spec(Tier::Noisy);
        let a = render_list(&spec, &rows);
        let b = render_list(&spec, &rows);
        let pa = a.site.get(&a.pages[0].0).unwrap();
        let pb = b.site.get(&b.pages[0].0).unwrap();
        assert_eq!(pa.html.to_html(pa.html.root()), pb.html.to_html(pb.html.root()));
    }

    #[test]
    fn cells_are_escaped() {
        let spec = ListSpec::new("T", &["A"], Tier::Clean, 1);
        let rows = vec![vec!["a < b & c".to_string()]];
        let r = render_list(&spec, &rows);
        let page = r.site.get(&r.pages[0].0).unwrap();
        let td = page.html.elements_by_tag("td")[0];
        assert_eq!(page.html.text_content(td), "a < b & c");
    }
}
