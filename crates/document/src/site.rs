//! Multi-page Web sites.
//!
//! §3.1: "CopyCat can extract data from a web site where there are multiple
//! pages (e.g., pages accessible via a form)". A [`Website`] is a closed
//! world of [`Page`]s keyed by [`Url`], navigable through links and
//! [`Form`]s — enough for the structure learner to crawl source hierarchies
//! and for the URL-pattern expert to find regularities.

use crate::html::HtmlDocument;
use copycat_util::hash::FxHashMap;
use std::fmt;

/// A site-relative URL, e.g. `/shelters?page=2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url(String);

impl copycat_util::json::ToJson for Url {
    /// A URL serializes as its raw string.
    fn write_json(&self, w: &mut copycat_util::json::JsonWriter<'_>) {
        w.str(&self.0);
    }
}

impl copycat_util::json::FromJson for Url {
    fn from_json(j: copycat_util::zjson::ZRef<'_>) -> Result<Self, copycat_util::JsonError> {
        Ok(Url(String::from_json(j)?))
    }
}

impl Url {
    /// Wrap a URL string.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }

    /// The raw string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Path component (before `?`).
    pub fn path(&self) -> &str {
        self.0.split('?').next().unwrap_or(&self.0)
    }

    /// Query parameters in order of appearance.
    pub fn query(&self) -> Vec<(&str, &str)> {
        match self.0.split_once('?') {
            None => Vec::new(),
            Some((_, q)) => q
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
                .collect(),
        }
    }

    /// Build a URL from a path and query parameters (parameters are sorted
    /// by key so form submissions canonicalize).
    pub fn with_query(path: &str, params: &[(&str, &str)]) -> Url {
        if params.is_empty() {
            return Url::new(path);
        }
        let mut sorted: Vec<_> = params.to_vec();
        sorted.sort_by_key(|(k, _)| k.to_string());
        let q: Vec<String> = sorted
            .iter()
            .map(|(k, v)| format!("{}={}", k, encode(v)))
            .collect();
        Url::new(format!("{}?{}", path, q.join("&")))
    }
}

/// Percent-encode the characters that would corrupt a query string.
fn encode(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '&' => out.push_str("%26"),
            '=' => out.push_str("%3D"),
            '?' => out.push_str("%3F"),
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            _ => out.push(c),
        }
    }
    out
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An HTML form on a page: submitting it with bound parameter values leads
/// to another page of the site. This is how the paper models "sources that
/// require inputs" at the document level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Form {
    /// Path the form submits to.
    pub action: String,
    /// Names of the input fields, in form order.
    pub params: Vec<String>,
}

impl Form {
    /// The URL a submission with the given values navigates to. Values are
    /// matched to `params` positionally; missing values submit empty.
    pub fn submit(&self, values: &[&str]) -> Url {
        let pairs: Vec<(&str, &str)> = self
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_str(), values.get(i).copied().unwrap_or("")))
            .collect();
        Url::with_query(&self.action, &pairs)
    }
}

/// One page of a site.
#[derive(Debug, Clone)]
pub struct Page {
    /// The page's URL.
    pub url: Url,
    /// Parsed content.
    pub html: HtmlDocument,
}

impl Page {
    /// Parse `html` into a page at `url`.
    pub fn parse(url: Url, html: &str) -> Self {
        Self { url, html: crate::html::parse(html) }
    }

    /// All link targets (`<a href>`) on the page, in document order.
    pub fn links(&self) -> Vec<Url> {
        self.html
            .elements_by_tag("a")
            .into_iter()
            .filter_map(|id| self.html.attr(id, "href"))
            .map(Url::new)
            .collect()
    }

    /// All forms on the page (action from `<form action>`, params from the
    /// `name` attributes of its `<input>`/`<select>` descendants).
    pub fn forms(&self) -> Vec<Form> {
        self.html
            .elements_by_tag("form")
            .into_iter()
            .map(|form| {
                let action = self
                    .html
                    .attr(form, "action")
                    .unwrap_or(self.url.path())
                    .to_string();
                let params = self
                    .html
                    .descendants(form)
                    .into_iter()
                    .filter(|&n| matches!(self.html.tag(n), Some("input") | Some("select")))
                    .filter_map(|n| self.html.attr(n, "name"))
                    .map(str::to_string)
                    .collect();
                Form { action, params }
            })
            .collect()
    }
}

/// A closed-world Web site: the unit a CopyCat "application wrapper" gives
/// the structure learner access to.
#[derive(Debug, Clone, Default)]
pub struct Website {
    pages: FxHashMap<Url, Page>,
    entry: Option<Url>,
}

impl Website {
    /// An empty site.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a page; the first page added becomes the entry point.
    pub fn add_page(&mut self, page: Page) {
        if self.entry.is_none() {
            self.entry = Some(page.url.clone());
        }
        self.pages.insert(page.url.clone(), page);
    }

    /// Parse and add a page from raw HTML.
    pub fn add_html(&mut self, url: impl Into<String>, html: &str) {
        self.add_page(Page::parse(Url::new(url), html));
    }

    /// The entry page, when the site is non-empty.
    pub fn entry(&self) -> Option<&Page> {
        self.entry.as_ref().and_then(|u| self.pages.get(u))
    }

    /// Fetch a page by URL.
    pub fn get(&self, url: &Url) -> Option<&Page> {
        self.pages.get(url)
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// All URLs, sorted (deterministic iteration for the learners).
    pub fn urls(&self) -> Vec<&Url> {
        let mut v: Vec<&Url> = self.pages.keys().collect();
        v.sort();
        v
    }

    /// Breadth-first crawl from the entry page following same-site links;
    /// returns pages in visit order. Missing link targets are skipped (the
    /// corpora include dangling links deliberately).
    pub fn crawl(&self) -> Vec<&Page> {
        let Some(start) = self.entry.clone() else {
            return Vec::new();
        };
        let mut seen = copycat_util::hash::FxHashSet::default();
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::new();
        seen.insert(start.clone());
        queue.push_back(start);
        while let Some(url) = queue.pop_front() {
            let Some(page) = self.pages.get(&url) else {
                continue;
            };
            out.push(page);
            for link in page.links() {
                if self.pages.contains_key(&link) && seen.insert(link.clone()) {
                    queue.push_back(link);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_query_parsing() {
        let u = Url::new("/find?city=Coconut%20Creek&state=FL");
        assert_eq!(u.path(), "/find");
        assert_eq!(
            u.query(),
            vec![("city", "Coconut%20Creek"), ("state", "FL")]
        );
    }

    #[test]
    fn form_submit_canonicalizes() {
        let f = Form { action: "/lookup".into(), params: vec!["street".into(), "city".into()] };
        let u = f.submit(&["12 Oak St", "Miami"]);
        // Sorted by key: city before street.
        assert_eq!(u.as_str(), "/lookup?city=Miami&street=12%20Oak%20St");
    }

    #[test]
    fn crawl_follows_links_breadth_first() {
        let mut site = Website::new();
        site.add_html("/", r#"<a href="/a">A</a><a href="/b">B</a>"#);
        site.add_html("/a", r#"<a href="/c">C</a>"#);
        site.add_html("/b", "no links");
        site.add_html("/c", "leaf");
        site.add_html("/orphan", "unreachable");
        let order: Vec<&str> = site.crawl().iter().map(|p| p.url.as_str()).collect();
        assert_eq!(order, vec!["/", "/a", "/b", "/c"]);
    }

    #[test]
    fn dangling_links_are_skipped() {
        let mut site = Website::new();
        site.add_html("/", r#"<a href="/missing">gone</a>"#);
        assert_eq!(site.crawl().len(), 1);
    }

    #[test]
    fn forms_are_discovered() {
        let mut site = Website::new();
        site.add_html(
            "/",
            r#"<form action="/search"><input name="q"><select name="state"></select></form>"#,
        );
        let forms = site.entry().unwrap().forms();
        assert_eq!(forms.len(), 1);
        assert_eq!(forms[0].params, vec!["q", "state"]);
    }
}
