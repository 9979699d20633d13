//! Web forms as services (§4).
//!
//! "We also model Web forms as services that require inputs." A
//! [`FormService`] wraps a form page of a [`Website`]: calling it fills
//! the form, "navigates" to the resulting page, and extracts the answer
//! with a learned wrapper — so a form-driven lookup site participates in
//! dependent joins exactly like a programmatic service.

use copycat_document::{Document, Form, Website};
use copycat_extract::{execute as run_wrapper, StructureLearner, Wrapper};
use copycat_query::{Field, Schema, Service, Signature, Value};
use copycat_semantic::TypeRegistry;
use std::sync::Arc;

/// A form-driven Web site exposed as a catalog service.
pub struct FormService {
    name: String,
    site: Arc<Website>,
    form: Form,
    wrapper: Wrapper,
    signature: Signature,
}

impl FormService {
    /// Wrap a site's form. `inputs` name (and optionally type) the form's
    /// parameters in order; `outputs` describe the extracted columns;
    /// `wrapper` extracts rows from result pages. The wrapper's page
    /// scope is ignored — it runs against the page the form submission
    /// resolves to.
    pub fn new(
        name: impl Into<String>,
        site: Arc<Website>,
        form: Form,
        wrapper: Wrapper,
        inputs: Vec<Field>,
        outputs: Vec<Field>,
    ) -> Self {
        Self {
            name: name.into(),
            site,
            form,
            wrapper,
            signature: Signature {
                inputs: Schema::new(inputs),
                outputs: Schema::new(outputs),
            },
        }
    }

    /// Learn a `FormService` from one demonstrated lookup: submit the
    /// form with `example_inputs`, locate `example_outputs` on the result
    /// page, and induce a wrapper for it (§3.1's generalization, applied
    /// to a form's result pages). Returns `None` when the result page
    /// does not exist or the outputs cannot be located.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per demonstrated artifact; bundling them would only move the count into a one-use spec struct"
    )]
    pub fn learn(
        name: impl Into<String>,
        site: Arc<Website>,
        form: Form,
        example_inputs: &[&str],
        example_outputs: &[&str],
        inputs: Vec<Field>,
        outputs: Vec<Field>,
        registry: &TypeRegistry,
    ) -> Option<Self> {
        let url = form.submit(example_inputs);
        let page = site.get(&url)?;
        // Learn on a single-page pseudo-site so the wrapper scope stays
        // on result pages.
        let mut single = Website::new();
        single.add_page(page.clone());
        let doc = Document::Site(single);
        let example: Vec<String> = example_outputs.iter().map(|s| s.to_string()).collect();
        let learner = StructureLearner::new();
        let hyps = learner.learn(&doc, std::slice::from_ref(&example), registry);
        let wrapper = hyps.into_iter().next()?.wrapper;
        Some(Self::new(name, site, form, wrapper, inputs, outputs))
    }
}

impl Service for FormService {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
        let texts: Vec<String> = inputs.iter().map(Value::as_text).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let url = self.form.submit(&refs);
        let Some(page) = self.site.get(&url) else {
            return Vec::new();
        };
        // Run the wrapper against the result page (single-page scope).
        let mut single = Website::new();
        single.add_page(page.clone());
        let rewrapped = match &self.wrapper {
            Wrapper::Html { record_path, fields, filters, .. } => Wrapper::Html {
                record_path: record_path.clone(),
                fields: fields.clone(),
                filters: filters.clone(),
                scope: copycat_extract::PageScope::SinglePage(url),
            },
            other => other.clone(),
        };
        run_wrapper(&rewrapped, &Document::Site(single))
            .into_iter()
            .map(|row| row.iter().map(|v| Value::parse(v)).collect())
            .collect()
    }

    fn cost(&self) -> f64 {
        // A form round trip is costlier than a direct API.
        1.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_query::Catalog;

    /// A zip-lookup site: `/` hosts the form, `/zip?city=…&street=…`
    /// pages carry the answer.
    fn zip_form_site() -> (Arc<Website>, Form) {
        let mut site = Website::new();
        site.add_html(
            "/",
            "<h1>Zip lookup</h1>\
             <form action=\"/zip\"><input name=\"street\"><input name=\"city\"></form>",
        );
        let lookups = [
            ("100 Oak St", "Margate", "33063"),
            ("200 Elm Ave", "Tamarac", "33321"),
            ("300 Pine Rd", "Margate", "33065"),
        ];
        let form = Form {
            action: "/zip".into(),
            params: vec!["street".into(), "city".into()],
        };
        for (street, city, zip) in lookups {
            let url = form.submit(&[street, city]);
            site.add_html(
                url.as_str(),
                &format!(
                    "<h1>Result</h1><table><tr><th>Zip</th></tr><tr><td>{zip}</td></tr></table>"
                ),
            );
        }
        (Arc::new(site), form)
    }

    fn learned_service() -> FormService {
        let (site, form) = zip_form_site();
        FormService::learn(
            "zip_form",
            site,
            form,
            &["100 Oak St", "Margate"],
            &["33063"],
            vec![
                Field::typed("street", "PR-Street"),
                Field::typed("city", "PR-City"),
            ],
            vec![Field::typed("Zip", "PR-Zip")],
            &TypeRegistry::with_builtins(),
        )
        .expect("learnable from one demonstration")
    }

    #[test]
    fn learned_form_service_answers_unseen_lookups() {
        let svc = learned_service();
        let out = svc.call(&[Value::str("200 Elm Ave"), Value::str("Tamarac")]);
        assert_eq!(out, vec![vec![Value::str("33321")]]);
        // Unknown lookups return no rows, not junk.
        assert!(svc.call(&[Value::str("9 Nowhere"), Value::str("Atlantis")]).is_empty());
    }

    #[test]
    fn form_service_joins_like_any_service() {
        use copycat_query::{Plan, Relation};
        let catalog = Catalog::new();
        catalog.add_relation(Relation::from_strings(
            "Shelters",
            Schema::new(vec![
                Field::new("Name"),
                Field::typed("Street", "PR-Street"),
                Field::typed("City", "PR-City"),
            ]),
            &[
                vec!["A".into(), "100 Oak St".into(), "Margate".into()],
                vec!["B".into(), "200 Elm Ave".into(), "Tamarac".into()],
            ],
        ));
        catalog.add_service(Arc::new(learned_service()));
        let plan = Plan::scan("Shelters").dependent_join("zip_form", &["Street", "City"]);
        let result = copycat_query::execute(&plan, &catalog).expect("executes");
        assert_eq!(result.len(), 2);
        assert_eq!(result.tuples()[0].values[3], Value::str("33063"));
        assert_eq!(result.tuples()[1].values[3], Value::str("33321"));
    }

    #[test]
    fn signature_reflects_bindings() {
        let svc = learned_service();
        assert_eq!(svc.signature().inputs.arity(), 2);
        assert_eq!(svc.signature().outputs.names(), vec!["Zip"]);
        assert!(svc.cost() > 1.0);
    }
}
