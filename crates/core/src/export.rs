//! Data export (§8: "Exporting data to common application formats,
//! including XML and, perhaps more interestingly, the Google Maps
//! interface. This capability makes it very easy to use CopyCat as a
//! mashup generator.")
//!
//! Formats: CSV, XML, JSON, and KML (the Google-Maps-compatible map
//! format; the simulated stand-in for the paper's live map view).

use crate::workspace::Tab;

/// Export the committed rows as CSV (header first, RFC-4180 quoting).
pub fn to_csv(tab: &Tab) -> String {
    let mut out = String::new();
    let quote = |cell: &str| -> String {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let header: Vec<String> = tab.columns.iter().map(|c| quote(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in tab.committed_rows() {
        let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn xml_tag(s: &str) -> String {
    let mut t: String = s
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if t.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        t.insert(0, '_');
    }
    t
}

/// Export as XML: one `<row>` per committed row, one element per column.
pub fn to_xml(tab: &Tab) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(&format!("<table name=\"{}\">\n", xml_escape(&tab.title)));
    for row in tab.committed_rows() {
        out.push_str("  <row>\n");
        for (i, cell) in row.iter().enumerate() {
            let name = tab
                .columns
                .get(i)
                .map(|c| xml_tag(&c.name))
                .unwrap_or_else(|| format!("col{i}"));
            out.push_str(&format!("    <{name}>{}</{name}>\n", xml_escape(cell)));
        }
        out.push_str("  </row>\n");
    }
    out.push_str("</table>\n");
    out
}

/// Export as a JSON array of objects keyed by column name.
pub fn to_json(tab: &Tab) -> String {
    use copycat_util::Json;
    let rows: Vec<Json> = tab
        .committed_rows()
        .into_iter()
        .map(|row| {
            Json::obj(
                row.into_iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        let key = tab
                            .columns
                            .get(i)
                            .map(|c| c.name.clone())
                            .unwrap_or_else(|| format!("col{i}"));
                        (key, Json::Str(cell))
                    })
                    .collect(),
            )
        })
        .collect();
    Json::Arr(rows).to_string_pretty()
}

/// Export as KML placemarks — the "plot the shelters on a map" output of
/// Example 1. `name_col` labels each placemark; `lat_col`/`lon_col` give
/// coordinates. Rows missing either coordinate are skipped; the number of
/// exported placemarks is returned alongside the document.
pub fn to_kml(tab: &Tab, name_col: usize, lat_col: usize, lon_col: usize) -> (String, usize) {
    let mut out = String::from(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
         <kml xmlns=\"http://www.opengis.net/kml/2.2\">\n<Document>\n",
    );
    out.push_str(&format!("  <name>{}</name>\n", xml_escape(&tab.title)));
    let mut count = 0;
    for row in tab.committed_rows() {
        let (Some(name), Some(lat), Some(lon)) =
            (row.get(name_col), row.get(lat_col), row.get(lon_col))
        else {
            continue;
        };
        if lat.parse::<f64>().is_err() || lon.parse::<f64>().is_err() {
            continue;
        }
        out.push_str("  <Placemark>\n");
        out.push_str(&format!("    <name>{}</name>\n", xml_escape(name)));
        out.push_str(&format!(
            "    <Point><coordinates>{lon},{lat},0</coordinates></Point>\n"
        ));
        out.push_str("  </Placemark>\n");
        count += 1;
    }
    out.push_str("</Document>\n</kml>\n");
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{Row, RowState};
    use copycat_query::Field;

    fn tab() -> Tab {
        let mut t = Tab::new("Shelters");
        t.paste_row(&["Creek, HS".to_string(), "26.25".to_string(), "-80.20".to_string()]);
        t.paste_row(&["Rec \"Ctr\"".to_string(), "26.21".to_string(), "-80.27".to_string()]);
        t.columns = vec![Field::new("Name"), Field::new("Lat"), Field::new("Lon")];
        t.user_named = vec![true, true, true];
        t
    }

    #[test]
    fn csv_quotes_properly() {
        let csv = to_csv(&tab());
        assert!(csv.starts_with("Name,Lat,Lon\n"));
        assert!(csv.contains("\"Creek, HS\""));
        assert!(csv.contains("\"Rec \"\"Ctr\"\"\""));
    }

    #[test]
    fn xml_escapes_and_tags() {
        let mut t = tab();
        t.columns[0].name = "Shelter Name".to_string();
        let xml = to_xml(&t);
        assert!(xml.contains("<Shelter_Name>Creek, HS</Shelter_Name>"));
        assert!(xml.contains("&quot;Ctr&quot;"));
    }

    #[test]
    fn json_roundtrips() {
        let json = to_json(&tab());
        let v = copycat_util::Json::parse(&json).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert_eq!(v[0]["Name"], "Creek, HS");
    }

    #[test]
    fn kml_plots_valid_coordinates_only() {
        let mut t = tab();
        t.paste_row(&["No Coords".to_string(), String::new(), String::new()]);
        let (kml, count) = to_kml(&t, 0, 1, 2);
        assert_eq!(count, 2);
        assert_eq!(kml.matches("<Placemark>").count(), 2);
        assert!(kml.contains("-80.20,26.25,0"));
    }

    #[test]
    fn suggested_rows_are_not_exported() {
        let mut t = tab();
        t.rows.push(Row { cells: vec!["Maybe".to_string()], state: RowState::Suggested, provenance: None });
        assert_eq!(to_csv(&t).lines().count(), 3); // header + 2 rows
    }
}
