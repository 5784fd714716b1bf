//! The metric table is the one name registry: every counter, histogram
//! and span name is declared once in `pmr_rt::obs`, and DESIGN §9's
//! name table is that table, written out.

use pmr_rt::obs::TABLE;

/// `subsystem.operation`: at least two dot-separated segments, each a
/// lowercase letter followed by lowercase letters, digits or `_`.
fn valid_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// The `(name, kind)` rows of DESIGN.md §9's table: lines of the form
/// "| `name` | kind | … |" between the §9 and §10 headings.
fn design_rows() -> Vec<(String, String)> {
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 9. ").expect("DESIGN.md has a section 9");
    let section = &design[start + 1..];
    let section = &section[..section.find("\n## 10. ").expect("and a section 10")];
    section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`').to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn metric_names_are_unique_sorted_valid_and_match_design() {
    let names: Vec<&str> = TABLE.iter().map(|m| m.name()).collect();
    for pair in names.windows(2) {
        assert!(
            pair[0] < pair[1],
            "table must be name-sorted with unique names: {} then {}",
            pair[0],
            pair[1]
        );
    }
    for name in &names {
        assert!(
            valid_name(name),
            "{name} is not lowercase subsystem.operation"
        );
        assert!(
            !name.starts_with("node"),
            "{name} collides with absorbed node{{N}}.* telemetry"
        );
    }
    assert!(valid_name("net.node_rt_us") && !valid_name("exec") && !valid_name("Exec.query"));

    let table: Vec<(String, String)> = TABLE
        .iter()
        .map(|m| (m.name().to_string(), m.kind().to_string()))
        .collect();
    assert_eq!(
        design_rows(),
        table,
        "DESIGN.md §9 must list exactly the metric table's names and kinds, in order"
    );
}
