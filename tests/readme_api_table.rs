//! The README's HTTP API reference table lists exactly the routes the
//! server mounts: every `(method, path)` row between the `api-table`
//! markers appears in `API_ROUTES`, and vice versa, so docs and dispatch
//! cannot drift apart silently.

use dod::server::routes::API_ROUTES;

const README: &str = include_str!("../README.md");

/// The `(method, path)` cells of the table's rows, backticks stripped.
fn readme_routes() -> Vec<(String, String)> {
    let begin = README
        .find("<!-- api-table:begin -->")
        .expect("README has an api-table:begin marker");
    let end = README
        .find("<!-- api-table:end -->")
        .expect("README has an api-table:end marker");
    README[begin..end]
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line
                .split('|')
                .map(|c| c.trim().trim_matches('`'))
                .collect();
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn readme_api_table_matches_the_mounted_routes() {
    let mut documented = readme_routes();
    documented.sort();
    let mut mounted: Vec<(String, String)> = API_ROUTES
        .iter()
        .map(|&(method, path)| (method.to_string(), path.to_string()))
        .collect();
    mounted.sort();
    assert!(!mounted.is_empty(), "API_ROUTES is empty");
    assert_eq!(
        documented, mounted,
        "README API table (left) disagrees with API_ROUTES (right)"
    );
}
