//! Interactive shell for the `SKYLINE OF` dialect.
//!
//! ```sh
//! cargo run --example query_shell                  # sample tables
//! cargo run --example query_shell -- data.csv      # + your CSV as `data`
//! ```
//!
//! Commands: any SQL query, `CREATE TABLE t (col TYPE, …)`,
//! `INSERT INTO t VALUES (…)`; `\tables`; `\explain <sql>`;
//! `\except <sql>` (show the Figure-5 rewrite); `\quit`.

use skyline::query::catalog::Catalog;
use skyline::query::rewrite::to_except_sql;
use skyline::query::{execute, explain, parse};
use skyline::relation::csv::read_csv;
use skyline::relation::samples::{good_eats, theorem4_points};
use skyline::storage::read_text;
use std::io::{BufRead, Write};

fn main() {
    let mut catalog = Catalog::new();
    catalog.register("GoodEats", good_eats());
    catalog.register("points", theorem4_points());

    for path in std::env::args().skip(1) {
        let text = read_text(std::path::Path::new(&path)).expect("open csv");
        let table = read_csv(text.as_bytes(), None).expect("parse csv");
        let name = std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("data")
            .to_owned();
        println!("loaded {} rows into table `{name}`", table.len());
        catalog.register(name, table);
    }

    println!("skyline query shell — tables: {:?}", catalog.names());
    println!("try: SELECT * FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN");
    let stdin = std::io::stdin();
    loop {
        print!("sky> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\quit" | "\\q" | "exit" => break,
            "\\tables" => {
                println!("{:?}", catalog.names());
                continue;
            }
            _ => {}
        }
        if let Some(sql) = line.strip_prefix("\\explain ") {
            match explain(sql, &catalog) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix("\\except ") {
            match parse(sql).and_then(|q| to_except_sql(&q)) {
                Ok(rewritten) => println!("{rewritten}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        match skyline::query::ddl::parse_statement(line) {
            Ok(Some(stmt)) => {
                match skyline::query::ddl::apply_statement(stmt, &mut catalog) {
                    Ok(()) => println!("ok"),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            Err(e) => {
                println!("error: {e}");
                continue;
            }
            Ok(None) => {}
        }
        match execute(line, &catalog) {
            Ok(table) => println!("{table}({} rows)", table.len()),
            Err(e) => println!("error: {e}"),
        }
    }
}
