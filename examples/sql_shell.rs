//! A minimal interactive SQL shell over a seqdb database.
//!
//! ```text
//! cargo run --example sql_shell
//! seqdb> CREATE TABLE t (x INT);
//! seqdb> INSERT INTO t VALUES (1), (2);
//! seqdb> SELECT COUNT(*) FROM t;
//! seqdb> EXPLAIN SELECT x, COUNT(*) FROM t GROUP BY x;
//! seqdb> \q
//! ```
//!
//! The paper's UDX (PivotAlignment, CallBase, AssembleSequence,
//! AssembleConsensus, ListShortReads) are registered, so the §4.2
//! queries can be typed in directly.

use std::io::{BufRead, Write};

use seqdb::core::udx;
use seqdb::engine::Database;
use seqdb::sql::SessionSqlExt;

fn main() {
    let db = Database::in_memory();
    udx::register_udx(&db, None);
    // The shell's own session, as a wire connection would get: `SET`
    // tunes this session only, not the server defaults.
    let session = db.create_session();
    println!("seqdb interactive shell — statements end with ';', \\q quits");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print!("seqdb> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed == "\\q" || trimmed == "exit" || trimmed == "quit" {
            break;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let sql = std::mem::take(&mut buffer);
            match session.execute_sql_script(&sql) {
                Ok(result) => {
                    if !result.rows.is_empty() {
                        println!("{}", result.to_table());
                        println!("({} rows)", result.rows.len());
                    } else if result.affected > 0 {
                        println!("({} rows affected)", result.affected);
                    } else {
                        println!("ok");
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            print!("seqdb> ");
            std::io::stdout().flush().ok();
        } else {
            print!("    -> ");
            std::io::stdout().flush().ok();
        }
    }
    println!();
}
