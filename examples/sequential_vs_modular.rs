//! Sequential vs modular specification of multi-rate behaviour (paper
//! Section III-A, Figs. 2a–2c).
//!
//! The same cyclic multi-rate application is specified twice: as a sequential
//! program that must spell out the complete schedule (Fig. 2b) and as two
//! concurrent OIL modules (Fig. 2c). The example compares specification
//! sizes, verifies both are deadlock-free and shows how the schedule length
//! explodes with the rate ratio while the modular version stays constant.
//!
//! ```bash
//! cargo run --example sequential_vs_modular
//! ```

use oil::dataflow::rational::gcd;
use oil::dataflow::{Rational, SdfGraph};
use oil::lang::parse_program;

const SEQUENTIAL: &str = r#"
    mod seq Sched(){
        int x[6], y[6];
        init(out y[0:3]);
        loop{
            f(out x[0:2], y[0:2]);
            g(out y[4:5], x[0:1]);
            f(out x[3:5], y[3:5]);
            g(out y[0:1], x[2:3]);
            g(out y[2:3], x[4:5]);
        } while(1);
    }
"#;

const MODULAR: &str = r#"
    mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
    mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
    mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
"#;

fn statement_count(src: &str) -> usize {
    src.matches(';').count()
}

fn main() {
    // Both forms parse as valid OIL.
    let seq = parse_program(SEQUENTIAL).expect("sequential version parses");
    let par = parse_program(MODULAR).expect("modular version parses");

    println!("== Fig. 2: specifying a 3:2 rate conversion ==");
    println!(
        "sequential schedule (Fig. 2b): {} statements, {} modules",
        statement_count(SEQUENTIAL),
        seq.modules.len()
    );
    println!(
        "modular OIL (Fig. 2c):         {} statements, {} modules",
        statement_count(MODULAR),
        par.modules.len()
    );

    // The underlying task graph is deadlock-free with 4 initial tokens.
    let us = Rational::new(1, 1_000_000);
    let graph = SdfGraph::rate_converter(3, 3, 2, 2, 4, us);
    let q = graph.repetition_map().unwrap();
    println!(
        "\nrepetition vector: f fires {}x, g fires {}x per iteration",
        q["f"], q["g"]
    );
    println!(
        "deadlock-free with 4 initial tokens: {}",
        graph.check_deadlock_free().is_ok()
    );
    println!(
        "deadlock-free with 2 initial tokens: {}",
        SdfGraph::rate_converter(3, 3, 2, 2, 2, us)
            .check_deadlock_free()
            .is_ok()
    );

    // The schedule length the sequential form must encode grows with the
    // rate ratio; the modular specification is always two function calls.
    println!("\nschedule length vs rate ratio (statements per hyperperiod):");
    println!("{:>10} {:>14} {:>10}", "p:q", "sequential", "modular");
    for (p, q) in [(3u64, 2u64), (10, 16), (25, 8), (125, 32), (1024, 729)] {
        let g = gcd(p as u128, q as u128) as u64;
        println!("{:>10} {:>14} {:>10}", format!("{p}:{q}"), p / g + q / g, 2);
    }
}
