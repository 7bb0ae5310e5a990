//! The `compile_corpus` workload: 64 programs taken from source text to
//! static-order schedules at 1 and 2 workers, pass after pass, on one
//! thread. It never enters `oil-rt` or `oil-dsp`.

use crate::host;
use crate::layers::{self, Budget};
use crate::metrics::Measured;
use crate::pipeline::{self, run_op};
use crate::programs::{compile_corpus, Program};
use crate::spans::Recorder;
use crate::stats;
use crate::{Outcome, RunArgs};
use std::time::Instant;

const WORKERS: [usize; 2] = [1, 2];

/// One pass over the corpus: every op timed, checked, and held to the
/// verdict the first pass recorded for its program. Returns the op times, ms.
fn pass(
    rec: &mut Recorder,
    corpus: &[Program],
    verdicts: &mut Vec<String>,
    out: &mut Outcome,
    mut observe: impl FnMut(&mut Recorder, &Program, &pipeline::Op),
) -> Vec<f64> {
    let first = verdicts.is_empty();
    corpus
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t0 = Instant::now();
            let op = run_op(rec, p, &WORKERS);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let verdict = op.verdict();
            let result = op.check(p).and_then(|()| {
                if first {
                    verdicts.push(verdict);
                    Ok(())
                } else if verdicts[i] == verdict {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: verdict changed between passes: `{}` then `{verdict}`",
                        p.name, verdicts[i]
                    ))
                }
            });
            out.attempt(result);
            observe(rec, p, &op);
            ms
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.trace);

    // Set-up is corpus generation; repeated as for the runtime workloads.
    let (corpus, setup_s) = crate::timed_setups(args.smoke || args.trace, || {
        Ok(rec.span("gen.corpus", |_| compile_corpus(args.seed, args.smoke)))
    })?;
    out.info("programs", corpus.len() as f64);

    // The untimed warm-up pass fixes every program's verdict; it always
    // takes the one-call `compile` path, so a traced pass is held to it.
    let mut verdicts = Vec::new();
    pass(
        &mut Recorder::new(false),
        &corpus,
        &mut verdicts,
        &mut out,
        |_, _, _| {},
    );
    let accepted = verdicts
        .iter()
        .filter(|v| v.starts_with("accepted"))
        .count();
    out.info("programs_accepted", accepted as f64);

    if args.trace {
        let mut m = Measured::default();
        let op_ms = pass(&mut rec, &corpus, &mut verdicts, &mut out, |rec, p, op| {
            pipeline::count_metrics(p, op, &mut m);
            pipeline::latency_checks(rec, op);
        });
        pipeline::span_metrics(&rec, &mut m);
        m.set(
            "gen.corpus_ms",
            rec.total_ns("gen.corpus") as f64 / 1e6 / setup_s.len() as f64,
        );
        m.set("compile.op_ms_p50", stats::median(&op_ms));
        // Nearest rank: of one pass's 64 ops that is the slowest one.
        m.set("compile.op_ms_p99", stats::nearest_rank(&op_ms, 0.99));
        layers::dataflow(&mut rec, Budget::new(args.smoke), &mut m);
        out.measured = m;
        out.spans = Some(rec);
        return Ok(out);
    }

    let (mut rate, mut cpu_ns, mut pass_s, mut op_ms) = (vec![], vec![], vec![], vec![]);
    let timed = Instant::now();
    while rate.len() < 3 || timed.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = host::process_cpu_ns();
        let t0 = Instant::now();
        op_ms.extend(pass(
            &mut rec,
            &corpus,
            &mut verdicts,
            &mut out,
            |_, _, _| {},
        ));
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::process_cpu_ns() - cpu0;
        rate.push(corpus.len() as f64 / wall);
        cpu_ns.push(cpu as f64 / corpus.len() as f64);
        pass_s.push(wall);
    }
    out.end_to_end(&rate, &cpu_ns, &setup_s);
    out.summary("compile_pass_s", &pass_s);
    out.summary("compile_op_ms", &op_ms);
    if let Some((p, ms)) = stats::tail_percentile(&op_ms, 0.99) {
        out.info("compile_op_ms_tail_percentile", p);
        out.info("compile_op_ms_tail", ms);
    }
    Ok(out)
}
