//! Token-trace recording: the common trace format both execution engines
//! (`oil-sim` and `oil-rt`) emit, and what "trace equivalence" means.
//!
//! A trace records, per buffer, the sequence of origin timestamps of every
//! token ever pushed (initial tokens first, origin 0), plus the per-source
//! produced/overflow counters and the per-sink consumed/miss counters. Two
//! executions of the same program are **trace-equivalent** when these are
//! bit-identical — the oracle of `tests/runtime_differential.rs`: the
//! multi-threaded runtime must be trace-equivalent to the discrete-event
//! simulator at every thread count.
//!
//! Traces also have a stable 64-bit digest (FNV-1a over the canonical byte
//! rendering) so regression corpora can pin expected behaviour per seed
//! without storing whole traces.

use crate::network::Picos;
pub use oil_dataflow::fnv::Fnv1a;

/// Per-buffer token trace: the buffer's name and the origin timestamp of
/// every token pushed into it, in push order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferTrace {
    /// Buffer name (channel, replicated `channel->reader`, or
    /// `<instance>.<variable>`).
    pub name: String,
    /// Origin timestamps of pushed tokens, in push order. Initial tokens
    /// appear first with origin 0.
    pub pushes: Vec<Picos>,
}

/// The complete observable behaviour of one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionTrace {
    /// Per-buffer token traces, in buffer-id order.
    pub buffers: Vec<BufferTrace>,
    /// Per source: (name, samples produced, overflows), in source-id order.
    pub sources: Vec<(String, u64, u64)>,
    /// Per sink: (name, samples consumed, deadline misses), in sink-id order.
    pub sinks: Vec<(String, u64, u64)>,
}

impl ExecutionTrace {
    /// Total deadline misses over all sinks.
    pub fn total_misses(&self) -> u64 {
        self.sinks.iter().map(|(_, _, m)| m).sum()
    }

    /// Total source overflows.
    pub fn total_overflows(&self) -> u64 {
        self.sources.iter().map(|(_, _, o)| o).sum()
    }

    /// A stable 64-bit FNV-1a digest of the trace, identical across
    /// platforms and runs for identical traces. Used by the fixed-seed
    /// regression corpus.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for b in &self.buffers {
            h.write_str(&b.name);
            h.write_u64(b.pushes.len() as u64);
            for &p in &b.pushes {
                h.write_u64(p);
            }
        }
        for (name, produced, overflows) in &self.sources {
            h.write_str(name);
            h.write_u64(*produced);
            h.write_u64(*overflows);
        }
        for (name, consumed, misses) in &self.sinks {
            h.write_str(name);
            h.write_u64(*consumed);
            h.write_u64(*misses);
        }
        h.finish()
    }

    /// Describe the first divergence between two traces, or `None` if they
    /// are bit-identical. Meant for failure messages: it names the buffer or
    /// counter where the traces part ways.
    pub fn first_divergence(&self, other: &ExecutionTrace) -> Option<String> {
        if self.buffers.len() != other.buffers.len() {
            return Some(format!(
                "buffer count differs: {} vs {}",
                self.buffers.len(),
                other.buffers.len()
            ));
        }
        for (a, b) in self.buffers.iter().zip(&other.buffers) {
            if a.name != b.name {
                return Some(format!("buffer name differs: `{}` vs `{}`", a.name, b.name));
            }
            if a.pushes != b.pushes {
                let at = a
                    .pushes
                    .iter()
                    .zip(&b.pushes)
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| a.pushes.len().min(b.pushes.len()));
                return Some(format!(
                    "buffer `{}` diverges at push #{at}: {:?} vs {:?} (lengths {} vs {})",
                    a.name,
                    a.pushes.get(at),
                    b.pushes.get(at),
                    a.pushes.len(),
                    b.pushes.len()
                ));
            }
        }
        for (a, b) in self.sources.iter().zip(&other.sources) {
            if a != b {
                return Some(format!("source counters differ: {a:?} vs {b:?}"));
            }
        }
        for (a, b) in self.sinks.iter().zip(&other.sinks) {
            if a != b {
                return Some(format!("sink counters differ: {a:?} vs {b:?}"));
            }
        }
        if self != other {
            return Some("traces differ".to_string());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionTrace {
        ExecutionTrace {
            buffers: vec![
                BufferTrace {
                    name: "x".into(),
                    pushes: vec![0, 10, 20],
                },
                BufferTrace {
                    name: "y".into(),
                    pushes: vec![10],
                },
            ],
            sources: vec![("src".into(), 3, 0)],
            sinks: vec![("snk".into(), 1, 0)],
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let t = sample();
        assert_eq!(t.digest(), t.clone().digest());
        let mut u = sample();
        u.buffers[0].pushes[2] = 21;
        assert_ne!(t.digest(), u.digest());
        let mut v = sample();
        v.sinks[0].2 = 1;
        assert_ne!(t.digest(), v.digest());
    }

    #[test]
    fn first_divergence_names_the_buffer_and_position() {
        let t = sample();
        assert_eq!(t.first_divergence(&t), None);
        let mut u = sample();
        u.buffers[1].pushes.push(30);
        let d = t.first_divergence(&u).unwrap();
        assert!(d.contains("`y`"), "{d}");
        assert!(d.contains("push #1"), "{d}");
    }

    #[test]
    fn counters_divergence_is_reported() {
        let t = sample();
        let mut u = sample();
        u.sources[0].2 = 5;
        assert!(t.first_divergence(&u).unwrap().contains("source"));
    }
}
