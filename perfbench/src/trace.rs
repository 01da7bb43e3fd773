//! Self-time attribution from a flushed `a2a_obs::TraceData`.
//!
//! A span's self time is its duration minus the time its child spans cover.
//! Each span name belongs to a layer by its prefix; a name with no known
//! prefix belongs to the layer of its parent span, so spans added inside the
//! crates later fold into the layer that calls them. Summed over every span of
//! the benchmark thread, self times add up to the time covered by top-level
//! spans; what the operations' wall time leaves over is `unattributed_s`.
//! Pricing workers run concurrently with the `colgen.pricing` span that waits
//! for them, so their spans are only counted, never added to self time.

use std::collections::BTreeMap;

use a2a_obs::{EventKind, TraceData};

/// The layers, in report order. `bench` is the benchmark's own checks.
pub const LAYERS: [&str; 6] = ["topology", "mcf", "lp", "schedule", "simnet", "bench"];

fn layer_of_prefix(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next().unwrap_or(name);
    match prefix {
        "topology" => Some("topology"),
        "mcf" | "colgen" | "decomposed" => Some("mcf"),
        "lp" => Some("lp"),
        "schedule" => Some("schedule"),
        "simnet" | "replan" => Some("simnet"),
        "bench" => Some("bench"),
        _ => None,
    }
}

/// Bench-side span around a tsMCF solve; its colgen rounds tell which backend
/// the auto-dispatch picked.
pub const TSMCF_SOLVE: &str = "mcf.solve_tsmcf";

/// Per-name and per-layer times of one or more traces, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub self_by_name: BTreeMap<&'static str, f64>,
    pub inclusive_by_name: BTreeMap<&'static str, f64>,
    pub self_by_layer: BTreeMap<&'static str, f64>,
    /// Closed spans per name, over every thread.
    pub spans_by_name: BTreeMap<&'static str, u64>,
    /// tsMCF solves, and those that ran column generation.
    pub tsmcf_solves: u64,
    pub tsmcf_colgen_solves: u64,
}

struct Frame {
    name: &'static str,
    layer: &'static str,
    start: u64,
    children: u64,
    saw_colgen: bool,
}

impl Attribution {
    /// Attributes `data`, whose benchmark thread is the one that recorded a
    /// span named `bench_span`.
    pub fn of(data: &TraceData, bench_span: &str) -> Result<Self, String> {
        if data.dropped_events > 0 {
            return Err(format!("trace dropped {} events", data.dropped_events));
        }
        let mut out = Attribution::default();
        let is_main = |t: &&a2a_obs::ThreadTrace| t.events.iter().any(|e| e.name == bench_span);
        let mains: Vec<_> = data.threads.iter().filter(is_main).collect();
        if mains.len() > 1 {
            return Err(format!("{} threads recorded {bench_span}", mains.len()));
        }
        for thread in &data.threads {
            let main = mains.first().is_some_and(|m| std::ptr::eq(*m, thread));
            out.add_thread(&thread.events, main)?;
        }
        Ok(out)
    }

    fn add_thread(&mut self, events: &[a2a_obs::Event], main: bool) -> Result<(), String> {
        let mut stack: Vec<Frame> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::Instant => {}
                EventKind::Enter => {
                    let parent = stack.last().map(|f| f.layer);
                    let layer = layer_of_prefix(e.name).or(parent).unwrap_or("bench");
                    if e.name == "colgen.round" {
                        for f in stack.iter_mut().filter(|f| f.name == TSMCF_SOLVE) {
                            f.saw_colgen = true;
                        }
                    }
                    stack.push(Frame {
                        name: e.name,
                        layer,
                        start: e.ts_nanos,
                        children: 0,
                        saw_colgen: false,
                    });
                }
                EventKind::Exit => {
                    let f = stack
                        .pop()
                        .filter(|f| f.name == e.name)
                        .ok_or_else(|| format!("unbalanced span exit {}", e.name))?;
                    let dur = e.ts_nanos.saturating_sub(f.start);
                    *self.spans_by_name.entry(f.name).or_default() += 1;
                    if f.name == TSMCF_SOLVE {
                        self.tsmcf_solves += 1;
                        self.tsmcf_colgen_solves += u64::from(f.saw_colgen);
                    }
                    if !main {
                        continue;
                    }
                    let self_s = dur.saturating_sub(f.children) as f64 * 1e-9;
                    *self.self_by_name.entry(f.name).or_default() += self_s;
                    *self.inclusive_by_name.entry(f.name).or_default() += dur as f64 * 1e-9;
                    *self.self_by_layer.entry(f.layer).or_default() += self_s;
                    if let Some(parent) = stack.last_mut() {
                        parent.children += dur;
                    }
                }
            }
        }
        match stack.last() {
            Some(f) => Err(format!("span {} never closed", f.name)),
            None => Ok(()),
        }
    }

    pub fn merge(&mut self, other: Attribution) {
        fn add<K: Ord, V: std::ops::AddAssign + Default>(
            into: &mut BTreeMap<K, V>,
            from: BTreeMap<K, V>,
        ) {
            for (k, v) in from {
                *into.entry(k).or_default() += v;
            }
        }
        add(&mut self.self_by_name, other.self_by_name);
        add(&mut self.inclusive_by_name, other.inclusive_by_name);
        add(&mut self.self_by_layer, other.self_by_layer);
        add(&mut self.spans_by_name, other.spans_by_name);
        self.tsmcf_solves += other.tsmcf_solves;
        self.tsmcf_colgen_solves += other.tsmcf_colgen_solves;
    }

    pub fn self_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.self_by_name.get(n))
            .fold(0.0, |a, b| a + b)
    }

    pub fn inclusive_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.inclusive_by_name.get(n))
            .fold(0.0, |a, b| a + b)
    }

    pub fn layer_s(&self, layer: &str) -> f64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0.0)
    }

    pub fn spans(&self, name: &str) -> u64 {
        self.spans_by_name.get(name).copied().unwrap_or(0)
    }

    /// Sum of self time over every span of the benchmark thread.
    pub fn total_self_s(&self) -> f64 {
        self.self_by_layer.values().fold(0.0, |a, b| a + b)
    }
}

/// Value of the counter `name` in `data` (0 when it never fired).
pub fn counter(data: &TraceData, name: &str) -> u64 {
    data.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_obs::{Event, ThreadTrace};

    fn ev(name: &'static str, kind: EventKind, ts_nanos: u64) -> Event {
        Event {
            name,
            kind,
            ts_nanos,
        }
    }

    fn data(threads: Vec<Vec<Event>>) -> TraceData {
        TraceData {
            threads: threads
                .into_iter()
                .enumerate()
                .map(|(i, events)| ThreadTrace {
                    ordinal: i as u64,
                    events,
                    dropped: 0,
                })
                .collect(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            dropped_events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_inherits_layers() {
        use EventKind::{Enter, Exit};
        let main = vec![
            ev("mcf.solve_path", Enter, 0),
            ev("colgen.master", Enter, 10),
            ev("lp.lu.factor", Enter, 20),
            ev("lp.lu.factor", Exit, 50),
            ev("custom.inner", Enter, 60),
            ev("custom.inner", Exit, 70),
            ev("colgen.master", Exit, 80),
            ev("mcf.solve_path", Exit, 100),
            ev("bench.check", Enter, 110),
            ev("bench.check", Exit, 120),
        ];
        let worker = vec![
            ev("colgen.price_source", Enter, 30),
            ev("colgen.price_source", Exit, 90),
        ];
        let a = Attribution::of(&data(vec![main, worker]), "bench.check").unwrap();
        let ns = 1e-9;
        assert!((a.self_s(&["colgen.master"]) - 30.0 * ns).abs() < 1e-15);
        assert!((a.layer_s("mcf") - (30.0 + 30.0 + 10.0) * ns).abs() < 1e-15);
        assert!((a.layer_s("lp") - 30.0 * ns).abs() < 1e-15);
        assert!((a.total_self_s() - 110.0 * ns).abs() < 1e-15);
        assert_eq!(a.spans("colgen.price_source"), 1);
        assert_eq!(a.self_s(&["colgen.price_source"]), 0.0);
    }

    #[test]
    fn unbalanced_trace_is_an_error() {
        let main = vec![
            ev("bench.check", EventKind::Enter, 0),
            ev("mcf.solve_path", EventKind::Exit, 1),
        ];
        assert!(Attribution::of(&data(vec![main]), "bench.check").is_err());
    }

    #[test]
    fn tsmcf_backend_is_read_from_colgen_rounds() {
        use EventKind::{Enter, Exit};
        let main = vec![
            ev(TSMCF_SOLVE, Enter, 0),
            ev("lp.phase2", Enter, 1),
            ev("lp.phase2", Exit, 2),
            ev(TSMCF_SOLVE, Exit, 3),
            ev(TSMCF_SOLVE, Enter, 4),
            ev("colgen.round", Enter, 5),
            ev("colgen.round", Exit, 6),
            ev(TSMCF_SOLVE, Exit, 7),
        ];
        let a = Attribution::of(&data(vec![main]), TSMCF_SOLVE).unwrap();
        assert_eq!((a.tsmcf_solves, a.tsmcf_colgen_solves), (2, 1));
    }
}
