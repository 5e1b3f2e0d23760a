//! In-memory spans around the benchmark's calls into the system. Spans are
//! kept until the run ends, then summarised into per-layer self times and
//! written out as a tab-separated file.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The op the call served (set-up and replays use their own ids).
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = end;
        end - self.spans[i].start
    }

    /// Records an already finished span under the innermost open one: a
    /// phase the program timed itself, such as the filter/verify split an
    /// `OutlierReport` carries.
    pub fn record(&mut self, name: &'static str, op: u64, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    /// Start time of the innermost open span.
    pub fn open_start(&self) -> u64 {
        self.spans[*self.open.last().expect("a span is open")].start
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.end - s.start - covered(s.start, s.end, kids))
            .collect()
    }

    /// Total self time by span name, over spans of ops `ops` selects.
    pub fn self_by_name(&self, ops: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if ops(s.op) {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as `name, op, parent, start_ns, end_ns` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\top\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Op id of the kernel-timing span, which belongs to no op.
pub const KERNEL_OP: u64 = u64::MAX - 1;

/// Times `Dataset::dist` on `pairs` seeded pairs of `data` under a
/// `metrics.dist` span and returns ns per call. Pairs come in runs of 64
/// that share their first object, as the range counts of filtering and
/// verification do, so one row stays cached as it does there.
pub fn kernel_ns<D: dod_metrics::Dataset + ?Sized>(
    tr: &mut Tracer,
    data: &D,
    pairs: usize,
    seed: u64,
) -> f64 {
    let mut rng = crate::mix::SplitMix64::new(seed ^ 0x6469_7374);
    let last = data.len() - 1;
    let mut i = 0;
    let pairs: Vec<(usize, usize)> = (0..pairs)
        .map(|t| {
            if t % 64 == 0 {
                i = rng.between(0, last);
            }
            (i, rng.between(0, last))
        })
        .collect();
    tr.enter("metrics.dist", KERNEL_OP);
    let sum: f64 = pairs.iter().map(|&(i, j)| data.dist(i, j)).sum();
    let ns = tr.exit() as f64 / pairs.len() as f64;
    std::hint::black_box(sum);
    ns
}

/// Length of the union of `kids`, each clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in kids {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start, end) in spans {
            t.spans.push(Span {
                name,
                op: 0,
                parent,
                start,
                end,
            });
        }
        t
    }

    #[test]
    fn self_times_of_a_nested_tree_add_up_to_the_root() {
        let t = tracer(&[
            ("op", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 50, 60),
            ("a.child", Some(1), 20, 30),
        ]);
        let own = t.self_times();
        assert_eq!(own, vec![60, 20, 10, 10]);
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let t = tracer(&[
            ("op", None, 0, 100),
            ("a", Some(0), 10, 50),
            ("b", Some(0), 30, 60),
            ("c", Some(0), 90, 130),
        ]);
        assert_eq!(t.self_times()[0], 100 - 50 - 10);
    }

    #[test]
    fn enter_and_exit_nest_and_name_their_parent() {
        let mut t = Tracer::new();
        t.enter("op", 7);
        t.enter("inner", 7);
        t.exit();
        let now = t.now();
        t.record("phase", 7, now, now);
        t.exit();
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let by_name = t.self_by_name(|op| op == 7);
        let total: u64 = by_name.values().sum();
        assert_eq!(total, s[0].end - s[0].start);
    }
}
