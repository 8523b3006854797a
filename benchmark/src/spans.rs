//! In-memory spans, recorded from the benchmark's own files around the
//! calls into each layer, and written out when the run ends.
//!
//! A span is (name, start, end, parent, change id). Ids are positions in
//! the recorder plus one, 0 meaning "no parent". A layer's self time is
//! its span's duration minus the part of that interval its direct
//! children cover (children may overlap: build steps run in parallel).

use sq_obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub change: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span sink. Recording is off until [`Recorder::set_enabled`]
/// turns it on, so the tracing-off runs pay one relaxed load per call.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    /// The span build steps attach to: step actions run on executor
    /// threads that cannot be handed a parent, and one build runs at a
    /// time.
    step_parent: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            step_parent: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        // Publishes nothing: spans go through the mutex.
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its id (0 when recording is off).
    pub fn begin(&self, name: &'static str, parent: u32, change: u64) -> u32 {
        if !self.enabled() {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            change,
        });
        u32::try_from(spans.len()).expect("fewer than 2^32 spans")
    }

    /// [`Recorder::begin`] for a change that is traced as a whole or not at
    /// all, whatever the recorder's state when one of its calls starts.
    pub fn begin_if(&self, traced: bool, name: &'static str, parent: u32, change: u64) -> u32 {
        if traced {
            self.begin(name, parent, change)
        } else {
            0
        }
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&self, id: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span writer panics")[id as usize - 1].end_ns = end_ns;
    }

    /// Record `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        change: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, change);
        let out = f();
        self.end(id);
        out
    }

    pub fn set_step_parent(&self, id: u32) {
        self.step_parent.store(id, Ordering::SeqCst);
    }

    pub fn step_parent(&self) -> u32 {
        self.step_parent.load(Ordering::SeqCst)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span writer panics"))
    }
}

/// Self time of every span, in nanoseconds, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = &spans[s.parent as usize - 1];
        let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
        if lo < hi {
            children.entry(s.parent).or_default().push((lo, hi));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(intervals) = children.get_mut(&(i as u32 + 1)) else {
                return s.duration_ns();
            };
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(lo, hi) in intervals.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total duration, total self time), nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    out
}

/// Write the run's span lists (ids are positions within a list) as one
/// JSON document.
pub fn write_json(
    path: &Path,
    header: &[(&str, String)],
    sections: &[(&str, Vec<Span>)],
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    for (k, v) in header {
        w.field_str(k, v);
    }
    for (section, spans) in sections {
        w.key(section);
        w.begin_array();
        for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
            w.begin_object();
            w.field_u64("id", i as u64 + 1);
            w.field_str("name", s.name);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.field_u64("self_ns", self_ns);
            w.field_u64("parent", u64::from(s.parent));
            w.field_u64("change", s.change);
            w.end_object();
        }
        w.end_array();
    }
    w.end_object();
    std::fs::write(path, w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            change: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 40, 1),
            span("b", 30, 60, 1), // overlaps a by 10
            span("c", 70, 80, 1),
            span("a.inner", 15, 20, 2), // a grandchild does not count twice
            span("late", 90, 130, 1),   // clipped to the parent's end
        ];
        let selfs = self_times(&spans);
        // Children cover [10,60) ∪ [70,80) ∪ [90,100) = 70.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
        // Self times of a parent and its children's clipped union add up
        // to the parent's duration.
        assert_eq!(selfs[0] + 70, spans[0].duration_ns());
    }

    #[test]
    fn recorder_is_a_no_op_until_enabled() {
        let r = Recorder::default();
        assert_eq!(r.begin("x", 0, 1), 0);
        r.end(0);
        assert!(r.take().is_empty());
        r.set_enabled(true);
        let root = r.begin("root", 0, 7);
        r.time("child", root, 7, || ());
        r.end(root);
        let spans = r.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].change),
            ("child", 1, 7)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
