//! In-memory spans for the traced run, exported as Chrome Trace Event
//! JSON (which Perfetto's UI loads) and reduced to per-name self times.
//!
//! The spans wrap the benchmark's own calls into the library's layers. A
//! span whose interval the library measured rather than the benchmark
//! (the conversion/compute split of a call) is marked `derived`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SID: AtomicU64 = AtomicU64::new(1);

/// One timed interval. `sid` is unique within the process; `parent` is the
/// `sid` of the enclosing span; `id` names the call or request the span
/// belongs to, shared by all its spans.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub sid: u64,
    pub parent: Option<u64>,
    pub id: u64,
    pub track: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub derived: bool,
}

/// Collects spans against one time origin. One per thread; [`Tracer::merge`]
/// joins them at the end of the run. A track is the thread or queue a span
/// ran on; each becomes one row in the trace viewer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    /// Records `[start, end)` and returns the new span's `sid`.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        track: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (start - self.origin, end - self.origin);
        self.push(track, name, id, parent, s, e, false)
    }

    /// Records a span placed from a duration the library reported,
    /// starting `start` after the origin.
    pub fn derived(
        &mut self,
        track: &'static str,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Duration,
        len: Duration,
    ) -> Duration {
        self.push(track, name, id, Some(parent), start, start + len, true);
        start + len
    }

    /// Offset of `t` from the origin.
    pub fn at(&self, t: Instant) -> Duration {
        t - self.origin
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        track: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Duration,
        end: Duration,
        derived: bool,
    ) -> u64 {
        let sid = NEXT_SID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span { name, sid, parent, id, track, start, end, derived });
        sid
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Per span name: `(count, total ms, self ms)`, where a span's self
    /// time is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end.saturating_sub(s.start);
            let covered = children
                .get_mut(&s.sid)
                .map_or(Duration::ZERO, |c| covered_within(c, s.start, s.end));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total.as_secs_f64() * 1e3;
            e.2 += total.saturating_sub(covered).as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome Trace Event JSON: one complete (`"ph": "X"`) event per span,
    /// one thread per track, and `meta` under `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut tracks: Vec<&'static str> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let tid = |t: &str| tracks.iter().position(|x| *x == t).unwrap_or(0);
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, t) in tracks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{t}\"}}}},"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"sid\":{},\"parent\":{}}}}}",
                s.name,
                if s.derived { "derived" } else { "measured" },
                tid(s.track),
                s.start.as_secs_f64() * 1e6,
                s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
                s.id,
                s.sid,
                parent,
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        out.push_str("}}\n");
        out
    }
}

/// Length of the union of `spans` clipped to `[lo, hi)`.
fn covered_within(spans: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    spans.sort_unstable();
    let mut covered = Duration::ZERO;
    let mut reach = lo;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut tr = Tracer::new(t0);
        let root = tr.span("caller", "call", 0, None, t0, t0 + ms(10));
        let end = tr.derived("caller", "a", 0, root, ms(1), ms(4));
        tr.derived("caller", "b", 0, root, end - ms(1), ms(3)); // overlaps `a` by 1 ms
        let st = tr.self_times();
        assert!((st["call"].2 - 4.0).abs() < 1e-9, "{st:?}");
        assert!((st["a"].2 - 4.0).abs() < 1e-9);
        assert_eq!(st["call"].0, 1);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.span("caller", "call", 7, None, t0, t0 + Duration::from_micros(5));
        tr.derived("pool", "exec.compute", 7, root, Duration::ZERO, Duration::from_micros(3));
        let json = tr.chrome_json(&[("workload", "x".into())]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(json.contains("\"cat\":\"derived\""));
        assert!(json.trim_end().ends_with("}}"));
    }
}
