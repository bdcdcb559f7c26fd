//! In-memory spans around each call the benchmark makes into a layer.
//!
//! A span has a name, a start and an end (microseconds since the
//! tracer's origin), the span that caused it and the id of the spec or
//! request it belongs to. Spans stay in memory until the run ends and
//! are then written out as one JSON document. A span's self time is its
//! duration minus the part of that interval its children cover.

use std::time::Instant;

use asyncsynth::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The spec (offline) or request (service) the span belongs to.
    pub id: u64,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// A handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us: now,
            end_us: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: SpanId) {
        if let Some(i) = span {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Records a span whose interval was measured elsewhere (the
    /// service's reader thread timestamps replies as they arrive).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us: at(start),
            end_us: at(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Self time of every span, in microseconds, index-aligned with
    /// [`Tracer::spans`].
    pub fn self_times_us(&self) -> Vec<f64> {
        self_times_us(&self.spans)
    }

    /// The trace as JSON: one object per span with its self time.
    pub fn to_json(&self) -> Json {
        let self_us = self.self_times_us();
        let spans = self
            .spans
            .iter()
            .zip(&self_us)
            .map(|(s, self_us)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, Json::num)),
                    ("start_us", Json::Num(round3(s.start_us))),
                    ("end_us", Json::Num(round3(s.end_us))),
                    ("self_us", Json::Num(round3(*self_us))),
                ])
            })
            .collect();
        Json::obj(vec![("spans", Json::Arr(spans))])
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.duration_us() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{self_times_us, Span};

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 100.0),
            // Two overlapping children cover [10, 50]: 40 us.
            span("a", Some(0), 10.0, 30.0),
            span("b", Some(0), 20.0, 50.0),
            // A disjoint child covers [60, 70]: 10 us.
            span("c", Some(0), 60.0, 70.0),
            // A grandchild is charged to its parent `c`, not to root.
            span("d", Some(3), 62.0, 66.0),
            // A child sticking out of its parent is clipped to it.
            span("e", Some(2), 45.0, 80.0),
        ];
        let self_us = self_times_us(&spans);
        assert_eq!(self_us[0], 50.0);
        assert_eq!(self_us[1], 20.0);
        assert_eq!(self_us[2], 25.0);
        assert_eq!(self_us[3], 6.0);
        assert_eq!(self_us[4], 4.0);
        assert_eq!(self_us[5], 35.0);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", None, 5.0, 12.5)];
        assert_eq!(self_times_us(&spans), vec![7.5]);
    }
}
