//! One declaration per metric (DESIGN.md §11). `metrics!` emits each
//! snapshot struct exactly as written — field names, order, types, doc
//! comments and derives, so serialized artifacts keep their bytes — and
//! tags every field with a kind. From the tags it generates, per struct:
//! `merge_at(&mut self, other, record_offset)` (the shard merge),
//! `delta(&self, prev)` (cumulative `self` minus cumulative `prev`: the
//! sim windows and the live service intervals), `canonicalize_wall_clock`,
//! `visit` (every scalar [`Sample`]: the exposition and the property tests
//! read it), `rebase` (series renumbering), and `update_rates`, the
//! struct's one `rates` function.
//!
//! | kind | merge | delta |
//! |---|---|---|
//! | `counter` (`u64`) | adds | subtracts, saturating at 0 |
//! | `max` (gauge) | larger value: the worst shard | current |
//! | `hist` | [`HistogramSnapshot::merge`] | current (cumulative) |
//! | `wall` (host clock) | as `counter` / `hist` | as `counter` / `hist` |
//! | `rate` | recomputed by `rates` | recomputed by `rates` |
//! | `label` (names, row keys) | first non-default | current |
//! | `nested` | recurses | recurses |
//! | `rows` | by the declared `key`, then sorted | by key |
//! | `series` | appended, rebased | empty |
//! | `seq`, `at` | as `label` | as `label` |
//!
//! `canonicalize_wall_clock` resets `wall` fields. `series(n)` numbers the
//! appended elements after counter `n` (dropped windows keep their
//! ordinals); `rebase` sets an element's `seq` field to its ordinal and
//! moves its `at` fields by the record offset.

use crate::obs::HistogramSnapshot;

/// What a visited sample is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count: adds across shards, subtracts over an interval.
    Counter,
    /// Point-in-time value (a `max` gauge).
    Gauge,
    /// Derived ratio, recomputed from counters.
    Rate,
    /// A histogram summary figure (`count`, `p99`, ...); cumulative, so
    /// an interval delta carries the current figures.
    Histogram,
}

/// One scalar reported by a generated `visit`.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// Field names from the visited struct down to this value.
    pub path: &'a [&'static str],
    /// `label` fields of the enclosing structs, outermost first.
    pub labels: &'a [(&'static str, String)],
    /// The field's doc comment.
    pub help: &'static str,
    pub kind: Kind,
    pub value: f64,
}

/// The callback a generated `visit` reports samples to.
pub type Visitor<'v> = dyn FnMut(&Sample<'_>) + 'v;

/// `(sub-path, kind, value)` of each figure one field reports.
pub(crate) type Figures = Vec<(Option<&'static str>, Kind, f64)>;

/// Merge and interval arithmetic of `counter`, `hist` and `wall` fields.
pub(crate) trait Additive {
    fn add(&mut self, other: &Self);
    /// This cumulative value over the interval since `prev`.
    fn since(&self, prev: &Self) -> Self;
    fn figures(&self) -> Figures;
}

impl Additive for u64 {
    fn add(&mut self, other: &Self) {
        *self += other;
    }

    fn since(&self, prev: &Self) -> Self {
        self.saturating_sub(*prev)
    }

    fn figures(&self) -> Figures {
        vec![(None, Kind::Counter, *self as f64)]
    }
}

impl Additive for HistogramSnapshot {
    fn add(&mut self, other: &Self) {
        self.merge(other);
    }

    /// Histogram summaries stay cumulative: percentiles do not subtract.
    fn since(&self, _prev: &Self) -> Self {
        self.clone()
    }

    fn figures(&self) -> Figures {
        [
            ("count", self.count as f64),
            ("min", self.min as f64),
            ("max", self.max as f64),
            ("mean", self.mean),
            ("p50", self.p50 as f64),
            ("p90", self.p90 as f64),
            ("p99", self.p99 as f64),
        ]
        .into_iter()
        .map(|(name, v)| (Some(name), Kind::Histogram, v))
        .collect()
    }
}

/// Reports the `figures` of field `name` to `f`.
pub(crate) fn emit(
    path: &mut Vec<&'static str>,
    labels: &[(&'static str, String)],
    f: &mut Visitor<'_>,
    (name, help): (&'static str, &'static str),
    figures: Figures,
) {
    path.push(name);
    for (sub, kind, value) in figures {
        path.extend(sub);
        f(&Sample {
            path,
            labels,
            help,
            kind,
            value,
        });
        if sub.is_some() {
            path.pop();
        }
    }
    path.pop();
}

/// A keyed row of a `rows` field: shards merge rows with equal keys, and
/// the merged list is sorted by key so shard order cannot leak into it.
pub(crate) trait Row {
    type Key: Ord;
    fn key(&self) -> Self::Key;
}

pub(crate) fn merge_rows<R: Row + Clone>(
    mine: &mut Vec<R>,
    theirs: &[R],
    merge: impl Fn(&mut R, &R),
) {
    for t in theirs {
        match mine.iter_mut().find(|m| m.key() == t.key()) {
            Some(m) => merge(m, t),
            None => mine.push(t.clone()),
        }
    }
    mine.sort_by_key(R::key);
}

/// Row-wise delta; a row absent from `prev` counts from zero.
pub(crate) fn delta_rows<R: Row + Default>(
    cur: &[R],
    prev: &[R],
    delta: impl Fn(&R, &R) -> R,
) -> Vec<R> {
    let zero = R::default();
    let prev_of = |c: &R| prev.iter().find(|p| p.key() == c.key()).unwrap_or(&zero);
    cur.iter().map(|c| delta(c, prev_of(c))).collect()
}

pub(crate) fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// `num / den`, or 0 when `den` is 0: every derived rate stays finite.
#[inline]
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Declares snapshot structs: field kinds as in the module docs, then an
/// optional `rates |s| { .. }` block, the struct's one `rates` function,
/// and for a row type its `key |r| -> K { .. }`. The declarations in
/// `obs.rs` are the worked examples.
macro_rules! metrics {
    ($(
        $(#[$m:meta])*
        pub struct $S:ident {
            $( $(#[doc = $doc:literal])* $kind:ident $(($arg:ident))? $f:ident : $t:ty ),* $(,)?
        }
        $(rates |$r:ident| $rates:block)?
        $(key |$k:ident| -> $kt:ty $kb:block)?
    )*) => {$(
        $(#[$m])*
        pub struct $S {
            $( $(#[doc = $doc])* pub $f: $t, )*
        }

        impl $S {
            /// Folds `other` (the next shard, in fixed shard order) into
            /// `self` as the field kinds say; series elements land after
            /// `self`'s, their record clock moved by `record_offset`.
            pub fn merge_at(&mut self, other: &$S, record_offset: u64) {
                let _ = record_offset;
                $( metrics!(@merge $kind $(($arg))?; self, other, record_offset, $f); )*
                self.update_rates();
            }

            /// The interval from cumulative `prev` to cumulative `self`.
            pub fn delta(&self, prev: &$S) -> $S {
                let _ = prev;
                let mut d = $S { $( $f: metrics!(@delta $kind; self, prev, $f), )* };
                d.update_rates();
                d
            }

            /// Zeroes every host wall-clock field, the one thing a
            /// deterministic replay cannot reproduce.
            pub fn canonicalize_wall_clock(&mut self) {
                $( metrics!(@wall $kind; self, $f); )*
                self.update_rates();
            }

            /// Calls `f` with every scalar sample, in declaration order.
            pub fn visit(&self, f: &mut $crate::metric::Visitor<'_>) {
                self.visit_at(&mut Vec::new(), &mut Vec::new(), f);
            }

            #[doc(hidden)]
            pub fn visit_at(
                &self,
                path: &mut Vec<&'static str>,
                labels: &mut Vec<(&'static str, String)>,
                f: &mut $crate::metric::Visitor<'_>,
            ) {
                let mark = labels.len();
                $( metrics!(@visit $kind; self, path, labels, f, $f, concat!($($doc),*)); )*
                labels.truncate(mark);
            }

            /// Renumbers a series element: `seq` fields become `seq`, `at`
            /// fields move by `record_offset`.
            pub fn rebase(&mut self, seq: u64, record_offset: u64) {
                let _ = (seq, record_offset);
                $( metrics!(@rebase $kind; self, seq, record_offset, $f); )*
            }

            /// Recomputes every `rate` field from the counters.
            pub fn update_rates(&mut self) {
                $( let $r = &mut *self; $rates )?
            }
        }

        $(impl $crate::metric::Row for $S {
            type Key = $kt;
            fn key(&self) -> $kt {
                let $k = self;
                $kb
            }
        })?
    )*};

    (@merge hist; $($x:tt)*) => { metrics!(@merge counter; $($x)*) };
    (@merge wall; $($x:tt)*) => { metrics!(@merge counter; $($x)*) };
    (@merge counter; $s:ident, $o:ident, $off:ident, $f:ident) => { $crate::metric::Additive::add(&mut $s.$f, &$o.$f) };
    (@merge max; $s:ident, $o:ident, $off:ident, $f:ident) => { if $o.$f > $s.$f { $s.$f = $o.$f; } };
    (@merge rate; $($x:tt)*) => {};
    (@merge nested; $s:ident, $o:ident, $off:ident, $f:ident) => { $s.$f.merge_at(&$o.$f, $off) };
    (@merge rows; $s:ident, $o:ident, $off:ident, $f:ident) => { $crate::metric::merge_rows(&mut $s.$f, &$o.$f, |a, b| a.merge_at(b, $off)) };
    (@merge series; $s:ident, $o:ident, $off:ident, $f:ident) => { metrics!(@append $s, $o, $off, $f, 0) };
    (@merge series($n:ident); $s:ident, $o:ident, $off:ident, $f:ident) => { metrics!(@append $s, $o, $off, $f, $s.$n) };
    // label, seq, at
    (@merge $k:ident; $s:ident, $o:ident, $off:ident, $f:ident) => { if $crate::metric::is_default(&$s.$f) { $s.$f = $o.$f.clone(); } };
    (@append $s:ident, $o:ident, $off:ident, $f:ident, $skip:expr) => {{
        let base = $s.$f.len() as u64 + $skip;
        for (i, e) in $o.$f.iter().enumerate() {
            let mut e = e.clone();
            e.rebase(base + i as u64, $off);
            $s.$f.push(e);
        }
    }};

    (@delta hist; $($x:tt)*) => { metrics!(@delta counter; $($x)*) };
    (@delta wall; $($x:tt)*) => { metrics!(@delta counter; $($x)*) };
    (@delta counter; $s:ident, $p:ident, $f:ident) => { $crate::metric::Additive::since(&$s.$f, &$p.$f) };
    (@delta nested; $s:ident, $p:ident, $f:ident) => { $s.$f.delta(&$p.$f) };
    (@delta rows; $s:ident, $p:ident, $f:ident) => { $crate::metric::delta_rows(&$s.$f, &$p.$f, |c, p| c.delta(p)) };
    (@delta series; $($x:tt)*) => { Vec::new() };
    // max, rate (recomputed afterwards), label, seq, at
    (@delta $k:ident; $s:ident, $p:ident, $f:ident) => { $s.$f.clone() };

    (@wall wall; $s:ident, $f:ident) => { $s.$f = Default::default() };
    (@wall nested; $s:ident, $f:ident) => { $s.$f.canonicalize_wall_clock() };
    (@wall rows; $s:ident, $f:ident) => { $s.$f.iter_mut().for_each(|r| r.canonicalize_wall_clock()) };
    (@wall $k:ident; $($x:tt)*) => {};

    (@visit hist; $($x:tt)*) => { metrics!(@visit counter; $($x)*) };
    (@visit wall; $($x:tt)*) => { metrics!(@visit counter; $($x)*) };
    (@visit counter; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => {
        $crate::metric::emit($p, $l, $cb, (stringify!($f), $h), $crate::metric::Additive::figures(&$s.$f))
    };
    (@visit max; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => {
        $crate::metric::emit($p, $l, $cb, (stringify!($f), $h), vec![(None, $crate::metric::Kind::Gauge, $s.$f as f64)])
    };
    (@visit rate; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => {
        $crate::metric::emit($p, $l, $cb, (stringify!($f), $h), vec![(None, $crate::metric::Kind::Rate, $s.$f)])
    };
    (@visit nested; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => {{
        $p.push(stringify!($f));
        $s.$f.visit_at($p, $l, $cb);
        $p.pop();
    }};
    (@visit rows; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => {{
        $p.push(stringify!($f));
        $s.$f.iter().for_each(|r| r.visit_at($p, $l, $cb));
        $p.pop();
    }};
    (@visit series; $($x:tt)*) => {};
    // label, seq, at
    (@visit $k:ident; $s:ident, $p:ident, $l:ident, $cb:ident, $f:ident, $h:expr) => { $l.push((stringify!($f), $s.$f.to_string())) };

    (@rebase seq; $s:ident, $seq:ident, $off:ident, $f:ident) => { $s.$f = $seq };
    (@rebase at; $s:ident, $seq:ident, $off:ident, $f:ident) => { $s.$f += $off };
    (@rebase $k:ident; $($x:tt)*) => {};
}
