//! One declarative link sweep behind the BER-vs-parameter experiments.
//!
//! SPW ran the paper's BER sweeps (filter edge, P1dB, IP3, noise
//! figure, input and interferer level) from one parameter-sweep
//! manager. [`LinkSweep`] is that manager: an experiment declares the
//! swept [`Axis`], one or more named [`Series`] and a few header
//! fields; the sweep fans the points out across the engine's pool,
//! measures every series through [`RunContext::measure`] and renders
//! the table, the snapshot and the per-point statistics.

use crate::experiments::{Experiment, PointStat, RunContext, RunOutput, SweepBounds};
use crate::link::{LinkConfig, LinkReport};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;

/// A table column of the raw parameter value: header and cell.
type Column = (&'static str, fn(f64) -> String);

/// The swept parameter.
pub(crate) struct Axis {
    /// Snapshot key of the parameter (`points[NN].<key>`).
    pub key: &'static str,
    /// Raw value → the snapshot's unit (Hz → MHz for `edge_mhz`).
    pub scale: fn(f64) -> f64,
    /// Raw value → the point label of the run manifest.
    pub label: fn(f64) -> String,
    /// Leading table columns.
    pub columns: Vec<Column>,
    /// The raw parameter values, in sweep order.
    pub values: Sweep<f64>,
}

/// A measured column beside a series' BER (fading's packet error
/// rate, the CFO estimation error).
pub(crate) struct Extra {
    /// Snapshot key (`points[NN].<key>`); `None` keeps the column in
    /// the table only.
    pub key: Option<&'static str>,
    /// Table header.
    pub header: &'static str,
    /// Table cell of the measured value.
    pub cell: fn(f64) -> String,
}

/// What one series measured at one point.
pub(crate) struct Reading {
    /// Bit error rate.
    pub ber: f64,
    /// Bits counted.
    pub bits: u64,
    /// Values of the series' [`Extra`] columns, in declaration order.
    pub extras: Vec<f64>,
}

impl Reading {
    /// The BER reading of a link run.
    pub fn of(report: &LinkReport) -> Self {
        Reading {
            ber: report.ber(),
            bits: report.meter.bits(),
            extras: Vec::new(),
        }
    }
}

/// The per-point measurement of a series: `(point index, raw axis
/// value, context) → reading`.
type PointFn<'a> = Box<dyn Fn(usize, f64, &RunContext) -> Reading + Sync + 'a>;

/// One named BER curve of a sweep.
pub(crate) struct Series<'a> {
    /// Snapshot key of the BER (`"ber"`, `"ber_adjacent"`).
    key: &'static str,
    /// Table header of the BER column.
    header: &'static str,
    /// Header of the series' bar-plot column, if it has one.
    bar: Option<&'static str>,
    /// Measured columns beside the BER.
    extras: Vec<Extra>,
    point: PointFn<'a>,
}

impl<'a> Series<'a> {
    /// A series measured by `point` directly.
    pub fn custom(
        key: &'static str,
        header: &'static str,
        bar: Option<&'static str>,
        point: impl Fn(usize, f64, &RunContext) -> Reading + Sync + 'a,
    ) -> Self {
        Series {
            key,
            header,
            bar,
            extras: Vec::new(),
            point: Box::new(point),
        }
    }

    /// A series whose point is the link run of `config(x, ctx)`,
    /// measured by [`RunContext::measure`].
    pub fn link(
        key: &'static str,
        header: &'static str,
        bar: Option<&'static str>,
        config: impl Fn(f64, &RunContext) -> LinkConfig + Sync + 'a,
    ) -> Self {
        Series::custom(key, header, bar, move |i, x, ctx| {
            Reading::of(&ctx.measure(config(x, ctx), i))
        })
    }

    /// The only series of a single-curve sweep: key `ber`, header
    /// `BER`, a `plot` bar.
    pub fn ber(config: impl Fn(f64, &RunContext) -> LinkConfig + Sync + 'a) -> Self {
        Series::link("ber", "BER", Some("plot"), config)
    }

    /// Adds a measured column (builder style).
    #[must_use]
    pub fn with_extra(mut self, extra: Extra) -> Self {
        self.extras.push(extra);
        self
    }
}

/// A declarative BER sweep of the link over one parameter.
pub(crate) struct LinkSweep<'a> {
    /// Table title.
    pub title: String,
    /// The swept parameter.
    pub axis: Axis,
    /// The curves measured at every point, in column order. Each BER
    /// cell uses its own series' bit count; the first series' count is
    /// the point's in the snapshot and the per-point statistics.
    pub series: Vec<Series<'a>>,
    /// Scalar snapshot fields after `n_points` (`rate_mbps`, …).
    pub header: Vec<(&'static str, f64)>,
    /// Width of the bar-plot columns.
    pub bar_width: usize,
}

impl LinkSweep<'_> {
    /// Runs every point on the engine's pool and renders the result.
    /// Each point's elapsed time covers all its series.
    pub fn run(&self, ctx: &RunContext) -> RunOutput {
        let rows = self
            .axis
            .values
            .run_parallel_indexed(&ctx.engine.pool, |i, &x| {
                self.series
                    .iter()
                    .map(|s| (s.point)(i, x, ctx))
                    .collect::<Vec<Reading>>()
            });
        let bers = self.series.iter().map(|s| s.header);
        let extras = self
            .series
            .iter()
            .flat_map(|s| s.extras.iter().map(|e| e.header));
        let bars = self.series.iter().filter_map(|s| s.bar);
        let axis = self.axis.columns.iter().map(|c| c.0);
        let headers: Vec<&str> = axis.chain(bers).chain(extras).chain(bars).collect();
        let mut table = Table::new(self.title.as_str(), &headers);
        let mut snapshot = vec![("n_points".to_string(), rows.len() as f64)];
        snapshot.extend(self.header.iter().map(|&(k, v)| (k.to_string(), v)));
        let mut points = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let (x, readings) = (row.param, &row.result);
            let bits = readings[0].bits;
            let field = |key: &str, v: f64| (format!("points[{i:02}].{key}"), v);
            snapshot.push(field(self.axis.key, (self.axis.scale)(x)));
            let mut cells: Vec<String> = self.axis.columns.iter().map(|c| (c.1)(x)).collect();
            let (mut extras, mut bars) = (Vec::new(), Vec::new());
            for (s, r) in self.series.iter().zip(readings) {
                snapshot.push(field(s.key, r.ber));
                cells.push(format_ber(r.ber, r.bits));
                for (e, &v) in s.extras.iter().zip(&r.extras) {
                    snapshot.extend(e.key.map(|key| field(key, v)));
                    extras.push((e.cell)(v));
                }
                bars.extend(s.bar.map(|_| bar(r.ber, 0.5, self.bar_width)));
            }
            snapshot.push(field("bits", bits as f64));
            cells.extend(extras.into_iter().chain(bars));
            table.push_row(cells);
            points.push(PointStat {
                label: (self.axis.label)(x),
                elapsed: Some(row.elapsed),
                bits: Some(bits),
            });
        }
        RunOutput {
            tables: vec![table],
            snapshot,
            points,
            ..RunOutput::default()
        }
    }
}

/// Where `wlansim run --lo` / `--hi` land in a sweep's fields, or why
/// the sweep refuses the flag (the refusal names the flag).
pub(crate) type Bound<S> = Result<fn(&mut S, f64), &'static str>;

/// `sweep` with the bounds overrides `b` applied through `lo`, `hi`
/// and the point count `points`; the shape of
/// [`Experiment::with_bounds`].
pub(crate) fn bounded<S: Experiment + 'static>(
    mut sweep: S,
    b: SweepBounds,
    lo: Bound<S>,
    hi: Bound<S>,
    points: fn(&mut S) -> &mut usize,
) -> Option<Result<Box<dyn Experiment>, String>> {
    for (value, bound) in [(b.lo, lo), (b.hi, hi)] {
        match (value, bound) {
            (None, _) => {}
            (Some(v), Ok(set)) => set(&mut sweep, v),
            (Some(_), Err(flag)) => {
                let name = sweep.name();
                return Some(Err(format!("experiment '{name}' does not support {flag}")));
            }
        }
    }
    if let Some(n) = b.points {
        *points(&mut sweep) = n;
    }
    Some(Ok(Box::new(sweep)))
}

/// The `(axis, series)` value pairs of a sweep's output, in point
/// order: the curve the domain helpers (`rejection_db`, `knee_dbm`, …)
/// search.
pub(crate) fn curve(
    out: &RunOutput,
    axis: &str,
    series: &str,
) -> impl DoubleEndedIterator<Item = (f64, f64)> {
    out.column(axis).into_iter().zip(out.column(series))
}

/// Asserts that `exp` renders the same snapshot and the same per-point
/// labels and bit counts on one worker and on `threads` workers under
/// the sharded estimator: every point's RNG streams are a pure function
/// of (seed, point, shard), so the worker count cannot move a bit.
#[cfg(test)]
pub(crate) fn assert_thread_invariant(
    exp: &dyn Experiment,
    effort: crate::experiments::Effort,
    seed: u64,
    threads: usize,
) {
    use crate::experiments::Engine;
    let on = |engine| {
        exp.run(&RunContext {
            engine,
            serial: false,
            ..RunContext::serial_reference(effort, seed)
        })
    };
    let (one, many) = (on(Engine::serial()), on(Engine::with_threads(threads)));
    assert_eq!(
        one.snapshot,
        many.snapshot,
        "{} at {threads} threads",
        exp.name()
    );
    let stats = |o: &RunOutput| {
        o.points
            .iter()
            .map(|p| (p.label.clone(), p.bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        stats(&one),
        stats(&many),
        "{} at {threads} threads",
        exp.name()
    );
}
