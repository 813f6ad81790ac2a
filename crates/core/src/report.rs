//! Serializable experiment records: the shadow oracle's estimate-quality
//! rows, which `repro --oracle` and `repro --smoke` write to
//! `BENCH_oracle_smoke.json`, and the telemetry snapshot `repro --smoke`
//! writes to `TELEMETRY_smoke.json` and `TELEMETRY_spans_smoke.json`.
//!
//! Serialization goes through the workspace-local [`crate::json`] writer
//! (the build is offline, so there is no `serde`); every record implements
//! [`Record`] with an explicit field mapping.

use crate::json::Json;

/// A record that writes itself as a JSON object.
pub trait Record {
    /// The JSON representation.
    fn to_json_value(&self) -> Json;
}

/// One row of the shadow-oracle comparison: CHEF-FP's *estimated* error
/// for a configuration next to the error the shadow-execution oracle
/// *measured* for it (the Table I estimated-vs-actual relationship as a
/// measured artifact; produced by `chef-shadow` / `repro --oracle`).
#[derive(Clone, Debug)]
pub struct EstimateQualityRow {
    /// Kernel (benchmark) name.
    pub kernel: String,
    /// User threshold the configuration was tuned for.
    pub threshold: f64,
    /// CHEF-FP's accumulated estimate for the configuration.
    pub estimated: f64,
    /// Ground-truth output error measured by the shadow oracle.
    pub measured: f64,
    /// Number of primal-vs-shadow control-flow splits the oracle observed
    /// while measuring (see `chef_exec::shadow::DivergencePoint`). When
    /// non-zero the measurement ran along a trace the high-precision
    /// program would not have taken, and the estimated-vs-measured band
    /// is meaningless for this row.
    pub divergence_count: u64,
    /// Per-trial faults (traps, panics, non-finite measurements) the
    /// producing pipeline isolated and retried while arriving at this
    /// configuration (`chef_tuner`'s `FaultSummary::total()`). 0 for
    /// direct oracle runs and clean tunes; non-zero rows were produced
    /// under degraded conditions (or deliberate fault injection) and
    /// still completed.
    pub fault_count: u64,
}

impl EstimateQualityRow {
    /// `true` when the oracle observed at least one control-flow split —
    /// the row's `measured` value is untrusted and order-of-magnitude
    /// gates should skip (but report) it.
    pub fn diverged(&self) -> bool {
        self.divergence_count > 0
    }
    /// `measured / estimated`, with both sides floored at `1e-300` so a
    /// zero-error configuration (nothing demoted, or exactly
    /// representable inputs) reports `1.0` instead of NaN.
    pub fn ratio(&self) -> f64 {
        let floor = 1e-300;
        self.measured.abs().max(floor) / self.estimated.abs().max(floor)
    }

    /// The paper's Table I relationship: estimate and measurement agree
    /// to within an order of magnitude (with an absolute floor so two
    /// ~zero errors compare equal).
    pub fn within_order_of_magnitude(&self) -> bool {
        let floor = 1e-15;
        let (e, m) = (self.estimated.abs(), self.measured.abs());
        m <= 10.0 * e + floor && e <= 10.0 * m + floor
    }
}

impl Record for EstimateQualityRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("kernel", Json::str(&self.kernel)),
            ("threshold", Json::Num(self.threshold)),
            ("estimated", Json::Num(self.estimated)),
            ("measured", Json::Num(self.measured)),
            ("ratio", Json::Num(self.ratio())),
            ("within_10x", Json::Bool(self.within_order_of_magnitude())),
            ("divergence_count", Json::Num(self.divergence_count as f64)),
            ("diverged", Json::Bool(self.diverged())),
            ("fault_count", Json::Num(self.fault_count as f64)),
        ])
    }
}

/// Encodes the metrics of a [`chef_telemetry::TelemetrySnapshot`] as
/// JSON: counters and gauges as name→value objects, histograms as
/// name→summary objects, plus the count of dropped spans. The span
/// records themselves are [`spans_to_json`]'s: they are a per-run trace,
/// not a summary. Metric names are dynamic (registered at runtime), so
/// this builds [`Json::Obj`] maps directly instead of going through
/// [`Record`].
pub fn telemetry_to_json(snap: &chef_telemetry::TelemetrySnapshot) -> Json {
    use std::collections::BTreeMap;
    let counters: BTreeMap<String, Json> = snap
        .counters
        .iter()
        .map(|c| (c.name.clone(), Json::Num(c.value as f64)))
        .collect();
    let gauges: BTreeMap<String, Json> = snap
        .gauges
        .iter()
        .map(|g| (g.name.clone(), Json::Num(g.value)))
        .collect();
    let histograms: BTreeMap<String, Json> = snap
        .histograms
        .iter()
        .map(|h| {
            let summary = Json::obj([
                ("count", Json::Num(h.count as f64)),
                ("sum", Json::Num(h.sum as f64)),
                ("min", Json::Num(h.min as f64)),
                ("max", Json::Num(h.max as f64)),
                ("p50", Json::Num(h.p50)),
                ("p95", Json::Num(h.p95)),
                ("p99", Json::Num(h.p99)),
            ]);
            (h.name.clone(), summary)
        })
        .collect();
    Json::obj([
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
        ("spans_dropped", Json::Num(snap.spans_dropped as f64)),
    ])
}

/// Encodes the span records of a [`chef_telemetry::TelemetrySnapshot`]
/// as JSON: an array of records (`parent` is `null` for roots), plus the
/// count of spans the bounded rings dropped.
pub fn spans_to_json(snap: &chef_telemetry::TelemetrySnapshot) -> Json {
    let spans: Vec<Json> = snap
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("thread", Json::Num(s.thread as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("spans", Json::Arr(spans)),
        ("spans_dropped", Json::Num(snap.spans_dropped as f64)),
    ])
}

/// Writes any record as pretty JSON.
pub fn to_json<T: Record>(value: &T) -> String {
    value.to_json_value().to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_quality_round_trips_and_classifies() {
        let row = EstimateQualityRow {
            kernel: "arclen".into(),
            threshold: 1e-5,
            estimated: 3.1e-6,
            measured: 2.4e-6,
            divergence_count: 0,
            fault_count: 0,
        };
        assert!(row.within_order_of_magnitude());
        assert!((row.ratio() - 2.4 / 3.1).abs() < 1e-12);
        assert_eq!(
            to_json(&row),
            format!(
                r#"{{
  "diverged": false,
  "divergence_count": 0,
  "estimated": 0.0000031,
  "fault_count": 0,
  "kernel": "arclen",
  "measured": 0.0000024,
  "ratio": {},
  "threshold": 0.00001,
  "within_10x": true
}}"#,
                row.ratio()
            )
        );
        // Order-of-magnitude violations are flagged...
        let bad = EstimateQualityRow {
            measured: 1.0,
            ..row.clone()
        };
        assert!(!bad.within_order_of_magnitude());
        assert!(to_json(&bad).contains("\"within_10x\": false"));
        // ...but two ~zero errors count as agreement (nothing demoted).
        let zero = EstimateQualityRow {
            kernel: "kmeans".into(),
            threshold: 1e-6,
            estimated: 0.0,
            measured: 0.0,
            divergence_count: 0,
            fault_count: 0,
        };
        assert!(zero.within_order_of_magnitude());
        assert_eq!(zero.ratio(), 1.0);
    }

    #[test]
    fn divergence_count_round_trips_and_flags() {
        let row = EstimateQualityRow {
            kernel: "threshold".into(),
            threshold: 1e-6,
            estimated: 1e-7,
            measured: 0.5,
            divergence_count: 3,
            fault_count: 2,
        };
        assert!(row.diverged());
        let json = to_json(&row);
        assert!(json.contains("\"divergence_count\": 3,"), "{json}");
        assert!(json.contains("\"diverged\": true,"), "{json}");
        assert!(json.contains("\"fault_count\": 2,"), "{json}");
        let clean = EstimateQualityRow {
            divergence_count: 0,
            ..row
        };
        assert!(!clean.diverged());
        assert!(to_json(&clean).contains("\"diverged\": false,"));
    }
}
