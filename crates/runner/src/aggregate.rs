//! Streaming aggregation of result rows into per-configuration summaries.
//!
//! Rows (from a sweep campaign's JSONL store or from `figures scale`
//! output — same schema) are grouped by `(preset, switches, load,
//! algorithm)` and their `rate` metric is folded through a
//! [`Welford`] accumulator into a mean with a 95% confidence interval.
//!
//! Aggregation is deterministic byte-for-byte: rows are sorted into a
//! canonical order before folding (float addition is not associative), so
//! the summary of a campaign is identical no matter how many worker
//! threads produced the rows, in what order the shards finished, or how
//! often the campaign was interrupted and resumed.

use std::fmt::Write as _;

use fusion_bench::report::{Row, Welford};

/// Aggregated statistics of one `(preset, switches, load, algorithm)`
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Preset label.
    pub preset: String,
    /// Configured switch count.
    pub switches: i64,
    /// Demand load (`num_user_pairs`).
    pub load: i64,
    /// Algorithm display name.
    pub algorithm: String,
    /// Seeds folded (rows in the group).
    pub seeds: u64,
    /// Mean entanglement rate across seeds.
    pub mean_rate: f64,
    /// Unbiased sample standard deviation across seeds.
    pub stddev: f64,
    /// Half-width of the ~95% confidence interval of the mean.
    pub ci95: f64,
    /// Mean of each telemetry metric column (`m_<counter>`) across the
    /// rows that carry it, sorted by column name. Empty for campaigns
    /// recorded before the telemetry layer (or with it disabled), which
    /// keeps their summaries byte-identical to what they were.
    pub metrics: Vec<(String, f64)>,
}

impl GroupSummary {
    /// Serializes the summary as one flat JSON object.
    #[must_use]
    pub fn to_row(&self) -> Row {
        let mut row = Row::new();
        #[allow(clippy::cast_possible_wrap)]
        row.push_str("preset", self.preset.clone())
            .push_int("switches", self.switches)
            .push_int("load", self.load)
            .push_str("algorithm", self.algorithm.clone())
            .push_int("seeds", self.seeds as i64)
            .push_num("mean_rate", self.mean_rate)
            .push_num("stddev", self.stddev)
            .push_num("ci95", self.ci95);
        // Metric columns come last, after the pinned base schema, in
        // sorted-name order (`summary_schema_is_pinned` enforces this).
        for (name, mean) in &self.metrics {
            row.push_num(&format!("mean_{name}"), *mean);
        }
        row
    }
}

/// The canonical sort key of a result row: group identity first, then the
/// seed axis so the Welford fold order is reproducible.
fn sort_key(row: &Row) -> (String, i64, i64, String, i64, i64) {
    (
        row.str_field("preset").unwrap_or("").to_string(),
        row.int_field("switches").unwrap_or(-1),
        row.int_field("load").unwrap_or(-1),
        row.str_field("algorithm").unwrap_or("").to_string(),
        row.int_field("seed_index").unwrap_or(i64::MAX),
        row.int_field("seed").unwrap_or(i64::MAX),
    )
}

/// Folds rows into per-configuration summaries, sorted by
/// `(preset, switches, load, algorithm)`. Rows without a `rate` field are
/// ignored.
#[must_use]
pub fn aggregate_rows(rows: &[Row]) -> Vec<GroupSummary> {
    // Dedup by cell key (first occurrence wins): two concurrent runs of
    // the same campaign, or a manually concatenated rows file, must not
    // double-count a cell and shrink the reported CI. Rows without a
    // `cell` field (e.g. `figures scale` output) are kept as-is.
    let mut seen_cells = std::collections::HashSet::new();
    let mut sorted: Vec<&Row> = rows
        .iter()
        .filter(|r| r.num_field("rate").is_some())
        .filter(|r| match r.str_field("cell") {
            Some(cell) => seen_cells.insert(cell.to_string()),
            None => true,
        })
        .collect();
    // Cached: the key clones two Strings, so build it once per row
    // rather than per comparison.
    sorted.sort_by_cached_key(|r| sort_key(r));

    let mut groups: Vec<GroupSummary> = Vec::new();
    let mut acc = Welford::new();
    let mut metric_acc: std::collections::BTreeMap<String, Welford> =
        std::collections::BTreeMap::new();
    for row in sorted {
        let preset = row.str_field("preset").unwrap_or("").to_string();
        let switches = row.int_field("switches").unwrap_or(-1);
        let load = row.int_field("load").unwrap_or(-1);
        let algorithm = row.str_field("algorithm").unwrap_or("").to_string();
        let same_group = groups.last().is_some_and(|g| {
            g.preset == preset
                && g.switches == switches
                && g.load == load
                && g.algorithm == algorithm
        });
        if !same_group {
            acc = Welford::new();
            metric_acc.clear();
            groups.push(GroupSummary {
                preset,
                switches,
                load,
                algorithm,
                seeds: 0,
                mean_rate: 0.0,
                stddev: 0.0,
                ci95: 0.0,
                metrics: Vec::new(),
            });
        }
        acc.push(row.num_field("rate").expect("filtered above"));
        // Telemetry columns fold through their own per-metric Welford
        // streams, in the same canonical row order as `rate` (the means
        // are exact over integers anyway, but the discipline keeps the
        // serialization byte-stable if histogram-derived floats appear).
        for (key, _) in row.fields() {
            if !key.starts_with("m_") {
                continue;
            }
            if let Some(value) = row.num_field(key) {
                metric_acc.entry(key.clone()).or_default().push(value);
            }
        }
        let group = groups.last_mut().expect("pushed above");
        group.seeds = acc.count();
        group.mean_rate = acc.mean();
        group.stddev = acc.stddev();
        group.ci95 = acc.ci95_half();
        group.metrics = metric_acc
            .iter()
            .map(|(name, w)| (name.clone(), w.mean()))
            .collect();
    }
    groups
}

/// Serializes summaries as a deterministic JSON array (one flat object
/// per line), the artifact the byte-identity guarantees apply to.
#[must_use]
pub fn summary_json(summaries: &[GroupSummary]) -> String {
    let mut out = String::from("[\n");
    for (i, summary) in summaries.iter().enumerate() {
        out.push_str(&summary.to_row().to_json());
        if i + 1 < summaries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Parses the array written by [`summary_json`] back into summaries.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_summary_json(text: &str) -> Result<Vec<GroupSummary>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("expected a JSON array")?;
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let row = Row::parse_json(line)?;
        let metrics = row
            .fields()
            .iter()
            .filter_map(|(key, _)| {
                let name = key.strip_prefix("mean_m_")?;
                Some((format!("m_{name}"), row.num_field(key)?))
            })
            .collect();
        out.push(GroupSummary {
            preset: row.str_field("preset").unwrap_or("").to_string(),
            switches: row.int_field("switches").unwrap_or(-1),
            load: row.int_field("load").unwrap_or(-1),
            algorithm: row.str_field("algorithm").unwrap_or("").to_string(),
            #[allow(clippy::cast_sign_loss)]
            seeds: row.int_field("seeds").unwrap_or(0).max(0) as u64,
            mean_rate: row.num_field("mean_rate").unwrap_or(0.0),
            stddev: row.num_field("stddev").unwrap_or(0.0),
            ci95: row.num_field("ci95").unwrap_or(0.0),
            metrics,
        });
    }
    Ok(out)
}

/// Renders the summaries as an aligned text table — the Fig. 9b extension
/// view: entanglement rate (mean ± 95% CI over seeds) per switch count,
/// load, and algorithm.
#[must_use]
pub fn render_table(title: &str, summaries: &[GroupSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title} — mean entanglement rate ± 95% CI");
    let _ = writeln!(
        out,
        "{:<16}{:>9}{:>7}  {:<14}{:>6}{:>12}{:>12}",
        "preset", "switches", "load", "algorithm", "seeds", "mean", "±ci95"
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "{:<16}{:>9}{:>7}  {:<14}{:>6}{:>12.4}{:>12.4}",
            s.preset, s.switches, s.load, s.algorithm, s.seeds, s.mean_rate, s.ci95
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_row(preset: &str, switches: i64, algo: &str, seed_index: i64, rate: f64) -> Row {
        let mut row = Row::new();
        row.push_str("cell", format!("{preset}/load5/{algo}/seed{seed_index}"))
            .push_str("preset", preset)
            .push_int("switches", switches)
            .push_int("load", 5)
            .push_str("algorithm", algo)
            .push_int("seed_index", seed_index)
            .push_num("rate", rate)
            .push_num("wall_ms", rate * 17.0); // non-deterministic field, ignored
        row
    }

    #[test]
    fn groups_fold_in_canonical_order_regardless_of_row_order() {
        let mut rows = vec![
            result_row("a", 100, "ALG-N-FUSION", 0, 1.0),
            result_row("a", 100, "ALG-N-FUSION", 1, 2.0),
            result_row("a", 100, "ALG-N-FUSION", 2, 4.0),
            result_row("b", 200, "Q-CAST-N", 0, 3.0),
            result_row("b", 200, "Q-CAST-N", 1, 5.0),
        ];
        let forward = aggregate_rows(&rows);
        rows.reverse();
        let backward = aggregate_rows(&rows);
        assert_eq!(forward, backward, "aggregation must sort before folding");
        assert_eq!(
            summary_json(&forward),
            summary_json(&backward),
            "serialized summaries must be byte-identical"
        );
        assert_eq!(forward.len(), 2);
        let a = &forward[0];
        assert_eq!((a.preset.as_str(), a.seeds), ("a", 3));
        assert!((a.mean_rate - 7.0 / 3.0).abs() < 1e-12);
        let b = &forward[1];
        assert_eq!((b.algorithm.as_str(), b.seeds), ("Q-CAST-N", 2));
        assert_eq!(b.mean_rate, 4.0);
        assert!((b.stddev - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn summary_json_round_trips() {
        let rows = vec![
            result_row("a", 100, "ALG-N-FUSION", 0, 1.5),
            result_row("a", 100, "ALG-N-FUSION", 1, 2.5),
        ];
        let summaries = aggregate_rows(&rows);
        let text = summary_json(&summaries);
        assert_eq!(parse_summary_json(&text).unwrap(), summaries);
    }

    #[test]
    fn duplicate_cell_rows_count_once() {
        // Two concurrent runs of one campaign can append every cell
        // twice; the duplicates must not inflate the seed count (and
        // thereby shrink the CI).
        let rows = vec![
            result_row("a", 100, "ALG-N-FUSION", 0, 1.0),
            result_row("a", 100, "ALG-N-FUSION", 1, 2.0),
            result_row("a", 100, "ALG-N-FUSION", 0, 1.0),
            result_row("a", 100, "ALG-N-FUSION", 1, 2.0),
        ];
        let summaries = aggregate_rows(&rows);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].seeds, 2, "duplicates must collapse");
        assert_eq!(summaries[0].mean_rate, 1.5);
    }

    #[test]
    fn rows_without_rate_are_ignored() {
        let mut bad = Row::new();
        bad.push_str("preset", "a");
        let rows = vec![bad, result_row("a", 100, "ALG-N-FUSION", 0, 2.0)];
        let summaries = aggregate_rows(&rows);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].seeds, 1);
    }

    #[test]
    fn metric_columns_aggregate_to_means() {
        let mut r0 = result_row("a", 100, "ALG-N-FUSION", 0, 1.0);
        r0.push_int("m_alg2.search.pops", 10)
            .push_int("m_mc.rounds", 400);
        let mut r1 = result_row("a", 100, "ALG-N-FUSION", 1, 2.0);
        r1.push_int("m_alg2.search.pops", 30)
            .push_int("m_mc.rounds", 400);
        let summaries = aggregate_rows(&[r0, r1]);
        assert_eq!(summaries.len(), 1);
        assert_eq!(
            summaries[0].metrics,
            vec![
                ("m_alg2.search.pops".to_string(), 20.0),
                ("m_mc.rounds".to_string(), 400.0),
            ]
        );
        let text = summary_json(&summaries);
        assert!(text.contains("\"mean_m_alg2.search.pops\""));
        assert_eq!(parse_summary_json(&text).unwrap(), summaries);
    }

    #[test]
    fn summary_schema_is_pinned() {
        // The serialized column order is part of the summary.json
        // contract: the base statistics columns in this exact order,
        // then every telemetry metric column (`mean_m_<counter>`)
        // strictly after them in sorted-name order. A new metric column
        // must extend the tail, never reorder the base schema.
        let mut row = result_row("a", 100, "ALG-N-FUSION", 0, 1.0);
        row.push_int("m_zz.last", 1).push_int("m_aa.first", 2);
        let summaries = aggregate_rows(&[row]);
        let keys: Vec<String> = summaries[0]
            .to_row()
            .fields()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            vec![
                "preset",
                "switches",
                "load",
                "algorithm",
                "seeds",
                "mean_rate",
                "stddev",
                "ci95",
                "mean_m_aa.first",
                "mean_m_zz.last",
            ]
        );
    }

    #[test]
    fn repair_counters_ride_the_metric_contract() {
        // Any registry counter, plain or a histogram's `/count` cell,
        // surfaces in sweeps through the generic `m_<counter>` mechanism:
        // it folds to its mean across seeds and keeps its exact column
        // name in summary.json (`mean_m_<counter>`, sorted tail of the
        // schema). The names are a neutral layer's, shaped like the
        // repair counters this test first pinned.
        const COUNTERS: [&str; 3] = [
            "m_layer.damaged",
            "m_layer.repairs",
            "m_layer.repair_depth/count",
        ];
        let mut r0 = result_row("a", 100, "ALG-N-FUSION", 0, 1.0);
        let mut r1 = result_row("a", 100, "ALG-N-FUSION", 1, 3.0);
        for (i, name) in COUNTERS.iter().enumerate() {
            r0.push_int(name, 2 * i as i64);
            r1.push_int(name, 4 * i as i64);
        }
        let summaries = aggregate_rows(&[r0, r1]);
        assert_eq!(summaries.len(), 1);
        for (i, name) in COUNTERS.iter().enumerate() {
            let mean = summaries[0]
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v);
            assert_eq!(mean, Some(3.0 * i as f64), "{name} must fold to its mean");
        }
        let text = summary_json(&summaries);
        for name in COUNTERS {
            assert!(
                text.contains(&format!("\"mean_{name}\"")),
                "{name} missing from summary.json"
            );
        }
        assert_eq!(parse_summary_json(&text).unwrap(), summaries);
    }

    #[test]
    fn table_renders_every_group() {
        let rows = vec![
            result_row("a", 100, "ALG-N-FUSION", 0, 1.0),
            result_row("b", 200, "Q-CAST-N", 0, 2.0),
        ];
        let table = render_table("sweep", &aggregate_rows(&rows));
        assert!(table.contains("preset"));
        assert!(table.contains("±ci95"));
        assert!(table.lines().count() >= 4);
        assert!(table.contains("Q-CAST-N"));
    }
}
