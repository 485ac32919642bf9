//! Campaign orchestration: shard scheduling, checkpointing, resume.
//!
//! [`run_campaign`] expands a [`SweepSpec`] into cells, skips every cell
//! already present in the directory's results store, and drives the rest
//! through a self-scheduling worker pool: each worker steals the next
//! pending cell off a shared atomic cursor, so load balances itself no
//! matter how uneven the cell costs are (a 10k-switch cell next to a
//! 100-switch one). Because every cell's RNG seed derives from
//! `(campaign_seed, cell key)` — never from the worker or the order — the
//! rows, and therefore the aggregated summary, are bit-identical for any
//! thread count, shard interleaving, or kill/resume boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fusion_bench::figures::scale_row_with;
use fusion_bench::report::Row;
use fusion_telemetry::Registry;
use parking_lot::Mutex;

use crate::aggregate::{aggregate_rows, summary_json, GroupSummary};
use crate::spec::{Cell, SweepSpec};
use crate::store::{CampaignStore, Manifest};

/// Scheduler options for one `run_campaign` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads stealing cells (>= 1).
    pub threads: usize,
    /// Execute at most this many cells this invocation, then stop with
    /// the campaign incomplete — the checkpoint hook the kill/resume
    /// tests (and incremental driving) use.
    pub max_cells: Option<usize>,
    /// Print per-cell progress to stderr.
    pub progress: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 1,
            max_cells: None,
            progress: false,
        }
    }
}

/// What one `run_campaign` invocation did.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Cells in the expanded grid.
    pub total_cells: usize,
    /// Cells skipped because a previous invocation completed them.
    pub resumed_cells: usize,
    /// Cells executed by this invocation.
    pub executed_cells: usize,
    /// `true` once every cell has a row.
    pub complete: bool,
    /// Corrupt / truncated lines dropped while loading the store.
    pub dropped_rows: usize,
}

/// Executes one cell into its result row. Deterministic fields come from
/// the cell's derived seed; wall-clock fields (`*_ms`, `over_budget`) are
/// informational and excluded from aggregation. Each cell gets a fresh
/// enabled telemetry registry, so the `m_<counter>` metric columns are a
/// pure function of that cell's work — independent of which worker ran
/// it, of `--threads`, and of kill/resume boundaries.
fn execute_cell(cell: &Cell, budget_seconds: Option<f64>) -> Row {
    let start = Instant::now();
    let registry = Registry::enabled();
    let measured = scale_row_with(&cell.config, &cell.preset, cell.algorithm, 0, &registry);
    let wall = start.elapsed().as_secs_f64();
    let mut row = Row::new();
    #[allow(clippy::cast_possible_wrap)]
    row.push_str("cell", cell.key())
        .push_int("seed_index", cell.seed_index as i64);
    for (key, value) in measured.fields() {
        row.push(key, value.clone());
    }
    row.push_num("wall_ms", wall * 1e3);
    row.push_bool("over_budget", budget_seconds.is_some_and(|b| wall > b));
    row
}

/// Runs (or resumes) a sweep campaign in `dir`.
///
/// # Errors
///
/// Returns a description when the directory belongs to a different spec,
/// or on filesystem errors. Worker panics propagate.
pub fn run_campaign(
    spec: &SweepSpec,
    dir: &std::path::Path,
    opts: &RunOptions,
) -> Result<CampaignOutcome, String> {
    assert!(opts.threads >= 1, "need at least one worker thread");
    spec.validate()?;
    let store = CampaignStore::open(dir).map_err(|e| format!("opening {dir:?}: {e}"))?;

    // A campaign directory is married to one spec: refuse to mix rows.
    if let Some(manifest) = store.load_manifest()? {
        if manifest.spec_fingerprint != spec.fingerprint() {
            return Err(format!(
                "directory {dir:?} holds campaign {:?} with a different spec \
                 (fingerprint {:#x} != {:#x}); aggregate it elsewhere or start with --fresh",
                manifest.name,
                manifest.spec_fingerprint,
                spec.fingerprint()
            ));
        }
    }

    let cells = spec.cells();
    let loaded = store
        .load_rows()
        .map_err(|e| format!("loading rows: {e}"))?;
    let completed = loaded.completed_cells();
    let mut pending: Vec<&Cell> = cells
        .iter()
        .filter(|c| !completed.contains(&c.key()))
        .collect();
    let resumed_cells = cells.len() - pending.len();
    if let Some(limit) = opts.max_cells {
        pending.truncate(limit);
    }

    let manifest = |completed_cells: usize| Manifest {
        name: spec.name.clone(),
        spec_fingerprint: spec.fingerprint(),
        campaign_seed: spec.campaign_seed,
        total_cells: cells.len(),
        completed_cells,
        done: completed_cells == cells.len(),
    };
    store
        .write_manifest(&manifest(resumed_cells))
        .map_err(|e| format!("writing manifest: {e}"))?;

    // Self-scheduling shard pool: workers steal the next pending cell off
    // a shared cursor until the queue drains.
    let next = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let shared_store = Mutex::new(store);
    let io_error: Mutex<Option<String>> = Mutex::new(None);
    let total = cells.len();
    // Resume correctness comes from rows.jsonl alone; the manifest is
    // advisory progress, so refresh it at most once a second instead of
    // paying a temp-write + fsync + rename per cell under the store lock.
    let last_manifest = Mutex::new(Instant::now());
    crossbeam::scope(|scope| {
        for _ in 0..opts.threads.min(pending.len().max(1)) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = pending.get(i) else {
                    break;
                };
                let row = execute_cell(cell, spec.max_cell_seconds);
                let over_budget = matches!(
                    row.get("over_budget"),
                    Some(fusion_bench::report::Value::Bool(true))
                );
                let mut guard = shared_store.lock();
                if let Err(e) = guard.append_row(&row) {
                    *io_error.lock() = Some(format!("appending row for {}: {e}", cell.key()));
                    break;
                }
                let done_now = resumed_cells + executed.fetch_add(1, Ordering::Relaxed) + 1;
                {
                    let mut last = last_manifest.lock();
                    if last.elapsed().as_secs() >= 1 {
                        let _ = guard.write_manifest(&manifest(done_now));
                        *last = Instant::now();
                    }
                }
                drop(guard);
                if over_budget {
                    eprintln!(
                        "warning: cell {} exceeded max_cell_seconds = {:?}",
                        cell.key(),
                        spec.max_cell_seconds
                    );
                }
                if opts.progress {
                    eprintln!(
                        "[{done_now}/{total}] {}  rate={:.4}  {:.0} ms",
                        cell.key(),
                        row.num_field("rate").unwrap_or(0.0),
                        row.num_field("wall_ms").unwrap_or(0.0),
                    );
                }
            });
        }
    })
    .expect("sweep workers must not panic");

    if let Some(e) = io_error.into_inner() {
        return Err(e);
    }
    let executed_cells = executed.into_inner();
    let completed_total = resumed_cells + executed_cells;
    let store = shared_store.into_inner();
    store
        .write_manifest(&manifest(completed_total))
        .map_err(|e| format!("writing manifest: {e}"))?;

    Ok(CampaignOutcome {
        total_cells: total,
        resumed_cells,
        executed_cells,
        complete: completed_total == total,
        dropped_rows: loaded.dropped,
    })
}

/// Aggregates a campaign directory's rows into summaries, writes
/// `summary.json` atomically, and returns the summaries.
///
/// # Errors
///
/// Returns a description on filesystem errors.
pub fn aggregate_campaign(dir: &std::path::Path) -> Result<Vec<GroupSummary>, String> {
    let store = CampaignStore::open(dir).map_err(|e| format!("opening {dir:?}: {e}"))?;
    let loaded = store
        .load_rows()
        .map_err(|e| format!("loading rows: {e}"))?;
    let summaries = aggregate_rows(&loaded.rows);
    let text = summary_json(&summaries);
    let tmp = dir.join("summary.json.tmp");
    // Same temp + sync + rename discipline as the manifest: without the
    // sync, a crash after the rename can leave a truncated summary.
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp).map_err(|e| format!("writing summary: {e}"))?;
        file.write_all(text.as_bytes())
            .map_err(|e| format!("writing summary: {e}"))?;
        file.sync_data()
            .map_err(|e| format!("syncing summary: {e}"))?;
    }
    std::fs::rename(&tmp, store.summary_path()).map_err(|e| format!("renaming summary: {e}"))?;
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fusion-runner-campaign-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".to_string(),
            campaign_seed: 5,
            presets: vec!["quick".to_string()],
            seeds: 2,
            loads: vec![3],
            algorithms: vec!["ALG-N-FUSION".to_string()],
            mc_rounds: Some(40),
            ..SweepSpec::default()
        }
    }

    #[test]
    fn campaign_runs_resumes_and_aggregates() {
        let dir = tmp_dir("run");
        let spec = tiny_spec();
        let out = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(out.total_cells, 2);
        assert_eq!(out.executed_cells, 2);
        assert!(out.complete);

        // Re-running skips everything.
        let again = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(again.resumed_cells, 2);
        assert_eq!(again.executed_cells, 0);
        assert!(again.complete);

        let summaries = aggregate_campaign(&dir).unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].seeds, 2);
        assert!(summaries[0].mean_rate > 0.0);
        assert!(dir.join("summary.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_spec_is_refused() {
        let dir = tmp_dir("mismatch");
        let spec = tiny_spec();
        run_campaign(
            &spec,
            &dir,
            &RunOptions {
                max_cells: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let mut other = spec;
        other.seeds = 3;
        let err = run_campaign(&other, &dir, &RunOptions::default()).unwrap_err();
        assert!(err.contains("different spec"), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_cells_checkpoints_partial_campaigns() {
        let dir = tmp_dir("partial");
        let spec = tiny_spec();
        let first = run_campaign(
            &spec,
            &dir,
            &RunOptions {
                max_cells: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(first.executed_cells, 1);
        assert!(!first.complete);
        let store = CampaignStore::open(&dir).unwrap();
        let manifest = store.load_manifest().unwrap().unwrap();
        assert_eq!(manifest.completed_cells, 1);
        assert!(!manifest.done);

        let second = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
        assert_eq!(second.resumed_cells, 1);
        assert_eq!(second.executed_cells, 1);
        assert!(second.complete);
        let manifest = store.load_manifest().unwrap().unwrap();
        assert!(manifest.done);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
