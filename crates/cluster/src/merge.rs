//! Scatter-gather for grid requests: partition the expanded cell list
//! by rendezvous owner, fan sub-grids out to the owning workers, and
//! merge the answers back into the single-node cell order.
//!
//! Workers receive their partition as an **explicit cell list**
//! (`{"cells": [...]}` — see `GridRequest::cells` in `mcdla-serve`),
//! because a consistent-hash slice of a cartesian grid is not itself a
//! cartesian product. Each worker answers its cells in list order, so
//! the gateway can splice results back by original index and the merged
//! buffered response is cell-for-cell identical to what one big worker
//! would have answered (modulo `cached` flags, which reflect each
//! worker's own cache).
//!
//! Routing keys are hashed once per request ([`routing_keys`]) and
//! duplicate cells are collapsed before the scatter
//! ([`canonical_indices`]): a degenerate grid or a client-sent
//! duplicate list costs one simulation per distinct cell, with the
//! gateway replaying the canonical answer at every duplicate index.

use std::collections::{BTreeSet, HashMap};

use mcdla_core::Scenario;
use serde::{Serialize, Value};

use crate::router::{GatewayError, Router};

/// Maps each grid index to the first index holding the same scenario
/// (an index maps to itself when it is the first occurrence). A
/// client-sent duplicate list or a degenerate grid then costs one
/// simulation per *distinct* cell: only canonical indices go to the
/// fleet, and the gateway replays the canonical answer for the
/// duplicates — output stays one cell per input cell, in input order.
pub(crate) fn canonical_indices(scenarios: &[Scenario]) -> Vec<usize> {
    let mut first: HashMap<&Scenario, usize> = HashMap::with_capacity(scenarios.len());
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| *first.entry(s).or_insert(i))
        .collect()
}

/// How many held-back duplicates each canonical cell has, keyed by the
/// cell's [`Scenario::digest`] (empty when the grid has no duplicates).
pub(crate) fn duplicates_by_digest(scenarios: &[Scenario], canon: &[usize]) -> HashMap<u64, usize> {
    let mut dups = HashMap::new();
    for (i, &c) in canon.iter().enumerate() {
        if c != i {
            *dups.entry(scenarios[c].digest()).or_insert(0) += 1;
        }
    }
    dups
}

/// The `digest` field (hex [`Scenario::digest`]) of one streamed cell
/// line.
pub(crate) fn line_digest(line: &str) -> Option<u64> {
    let cell = serde::json::parse(line).ok()?;
    u64::from_str_radix(cell.get("digest")?.as_str()?, 16).ok()
}

/// The routing keys for a request's cells, hashed once up front:
/// retry rounds and replica walks reuse them instead of re-hashing
/// scenarios on the failover path.
pub(crate) fn routing_keys(scenarios: &[Scenario]) -> Vec<u64> {
    scenarios.iter().map(mcdla_core::key_hash).collect()
}

/// One worker's slice of a grid: the original cell indices it owns and
/// the ready-to-send sub-grid body.
#[derive(Debug)]
pub(crate) struct Partition {
    /// Worker index in the topology.
    pub worker: usize,
    /// Original grid indices, in grid order.
    pub indices: Vec<usize>,
    /// The `{"cells": [...]}` request body for this slice.
    pub body: String,
}

/// Builds the sub-grid body for a set of cells.
fn sub_grid_body(cells: &[&Scenario]) -> String {
    serde::json::to_string(&Value::Map(vec![(
        "cells".into(),
        Value::Seq(cells.iter().map(|s| s.to_value()).collect()),
    )]))
}

/// Partitions `pending` (indices into `scenarios`) across workers by
/// rendezvous ownership, skipping `excluded` workers (already observed
/// failing for this request). Partitions come back in worker-index
/// order. Fails with 502 when every worker is excluded.
pub(crate) fn partition_pending(
    router: &Router,
    scenarios: &[Scenario],
    keys: &[u64],
    pending: &[usize],
    excluded: &BTreeSet<usize>,
) -> Result<Vec<Partition>, GatewayError> {
    if excluded.len() >= router.workers().len() {
        return Err(GatewayError::new(
            502,
            format!(
                "no reachable worker left for the grid (all {} failed)",
                router.workers().len()
            ),
        ));
    }
    let mut slices: Vec<Vec<usize>> = vec![Vec::new(); router.workers().len()];
    for &idx in pending {
        let choice = router
            .route(keys[idx])
            .into_iter()
            .find(|w| !excluded.contains(w))
            .expect("checked above that at least one worker remains");
        slices[choice].push(idx);
    }
    Ok(slices
        .into_iter()
        .enumerate()
        .filter(|(_, indices)| !indices.is_empty())
        .map(|(worker, indices)| {
            let cells: Vec<&Scenario> = indices.iter().map(|&i| &scenarios[i]).collect();
            Partition {
                worker,
                indices,
                body: sub_grid_body(&cells),
            }
        })
        .collect())
}

/// Sends one partition's buffered sub-grid and parses the cells out of
/// the worker's `{"count", "cells"}` answer.
fn fetch_partition(router: &Router, part: &Partition) -> Result<Vec<Value>, String> {
    let worker = &router.workers()[part.worker];
    let response = worker
        .pool()
        .request("POST", "/grid", Some(&part.body))
        .inspect_err(|e| worker.mark_down(e))?;
    if response.status != 200 {
        worker
            .failures
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        return Err(format!(
            "answered HTTP {} to a {}-cell sub-grid: {}",
            response.status,
            part.indices.len(),
            response.body
        ));
    }
    worker.mark_up();
    worker
        .answered
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let parsed = serde::json::parse(&response.body)
        .map_err(|e| format!("answered unparseable grid JSON: {e}"))?;
    let Value::Map(entries) = parsed else {
        return Err("answered a non-object grid body".into());
    };
    let cells = entries
        .into_iter()
        .find(|(k, _)| k == "cells")
        .map(|(_, v)| v);
    let Some(Value::Seq(cells)) = cells else {
        return Err("answered a grid body without a `cells` array".into());
    };
    if cells.len() != part.indices.len() {
        return Err(format!(
            "answered {} cells for a {}-cell sub-grid",
            cells.len(),
            part.indices.len()
        ));
    }
    Ok(cells)
}

/// Scatter-gathers a buffered grid: partitions `scenarios` by owner,
/// fetches every partition concurrently, and re-merges the cells into
/// grid order. A worker that fails is excluded and its slice re-routed
/// to the next replicas (one more round per surviving worker at most);
/// when no worker can take a slice, the whole request is a 502 naming
/// the failures.
pub(crate) fn scatter_buffered(
    router: &Router,
    scenarios: &[Scenario],
) -> Result<Vec<Value>, GatewayError> {
    let mut out: Vec<Option<Value>> = Vec::with_capacity(scenarios.len());
    out.resize_with(scenarios.len(), || None);
    let canon = canonical_indices(scenarios);
    let keys = routing_keys(scenarios);
    // Only distinct cells go to the fleet; duplicates are filled from
    // their canonical answer after the gather.
    let mut pending: Vec<usize> = (0..scenarios.len()).filter(|&i| canon[i] == i).collect();
    let mut excluded: BTreeSet<usize> = BTreeSet::new();
    let mut failures: Vec<String> = Vec::new();

    while !pending.is_empty() {
        let parts =
            partition_pending(router, scenarios, &keys, &pending, &excluded).map_err(|e| {
                if failures.is_empty() {
                    e
                } else {
                    GatewayError::new(502, format!("{}: {}", e.message, failures.join("; ")))
                }
            })?;
        let results: Vec<(Partition, Result<Vec<Value>, String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    scope.spawn(move || {
                        let result = fetch_partition(router, &part);
                        (part, result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter worker thread"))
                .collect()
        });
        let mut next_pending = Vec::new();
        // Only slices re-partitioned in an earlier round count as
        // failovers; same-round sibling failures must not taint them.
        let rerouted_round = !excluded.is_empty();
        for (part, result) in results {
            match result {
                Ok(cells) => {
                    if rerouted_round {
                        // This slice landed somewhere after at least one
                        // worker was excluded for it — count re-routes.
                        router
                            .failovers
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    for (&idx, cell) in part.indices.iter().zip(cells) {
                        out[idx] = Some(cell);
                    }
                }
                Err(e) => {
                    failures.push(format!(
                        "worker {} ({}): {e}",
                        part.worker,
                        router.workers()[part.worker].addr()
                    ));
                    excluded.insert(part.worker);
                    next_pending.extend(part.indices);
                }
            }
        }
        next_pending.sort_unstable();
        pending = next_pending;
    }

    for idx in 0..out.len() {
        if canon[idx] != idx {
            out[idx] = out[canon[idx]].clone();
        }
    }
    Ok(out
        .into_iter()
        .map(|cell| cell.expect("every grid index was filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_core::SystemDesign;
    use mcdla_dnn::Benchmark;
    use mcdla_parallel::ParallelStrategy;

    #[test]
    fn duplicates_are_found_by_the_digest_a_streamed_line_carries() {
        let a = Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        );
        let b = Scenario::new(
            SystemDesign::DcDla,
            Benchmark::GoogLeNet,
            ParallelStrategy::DataParallel,
        );
        let cells = [a, b, a, a];
        let dups = duplicates_by_digest(&cells, &canonical_indices(&cells));
        let line = |s: &Scenario| {
            serde::json::to_string(&mcdla_serve::cell_value(s, &s.simulate(), false))
        };
        assert_eq!(line_digest(&line(&a)).and_then(|d| dups.get(&d)), Some(&2));
        assert_eq!(line_digest(&line(&b)).and_then(|d| dups.get(&d)), None);
        assert_eq!(line_digest("{\"digest\":\"xyz\"}"), None);
    }
}
