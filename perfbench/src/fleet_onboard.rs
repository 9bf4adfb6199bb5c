//! `fleet-onboard`: one operation onboards one fleet building (spec →
//! sim → fit → CSV → ingest → replay → bulkhead). A fleet of
//! [`FLEET`] buildings is onboarded in rounds, in batches through
//! `thermal_par::parallel_map_with` on [`WORKERS`] workers, each worker
//! a closed loop: it takes the next building when the previous one is
//! done.
//!
//! Why: the simulator does nearly all the work here, so simulator and
//! fleet-parallelism changes show on this workload, while the Gram
//! cache never hits (every building has its own namespace) and the
//! stream hot path is a small share.

use std::time::Instant;

use thermal_sysid::CacheStats;

use crate::onboard::{fleet_shard_policy, onboard, Res};
use crate::report::{Args, Report};
use crate::stats::Best;
use crate::trace::{TraceAgg, Tracer};

/// Campaign days per building.
const DAYS: usize = 1;
/// Buildings the timed run onboards each round: enough for the 90th
/// percentile to have ten beyond it, and for the mix of building sizes
/// to vary little from seed to seed.
const FLEET: u32 = 128;
/// Onboarding workers, one per core of the target machine.
const WORKERS: usize = 2;
/// Buildings per `parallel_map_with` call: two per worker. A short
/// batch is a short timing window, which is what lets the best of the
/// rounds find a quiet moment on a shared machine.
const BATCH: u32 = 4;
/// Buildings of the fixed traced unit (repeated untraced, traced, and
/// on one worker with multi-threaded library calls).
const TRACE_BUILDINGS: u32 = 32;

/// What one onboarding produced, compared across repeated runs.
#[derive(Debug, Clone, PartialEq)]
struct Onboarded {
    digest: u64,
    clusters: usize,
    expected_clusters: usize,
    cache: CacheStats,
    parse_rows: u64,
    slots: usize,
}

struct OpOut {
    ns: u64,
    result: Res<Onboarded>,
    agg: TraceAgg,
}

fn op(traced: bool, fleet_seed: u64, id: u32) -> OpOut {
    let mut t = Tracer::new(traced);
    let start = Instant::now();
    let result = t.span("op", |t| {
        let b = onboard(t, fleet_seed, id, DAYS)?;
        let shard = t.call("fleet.shard_new", || {
            b.shard(b.service.clone(), fleet_shard_policy())
        })?;
        Ok(Onboarded {
            digest: b.digest(),
            clusters: b.model.clustering().k(),
            expected_clusters: b.spec.cluster_count,
            cache: b.cache,
            parse_rows: b.parse_rows,
            slots: shard.slots(),
        })
    });
    OpOut {
        ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        result,
        agg: t.agg,
    }
}

/// Runs buildings `ids` as one parallel batch; returns the outputs and
/// the batch's wall time in ns.
fn batch(workers: usize, traced: bool, fleet_seed: u64, ids: &[u32]) -> (Vec<OpOut>, u64) {
    let start = Instant::now();
    let outs = thermal_par::parallel_map_with(workers, ids, |&id| op(traced, fleet_seed, id));
    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (outs, wall)
}

/// Counts an operation, failing it on an error or a wrong cluster count.
fn check(report: &mut Report, id: u32, out: &OpOut) -> Option<Onboarded> {
    report.attempted += 1;
    match &out.result {
        Err(e) => report.fail(format!("building {id}: {e}")),
        Ok(o) if o.clusters != o.expected_clusters => report.fail(format!(
            "building {id}: fitted {} clusters, spec asks {}",
            o.clusters, o.expected_clusters
        )),
        Ok(o) => return Some(o.clone()),
    }
    None
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Res<()> {
    let seed = args.seed;
    // Set-up: let lazy initialisation and the allocator settle on one
    // batch of buildings that is the same for every seed, so set-up time
    // does not vary with the buildings drawn.
    let warm_up: Vec<u32> = (0..BATCH).collect();
    report.setup(|| {
        batch(WORKERS, false, 0, &warm_up)
            .0
            .into_iter()
            .try_for_each(|out| out.result.map(|_| ()))
    })?;
    if args.trace {
        return traced(seed, report);
    }
    let mut ops = Best::new(FLEET as usize);
    let mut batches = Best::new((FLEET / BATCH) as usize);
    let mut first: Vec<Option<Onboarded>> = vec![None; FLEET as usize];
    let mut wall = 0_u64;
    while (wall as f64) < args.seconds * 1e9 || ops.rounds() < 2 {
        for j in 0..FLEET / BATCH {
            let ids: Vec<u32> = (j * BATCH..(j + 1) * BATCH).collect();
            let (outs, ns) = batch(WORKERS, false, seed, &ids);
            wall += ns;
            batches.record(j as usize, ns);
            for (&id, out) in ids.iter().zip(&outs) {
                let i = id as usize;
                ops.record(i, out.ns);
                let got = check(report, id, out);
                match &first[i] {
                    None => first[i] = got,
                    Some(seen) if got.as_ref() != Some(seen) => {
                        report.fail(format!("building {id} differs from its first round"));
                    }
                    Some(_) => {}
                }
            }
        }
        ops.end_round();
        batches.end_round();
    }
    report.best_of(&ops, &batches);
    Ok(())
}

/// The traced run: a fixed unit of buildings, untraced then traced on
/// two workers and untraced on one; all three must agree exactly.
fn traced(seed: u64, report: &mut Report) -> Res<()> {
    let ids: Vec<u32> = (0..TRACE_BUILDINGS).collect();
    let (plain, _) = batch(WORKERS, false, seed, &ids);
    let (spanned, traced_wall) = batch(WORKERS, true, seed, &ids);
    // The same buildings on one worker, with every library fan-out on
    // two threads instead of one.
    let threads = thermal_par::thread_count();
    std::env::set_var(thermal_par::THREADS_ENV, WORKERS.to_string());
    let (single, _) = batch(1, false, seed, &ids);
    std::env::set_var(thermal_par::THREADS_ENV, threads.to_string());

    let mut outputs = Vec::new();
    for run in [&plain, &spanned, &single] {
        let checked: Vec<Option<Onboarded>> = ids
            .iter()
            .zip(run)
            .map(|(id, out)| check(report, *id, out))
            .collect();
        outputs.push(checked);
    }
    report.check(
        "repeat_and_threads",
        outputs[0] == outputs[1] && outputs[0] == outputs[2],
        "onboarding outputs and counters identical untraced, traced, and on one worker at THERMAL_THREADS=2",
    );

    let mut agg = TraceAgg::default();
    let mut busy = 0_u64;
    for out in spanned {
        busy += out.ns;
        agg.merge(out.agg);
    }
    let plain_ns: u64 = plain.iter().map(|o| o.ns).sum();
    report.overhead(busy, plain_ns);
    report.coverage(&agg);
    report.set(
        "par.busy_ratio",
        busy as f64 / (WORKERS as f64 * traced_wall as f64),
    );
    report.set("sim.run_ms", agg.mean_ns("sim.run") / 1e6 / DAYS as f64);
    report.span_ms(&agg, "timeseries.to_csv_ms", "timeseries.to_csv");
    report.span_ms(&agg, "stream.parse_ms", "stream.parse");
    report.span_ms(&agg, "stream.replayer_new_ms", "stream.replayer_new");
    report.span_ms(&agg, "core.fit_ms", "core.fit");
    let built: Vec<&Onboarded> = outputs[1].iter().flatten().collect();
    let n = built.len().max(1) as f64;
    report.set(
        "stream.parse_rows",
        built.iter().map(|o| o.parse_rows as f64).sum::<f64>() / n,
    );
    let mut cache = CacheStats::default();
    for o in &built {
        cache.hits += o.cache.hits;
        cache.misses += o.cache.misses;
        cache.evictions += o.cache.evictions;
    }
    report.cache(cache);
    Ok(())
}
