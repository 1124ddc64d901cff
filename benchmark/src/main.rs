//! `simbench`: the simulator's named benchmark.
//!
//! ```text
//! simbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! simbench repro
//! ```
//!
//! `run` re-executes this binary once per rep (`simbench rep …`, one
//! single-threaded fresh process each) until `--seconds` (by default
//! `BENCHMARK.json`'s `run_seconds`) have passed, then prints every metric
//! by name and unit; the last line is one JSON object.
//! With `--trace 0` those are the end-to-end metrics: host times (CPU time
//! against a pinned co-runner, see [`pace`]) and peak memory as the median
//! rep (a line before the result gives their quartiles), simulated metrics
//! checked bit-identical across reps.
//! With `--trace 1`, every rep is traced and the metrics are the per-layer
//! medians; the first rep writes its spans (Chrome trace) and the paper
//! comparison to `--out`. `repro` runs every workload as two sets of
//! [`REPRO_RUNS`] runs, set 1 over seeds `1..=10` and set 2 over seeds
//! `11..=20`, and judges each (metric, workload) pair against the bounds in
//! `BENCHMARK.json`.

mod json;
mod metrics;
mod pace;
mod paper;
mod probe;
mod stats;
mod trace;
mod workloads;

use gaudi_exec::ExecPool;
use gaudi_serving::PlanCache;
use metrics::{Better, Timing, E2E, PER_LAYER};
use pace::Pace;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;
use trace::Recorder;
use workloads::Workload;

/// Reps an untraced run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Threads the traced rep's determinism check runs the workload on.
const CHECK_THREADS: usize = 2;
/// Runs per workload in each of `repro`'s two sets.
const REPRO_RUNS: u64 = 10;
/// The benchmark's declaration at the repository root: workloads, metric
/// names, bounds and run length.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => Args::parse(rest, &["workload", "seed", "seconds", "trace", "out"])
                .and_then(|a| run(&a)),
            "rep" => Args::parse(rest, &["workload", "seed", "trace", "out"]).and_then(|a| rep(&a)),
            "repro" => Args::parse(rest, &[]).and_then(|_| repro()),
            other => Err(format!("unknown command '{other}'")),
        },
        None => Err("missing command".into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!(
                "simbench: {msg}\nusage: simbench run --workload <{}> [--seed N] [--seconds S] \
                 [--trace 0|1] [--out DIR]\n       simbench repro",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--flag value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    /// Parse `args`, accepting only the flags in `allowed`.
    fn parse(args: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unknown argument '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.0.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))
    }

    fn number(
        &self,
        flag: &str,
        default: u64,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<u64, String> {
        match self.0.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|n| range.contains(n))
                .ok_or_else(|| format!("--{flag} expects a whole number in {range:?}, got '{v}'")),
        }
    }

    fn seed(&self, w: Workload) -> Result<u64, String> {
        self.number("seed", w.default_seed(), 0..=u64::MAX)
    }

    fn trace(&self) -> Result<bool, String> {
        Ok(self.number("trace", 0, 0..=1)? == 1)
    }

    fn out(&self) -> PathBuf {
        self.0
            .get("out")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"))
    }
}

// --- one rep, in its own process ------------------------------------------

/// One rep: set up, run, check, and print `kind name value` lines.
fn rep(a: &Args) -> Result<ExitCode, String> {
    let w = a.workload()?;
    let seed = a.seed(w)?;
    if a.trace()? {
        return traced_rep(w, seed, a.0.get("out").map(Path::new));
    }
    let pace = Pace::start()?;
    let mark = pace.mark();
    let inputs = w.setup(seed, &mut |_| ());
    let setup_s = pace.seconds(mark);
    let mark = pace.mark();
    let outcome = inputs
        .run(
            &ExecPool::serial(),
            &Arc::new(PlanCache::new()),
            &mut |_, _| (),
        )
        .map_err(|e| format!("simulation failed: {e}"))?;
    let host_s = pace.seconds(mark);
    drop(pace);
    outcome.check(&inputs)?;
    // Read before the paper experiments allocate, so the peak is the
    // workload's own.
    let peak_rss_mb = peak_rss_mb()?;
    let fidelity = paper::fidelity(&mut |_, _| ())?;
    println!("host setup_s {setup_s:?}");
    println!("host host_s {host_s:?}");
    println!("host peak_rss_mb {peak_rss_mb:?}");
    print_sim(&outcome, w, &fidelity);
    Ok(ExitCode::SUCCESS)
}

fn print_sim(outcome: &workloads::Outcome, w: Workload, fidelity: &paper::Fidelity) {
    for (name, v) in outcome.sim_metrics(w.slo()) {
        println!("sim {name} {v:?}");
    }
    println!("sim calib_err_pct {:?}", fidelity.calib_err_pct);
    println!("sim paper_err_pct {:?}", fidelity.paper_err_pct);
    println!("digest {:016x}", outcome.digest());
}

/// The traced rep, in wall time without the co-runner: an untraced cold
/// run for the tracing overhead, the untraced rep's calls inside spans,
/// then a warm re-run, a multi-threaded re-run, and the per-layer probes.
fn traced_rep(w: Workload, seed: u64, out: Option<&Path>) -> Result<ExitCode, String> {
    let mut rec = Recorder::new();
    let mut t = Timing::default();
    let root = rec.open(format!("rep {}", w.name()), "bench");
    let setup = rec.open("setup", "bench");
    let inputs = w.setup(seed, &mut |start| {
        t.generate_s += rec.record("generate_requests", "serving.request", start);
    });
    rec.close(setup);

    let serial = ExecPool::serial();
    let sim_err = |e: gaudi_serving::ServingError| format!("simulation failed: {e}");
    let (untraced, untraced_s) = rec.time("run untraced", "bench", || {
        inputs.run(&serial, &Arc::new(PlanCache::new()), &mut |_, _| ())
    });
    t.untraced_s = untraced_s;
    drop(untraced.map_err(sim_err)?);

    let cache = Arc::new(PlanCache::new());
    let cold = rec.open("run cold", "bench");
    let outcome = inputs
        .run(&serial, &cache, &mut |call, start| {
            let (name, layer) = call.label();
            rec.record(name, layer, start);
        })
        .map_err(sim_err)?;
    t.cold_s = rec.close(cold);
    let stats = cache.stats();
    (t.plan_misses, t.plan_hits) = (stats.misses, stats.hits);
    outcome.check(&inputs)?;
    let digest = outcome.digest();

    let warm = rec.open("run warm", "bench");
    let again = inputs
        .run(&serial, &cache, &mut |call, start| {
            let (name, layer) = call.label();
            t.warm_calls.push((call, rec.record(name, layer, start)));
        })
        .map_err(sim_err)?;
    t.warm_s = rec.close(warm);
    if again.digest() != digest {
        return Err("warm_digest: re-running on a warm plan cache changed the simulation".into());
    }
    drop(again);

    let pool = ExecPool::new(CHECK_THREADS);
    let (threaded, _) = rec.time(format!("run {CHECK_THREADS} threads"), "bench", || {
        inputs.run(&pool, &Arc::new(PlanCache::new()), &mut |_, _| ())
    });
    if threaded.map_err(sim_err)?.digest() != digest {
        return Err(format!(
            "thread_digest: the {CHECK_THREADS}-thread run differs from the serial run"
        ));
    }

    let probe = probe::compile_probe(&inputs.probe_shape(), &mut rec)?;
    t.calendar_ns = probe::calendar_probe(&inputs.arrival_keys(), &mut rec)?;
    let papers = rec.open("paper experiments", "bench");
    let fidelity = paper::fidelity(&mut |name, start| {
        rec.record(name, "paper", start);
    })?;
    rec.close(papers);
    rec.close(root);

    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        write(
            &dir.join(format!("{}.trace.json", w.name())),
            &rec.chrome_json(),
        )?;
        write(&dir.join("fidelity.json"), &fidelity_json(&fidelity))?;
    }
    for (name, v) in metrics::layer_values(&outcome, w.slo(), &t, &probe, &fidelity.figs) {
        println!("layer {name} {v:?}");
    }
    print_sim(&outcome, w, &fidelity);
    Ok(ExitCode::SUCCESS)
}

/// Every compared paper value, with the simulated Fig. 4 and Fig. 8 times.
fn fidelity_json(f: &paper::Fidelity) -> String {
    let rows: Vec<String> = f
        .detail
        .iter()
        .map(|(name, sim, paper)| {
            format!(
                "  {{\"name\": {}, \"simulated\": {sim:?}, \"paper\": {paper:?}}}",
                json::quote(name)
            )
        })
        .collect();
    format!(
        "{{\"calib_err_pct\": {:?}, \"paper_err_pct\": {:?}, \"fig4_softmax_ms\": {:?}, \
         \"fig8_gpt_step_ms\": {:?},\n\"values\": [\n{}\n]}}\n",
        f.calib_err_pct,
        f.paper_err_pct,
        f.figs.fig4_ms,
        f.figs.fig8_ms,
        rows.join(",\n")
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// This process's peak resident set, MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

// --- a run: reps in fresh processes ------------------------------------------

/// What one rep printed.
#[derive(Debug, Default)]
struct RepOutput {
    host: BTreeMap<String, f64>,
    sim: Vec<(String, f64)>,
    layer: BTreeMap<String, f64>,
    digest: String,
}

/// Run one rep as a fresh single-threaded process and wait for it.
fn spawn_rep(
    w: Workload,
    seed: u64,
    traced: bool,
    out: Option<&Path>,
) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    let seed = seed.to_string();
    cmd.args(["rep", "--workload", w.name(), "--seed", &seed])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("GAUDI_EXEC_THREADS", "1")
        // glibc moves its mmap threshold as large blocks are freed, so
        // which buffers reuse the heap, and so peak RSS, would depend on
        // the order of earlier frees: 110-123 MB across fault_storm seeds.
        // Pinned at the 32 MiB ceiling that threshold climbs to, peak RSS
        // follows live memory (110-113 MB); host time is unchanged.
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!("a {} rep failed ({})", w.name(), output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let mut rep = RepOutput::default();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (kind, name, value) = (parts.next(), parts.next(), parts.next());
        let num = |v: Option<&str>| {
            v.and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed rep line '{line}'"))
        };
        match (kind, name) {
            (Some("host"), Some(n)) => {
                rep.host.insert(n.into(), num(value)?);
            }
            (Some("sim"), Some(n)) => rep.sim.push((n.into(), num(value)?)),
            (Some("layer"), Some(n)) => {
                rep.layer.insert(n.into(), num(value)?);
            }
            (Some("digest"), Some(d)) => rep.digest = d.into(),
            _ => return Err(format!("malformed rep line '{line}'")),
        }
    }
    Ok(rep)
}

/// `{"value": v, "unit": u}` entries in `specs` order; every spec must
/// have a value.
fn metrics_json(specs: &[metrics::Spec], values: &BTreeMap<&str, f64>) -> Result<String, String> {
    let mut entries = Vec::with_capacity(specs.len());
    for s in specs {
        let v = values
            .get(s.name)
            .ok_or_else(|| format!("no value for metric {}", s.name))?;
        entries.push(format!(
            "{}: {{\"value\": {v:?}, \"unit\": {}}}",
            json::quote(s.name),
            json::quote(s.unit)
        ));
    }
    Ok(format!("{{{}}}", entries.join(", ")))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let w = a.workload()?;
    let seed = a.seed(w)?;
    let seconds = a.number("seconds", run_seconds()?, 1..=3600)? as f64;
    let traced = a.trace()?;
    let out = a.out();
    let min_reps = if traced { 1 } else { MIN_REPS };
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut attempted = 0u64;
    let mut failure = None;
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let dir = (traced && reps.is_empty()).then_some(out.as_path());
        attempted += 1;
        match spawn_rep(w, seed, traced, dir) {
            Ok(r) => reps.push(r),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    if failure.is_none() {
        failure = consistency(&reps).err();
    }
    if let Some(why) = failure {
        eprintln!("simbench: {why}");
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": 1, \"metrics\": {{}}}}"
        );
        return Ok(ExitCode::FAILURE);
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let metrics = if traced {
        for s in &PER_LAYER {
            let v: Vec<f64> = reps
                .iter()
                .map(|r| r.layer.get(s.name).copied())
                .collect::<Option<_>>()
                .ok_or_else(|| format!("a traced rep did not report {}", s.name))?;
            values.insert(s.name, Summary::of(&v).median);
        }
        write_layers(&out, w, seed, reps.len(), &values)?;
        metrics_json(&PER_LAYER, &values)?
    } else {
        let mut summary = Vec::new();
        for name in ["setup_s", "host_s", "peak_rss_mb"] {
            let s = Summary::of(&reps.iter().map(|r| r.host[name]).collect::<Vec<_>>());
            values.insert(name, s.median);
            summary.push(format!(
                "{}: {{\"min\": {:?}, \"q1\": {:?}, \"median\": {:?}, \"q3\": {:?}, \"reps\": {}}}",
                json::quote(name),
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.n
            ));
        }
        for (name, v) in &reps[0].sim {
            let spec = E2E
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("a rep reported undeclared metric {name}"))?;
            values.insert(spec.name, *v);
        }
        println!(
            "{{\"workload\": {}, \"seed\": {seed}, \"threads\": 1, \"host\": {{{}}}}}",
            json::quote(w.name()),
            summary.join(", ")
        );
        metrics_json(&E2E, &values)?
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {metrics}}}"
    );
    Ok(ExitCode::SUCCESS)
}

/// Every rep must have simulated exactly the same thing.
fn consistency(reps: &[RepOutput]) -> Result<(), String> {
    let first = reps.first().ok_or("no rep completed")?;
    for r in reps {
        if r.digest != first.digest {
            return Err(format!(
                "rep_digest: reps simulated differently ({} vs {})",
                first.digest, r.digest
            ));
        }
        let same = r.sim.len() == first.sim.len()
            && r.sim
                .iter()
                .zip(&first.sim)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            return Err("rep_metrics: a simulated metric differs between reps".into());
        }
    }
    Ok(())
}

/// The per-layer results with their layer and the end-to-end metric each
/// should move, next to the traced rep's spans.
fn write_layers(
    out: &Path,
    w: Workload,
    seed: u64,
    reps: usize,
    values: &BTreeMap<&str, f64>,
) -> Result<(), String> {
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "  {{\"name\": {}, \"layer\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}, \
                 \"value\": {:?}}}",
                json::quote(s.name),
                json::quote(metrics::layer_of(s.name)),
                json::quote(s.unit),
                json::quote(s.better.as_str()),
                json::quote(s.about),
                values[s.name]
            )
        })
        .collect();
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    write(
        &out.join(format!("{}.layers.json", w.name())),
        &format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"traced_reps\": {reps},\n\"metrics\": [\n{}\n]}}\n",
            json::quote(w.name()),
            rows.join(",\n")
        ),
    )
}

// --- repro: two sets of runs, judged against the declared bounds --------------

fn declaration() -> Result<json::Value, String> {
    json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// How long one run measures, s.
fn run_seconds() -> Result<u64, String> {
    declaration()?
        .get("run_seconds")
        .and_then(json::Value::as_f64)
        .map(|s| s as u64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

/// The declared bound of end-to-end metric `name`.
fn bound(decl: &json::Value, name: &str) -> Result<f64, String> {
    decl.get("end_to_end")
        .map(json::Value::items)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))
        .and_then(|m| m.get("bound"))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("BENCHMARK.json declares no bound for {name}"))
}

/// Seeds of `repro`'s set `set` (0 or 1): the sets share no seed, so the
/// drift between their medians covers the simulated metrics' spread across
/// seeds as well as host noise.
fn repro_seeds(set: u64) -> std::ops::RangeInclusive<u64> {
    set * REPRO_RUNS + 1..=(set + 1) * REPRO_RUNS
}

fn repro() -> Result<ExitCode, String> {
    let decl = declaration()?;
    let seconds = run_seconds()?.to_string();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    // values[set][workload][metric]: one value per run.
    let mut values = vec![vec![BTreeMap::<&str, Vec<f64>>::new(); Workload::ALL.len()]; 2];
    for (set, by_workload) in (0..).zip(values.iter_mut()) {
        for (w, by_metric) in Workload::ALL.iter().zip(by_workload.iter_mut()) {
            for seed in repro_seeds(set) {
                eprintln!("repro: set {} {} seed {seed}", set + 1, w.name());
                let output = Command::new(&exe)
                    .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds, "--trace", "0"])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                let text = String::from_utf8_lossy(&output.stdout);
                let last = json::parse(text.lines().last().unwrap_or(""))?;
                if !output.status.success() || last.get("correct") != Some(&json::Value::Bool(true))
                {
                    return Err(format!("{} seed {seed} failed", w.name()));
                }
                for s in E2E {
                    let v = last
                        .get("metrics")
                        .and_then(|m| m.get(s.name))
                        .and_then(|m| m.get("value"))
                        .and_then(json::Value::as_f64)
                        .ok_or_else(|| format!("run output lacks {}", s.name))?;
                    by_metric.entry(s.name).or_default().push(v);
                }
            }
        }
    }

    let mut all_pass = true;
    println!(
        "{:<12} {:<14} {:>8} {:>16} {:>16} {:>8} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "median set 1",
        "median set 2",
        "spread 1",
        "spread 2",
        "drift"
    );
    for (i, w) in Workload::ALL.iter().enumerate() {
        for s in E2E {
            let bound = bound(&decl, s.name)?;
            let one = Summary::of(&values[0][i][s.name]);
            let two = Summary::of(&values[1][i][s.name]);
            let worse = match s.better {
                Better::Lower => two.median - one.median,
                Better::Higher => one.median - two.median,
            };
            let drift = if worse == 0.0 {
                0.0
            } else {
                worse / one.median.abs()
            };
            let pass = one.spread() <= bound && two.spread() <= bound && drift <= bound;
            all_pass &= pass;
            println!(
                "{:<12} {:<14} {:>8} {:>16.6} {:>16.6} {:>8.4} {:>8.4} {:>8.4}  {}",
                w.name(),
                s.name,
                bound,
                one.median,
                two.median,
                one.spread(),
                two.spread(),
                drift,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    println!(
        "repro: {REPRO_RUNS} runs per set of {seconds} s each, seeds {:?} and {:?}: {}",
        repro_seeds(0),
        repro_seeds(1),
        if all_pass {
            "every pair within its bound"
        } else {
            "some pair outside its bound"
        }
    );
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
