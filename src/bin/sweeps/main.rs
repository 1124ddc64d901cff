//! Every serving, scaling and kernel experiment behind one binary.
//!
//! Each experiment is one module with a `run` function that sweeps its
//! cells, asserts its gates (listed in the module's doc) and returns an
//! [`Outcome`]: the tables and gate lines to print, a digest of every
//! number it measured, and the bytes of its `results/*.json` artifact if it
//! has one. `main` runs each experiment twice — first on the global
//! pool (sized by `GAUDI_EXEC_THREADS`) with a cold plan cache, then on the
//! serial pool with the cache the first pass warmed — and requires both
//! passes to produce the same digest and the same artifact bytes: thread
//! count and plan memoization must be invisible in every result. Only then
//! is the artifact written. A failed gate or a disagreement between the
//! passes exits non-zero and names the experiment.
//!
//! ```sh
//! cargo run --release --bin sweeps
//! ```

/// `println!` into an experiment's text buffer.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail");
    }};
}

mod campaign;
mod cells;
mod cluster;
mod fault;
mod kernel;
mod kv;
mod mem;
mod overload;
mod scaling;
mod serving;

use gaudi_exec::ExecPool;
use gaudi_serving::PlanCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// One registered experiment.
struct Experiment {
    name: &'static str,
    /// File under `results/` the experiment's JSON artifact is written to.
    artifact: Option<&'static str>,
    run: fn(&ExecPool, &Arc<PlanCache>) -> Outcome,
}

/// What one pass of an experiment produced.
struct Outcome {
    /// Tables and gate lines, printed once from the first pass.
    text: String,
    /// Every measured number, exact enough that any change shows.
    digest: String,
    /// Artifact bytes; `Some` exactly when the experiment names an artifact.
    json: Option<String>,
}

const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "serving",
        artifact: None,
        run: serving::run,
    },
    Experiment {
        name: "fault",
        artifact: None,
        run: fault::run,
    },
    Experiment {
        name: "scaling",
        artifact: None,
        run: scaling::run,
    },
    Experiment {
        name: "overload",
        artifact: Some("OVERLOAD_5.json"),
        run: overload::run,
    },
    Experiment {
        name: "kv",
        artifact: Some("KV_6.json"),
        run: kv::run,
    },
    Experiment {
        name: "cluster",
        artifact: Some("CLUSTER_7.json"),
        run: cluster::run,
    },
    Experiment {
        name: "mem",
        artifact: Some("MEM_8.json"),
        run: mem::run,
    },
    Experiment {
        name: "kernel",
        artifact: Some("KERNEL_9.json"),
        run: kernel::run,
    },
    Experiment {
        name: "campaign",
        artifact: Some("CAMPAIGN_10.json"),
        run: campaign::run,
    },
];

/// Run `e` on the global pool with a cold plan cache, then on the serial
/// pool with the warm one, and return the first pass if the two agree.
fn reproduce(e: &Experiment) -> Result<Outcome, String> {
    let cache = Arc::new(PlanCache::new());
    let pass = |pool: &ExecPool| {
        catch_unwind(AssertUnwindSafe(|| (e.run)(pool, &cache)))
            .map_err(|_| format!("experiment '{}' failed a gate", e.name))
    };
    let first = pass(ExecPool::global())?;
    let second = pass(&ExecPool::serial())?;
    if first.digest != second.digest {
        return Err(format!(
            "experiment '{}': the serial warm-cache pass changed the digest",
            e.name
        ));
    }
    if first.json != second.json {
        return Err(format!(
            "experiment '{}': the serial warm-cache pass changed the artifact bytes",
            e.name
        ));
    }
    Ok(first)
}

/// Reproduce every experiment in order, printing each one's text and
/// writing its artifact into `results`; stop at the first failure.
fn drive(experiments: &[Experiment], results: &Path) -> Result<(), String> {
    for e in experiments {
        println!("==> {}\n", e.name);
        let out = reproduce(e)?;
        print!("{}", out.text);
        println!(
            "\n{}: reproduced on the serial pool with a warm plan cache",
            e.name
        );
        match (e.artifact, out.json) {
            (Some(file), Some(json)) => {
                let path = results.join(file);
                std::fs::create_dir_all(results)
                    .and_then(|()| std::fs::write(&path, json))
                    .map_err(|err| format!("writing {}: {err}", path.display()))?;
                println!("wrote {}", path.display());
            }
            (None, None) => {}
            _ => {
                return Err(format!(
                    "experiment '{}' must return JSON exactly when it names an artifact",
                    e.name
                ))
            }
        }
        println!();
    }
    Ok(())
}

fn main() -> ExitCode {
    match drive(REGISTRY, Path::new("results")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("sweeps: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn outcome(digest: &str, json: Option<String>) -> Outcome {
        Outcome {
            text: String::new(),
            digest: digest.into(),
            json,
        }
    }

    fn fake(
        name: &'static str,
        artifact: Option<&'static str>,
        run: fn(&ExecPool, &Arc<PlanCache>) -> Outcome,
    ) -> Experiment {
        Experiment {
            name,
            artifact,
            run,
        }
    }

    /// A scratch results directory of the test's own.
    fn scratch(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sweeps-{}-{test}", std::process::id()))
    }

    #[test]
    fn a_digest_that_differs_between_passes_fails_naming_the_experiment() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let e = fake("counts-calls", None, |_, _| {
            outcome(&CALLS.fetch_add(1, Ordering::Relaxed).to_string(), None)
        });
        let err = drive(&[e], &scratch("digest")).unwrap_err();
        assert!(
            err.contains("'counts-calls'") && err.contains("digest"),
            "{err}"
        );
    }

    #[test]
    fn an_artifact_that_differs_between_passes_fails_naming_the_experiment() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let e = fake("drifting-json", Some("DRIFT.json"), |_, _| {
            let n = CALLS.fetch_add(1, Ordering::Relaxed);
            outcome("same", Some(format!("{{\"pass\": {n}}}\n")))
        });
        let dir = scratch("artifact");
        let err = drive(&[e], &dir).unwrap_err();
        assert!(
            err.contains("'drifting-json'") && err.contains("artifact"),
            "{err}"
        );
        assert!(
            !dir.join("DRIFT.json").exists(),
            "a drifting artifact is never written"
        );
    }

    #[test]
    fn a_panicking_gate_fails_naming_the_experiment() {
        let e = fake("broken-gate", None, |_, _| panic!("gate violated"));
        let err = drive(&[e], &scratch("panic")).unwrap_err();
        assert!(err.contains("'broken-gate'"), "{err}");
    }

    #[test]
    fn agreeing_passes_write_the_artifact() {
        let e = fake("steady", Some("STEADY.json"), |_, _| {
            outcome("same", Some("{}\n".into()))
        });
        let dir = scratch("steady");
        drive(&[e], &dir).expect("identical passes succeed");
        assert_eq!(
            std::fs::read_to_string(dir.join("STEADY.json")).unwrap(),
            "{}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_names_and_artifact_files_are_unique() {
        let names: BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        let files: Vec<_> = REGISTRY.iter().filter_map(|e| e.artifact).collect();
        let unique: BTreeSet<_> = files.iter().collect();
        assert_eq!(
            unique.len(),
            files.len(),
            "two experiments share an artifact"
        );
    }
}
