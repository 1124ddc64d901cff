//! The paper's tables and figures and every serving, scaling and kernel
//! experiment behind one binary.
//!
//! Each experiment is one module with a `run` function that sweeps its
//! cells, asserts its gates (listed in the module's doc) and returns an
//! [`Outcome`]: the tables and gate lines to print, a digest of every
//! number it measured, and the bytes of each `results/` artifact it names.
//! `main` runs each experiment twice — first on the global
//! pool (sized by `GAUDI_EXEC_THREADS`) with a cold plan cache, then on the
//! serial pool with the cache the first pass warmed — and requires both
//! passes to produce the same digest and the same artifact bytes: thread
//! count and plan memoization must be invisible in every result. Only then
//! are the artifacts written. A failed gate or a disagreement between the
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
mod paper;
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
    /// Files under `results/` the experiment's artifacts are written to.
    artifacts: &'static [&'static str],
    run: fn(&ExecPool, &Arc<PlanCache>) -> Outcome,
}

/// What one pass of an experiment produced.
struct Outcome {
    /// Tables and gate lines, printed once from the first pass.
    text: String,
    /// Every measured number, exact enough that any change shows.
    digest: String,
    /// Artifact bytes, one per file the experiment names, in order.
    artifacts: Vec<String>,
}

const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "paper",
        artifacts: paper::ARTIFACTS,
        run: paper::run,
    },
    Experiment {
        name: "serving",
        artifacts: &[],
        run: serving::run,
    },
    Experiment {
        name: "fault",
        artifacts: &[],
        run: fault::run,
    },
    Experiment {
        name: "scaling",
        artifacts: &[],
        run: scaling::run,
    },
    Experiment {
        name: "overload",
        artifacts: &["OVERLOAD_5.json"],
        run: overload::run,
    },
    Experiment {
        name: "kv",
        artifacts: &["KV_6.json"],
        run: kv::run,
    },
    Experiment {
        name: "cluster",
        artifacts: &["CLUSTER_7.json"],
        run: cluster::run,
    },
    Experiment {
        name: "mem",
        artifacts: &["MEM_8.json"],
        run: mem::run,
    },
    Experiment {
        name: "kernel",
        artifacts: &["KERNEL_9.json"],
        run: kernel::run,
    },
    Experiment {
        name: "campaign",
        artifacts: &["CAMPAIGN_10.json"],
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
    if [&first, &second]
        .iter()
        .any(|pass| pass.artifacts.len() != e.artifacts.len())
    {
        return Err(format!(
            "experiment '{}' must return one artifact per named file",
            e.name
        ));
    }
    let passes = first.artifacts.iter().zip(&second.artifacts);
    if let Some((file, _)) = e.artifacts.iter().zip(passes).find(|(_, (a, b))| a != b) {
        return Err(format!(
            "experiment '{}': the serial warm-cache pass changed the artifact bytes of {file}",
            e.name
        ));
    }
    Ok(first)
}

/// Reproduce every experiment in order, printing each one's text and
/// writing its artifacts into `results`; stop at the first failure.
fn drive(experiments: &[Experiment], results: &Path) -> Result<(), String> {
    for e in experiments {
        println!("==> {}\n", e.name);
        let out = reproduce(e)?;
        print!("{}", out.text);
        println!(
            "\n{}: reproduced on the serial pool with a warm plan cache",
            e.name
        );
        for (file, bytes) in e.artifacts.iter().zip(out.artifacts) {
            let path = results.join(file);
            std::fs::create_dir_all(results)
                .and_then(|()| std::fs::write(&path, bytes))
                .map_err(|err| format!("writing {}: {err}", path.display()))?;
            println!("wrote {}", path.display());
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

    fn outcome(digest: &str, artifacts: Vec<String>) -> Outcome {
        Outcome {
            text: String::new(),
            digest: digest.into(),
            artifacts,
        }
    }

    fn fake(
        name: &'static str,
        artifacts: &'static [&'static str],
        run: fn(&ExecPool, &Arc<PlanCache>) -> Outcome,
    ) -> Experiment {
        Experiment {
            name,
            artifacts,
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
        let e = fake("counts-calls", &[], |_, _| {
            outcome(&CALLS.fetch_add(1, Ordering::Relaxed).to_string(), vec![])
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
        let e = fake("drifting-json", &["DRIFT.json"], |_, _| {
            let n = CALLS.fetch_add(1, Ordering::Relaxed);
            outcome("same", vec![format!("{{\"pass\": {n}}}\n")])
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
    fn a_drifting_second_artifact_fails_and_writes_neither_file() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let e = fake(
            "drifting-trace",
            &["STEADY.md", "DRIFT.trace.json"],
            |_, _| {
                let n = CALLS.fetch_add(1, Ordering::Relaxed);
                outcome("same", vec!["# steady\n".into(), format!("[{n}]\n")])
            },
        );
        let dir = scratch("second-artifact");
        let err = drive(&[e], &dir).unwrap_err();
        assert!(
            err.contains("'drifting-trace'") && err.contains("DRIFT.trace.json"),
            "{err}"
        );
        for file in ["STEADY.md", "DRIFT.trace.json"] {
            assert!(!dir.join(file).exists(), "{file} written despite the drift");
        }
    }

    #[test]
    fn a_panicking_gate_fails_naming_the_experiment() {
        let e = fake("broken-gate", &[], |_, _| panic!("gate violated"));
        let err = drive(&[e], &scratch("panic")).unwrap_err();
        assert!(err.contains("'broken-gate'"), "{err}");
    }

    #[test]
    fn agreeing_passes_write_the_artifact() {
        let e = fake("steady", &["STEADY.json"], |_, _| {
            outcome("same", vec!["{}\n".into()])
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
        let files: Vec<_> = REGISTRY.iter().flat_map(|e| e.artifacts).collect();
        let unique: BTreeSet<_> = files.iter().collect();
        assert_eq!(unique.len(), files.len(), "two artifacts share a file");
    }
}
