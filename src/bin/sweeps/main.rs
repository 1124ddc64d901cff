//! The paper's tables and figures and every serving, scaling and kernel
//! experiment behind one binary.
//!
//! Each experiment is one module with a `run` function that sweeps its
//! cells, asserts its gates (listed in the module's doc) and returns an
//! [`Outcome`]: its result [`Table`]s, the reading and gate lines to print
//! under them, and the bytes of any other `results/` file it names.
//! `main` runs each experiment twice — first on the global pool (sized by
//! `GAUDI_EXEC_THREADS`) with a cold plan cache, then on the serial pool
//! with the cache the first pass warmed — and requires both passes to
//! produce the same bytes for every file: the exact JSON of the tables
//! (`results/<experiment>.json`) and each named file. Thread count and plan
//! memoization must be invisible in every result. Only then are the files
//! written. A failed gate or a disagreement between the passes exits
//! non-zero and names the experiment.
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
mod table;

use gaudi_exec::ExecPool;
use gaudi_serving::PlanCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use table::Table;

/// One registered experiment.
struct Experiment {
    name: &'static str,
    /// Files under `results/` the experiment's artifacts are written to,
    /// besides the JSON of its tables.
    artifacts: &'static [&'static str],
    run: fn(&ExecPool, &Arc<PlanCache>) -> Outcome,
}

/// What one pass of an experiment produced.
#[derive(Default)]
struct Outcome {
    /// Every measured number, printed and written to
    /// `results/<experiment>.json` when there is at least one table.
    tables: Vec<Table>,
    /// Reading and gate lines, printed under the tables.
    text: String,
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
        artifacts: &[],
        run: overload::run,
    },
    Experiment {
        name: "kv",
        artifacts: &[],
        run: kv::run,
    },
    Experiment {
        name: "cluster",
        artifacts: &[],
        run: cluster::run,
    },
    Experiment {
        name: "mem",
        artifacts: &[],
        run: mem::run,
    },
    Experiment {
        name: "kernel",
        artifacts: &[],
        run: kernel::run,
    },
    Experiment {
        name: "campaign",
        artifacts: &[],
        run: campaign::run,
    },
];

/// The files an outcome writes under `results/`, as `(file, bytes)`: each
/// named artifact, then the JSON of its tables if it has any.
fn files(e: &Experiment, out: &Outcome) -> Vec<(String, String)> {
    let named = e.artifacts.iter().map(|f| f.to_string());
    let mut files: Vec<_> = named.zip(out.artifacts.iter().cloned()).collect();
    if !out.tables.is_empty() {
        files.push((format!("{}.json", e.name), table::json(e.name, &out.tables)));
    }
    files
}

/// Run `e` on the global pool with a cold plan cache, then on the serial
/// pool with the warm one, and return the first pass and its files if the
/// two agree.
fn reproduce(e: &Experiment) -> Result<(Outcome, Vec<(String, String)>), String> {
    let cache = Arc::new(PlanCache::new());
    let pass = |pool: &ExecPool| {
        catch_unwind(AssertUnwindSafe(|| (e.run)(pool, &cache)))
            .map_err(|_| format!("experiment '{}' failed a gate", e.name))
    };
    let first = pass(ExecPool::global())?;
    let second = pass(&ExecPool::serial())?;
    if [&first, &second]
        .iter()
        .any(|pass| pass.artifacts.len() != e.artifacts.len())
    {
        return Err(format!(
            "experiment '{}' must return one artifact per named file",
            e.name
        ));
    }
    let (ours, theirs) = (files(e, &first), files(e, &second));
    if ours != theirs {
        let file = ours
            .iter()
            .zip(&theirs)
            .find(|(a, b)| a != b)
            .map_or(format!("{}.json", e.name), |((file, _), _)| file.clone());
        return Err(format!(
            "experiment '{}': the serial warm-cache pass changed the artifact bytes of {file}",
            e.name
        ));
    }
    Ok((first, ours))
}

/// Reproduce every experiment in order, printing each one's tables and
/// text and writing its files into `results`; stop at the first failure.
fn drive(experiments: &[Experiment], results: &Path) -> Result<(), String> {
    for e in experiments {
        println!("==> {}\n", e.name);
        let (out, files) = reproduce(e)?;
        for t in &out.tables {
            println!("[{}]\n{}", t.name(), t.text());
        }
        print!("{}", out.text);
        println!(
            "\n{}: reproduced on the serial pool with a warm plan cache",
            e.name
        );
        for (file, bytes) in files {
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
    use table::{col, Value};

    fn outcome(artifacts: Vec<String>) -> Outcome {
        Outcome {
            artifacts,
            ..Outcome::default()
        }
    }

    /// A one-cell table holding `x`.
    fn one_float(x: f64) -> Table {
        let mut t = Table::new("cells", [col("x", "ms", 3)]);
        t.row([Value::from(x)]);
        t
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
    fn a_table_value_one_ulp_apart_between_passes_fails_and_writes_no_file() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let e = fake("ulp-drift", &["STEADY.md"], |_, _| {
            let n = CALLS.fetch_add(1, Ordering::Relaxed) as u64;
            Outcome {
                tables: vec![one_float(f64::from_bits(0.1f64.to_bits() + n))],
                artifacts: vec!["# steady\n".into()],
                ..Outcome::default()
            }
        });
        let dir = scratch("ulp");
        let err = drive(&[e], &dir).unwrap_err();
        assert!(
            err.contains("'ulp-drift'") && err.contains("ulp-drift.json"),
            "{err}"
        );
        for file in ["STEADY.md", "ulp-drift.json"] {
            assert!(!dir.join(file).exists(), "{file} written despite the drift");
        }
    }

    #[test]
    fn an_artifact_that_differs_between_passes_fails_naming_the_experiment() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let e = fake("drifting-json", &["DRIFT.json"], |_, _| {
            let n = CALLS.fetch_add(1, Ordering::Relaxed);
            outcome(vec![format!("[{n}]\n")])
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
                outcome(vec!["# steady\n".into(), format!("[{n}]\n")])
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
        let e = fake("steady", &["STEADY.md"], |_, _| Outcome {
            tables: vec![one_float(0.1)],
            artifacts: vec!["# steady\n".into()],
            ..Outcome::default()
        });
        let dir = scratch("steady");
        drive(&[e], &dir).expect("identical passes succeed");
        let read = |file| std::fs::read_to_string(dir.join(file)).unwrap();
        assert_eq!(read("STEADY.md"), "# steady\n");
        assert_eq!(
            read("steady.json"),
            table::json("steady", &[one_float(0.1)])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_names_and_artifact_files_are_unique() {
        let names: BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        let files: Vec<String> = REGISTRY
            .iter()
            .flat_map(|e| {
                let named = e.artifacts.iter().map(|f| f.to_string());
                named.chain([format!("{}.json", e.name)])
            })
            .collect();
        let unique: BTreeSet<_> = files.iter().collect();
        assert_eq!(unique.len(), files.len(), "two artifacts share a file");
    }
}
