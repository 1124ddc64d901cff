//! Extension: KV-admission sweep — paged block size × recipe bucket
//! granularity against contiguous worst-case reservation, at equal HBM.
//!
//! Serves the same saturating §3.4 GPT burst on a device shrunk to a
//! fixed KV token budget, once with the legacy contiguous accountant
//! (each request reserves its worst-case `prompt + output` footprint up
//! front) and once per paged operating point (fixed-size blocks allocated
//! as contexts actually grow, recompute-preemption when the pool runs
//! dry). Every cell pays the quantitative recipe-warmup penalty on each
//! first-use `(phase, ctx bucket, batch bucket)` shape. The sweep is the
//! acceptance harness for PR 6; it asserts:
//!
//! 1. **paged admission strictly raises max concurrent sequences** over
//!    contiguous at equal HBM, for every block size;
//! 2. **goodput at saturation is >= 1.0x contiguous** at the sweep's best
//!    block size (finding that operating point is what the sweep is for);
//! 3. **a cold-restarted replica recompiles recipes it already paid
//!    for** — the faulted run's compile count strictly exceeds the clean
//!    run's;
//! 4. the whole sweep is **bit-identical across two runs**, including the
//!    `results/KV_6.json` bytes.
//!
//! ```sh
//! cargo run --release --bin kv_sweep [-- --threads N]
//! ```

use gaudi_hw::DeviceId;
use gaudi_profiler::report::TextTable;
use gaudi_serving::{FaultPlan, KvAdmissionConfig, PlanCache, ServingConfig, ServingReport};
use habana_gaudi_study::bin_support::{kv_sweep_config, report_digest, run_cells, Flags};
use std::sync::Arc;

/// KV token budget past the weights: small enough that contiguous
/// worst-case reservation — not the decode batch bound — caps concurrency.
const HBM_TOKENS: u64 = 448;
const BLOCK_SIZES: [usize; 3] = [8, 16, 32];
const BATCH_BUCKETS: [usize; 2] = [1, 4];
/// The paged operating point the restart pair uses.
const DEFAULT_BLOCK: usize = 8;

struct Sweep {
    /// One contiguous baseline per batch bucket.
    contiguous: Vec<ServingReport>,
    /// Paged grid, `BLOCK_SIZES`-major then `BATCH_BUCKETS`.
    paged: Vec<ServingReport>,
    /// Restart pair: same single-serving-replica stream without and with a
    /// mid-run `kill_for` on the only live card.
    clean: ServingReport,
    faulted: ServingReport,
    digest: String,
}

fn paged_cell(block_tokens: usize, batch_bucket: usize) -> ServingConfig {
    kv_sweep_config(HBM_TOKENS, batch_bucket)
        .to_builder()
        .kv_admission(KvAdmissionConfig::Paged { block_tokens })
        .build()
}

fn sweep(pool: &gaudi_exec::ExecPool, cache: &Arc<PlanCache>) -> Sweep {
    let mut cells: Vec<ServingConfig> = Vec::new();
    for &bucket in &BATCH_BUCKETS {
        cells.push(kv_sweep_config(HBM_TOKENS, bucket));
    }
    for &block in &BLOCK_SIZES {
        for &bucket in &BATCH_BUCKETS {
            cells.push(paged_cell(block, bucket));
        }
    }
    let mut reports = run_cells(pool, cache, &cells);
    let paged = reports.split_off(BATCH_BUCKETS.len());
    let contiguous = reports;

    // Restart pair: pin all work to card 1 (card 0 dies at t=0) so the
    // recipe-compile comparison is not muddied by work moving between
    // replicas, then kill-and-restart card 1 halfway through.
    let mut clean_cfg = paged_cell(DEFAULT_BLOCK, 1);
    clean_cfg.devices = 2;
    clean_cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.0);
    let clean = run_cells(pool, cache, &[clean_cfg.clone()])
        .pop()
        .expect("clean restart baseline ran");
    let mut faulted_cfg = clean_cfg;
    faulted_cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.0).kill_for(
        DeviceId(1),
        clean.makespan_ms * 0.5,
        40.0,
    );
    let faulted = run_cells(pool, cache, &[faulted_cfg])
        .pop()
        .expect("faulted restart cell ran");

    let digest = contiguous
        .iter()
        .chain(&paged)
        .chain([&clean, &faulted])
        .map(report_digest)
        .collect::<Vec<_>>()
        .join("\n");
    Sweep {
        contiguous,
        paged,
        clean,
        faulted,
        digest,
    }
}

fn cell_json(label: &str, block: usize, bucket: usize, r: &ServingReport) -> String {
    format!(
        "    {{\"admission\": \"{label}\", \"block_tokens\": {block}, \
         \"batch_bucket\": {bucket}, \"goodput_tok_s\": {:.6}, \
         \"peak_running\": {}, \"kv_block_utilization\": {:.6}, \
         \"padding_waste\": {:.6}, \"recipe_compiles\": {}, \
         \"preemptions\": {}, \"ttft_p99_ms\": {:.6}, \"completed\": {}}}",
        r.goodput_tokens_per_s,
        r.peak_running,
        r.kv_block_utilization,
        r.padding_waste(),
        r.recipe_compiles,
        r.preemptions,
        r.ttft_ms.p99,
        r.completed.len(),
    )
}

fn main() {
    let flags = Flags::parse("kv_sweep [--threads N]", &["--threads"], &[]);
    let pool = flags.pool();
    let cache = Arc::new(PlanCache::new());

    println!("Extension: KV admission — paged blocks vs contiguous reservation at equal HBM\n");
    println!(
        "saturating burst, 80 requests, KV budget {HBM_TOKENS} tokens past the weights, \
         recipe warmup 5 ms/shape\n"
    );
    let s = sweep(&pool, &cache);

    let mut t = TextTable::new(&[
        "Admission",
        "Block",
        "Bucket",
        "Peak running",
        "Goodput (tok/s)",
        "KV util",
        "Padding",
        "Recipes",
        "Preempt",
        "TTFT p99 (ms)",
    ]);
    let mut row = |name: &str, block: &str, bucket: usize, r: &ServingReport| {
        t.row(&[
            name.into(),
            block.into(),
            bucket.to_string(),
            r.peak_running.to_string(),
            format!("{:.0}", r.goodput_tokens_per_s),
            format!("{:.0}%", r.kv_block_utilization * 100.0),
            format!("{:.1}%", r.padding_waste() * 100.0),
            r.recipe_compiles.to_string(),
            r.preemptions.to_string(),
            format!("{:.0}", r.ttft_ms.p99),
        ]);
    };
    for (i, &bucket) in BATCH_BUCKETS.iter().enumerate() {
        row("contiguous", "-", bucket, &s.contiguous[i]);
    }
    for (bi, &block) in BLOCK_SIZES.iter().enumerate() {
        for (i, &bucket) in BATCH_BUCKETS.iter().enumerate() {
            row(
                "paged",
                &block.to_string(),
                bucket,
                &s.paged[bi * BATCH_BUCKETS.len() + i],
            );
        }
    }
    println!("{}", t.render());
    println!(
        "Reading: contiguous admission reserves every request's worst-case\n\
         footprint, so a handful of long requests starve the device; paged\n\
         admission charges only the blocks a context actually occupies,\n\
         packing more concurrent sequences into the same HBM. Coarser batch\n\
         buckets compile fewer recipes at the price of padding waste.\n"
    );

    // 1. Paged strictly raises max concurrent sequences, every block size.
    let base = &s.contiguous[0];
    for (bi, &block) in BLOCK_SIZES.iter().enumerate() {
        let p = &s.paged[bi * BATCH_BUCKETS.len()];
        assert!(
            p.peak_running > base.peak_running,
            "paged (block {block}) must beat contiguous concurrency: {} vs {}",
            p.peak_running,
            base.peak_running
        );
    }
    println!(
        "peak concurrent sequences: contiguous {} -> paged {:?} (gate: strictly higher)",
        base.peak_running,
        BLOCK_SIZES
            .iter()
            .enumerate()
            .map(|(bi, _)| s.paged[bi * BATCH_BUCKETS.len()].peak_running)
            .collect::<Vec<_>>()
    );

    // 2. Goodput at saturation >= 1.0x contiguous at the best block size.
    let (best_block, best_paged) = BLOCK_SIZES
        .iter()
        .enumerate()
        .map(|(bi, &block)| (block, &s.paged[bi * BATCH_BUCKETS.len()]))
        .max_by(|a, b| {
            a.1.goodput_tokens_per_s
                .total_cmp(&b.1.goodput_tokens_per_s)
        })
        .expect("the paged grid is non-empty");
    let goodput_ratio = best_paged.goodput_tokens_per_s / base.goodput_tokens_per_s;
    println!(
        "goodput at saturation (best block {best_block}): paged {:.0} / contiguous {:.0} \
         = {goodput_ratio:.3}x (gate: >= 1.0x)",
        best_paged.goodput_tokens_per_s, base.goodput_tokens_per_s
    );
    assert!(
        goodput_ratio >= 1.0,
        "paged admission must not lose goodput at equal HBM, got {goodput_ratio:.3}x"
    );

    // 3. A cold-restarted replica pays recipe warmup again.
    assert_eq!(s.faulted.restarts, 1, "the killed card must come back");
    println!(
        "recipe compiles: clean {} -> with restart {} (gate: strictly higher)",
        s.clean.recipe_compiles, s.faulted.recipe_compiles
    );
    assert!(
        s.faulted.recipe_compiles > s.clean.recipe_compiles,
        "a restarted replica must recompile shapes it already paid for \
         ({} vs {})",
        s.faulted.recipe_compiles,
        s.clean.recipe_compiles
    );

    // 4. Bit-identical reproduction (second pass hits the warm plan cache).
    let again = sweep(&pool, &cache);
    let reproducible = s.digest == again.digest;
    println!("re-run with identical seed reproduces every cell: {reproducible}");
    assert!(reproducible, "the KV sweep must be deterministic");

    // Machine-readable record for the CI artifact.
    let mut rows: Vec<String> = Vec::new();
    for (i, &bucket) in BATCH_BUCKETS.iter().enumerate() {
        rows.push(cell_json("contiguous", 0, bucket, &s.contiguous[i]));
    }
    for (bi, &block) in BLOCK_SIZES.iter().enumerate() {
        for (i, &bucket) in BATCH_BUCKETS.iter().enumerate() {
            rows.push(cell_json(
                "paged",
                block,
                bucket,
                &s.paged[bi * BATCH_BUCKETS.len() + i],
            ));
        }
    }
    let json = format!(
        "{{\n  \"sweep\": \"kv admission, paper GPT, saturating burst, \
         {HBM_TOKENS}-token KV budget\",\n  \"best_block_tokens\": {best_block},\n  \
         \"goodput_ratio_at_saturation\": {goodput_ratio:.6},\n  \
         \"peak_running_contiguous\": {},\n  \"peak_running_paged\": {},\n  \
         \"restart\": {{\"clean_compiles\": {}, \"faulted_compiles\": {}, \
         \"restarts\": {}}},\n  \"bit_identical\": true,\n  \"cells\": [\n{}\n  ]\n}}\n",
        base.peak_running,
        best_paged.peak_running,
        s.clean.recipe_compiles,
        s.faulted.recipe_compiles,
        s.faulted.restarts,
        rows.join(",\n"),
    );
    let out = std::path::Path::new("results").join("KV_6.json");
    std::fs::create_dir_all("results").expect("results/ exists or is creatable");
    std::fs::write(&out, &json).expect("KV_6.json is writable");
    println!("\nwrote {}", out.display());
}
