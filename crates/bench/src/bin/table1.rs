//! Table 1 — checkpoint sizes: C³ (application-level) vs a Condor-style
//! system-level checkpointer, uniprocessor (§6.1).
//!
//! Measured side: one rank runs each benchmark, takes one real checkpoint to
//! disk, and we read the bytes back from the store. Two modeled quantities
//! make the comparison meaningful at laptop scale:
//!
//! * **SLC image** = live state × an arena-slack factor (allocator
//!   fragmentation the SLC must dump) + stack + static + text segments
//!   (Condor dumps the whole process image regardless of live data);
//! * **C³ runtime arena** = 1 MB added to the measured bytes: the real C³
//!   runtime's memory manager and padded stack are saved with every
//!   checkpoint, which is why the paper's C³ EP checkpoint is 1.00 MB even
//!   though EP's live state is a few hundred bytes.
//!
//! The reproduced *shape*: for data-dominated codes the reduction is small
//! (a fraction of a percent to a few percent); for EP — huge transient
//! computation, tiny live state — ALC wins by tens of percent.

use c3::C3Config;
use c3_bench::report::{mb, Align, Table};
use c3_bench::runner::{checkpoint_sizes, run_c3, run_original, tmp_store, Bench};
use c3_bench::{paper, runner};
use mpisim::JobSpec;
use npb::{bt, cg, ep, ft, is, lu, mg, sp};

/// Slack the SLC image carries over live data (freed blocks, allocator
/// padding): 2%, matching the paper's Condor-vs-C3 deltas, which are a
/// near-constant ~0.7 MB on top of the data for every code.
const ARENA_SLACK: f64 = 1.02;
/// Non-heap process image segments (stack + static + text), bytes.
const IMAGE_SEGMENTS: u64 = (64 << 10) + (512 << 10) + 1_740_000;
/// The C³ runtime's own saved arena (memory manager + padded stack), bytes.
const C3_ARENA: u64 = 1_000_000;

fn size_set() -> Vec<(&'static str, Bench, u64)> {
    // (paper row name, workload sized for a large live state, ckpt pragma)
    vec![
        ("BT (A)", Bench::Bt(bt::BtConfig { n: 1200, steps: 2, lambda: 0.35, kappa: 0.1 }), 1),
        ("CG (B)", Bench::Cg(cg::CgConfig { n: 2_000_000, iters: 3 }), 1),
        ("EP (A)", Bench::Ep(ep::EpConfig { m_per_block: 16, blocks: 3 }), 1),
        ("FT (A)", Bench::Ft(ft::FtConfig { n: 1024, steps: 2, alpha: 1e-4 }), 1),
        (
            "IS (A)",
            Bench::Is(is::IsConfig { total_keys: 1 << 21, max_key: 1 << 19, iters: 3 }),
            2, // after one iteration the ranked key array is live
        ),
        ("LU (A)", Bench::Lu(lu::LuConfig { n: 2048, isteps: 2, omega: 1.2 }), 1),
        ("MG (B)", Bench::Mg(mg::MgConfig { log2_n: 21, cycles: 2, smooth: 2 }), 1),
        ("SP (A)", Bench::Sp(sp::SpConfig { n: 2048, steps: 2, lambda: 0.4 }), 1),
    ]
}

fn main() {
    let mut t = Table::new(
        "Table 1 — checkpoint sizes in MB, uniprocessor (paper: Linux rows)",
        &[
            ("Code", Align::Left),
            ("SLC 'Condor' (MB)", Align::Right),
            ("C3 (MB)", Align::Right),
            ("Reduction", Align::Right),
            ("paper Condor", Align::Right),
            ("paper C3", Align::Right),
            ("paper Red.", Align::Right),
        ],
    );

    for (name, bench, pragma) in size_set() {
        let spec = JobSpec::new(1);
        let root = tmp_store(&format!("t1-{name}"));
        let cfg = C3Config::at_pragmas(&root, vec![pragma]);
        let orig = run_original(&spec, bench);
        let c3r = run_c3(&spec, &cfg, bench);
        runner::assert_same_results(name, &orig.results, &c3r.results);
        assert!(c3r.stats.ckpts_committed >= 1, "{name}: no checkpoint committed");

        let measured = checkpoint_sizes(&root, 1)[0];
        let c3_mb_v = measured + C3_ARENA;
        // The SLC dumps the live data in-place in the arena plus the fixed
        // segments; the live data size is what C³ measured minus its own
        // arena model (i.e. the raw bytes).
        let slc = (measured as f64 * ARENA_SLACK) as u64 + IMAGE_SEGMENTS + C3_ARENA;
        let red = (slc as f64 - c3_mb_v as f64) / slc as f64 * 100.0;

        let p = paper::TABLE1_LINUX.iter().find(|r| r.code == name).unwrap();
        t.row(vec![
            name.to_string(),
            mb(slc),
            mb(c3_mb_v),
            format!("{red:.2}%"),
            format!("{:.2}", p.condor_mb),
            format!("{:.2}", p.c3_mb),
            format!("{:.2}%", p.reduction_pct),
        ]);
        let _ = std::fs::remove_dir_all(&root);
    }
    t.print();
    println!(
        "\nModel constants: SLC arena slack x{ARENA_SLACK}, image segments {} MB, \
         C3 runtime arena {} MB.",
        mb(IMAGE_SEGMENTS),
        mb(C3_ARENA)
    );
    println!(
        "Shape check: EP's reduction is large (paper: 42-71%), all data-dominated codes small."
    );
}
