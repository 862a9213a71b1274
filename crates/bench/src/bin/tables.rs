//! `tables` — the paper's Tables 1–7 (§6), our measured rows next to the
//! paper's reported ones.
//!
//! ```text
//! tables <1-7> [--scale]
//! ```
//!
//! | table | paper content                                             |
//! |-------|-----------------------------------------------------------|
//! | 1     | checkpoint sizes, C³ (ALC) vs Condor-style SLC, 8 codes   |
//! | 2     | runtime overhead without checkpoints, Lemieux model       |
//! | 3     | the same on the Velocity 2 / CMI models                   |
//! | 4     | overhead with checkpoints (configs #1/#2/#3), Lemieux     |
//! | 5     | the same on Velocity 2 / CMI                              |
//! | 6     | restart cost, uniprocessor, Lemieux model                 |
//! | 7     | the same on the CMI model                                 |
//!
//! Rank counts {2, 4, 8} stand in for the paper's {64, 256, 1024}; the
//! reproduced shape of Tables 2 and 3 is "overhead below ~10% with no growth
//! trend in the rank count". Tables 4 and 5 report configuration #1 (no
//! checkpoint), #2 (checkpoint, no disk), #3 (checkpoint to local disk),
//! the checkpoint size per process, the checkpoint cost (#3 - #1), and the
//! Checkpoint-Initiated control message count (the §4.5 scalability
//! measure); `tables 4 --scale` appends the §6.4 hourly / daily projection.
//! Tables 6 and 7 use the paper's two-run method (§6.5):
//! (restart-to-end) - (last-commit-to-end).

use c3_bench::tables::{self, OVERHEAD_SET, RESTART_SET};
use c3_bench::{paper, report::mb};
use mpisim::ClusterModel;
use npb::Kernel;

/// Tables 3 and 5: HPL ran on CMI in the paper, every other code on
/// Velocity 2.
fn velocity2_or_cmi(k: &Kernel) -> ClusterModel {
    match k {
        Kernel::Hpl(_) => ClusterModel::cmi(),
        _ => ClusterModel::velocity2(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lemieux = |_: &Kernel| ClusterModel::lemieux();
    match args.first().map(String::as_str) {
        Some("1") => {
            tables::sizes_table().print();
            println!(
                "\nModel constants: SLC arena slack x{}, image segments {} MB, \
                 C3 runtime arena {} MB.",
                tables::ARENA_SLACK,
                mb(tables::IMAGE_SEGMENTS),
                mb(tables::C3_ARENA)
            );
            println!(
                "Shape check: EP's reduction is large (paper: 42-71%), all data-dominated codes small."
            );
        }
        Some("2") => {
            tables::overhead_table(
                "Table 2 — runtimes without checkpoints (Lemieux model; paper procs 64/256/1024 -> 2/4/8)",
                lemieux,
                &OVERHEAD_SET,
                &[2, 4, 8],
                paper::TABLE2_LEMIEUX_64,
            )
            .print();
            println!("\nPaper's overhead sweep across 64/256/1024 procs (reference):");
            for (code, ohs) in paper::TABLE2_OVERHEAD_SWEEP {
                println!("  {code:8} {:?}", ohs);
            }
        }
        Some("3") => tables::overhead_table(
            "Table 3 — runtimes without checkpoints (Velocity 2 / CMI models; procs -> 2/4/8)",
            velocity2_or_cmi,
            &OVERHEAD_SET,
            &[2, 4, 8],
            paper::TABLE3_VELOCITY2,
        )
        .print(),
        Some("4") => {
            tables::with_ckpt_table(
                "Table 4 — runtimes with checkpoints (Lemieux model, 4 ranks)",
                lemieux,
                &OVERHEAD_SET,
                4,
                paper::TABLE4_LEMIEUX_64,
            )
            .print();
            if args.iter().any(|a| a == "--scale") {
                tables::scaling_table(&OVERHEAD_SET, 4).print();
            }
        }
        Some("5") => tables::with_ckpt_table(
            "Table 5 — runtimes with checkpoints (Velocity 2 / CMI models, 4 ranks)",
            velocity2_or_cmi,
            &OVERHEAD_SET,
            4,
            paper::TABLE5_VELOCITY2,
        )
        .print(),
        Some("6") => tables::restart_table(
            "Table 6 — restart costs, uniprocessor (Lemieux model)",
            ClusterModel::lemieux(),
            &RESTART_SET,
            paper::TABLE6_LEMIEUX,
        )
        .print(),
        Some("7") => tables::restart_table(
            "Table 7 — restart costs, uniprocessor (CMI model)",
            ClusterModel::cmi(),
            &RESTART_SET,
            paper::TABLE7_CMI,
        )
        .print(),
        _ => {
            eprintln!("usage: tables <1-7> [--scale]");
            std::process::exit(2);
        }
    }
}
