//! 2D heat diffusion with halo exchange, checkpointed with C³.
//!
//! A classic stencil workload: an `n × n` temperature field, row-block
//! distributed, relaxed with a Jacobi stencil; each step exchanges one-row
//! halos with the neighbouring ranks. There are **no global barriers** in
//! the time loop — exactly the class of program the paper's non-blocking
//! protocol targets. The run checkpoints on a timer-free policy (every 10th
//! pragma), suffers a failure, recovers, and verifies the final field
//! checksum against a failure-free run.
//!
//! Run with: `cargo run --example jacobi_heat`

use c3::{C3Config, C3Ctx, C3Error, CkptPolicy, FailAt, FailurePlan};
use statesave::codec::{Decoder, Encoder};

const N: usize = 128;
const STEPS: u64 = 60;

struct Field {
    step: u64,
    /// rows × N, row-major; this rank's block.
    t: Vec<f64>,
}

impl Field {
    fn fresh(lo: usize, rows: usize) -> Self {
        // A hot square in the global middle, cold elsewhere.
        let mut t = vec![0.0; rows * N];
        for r in 0..rows {
            let g = lo + r;
            for c in 0..N {
                if (N / 4..3 * N / 4).contains(&g) && (N / 4..3 * N / 4).contains(&c) {
                    t[r * N + c] = 100.0;
                }
            }
        }
        Field { step: 0, t }
    }

    fn save(&self, e: &mut Encoder) {
        e.u64(self.step);
        e.f64_slice(&self.t);
    }

    fn load(bytes: &[u8]) -> Result<Self, C3Error> {
        let mut d = Decoder::new(bytes);
        Ok(Field { step: d.u64()?, t: d.f64_vec()? })
    }
}

fn jacobi_step(ctx: &mut C3Ctx<'_>, f: &mut Field, rows: usize) -> Result<(), C3Error> {
    let me = ctx.rank();
    let p = ctx.nranks();
    // Halo exchange: first row up, last row down (edge ranks skip).
    if me > 0 {
        ctx.send(me - 1, 1, &f.t[..N])?;
    }
    if me + 1 < p {
        ctx.send(me + 1, 2, &f.t[(rows - 1) * N..])?;
    }
    let above: Vec<f64> =
        if me > 0 { ctx.recv::<f64>((me - 1) as i32, 2)?.0 } else { vec![0.0; N] };
    let below: Vec<f64> =
        if me + 1 < p { ctx.recv::<f64>((me + 1) as i32, 1)?.0 } else { vec![0.0; N] };

    let old = f.t.clone();
    for r in 0..rows {
        for c in 0..N {
            let up = if r == 0 { above[c] } else { old[(r - 1) * N + c] };
            let down = if r + 1 == rows { below[c] } else { old[(r + 1) * N + c] };
            let left = if c == 0 { 0.0 } else { old[r * N + c - 1] };
            let right = if c + 1 == N { 0.0 } else { old[r * N + c + 1] };
            f.t[r * N + c] = 0.25 * (up + down + left + right);
        }
    }
    Ok(())
}

fn heat_app(ctx: &mut C3Ctx<'_>) -> Result<f64, C3Error> {
    let mine = npb::split(N, ctx.rank(), ctx.nranks());
    let (lo, rows) = (mine.start, mine.len());
    let mut f = match ctx.take_restored_state() {
        Some(b) => {
            let f = Field::load(&b)?;
            println!("  [rank {}] resumed from step {}", ctx.rank(), f.step);
            f
        }
        None => Field::fresh(lo, rows),
    };

    while f.step < STEPS {
        ctx.pragma(|e| f.save(e))?;
        jacobi_step(ctx, &mut f, rows)?;
        f.step += 1;
    }

    // Checksum: total heat (conserved up to boundary loss) + a positional
    // fingerprint so any misplaced value changes the result.
    let mut local = 0.0;
    for (i, v) in f.t.iter().enumerate() {
        local += v * (1.0 + ((lo * N + i) % 97) as f64 / 97.0);
    }
    let total = ctx.allreduce_f64(local, &mpisim::ReduceOp::Sum)?;
    Ok(total)
}

fn main() {
    let store = std::env::temp_dir().join(format!("c3-heat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    println!("== failure-free reference ==");
    let baseline = c3::Job::new(4, C3Config::passive(&store)).run(heat_app).unwrap();
    println!("  checksum: {:.6}", baseline.results[0]);

    println!("== periodic checkpoints (every 10th pragma), rank 3 fails at step 25 ==");
    let cfg = C3Config {
        store_root: store.clone(),
        write_disk: true,
        policy: CkptPolicy::EveryNth(10),
        initiator: Some(0),
        ckpt_mode: c3::CkptMode::Full,
    };
    let plan = FailurePlan { rank: 3, when: FailAt::AfterCommits { commits: 1, pragma: 25 } };
    let rec = c3::Job::new(4, cfg).failure(plan).run(heat_app).unwrap();
    println!("  restarts: {}", rec.restarts);
    println!("  checksum: {:.6}", rec.handle.results[0]);

    assert_eq!(rec.handle.results, baseline.results);
    println!("== recovered heat field is bit-identical to the failure-free run ==");
}
