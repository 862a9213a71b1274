//! A toy ab-initio-style molecular dynamics code — the paper's own
//! motivating example of manual application-level checkpointing (§1, §8):
//!
//! > "in protein-folding using ab initio methods, it is sufficient to save
//! >  the positions and velocities of the bases at the end of a time-step
//! >  because the entire computation can be recovered from that data."
//!
//! The chain of particles is block-distributed; each step computes spring +
//! bending forces (needing one neighbour particle from each adjacent rank),
//! integrates with velocity Verlet, and periodically reports the energy via
//! an all-reduce. The checkpoint saves exactly positions, velocities, and
//! the step number — nothing else — which is why application-level
//! checkpoints can be so much smaller than a core dump of the same process.
//!
//! Run with: `cargo run --example protein_md`

use c3::{C3Config, C3Ctx, C3Error, CkptPolicy, FailAt, FailurePlan};
use statesave::codec::{Decoder, Encoder};

const PARTICLES: usize = 240;
const STEPS: u64 = 50;
const DT: f64 = 1e-3;
const SPRING: f64 = 80.0;
const REST: f64 = 1.0;

struct Md {
    step: u64,
    /// Positions of this rank's particles (1D chain coordinates).
    x: Vec<f64>,
    /// Velocities.
    v: Vec<f64>,
    /// Forces at the current positions. Saved with the checkpoint so that a
    /// resumed run does *not* redo the force halo-exchange: an extra
    /// exchange would shift the message pairing relative to the original
    /// timeline (the state must describe the resume point exactly — this is
    /// precisely what the C³ precompiler's execution-context saving buys).
    f: Vec<f64>,
}

impl Md {
    fn fresh(lo: usize, n: usize) -> Self {
        // Slightly perturbed rest lattice: deterministic "thermal" noise.
        let x = (0..n)
            .map(|i| {
                let g = (lo + i) as u64;
                let jitter =
                    ((g.wrapping_mul(0x9E3779B97F4A7C15) >> 40) % 1000) as f64 / 1e4 - 0.05;
                (lo + i) as f64 * REST + jitter
            })
            .collect();
        Md { step: 0, x, v: vec![0.0; n], f: Vec::new() }
    }
    fn save(&self, e: &mut Encoder) {
        e.u64(self.step);
        e.f64_slice(&self.x);
        e.f64_slice(&self.v);
        e.f64_slice(&self.f);
    }
    fn load(b: &[u8]) -> Result<Self, C3Error> {
        let mut d = Decoder::new(b);
        Ok(Md { step: d.u64()?, x: d.f64_vec()?, v: d.f64_vec()?, f: d.f64_vec()? })
    }
}

fn span_of(rank: usize, p: usize) -> (usize, usize) {
    let base = PARTICLES / p;
    let extra = PARTICLES % p;
    let lo = rank * base + rank.min(extra);
    (lo, lo + base + usize::from(rank < extra))
}

/// Spring forces along the chain; boundary particles come from neighbours.
fn forces(ctx: &mut C3Ctx<'_>, x: &[f64]) -> Result<Vec<f64>, C3Error> {
    let me = ctx.rank();
    let p = ctx.nranks();
    if me > 0 {
        ctx.send(me - 1, 7, &[x[0]])?;
    }
    if me + 1 < p {
        ctx.send(me + 1, 8, &[*x.last().unwrap()])?;
    }
    let left = if me > 0 { Some(ctx.recv::<f64>((me - 1) as i32, 8)?.0[0]) } else { None };
    let right = if me + 1 < p { Some(ctx.recv::<f64>((me + 1) as i32, 7)?.0[0]) } else { None };

    let n = x.len();
    let mut f = vec![0.0; n];
    let pair = |a: f64, b: f64| -> f64 { SPRING * (b - a - REST) };
    for i in 0..n {
        if i > 0 {
            f[i] -= pair(x[i - 1], x[i]);
        } else if let Some(l) = left {
            f[i] -= pair(l, x[i]);
        }
        if i + 1 < n {
            f[i] += pair(x[i], x[i + 1]);
        } else if let Some(r) = right {
            f[i] += pair(x[i], r);
        }
    }
    Ok(f)
}

fn md_app(ctx: &mut C3Ctx<'_>) -> Result<f64, C3Error> {
    let (lo, hi) = span_of(ctx.rank(), ctx.nranks());
    let n = hi - lo;
    let mut md = match ctx.take_restored_state() {
        Some(b) => {
            let md = Md::load(&b)?;
            println!("  [rank {}] resumed MD at step {}", ctx.rank(), md.step);
            md
        }
        None => {
            let mut md = Md::fresh(lo, n);
            md.f = forces(ctx, &md.x)?;
            md
        }
    };

    while md.step < STEPS {
        // §1: the end of a time step is where the state to save is minimal —
        // positions, velocities, and the step counter.
        ctx.pragma(|e| md.save(e))?;
        // Velocity Verlet.
        for i in 0..n {
            md.v[i] += 0.5 * DT * md.f[i];
            md.x[i] += DT * md.v[i];
        }
        let f_new = forces(ctx, &md.x)?;
        for (v, f) in md.v.iter_mut().zip(&f_new) {
            *v += 0.5 * DT * f;
        }
        md.f = f_new;
        md.step += 1;

        if md.step % 10 == 0 {
            let ke_local: f64 = md.v.iter().map(|v| 0.5 * v * v).sum();
            let ke = ctx.allreduce_f64(ke_local, &mpisim::ReduceOp::Sum)?;
            if ctx.rank() == 0 {
                println!("  step {:3}: kinetic energy {:.6}", md.step, ke);
            }
        }
    }

    let local: f64 = md.x.iter().zip(&md.v).map(|(x, v)| x * 1.0 + v * 1e3).sum();
    let sum = ctx.allreduce_f64(local, &mpisim::ReduceOp::Sum)?;
    Ok(sum)
}

fn main() {
    let store = std::env::temp_dir().join(format!("c3-md-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    println!("== failure-free MD ==");
    let baseline = c3::Job::new(4, C3Config::passive(&store)).run(md_app).unwrap();
    println!("  fingerprint: {:.9}", baseline.results[0]);

    println!("== checkpoint every 15 steps; rank 1 dies at step 35 ==");
    let cfg = C3Config {
        policy: CkptPolicy::EveryNth(15),
        initiator: Some(0),
        ..C3Config::passive(&store)
    };
    let plan = FailurePlan { rank: 1, when: FailAt::AfterCommits { commits: 1, pragma: 35 } };
    let rec = c3::Job::new(4, cfg).failure(plan).run(md_app).unwrap();
    println!("  restarts: {}", rec.restarts);
    println!("  fingerprint: {:.9}", rec.handle.results[0]);

    assert_eq!(rec.handle.results, baseline.results);
    println!("== trajectories agree bit-for-bit after recovery ==");
}
