//! `message_path` — records the message-substrate perf trajectory.
//!
//! Times the substrate's hot scenarios (ping-pong, fan-out, mailbox claims
//! at depth) and the C³ layer's passive ping-pong with plain wall-clock
//! timing, prints a comparison table, and emits `BENCH_message_path.json`
//! into `$BENCH_OUT_DIR`, else `target/bench-out/`, never over the
//! committed baseline at the repo root. `ci_gate` ratchets a fresh run
//! against that baseline; a deliberate rebaseline runs with
//! `BENCH_OUT_DIR=.` from the repo root.

use c3::{C3Config, Job};
use c3_bench::{Align, Table};
use mpisim::{launch, Envelope, JobSpec, Mailbox, Payload, ANY_SOURCE, ANY_TAG, COMM_WORLD};
use statesave::TempStore;
use std::time::Instant;

const MSG: usize = 65_536;
/// The C³ ping-pong's message: small, so the row is the protocol's fixed
/// per-message cost (control probe, piggyback, arrival classification,
/// counters) over the substrate's, not a copy of a large payload.
const C3_MSG: usize = 8;
const ROUNDS: usize = 256;
const REPS: usize = 5;

struct Row {
    name: &'static str,
    ns_per_op: f64,
    bytes_per_op: u64,
}

/// Best-of-`REPS` wall time of `f`, divided by `ops`.
fn time_per_op<F: FnMut()>(ops: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

fn ping_pong(zero_copy: bool) -> f64 {
    time_per_op(2 * ROUNDS as u64, || {
        launch(&JobSpec::new(2), |ctx| {
            let mut buf = vec![1u8; MSG];
            let peer = 1 - ctx.rank();
            let (my_tag, peer_tag) = if ctx.rank() == 0 { (1, 2) } else { (2, 1) };
            for _ in 0..ROUNDS {
                if zero_copy {
                    ctx.send_owned(peer, my_tag, COMM_WORLD, 0, buf)?;
                } else {
                    ctx.send_bytes(peer, my_tag, COMM_WORLD, 0, &buf)?;
                }
                let (r, _) = ctx.recv_bytes(peer as i32, peer_tag, COMM_WORLD)?;
                buf = r;
            }
            Ok(buf.len())
        })
        .unwrap();
    })
}

/// Ranks 0 and 1 bounce a [`C3_MSG`]-byte message through the C³ layer
/// with checkpointing off (`CkptPolicy::Never`).
fn c3_ping_pong() -> f64 {
    let store = TempStore::new("message_path");
    let job = Job::new(2, C3Config::passive(store.path()));
    time_per_op(2 * ROUNDS as u64, || {
        job.run(|ctx| {
            let peer = 1 - ctx.rank();
            let mut buf = vec![1u8; C3_MSG];
            for _ in 0..ROUNDS {
                if ctx.rank() == 0 {
                    ctx.send_bytes(peer, 1, &buf)?;
                    buf = ctx.recv_bytes(peer as i32, 1)?.0;
                } else {
                    buf = ctx.recv_bytes(peer as i32, 1)?.0;
                    ctx.send_bytes(peer, 1, &buf)?;
                }
            }
            Ok(buf.len())
        })
        .expect("passive C3 ping-pong completes");
    })
}

fn fan_out(shared: bool) -> f64 {
    const N: usize = 8;
    time_per_op(((N - 1) * ROUNDS) as u64, || {
        launch(&JobSpec::new(N), |ctx| {
            if ctx.rank() == 0 {
                let payload = Payload::from_vec(vec![7u8; MSG]);
                for _ in 0..ROUNDS {
                    for dst in 1..N {
                        if shared {
                            ctx.send_payload(dst, 1, COMM_WORLD, 0, payload.clone())?;
                        } else {
                            ctx.send_bytes(dst, 1, COMM_WORLD, 0, &payload)?;
                        }
                    }
                }
            } else {
                for _ in 0..ROUNDS {
                    let (r, _) = ctx.recv_payload(0, 1, COMM_WORLD)?;
                    std::hint::black_box(r.len());
                }
            }
            Ok(0usize)
        })
        .unwrap();
    })
}

fn mailbox_claim(depth: usize, wildcard: bool) -> f64 {
    let mb = Mailbox::new();
    for i in 0..depth {
        mb.deliver(Envelope {
            src: 0,
            dst: 0,
            tag: i as i32,
            comm: COMM_WORLD,
            seq: i as u64,
            piggyback: 0,
            depart_vt: 0,
            payload: Payload::empty(),
        });
    }
    let iters = 20_000u64;
    time_per_op(iters, || {
        for _ in 0..iters {
            let e = if wildcard {
                mb.try_claim(ANY_SOURCE, ANY_TAG, COMM_WORLD).unwrap()
            } else {
                mb.try_claim(0, depth as i32 - 1, COMM_WORLD).unwrap()
            };
            mb.deliver(std::hint::black_box(e));
        }
    })
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_/.-".contains(c)));
    name
}

fn main() {
    let rows = vec![
        Row { name: "ping_pong/copying", ns_per_op: ping_pong(false), bytes_per_op: MSG as u64 },
        Row { name: "ping_pong/zero_copy", ns_per_op: ping_pong(true), bytes_per_op: MSG as u64 },
        Row {
            name: "c3_ping_pong/passive",
            ns_per_op: c3_ping_pong(),
            bytes_per_op: C3_MSG as u64,
        },
        Row {
            name: "fan_out/copy_per_destination",
            ns_per_op: fan_out(false),
            bytes_per_op: MSG as u64,
        },
        Row { name: "fan_out/shared_payload", ns_per_op: fan_out(true), bytes_per_op: MSG as u64 },
        Row {
            name: "mailbox/exact_claim_depth_4096",
            ns_per_op: mailbox_claim(4096, false),
            bytes_per_op: 0,
        },
        Row {
            name: "mailbox/wildcard_claim_depth_4096",
            ns_per_op: mailbox_claim(4096, true),
            bytes_per_op: 0,
        },
        Row {
            name: "mailbox/exact_claim_depth_16",
            ns_per_op: mailbox_claim(16, false),
            bytes_per_op: 0,
        },
    ];

    let mut t = Table::new(
        "message_path — zero-copy substrate trajectory",
        &[("scenario", Align::Left), ("ns/op", Align::Right), ("bytes/op", Align::Right)],
    );
    for r in &rows {
        t.row(vec![r.name.to_string(), format!("{:.1}", r.ns_per_op), r.bytes_per_op.to_string()]);
    }
    t.print();

    // Hand-rolled JSON (no serde in the container): flat schema, one object
    // per scenario.
    let mut json = String::from(
        "{\n  \"bench\": \"message_path\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"bytes_per_op\": {}}}{}\n",
            json_escape_free(r.name),
            r.ns_per_op,
            r.bytes_per_op,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let dir = c3_bench::bench_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("BENCH_message_path.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}
