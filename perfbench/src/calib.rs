//! A fixed calibration load, standard library only, timed right before
//! every timed iteration.
//!
//! The box the benchmark runs on is shared, and its speed drifts by tens
//! of percent over minutes. The calibration does the two kinds of work
//! the simulator spends its wall time on, with no code of the program:
//! thread hand-offs (8 threads pass a token round a ring through mutexes
//! and condition variables, as rank threads hand messages through the
//! fabric's mailboxes) and single-thread hashing over a buffer larger
//! than the L2 cache (as the store hashes images). `run_rel` is the median
//! iteration wall time over the median calibration time of one run, so a
//! change to the program moves `run_rel` and a drift in the machine's
//! speed mostly does not.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

const THREADS: usize = 8;
const PASSES: usize = 6_000;
const HASH_WORDS: usize = 1 << 17;
const HASH_ROUNDS: usize = 24;

/// Seconds the calibration load takes now.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    handoffs();
    std::hint::black_box(hashing());
    t0.elapsed().as_secs_f64()
}

fn handoffs() {
    let turn = Mutex::new(0usize);
    let wake: Vec<Condvar> = (0..THREADS).map(|_| Condvar::new()).collect();
    std::thread::scope(|s| {
        for me in 0..THREADS {
            let (turn, wake) = (&turn, &wake);
            s.spawn(move || {
                let mut passes = me;
                while passes < PASSES {
                    let mut t = turn.lock().expect("calibration lock");
                    while *t % THREADS != me {
                        t = wake[me].wait(t).expect("calibration wait");
                    }
                    *t += 1;
                    passes += THREADS;
                    wake[(me + 1) % THREADS].notify_one();
                }
            });
        }
    });
}

fn hashing() -> u64 {
    let buf: Vec<u64> = (0..HASH_WORDS as u64).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..HASH_ROUNDS {
        for &w in std::hint::black_box(&buf) {
            h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
