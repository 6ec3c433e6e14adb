//! A fixed reference kernel that measures how fast the host runs at the
//! moment, independently of the simulator's code.
//!
//! On a shared host the CPU time of the same simulation drifts by a third
//! over minutes, with no steal at all: other guests contend for the shared
//! last-level cache, memory and the sibling hyperthread, and no clock can
//! exclude that. The kernel has two parts. Three quarters of its time is
//! forwarding-like work: nodes hold buffers of packet ids, and at each
//! contact a node scans its buffer, reads each packet's record from a
//! table larger than the caches and hands some packets over, through an
//! ordered map. It slows under cache and memory contention about as much
//! as the simulation does. The rest is a dependent floating-point loop on
//! data that stays in L1, which tracks the core's own speed. Timed in thread
//! CPU time next to every round, the kernel's run time gives the host
//! speed the round ran at.
//!
//! The kernel never changes with the simulator, so a faster simulator
//! shows as a lower time relative to it.

use crate::profile;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Packet records in the table, 4 bytes each: 64 MB.
const RECORDS: usize = 1 << 24;
const NODES: usize = 50;
/// Packet ids each node starts with.
const BUFFER: usize = 2_000;
/// Contacts per kernel run.
const CONTACTS: u64 = 4_000;
/// Entries the ordered map keeps.
const QUEUE_CAP: usize = 5_000;
/// Elements of the floating-point loop's array (32 kB).
const FLOAT_LEN: usize = 4_096;
/// Passes of the floating-point loop per kernel run.
const FLOAT_PASSES: usize = 10_000;

/// A round figure for the kernel's thread-CPU time on the host the
/// committed baseline was measured on, a shared 2-vCPU VM. Normalised
/// times are in seconds at the speed this figure stands for.
pub const NOMINAL_S: f64 = 0.45;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn random_id(x: &mut u64) -> u32 {
    (xorshift(x) as usize & (RECORDS - 1)) as u32
}

/// The forwarding-like part, over a table of packet records.
fn forward(records: &[u32]) -> u64 {
    let mut x = 0xABCD;
    let mut buffers: Vec<Vec<u32>> = (0..NODES)
        .map(|_| (0..BUFFER).map(|_| random_id(&mut x)).collect())
        .collect();
    let mut queue: BTreeMap<u64, u32> = BTreeMap::new();
    let mut score = 0u64;
    for contact in 0..CONTACTS {
        let a = xorshift(&mut x) as usize % NODES;
        let b = xorshift(&mut x) as usize % NODES;
        if a == b {
            continue;
        }
        let mut handed = Vec::new();
        let mut kept = Vec::with_capacity(buffers[a].len());
        for &p in &buffers[a] {
            let record = records[p as usize];
            score = score.wrapping_add(u64::from(record >> 3));
            if (record ^ contact as u32).is_multiple_of(7) {
                handed.push(record & (RECORDS as u32 - 1));
            } else {
                kept.push(p);
            }
        }
        buffers[a] = kept;
        for p in handed {
            queue.insert((u64::from(p) << 20) | contact, p);
            buffers[b].push(p);
        }
        while queue.len() > QUEUE_CAP {
            queue.pop_first();
        }
        if buffers[b].len() > 2 * BUFFER {
            buffers[b].drain(..BUFFER / 2);
        }
        if buffers[a].len() < BUFFER / 4 {
            buffers[a].extend((0..BUFFER / 2).map(|_| random_id(&mut x)));
        }
    }
    score ^ queue.len() as u64
}

/// The floating-point part.
fn floats() -> f64 {
    let mut v: Vec<f64> = (0..FLOAT_LEN).map(|i| i as f64 * 0.37).collect();
    let mut sum = 0.0;
    for pass in 0..FLOAT_PASSES {
        for (i, e) in v.iter_mut().enumerate() {
            *e = (*e * 1.000_000_1 + (i ^ pass) as f64 * 1e-9).sqrt() + 0.5;
            sum += *e;
        }
    }
    sum
}

/// Thread-CPU seconds of one kernel run. The table is built, from a
/// fixed seed, before the clock starts and freed after it stops, so it
/// never adds to the simulation's peak memory.
pub fn kernel_time() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let records: Vec<u32> = (0..RECORDS).map(|_| xorshift(&mut x) as u32).collect();
    let t0 = profile::thread_cpu_secs();
    black_box(forward(&records));
    black_box(floats());
    profile::thread_cpu_secs() - t0
}
