//! Self-time span accounting for the traced run.
//!
//! Every timed call pushes a layer on a stack when it starts and pops it
//! when it returns. Each clock read charges the time since the previous
//! read to whichever layer is on top, so a layer's busy time is its self
//! time: an `obs.record` nested inside a router hook is charged to
//! `obs.record`, not to the hook. Time with an empty stack is charged to
//! nobody and shows up as the unattributed remainder.

use dtnflow_bench::timing::Stopwatch;
use std::cell::RefCell;

/// Layers that are not router hooks, in [`Profiler`] slot order.
pub const FIXED_LAYERS: [&str; 10] = [
    "mobility.synth",
    "sim.workload_gen",
    "sim.fault_plan",
    "sim.session_start",
    "sim.engine",
    "sim.finish",
    "obs.record",
    "snapshot.encode",
    "snapshot.restore",
    "bench.collect",
];

pub const SYNTH: usize = 0;
pub const WORKLOAD_GEN: usize = 1;
pub const FAULT_PLAN: usize = 2;
pub const SESSION_START: usize = 3;
pub const ENGINE: usize = 4;
pub const FINISH: usize = 5;
pub const OBS_RECORD: usize = 6;
pub const SNAPSHOT_ENCODE: usize = 7;
pub const SNAPSHOT_RESTORE: usize = 8;
/// The benchmark's own encoding of each outcome for its checks.
pub const COLLECT: usize = 9;

/// The set-up layers, whose sum is `setup_s`.
pub const SETUP: [usize; 4] = [SYNTH, WORKLOAD_GEN, FAULT_PLAN, SESSION_START];

/// Router hooks, in slot order within one router's block of slots.
pub const HOOKS: [&str; 11] = [
    "on_arrive",
    "on_depart",
    "on_encounter",
    "on_packet_generated",
    "on_time_unit",
    "on_timer",
    "on_station_down",
    "on_station_up",
    "on_node_fail",
    "on_node_recover",
    "on_observe",
];

/// Slot of `hook` (an index into [`HOOKS`]) for the router whose
/// method index is `method`.
pub fn hook_slot(method: usize, hook: usize) -> usize {
    FIXED_LAYERS.len() + method * HOOKS.len() + hook
}

/// What a [`Profiler`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time: what the traced run attributes.
    Wall,
    /// CPU time of the calling thread, as the scheduler counts it. On a
    /// virtual machine this excludes the time the hypervisor runs other
    /// guests on our vCPU (steal), which moves wall time of the same work
    /// by up to 30% over minutes on a shared host. Every span must be
    /// entered and left on the thread that created the profiler.
    ThreadCpu,
}

/// CPU seconds the calling thread has run, as the scheduler counts them.
pub fn thread_cpu_secs() -> f64 {
    // The first field of schedstat is the thread's run time in ns.
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the run time in ns");
    ns as f64 * 1e-9
}

/// Seconds on `clock` since an arbitrary origin.
fn read(clock: Clock, wall: &Stopwatch) -> f64 {
    match clock {
        Clock::Wall => wall.elapsed_secs(),
        Clock::ThreadCpu => thread_cpu_secs(),
    }
}

#[derive(Debug)]
struct State {
    kind: Clock,
    clock: Stopwatch,
    origin: f64,
    last: f64,
    stack: Vec<usize>,
    busy: Vec<f64>,
    calls: Vec<u64>,
}

/// Busy seconds and call counts per slot, for `methods` routers.
#[derive(Debug)]
pub struct Profiler {
    state: RefCell<State>,
}

impl Profiler {
    pub fn new(methods: usize, kind: Clock) -> Profiler {
        let slots = hook_slot(methods, 0);
        let clock = Stopwatch::start();
        let origin = read(kind, &clock);
        Profiler {
            state: RefCell::new(State {
                kind,
                clock,
                origin,
                last: 0.0,
                stack: Vec::new(),
                busy: vec![0.0; slots],
                calls: vec![0; slots],
            }),
        }
    }

    /// Seconds on the profiler's clock since it was created.
    pub fn now(&self) -> f64 {
        let s = self.state.borrow();
        read(s.kind, &s.clock) - s.origin
    }

    /// Charge the time since the last read to the current top layer.
    fn advance(s: &mut State) {
        let t = read(s.kind, &s.clock) - s.origin;
        if let Some(&top) = s.stack.last() {
            s.busy[top] += t - s.last;
        }
        s.last = t;
    }

    pub fn enter(&self, slot: usize) {
        let mut s = self.state.borrow_mut();
        Self::advance(&mut s);
        s.stack.push(slot);
        s.calls[slot] += 1;
    }

    pub fn exit(&self) {
        let mut s = self.state.borrow_mut();
        Self::advance(&mut s);
        s.stack.pop();
    }

    /// Run `f` as one call of `slot`.
    pub fn span<T>(&self, slot: usize, f: impl FnOnce() -> T) -> T {
        self.enter(slot);
        let out = f();
        self.exit();
        out
    }

    pub fn busy(&self, slot: usize) -> f64 {
        self.state.borrow().busy[slot]
    }

    pub fn calls(&self, slot: usize) -> u64 {
        self.state.borrow().calls[slot]
    }

    /// Busy seconds summed over every slot.
    pub fn total_busy(&self) -> f64 {
        self.state.borrow().busy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_time_is_charged_to_the_inner_layer_only() {
        let p = Profiler::new(1, Clock::Wall);
        p.span(ENGINE, || {
            p.span(hook_slot(0, 0), || {
                p.span(OBS_RECORD, || {
                    std::hint::black_box((0..10_000u64).sum::<u64>())
                })
            })
        });
        assert_eq!(p.calls(ENGINE), 1);
        assert_eq!(p.calls(OBS_RECORD), 1);
        let parts = p.busy(ENGINE) + p.busy(hook_slot(0, 0)) + p.busy(OBS_RECORD);
        assert!((p.total_busy() - parts).abs() < 1e-12);
        assert!(p.total_busy() <= p.now());
    }

    #[test]
    fn thread_cpu_clock_counts_work_on_this_thread() {
        let p = Profiler::new(1, Clock::ThreadCpu);
        p.span(ENGINE, || {
            std::hint::black_box((0..100_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(31)))
        });
        assert!(p.busy(ENGINE) > 0.0);
        assert!(p.busy(ENGINE) <= p.now());
    }
}
