// Fixture: parallel-readiness hazards in an outcome-affecting crate.
// Never compiled.

static mut SHARED: u64 = 0; // line 4: C1 (static mut)

static CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new()); // line 6: C1 (interior-mutable static)

thread_local! { // line 8: C1 x2 (thread_local + the RefCell static inside)
    static SCRATCH: RefCell<Vec<u64>> = RefCell::new(Vec::new());
}

pub fn fan_out() {
    std::thread::spawn(|| {}); // line 13: C1 (ad-hoc threading)
    let (tx, rx) = mpsc::channel(); // line 14: C1 (channel)
    drop((tx, rx));
}

pub fn tally(m: &BTreeMap<u32, f64>) -> f64 {
    m.values().sum::<f64>() // line 19: C1 (float sum over non-index order)
}

pub fn tally_fold(m: &BTreeMap<u32, f64>) -> f64 {
    m.values().fold(0.0, |acc, x| acc + x) // line 23: C1
}

pub fn scoped() {
    std::thread::scope(|_| {}); // line 27: C1 (ad-hoc threading)
}
