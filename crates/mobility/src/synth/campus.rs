//! DART-like campus mobility: the substitute for the Dartmouth WLAN trace.
//!
//! Students belong to departments (the social structure the paper assumes,
//! §III-A.1). Each node's day is a semi-Markov walk over landmark classes —
//! own department building, library, dining halls, own dorm, misc buildings
//! — with log-normal stay times, overnight dorm stays, reduced weekend
//! activity, and near-zero movement during holiday ranges (reproducing the
//! Thanksgiving/Christmas dips of Fig. 4a). A record-loss process drops a
//! fraction of visits, reproducing the incomplete logs that make order-1
//! the best Markov order on the real traces (§IV-B.3).

use crate::prep::{preprocess, PrepConfig};
use crate::trace::{Trace, Visit};
use dtnflow_core::geometry::Rect;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::rngutil::{log_normal, rng_for, weighted_choice, zipf_weights};
use dtnflow_core::time::{SimDuration, SimTime, DAY, HOUR, MINUTE};
use rand::rngs::StdRng;
use rand::Rng;

use super::place_landmarks;

/// Landmark roles on the synthetic campus, in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampusRole {
    Library,
    Department(usize),
    Dorm(usize),
    Dining(usize),
    Misc(usize),
}

/// Configuration of the campus generator.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    pub nodes: usize,
    pub landmarks: usize,
    pub departments: usize,
    pub dorms: usize,
    pub dining: usize,
    pub days: u32,
    /// Side of the square campus area, meters.
    pub area_side: f64,
    /// Probability that a visit goes unlogged (device off): drives
    /// predictor imperfection.
    pub record_loss: f64,
    /// Day-index ranges `[start, end)` with suppressed movement (holidays).
    pub holidays: Vec<(u32, u32)>,
    /// Relative number of weekend outings vs. a weekday (0..1).
    pub weekend_activity: f64,
    /// Probability that an outing follows the node's fixed daily routine
    /// rather than an impulsive weighted choice. High adherence is what
    /// makes real students' movement Markov-predictable (§IV-B.3).
    pub routine_adherence: f64,
    pub seed: u64,
}

impl Default for CampusConfig {
    /// Reduced-scale default used by the experiment sweeps: 50 nodes,
    /// 40 landmarks, 48 days (16 three-day time units). Holidays at days
    /// 21–24 and 42–45, mimicking the two dips of Fig. 4(a). Contact
    /// sparsity (outings and record loss) is tuned so that, like in the
    /// paper's experiments, node memory is the binding resource at the
    /// default 2000 kB.
    fn default() -> Self {
        CampusConfig {
            nodes: 50,
            landmarks: 40,
            departments: 8,
            dorms: 10,
            dining: 3,
            days: 48,
            area_side: 2_000.0,
            record_loss: 0.22,
            holidays: vec![(21, 25), (42, 46)],
            weekend_activity: 0.35,
            routine_adherence: 0.92,
            seed: 0xCA_4705,
        }
    }
}

impl CampusConfig {
    /// Tiny configuration for tests and examples.
    pub fn tiny() -> Self {
        CampusConfig {
            nodes: 20,
            landmarks: 10,
            departments: 3,
            dorms: 3,
            dining: 1,
            days: 12,
            holidays: vec![],
            ..CampusConfig::default()
        }
    }

    fn validate(&self) {
        assert!(self.nodes > 0 && self.landmarks > 0 && self.days > 0);
        assert!(
            1 + self.departments + self.dorms + self.dining <= self.landmarks,
            "landmarks must cover library + departments + dorms + dining"
        );
        assert!((0.0..1.0).contains(&self.record_loss));
        assert!((0.0..=1.0).contains(&self.weekend_activity));
        assert!((0.0..=1.0).contains(&self.routine_adherence));
    }

    /// The role of each landmark index under this configuration.
    pub fn role(&self, lm: LandmarkId) -> CampusRole {
        let i = lm.index();
        if i == 0 {
            CampusRole::Library
        } else if i < 1 + self.departments {
            CampusRole::Department(i - 1)
        } else if i < 1 + self.departments + self.dorms {
            CampusRole::Dorm(i - 1 - self.departments)
        } else if i < 1 + self.departments + self.dorms + self.dining {
            CampusRole::Dining(i - 1 - self.departments - self.dorms)
        } else {
            CampusRole::Misc(i - 1 - self.departments - self.dorms - self.dining)
        }
    }

    fn is_holiday(&self, day: u32) -> bool {
        self.holidays.iter().any(|&(s, e)| day >= s && day < e)
    }
}

/// The generator. Create with a config, call [`CampusModel::generate`].
#[derive(Debug, Clone)]
pub struct CampusModel {
    cfg: CampusConfig,
}

/// Per-node persona: who the student is and where they tend to go.
struct Persona {
    dorm_lm: usize,
    /// Stationary preference weights over all landmarks (current landmark
    /// is zeroed before sampling so every move is a real transit).
    weights: Vec<f64>,
    /// The fixed daily itinerary the student usually follows.
    routine: Vec<usize>,
    /// Mean number of outings on a weekday.
    outings: f64,
}

impl CampusModel {
    pub fn new(cfg: CampusConfig) -> Self {
        cfg.validate();
        CampusModel { cfg }
    }

    /// Generate the full trace (already preprocessed like the paper's
    /// pipeline: merged records, short visits dropped).
    pub fn generate(&self) -> Trace {
        let cfg = &self.cfg;
        let mut layout_rng = rng_for(cfg.seed, "campus-layout");
        let area = Rect::from_size(cfg.area_side, cfg.area_side);
        let positions = place_landmarks(&mut layout_rng, cfg.landmarks, area, 80.0);

        let mut visits: Vec<Visit> = Vec::new();
        for n in 0..cfg.nodes {
            let mut rng = rng_for(cfg.seed, &format!("campus-node-{n}"));
            let persona = self.persona(n, &mut rng);
            self.node_visits(&persona, &mut rng, &mut visits, NodeId::from(n));
        }

        let prep = preprocess(visits, &PrepConfig::default());
        Trace::new("campus", cfg.nodes, cfg.landmarks, positions, prep.visits)
            .expect("generated campus trace is valid")
    }

    fn persona(&self, n: usize, rng: &mut StdRng) -> Persona {
        let cfg = &self.cfg;
        let department = n % cfg.departments;
        let dorm = rng.random_range(0..cfg.dorms);
        let department_lm = 1 + department;
        let dorm_lm = 1 + cfg.departments + dorm;

        let mut weights = vec![0.0f64; cfg.landmarks];
        weights[0] = 1.8 + rng.random::<f64>(); // library
        weights[department_lm] = 3.5 + rng.random::<f64>() * 1.5;
        weights[dorm_lm] = 1.0;
        let dining_base = 1 + cfg.departments + cfg.dorms;
        // Each student favours one dining hall.
        let favourite = rng.random_range(0..cfg.dining);
        for d in 0..cfg.dining {
            weights[dining_base + d] = if d == favourite { 1.2 } else { 0.2 };
        }
        // Misc buildings: node-specific Zipf over a shuffled order so
        // different students frequent different misc places.
        let misc_base = dining_base + cfg.dining;
        let misc_n = cfg.landmarks - misc_base;
        if misc_n > 0 {
            let zipf = zipf_weights(misc_n, 1.2);
            let offset = rng.random_range(0..misc_n);
            for (k, w) in zipf.iter().enumerate() {
                weights[misc_base + (k + offset) % misc_n] = w * 0.9;
            }
        }
        // The fixed weekday itinerary: department first, then a personal
        // sequence sampled once from the preference weights (no immediate
        // repeats). Day after day the student mostly replays this route,
        // which is what gives real traces their Markov predictability.
        let mut routine = vec![department_lm];
        let mut current = department_lm;
        for _ in 0..6 {
            let mut w = weights.clone();
            w[current] = 0.0;
            let next = weighted_choice(rng, &w);
            routine.push(next);
            current = next;
        }
        Persona {
            dorm_lm,
            weights,
            routine,
            outings: 2.0 + rng.random::<f64>() * 2.5,
        }
    }

    /// A stay-time sample appropriate for the landmark's role.
    fn stay(&self, lm: usize, rng: &mut StdRng) -> SimDuration {
        let (median_min, sigma) = match self.cfg.role(LandmarkId::from(lm)) {
            CampusRole::Library => (100.0, 0.6),
            CampusRole::Department(_) => (90.0, 0.6),
            CampusRole::Dorm(_) => (120.0, 0.7),
            CampusRole::Dining(_) => (40.0, 0.4),
            CampusRole::Misc(_) => (50.0, 0.6),
        };
        let mins = log_normal(rng, median_min, sigma).clamp(5.0, 600.0);
        MINUTE.mul_f64(mins)
    }

    fn travel(&self, rng: &mut StdRng) -> SimDuration {
        // Walking across campus: 5–25 minutes.
        MINUTE.mul_f64(5.0 + rng.random::<f64>() * 20.0)
    }

    fn node_visits(&self, persona: &Persona, rng: &mut StdRng, out: &mut Vec<Visit>, node: NodeId) {
        let cfg = &self.cfg;
        let mut log = |lm: usize, start: SimTime, end: SimTime, rng: &mut StdRng| {
            if end > start && rng.random::<f64>() >= cfg.record_loss {
                out.push(Visit::new(node, LandmarkId::from(lm), start, end));
            }
        };

        for day in 0..cfg.days {
            let day_start = SimTime(day as u64 * DAY.secs());
            let weekday = day % 7 < 5;
            let holiday = cfg.is_holiday(day);

            // Overnight dorm stay from the previous evening to wake-up.
            let wake = day_start + HOUR.mul_f64(7.0 + rng.random::<f64>() * 2.0);

            let outings = if holiday {
                if rng.random::<f64>() < 0.85 {
                    0.0
                } else {
                    1.0
                }
            } else if weekday {
                persona.outings
            } else {
                persona.outings * cfg.weekend_activity
            };
            let count =
                outings.floor() as usize + usize::from(rng.random::<f64>() < outings.fract());

            let mut t = wake;
            let mut current = persona.dorm_lm;
            let day_end = day_start + HOUR.mul_f64(21.0 + rng.random::<f64>() * 2.0);
            // Morning dorm presence until first outing.
            log(current, day_start, t, rng);

            for k in 0..count {
                if t >= day_end {
                    break;
                }
                // Mostly follow the fixed routine; occasionally improvise.
                let next = if weekday && rng.random::<f64>() < cfg.routine_adherence {
                    let r = persona.routine[k % persona.routine.len()];
                    if r == current {
                        persona.routine[(k + 1) % persona.routine.len()]
                    } else {
                        r
                    }
                } else {
                    let mut w = persona.weights.clone();
                    w[current] = 0.0;
                    weighted_choice(rng, &w)
                };
                if next == current {
                    continue;
                }
                t += self.travel(rng);
                let stay = self.stay(next, rng);
                let end = (t + stay).min(day_end);
                log(next, t, end, rng);
                t = end;
                current = next;
            }

            // Evening: return to the dorm until midnight (the next day's
            // overnight segment continues from day_start).
            if current != persona.dorm_lm {
                t += self.travel(rng);
            }
            let midnight = day_start + DAY;
            log(persona.dorm_lm, t.max(day_end), midnight, rng);
        }
    }
}

/// Convenience: generate the default reduced-scale campus trace.
pub fn default_campus_trace(seed: u64) -> Trace {
    CampusModel::new(CampusConfig {
        seed,
        ..CampusConfig::default()
    })
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn small_trace() -> Trace {
        CampusModel::new(CampusConfig::tiny()).generate()
    }

    #[test]
    fn generates_a_valid_nonempty_trace() {
        let t = small_trace();
        assert_eq!(t.num_nodes(), 20);
        assert_eq!(t.num_landmarks(), 10);
        assert!(t.visits().len() > 200, "visits: {}", t.visits().len());
        assert!(t.duration().as_days() <= 12.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CampusModel::new(CampusConfig::tiny()).generate();
        let b = CampusModel::new(CampusConfig::tiny()).generate();
        assert_eq!(a.visits(), b.visits());
        let mut cfg = CampusConfig::tiny();
        cfg.seed ^= 1;
        let c = CampusModel::new(cfg).generate();
        assert_ne!(a.visits(), c.visits());
    }

    #[test]
    fn popularity_is_skewed() {
        let t = default_campus_trace(31);
        let pop = stats::landmark_popularity(&t);
        // The most popular landmark sees clearly more visits than the
        // median one.
        let top = pop[0].1 as f64;
        let median = pop[pop.len() / 2].1 as f64;
        assert!(top > 1.5 * median.max(1.0), "top {top} median {median}");
    }

    #[test]
    fn department_visits_concentrate_on_few_nodes_o1() {
        // O1: for each subarea only a small portion of nodes visit it
        // frequently. A department building is mainly visited by its own
        // students (1/8 of the population), so the top 20% of nodes
        // contribute the bulk of its visits.
        let t = default_campus_trace(11);
        let dept = LandmarkId(1);
        let conc = stats::visit_concentration(&t, dept, 0.2);
        assert!(conc > 0.6, "concentration {conc}");
    }

    #[test]
    fn matching_links_roughly_symmetric_o3() {
        let t = default_campus_trace(7);
        let b = stats::link_bandwidths(&t, DAY.mul(3));
        let sym = b.matching_link_symmetry();
        assert!(sym > 0.6, "symmetry correlation {sym}");
    }

    #[test]
    fn holidays_suppress_transits_o4() {
        let cfg = CampusConfig {
            days: 28,
            holidays: vec![(14, 18)],
            nodes: 40,
            ..CampusConfig::default()
        };
        let t = CampusModel::new(cfg).generate();
        let tl = stats::bandwidth_timeline(&t, DAY);
        let transits_day = |d: usize| -> u64 {
            let mut total = 0u64;
            for i in 0..t.num_landmarks() {
                for j in 0..t.num_landmarks() {
                    total += tl.series(LandmarkId::from(i), LandmarkId::from(j))[d] as u64;
                }
            }
            total
        };
        let normal: u64 = (7..14).map(transits_day).sum();
        let holiday: u64 = (14..18).map(transits_day).sum();
        // Per-day holiday activity is far below per-day normal activity.
        assert!(
            (holiday as f64 / 4.0) < 0.35 * (normal as f64 / 7.0),
            "holiday {holiday} normal {normal}"
        );
    }

    #[test]
    fn roles_partition_landmarks() {
        let cfg = CampusConfig::default();
        let mut lib = 0;
        let mut dep = 0;
        let mut dorm = 0;
        let mut dining = 0;
        let mut misc = 0;
        for l in 0..cfg.landmarks {
            match cfg.role(LandmarkId::from(l)) {
                CampusRole::Library => lib += 1,
                CampusRole::Department(_) => dep += 1,
                CampusRole::Dorm(_) => dorm += 1,
                CampusRole::Dining(_) => dining += 1,
                CampusRole::Misc(_) => misc += 1,
            }
        }
        assert_eq!(lib, 1);
        assert_eq!(dep, cfg.departments);
        assert_eq!(dorm, cfg.dorms);
        assert_eq!(dining, cfg.dining);
        assert_eq!(
            misc,
            cfg.landmarks - 1 - cfg.departments - cfg.dorms - cfg.dining
        );
    }

    #[test]
    #[should_panic(expected = "landmarks must cover")]
    fn rejects_too_few_landmarks() {
        CampusModel::new(CampusConfig {
            landmarks: 5,
            departments: 8,
            ..CampusConfig::default()
        });
    }
}
