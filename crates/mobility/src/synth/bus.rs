//! DNET-like bus mobility: the substitute for the UMass DieselNet AP trace.
//!
//! Buses cycle fixed routes through stop landmarks all day, every day
//! (DNET excluded weekends and holidays, so there is no calendar
//! modulation and bandwidths are *more* stable than campus — Fig. 4b).
//! Two effects from the real trace are modelled explicitly:
//!
//! * **AP ambiguity** — in DNET a bus "may associate with one of several
//!   neighbouring APs after each transit", which is why bus prediction
//!   accuracy is *below* campus accuracy despite repetitive motion
//!   (§IV-B.3). With probability `AMBIGUITY` a stop is logged as its
//!   spatially nearest other stop.
//! * **Garage trips** — a bus occasionally retires to a garage/parking lot
//!   for maintenance (§IV-E.1's dead-end example). The garage is the last
//!   landmark index.

use crate::prep::{preprocess, PrepConfig};
use crate::trace::{Trace, Visit};
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::rngutil::{log_normal, rng_for};
use dtnflow_core::time::{SimDuration, SimTime, DAY, HOUR};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of the bus generator.
#[derive(Debug, Clone)]
pub struct BusConfig {
    pub buses: usize,
    /// Number of service stops; the garage adds one more landmark.
    pub stops: usize,
    pub routes: usize,
    pub days: u32,
    /// Per-day probability a bus retires early to the garage.
    pub garage_prob: f64,
    pub seed: u64,
}

impl Default for BusConfig {
    /// Reduced-scale default: 20 buses, 12 stops + garage, 20 days
    /// (40 half-day time units, matching the paper's DNET unit count).
    fn default() -> Self {
        BusConfig {
            buses: 12,
            stops: 13,
            routes: 4,
            days: 20,
            garage_prob: 0.04,
            seed: 0xB0_5EED,
        }
    }
}

impl BusConfig {
    /// Tiny configuration for tests and examples.
    pub fn tiny() -> Self {
        BusConfig {
            buses: 6,
            stops: 6,
            routes: 3,
            days: 6,
            ..BusConfig::default()
        }
    }

    /// Total landmarks: stops plus the garage.
    pub fn landmarks(&self) -> usize {
        self.stops + 1
    }

    /// The garage landmark.
    pub fn garage(&self) -> LandmarkId {
        LandmarkId::from(self.stops)
    }

    fn validate(&self) {
        assert!(self.buses > 0 && self.routes > 0 && self.days > 0);
        assert!(self.stops >= 3, "need at least 3 stops to form routes");
        assert!((0.0..1.0).contains(&self.garage_prob));
    }
}

/// The generator. Create with a config, call [`BusModel::generate`].
#[derive(Debug, Clone)]
pub struct BusModel {
    cfg: BusConfig,
}

impl BusModel {
    pub fn new(cfg: BusConfig) -> Self {
        cfg.validate();
        BusModel { cfg }
    }

    /// Stop positions: a ring around the downtown hub (stop 0 at the
    /// center), garage on the outskirts.
    fn positions(&self) -> Vec<Point> {
        let n = self.cfg.stops;
        let mut pts = Vec::with_capacity(n + 1);
        pts.push(Point::new(0.0, 0.0)); // hub downtown
        for i in 1..n {
            let angle = std::f64::consts::TAU * (i as f64 / (n - 1) as f64);
            let radius = 1_200.0 + 400.0 * ((i % 3) as f64);
            pts.push(Point::new(radius * angle.cos(), radius * angle.sin()));
        }
        pts.push(Point::new(2_800.0, 2_800.0)); // garage
        pts
    }

    /// Route `r`: a directed loop from the hub through a *disjoint* arc of
    /// outer stops (hub → s1 → … → sk → hub → …), traversed clockwise or
    /// counter-clockwise depending on `direction`. Routes only meet at the
    /// downtown hub — the inter-village topology of the paper's
    /// motivation — so traffic between different routes *must* be relayed
    /// there. Bidirectional service by paired vehicles makes matching
    /// transit links symmetric in bandwidth (O3), and the hub links
    /// carry every route's traffic while outer links carry one route's
    /// (O2 skew). Each individual bus stays order-1 predictable.
    fn route(&self, r: usize, direction: bool) -> Vec<usize> {
        let outer = self.cfg.stops - 1; // stops 1..stops
        let routes = self.cfg.routes;
        // Split the outer stops into contiguous, non-overlapping arcs.
        let start = r * outer / routes;
        let end = (r + 1) * outer / routes;
        let mut stops = vec![0usize];
        for k in start..end {
            stops.push(1 + k);
        }
        if direction {
            stops[1..].reverse();
        }
        stops
    }

    /// The spatially nearest other stop — the "neighbouring AP" a visit may
    /// be mis-logged as.
    fn nearest_other(&self, positions: &[Point], s: usize) -> usize {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (i, p) in positions.iter().enumerate().take(self.cfg.stops) {
            if i != s {
                let d = p.distance(positions[s]);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
        }
        best
    }

    /// Generate the full trace.
    pub fn generate(&self) -> Trace {
        let cfg = &self.cfg;
        let positions = self.positions();
        let mut visits: Vec<Visit> = Vec::new();

        for b in 0..cfg.buses {
            let mut rng = rng_for(cfg.seed, &format!("bus-{b}"));
            let route = self.route(b % cfg.routes, (b % cfg.routes + b / cfg.routes) % 2 == 1);
            self.bus_visits(b, &route, &positions, &mut rng, &mut visits);
        }

        let prep = preprocess(
            visits,
            &PrepConfig {
                min_visit: SimDuration::from_secs(60),
                ..PrepConfig::default()
            },
        );
        Trace::new("bus", cfg.buses, cfg.landmarks(), positions, prep.visits)
            .expect("generated bus trace is valid")
    }

    fn bus_visits(
        &self,
        b: usize,
        route: &[usize],
        positions: &[Point],
        rng: &mut StdRng,
        out: &mut Vec<Visit>,
    ) {
        /// Median dwell at a stop, seconds.
        const DWELL_MEDIAN_S: f64 = 900.0;
        /// Median drive between consecutive stops, seconds.
        const HOP_MEDIAN_S: f64 = 1_800.0;
        /// Mean number of route loops a bus drives per day. DNET buses
        /// were only intermittently near open APs, so the *logged*
        /// service is sparse; a low value reproduces the day-scale
        /// delivery latencies of the paper's DNET experiments.
        const LOOPS_PER_DAY: f64 = 2.0;
        /// Probability a stop is logged as its nearest neighbouring stop.
        const AMBIGUITY: f64 = 0.12;
        /// Probability a stop visit goes unlogged entirely. DNET's APs
        /// were third-party roadside APs that "may not appear constantly
        /// in the trace, leading to missing records" (§IV-B.3) — this is
        /// what makes order-1 the best Markov order despite ping-pong
        /// routes.
        const RECORD_LOSS: f64 = 0.35;
        /// Per-day probability a bus breaks down mid-route and stalls at
        /// a regular stop for several hours — the §IV-E.1 "dead end on
        /// its regular route", rescuable because other buses pass the
        /// stop.
        const BREAKDOWN_PROB: f64 = 0.05;
        /// Per-day probability a bus is pulled into day-long depot
        /// maintenance at the downtown hub — a long, rescuable dead end
        /// (other buses keep passing the hub).
        const DEPOT_PROB: f64 = 0.05;
        let cfg = &self.cfg;
        let node = NodeId::from(b);
        let mut day = 0u32;
        while day < cfg.days {
            let day_start = SimTime(day as u64 * DAY.secs());
            if rng.random::<f64>() < DEPOT_PROB {
                // Depot maintenance at the hub: stalled a day in plain
                // sight of all passing buses.
                let into = day_start + HOUR.mul_f64(8.0 + rng.random::<f64>() * 4.0);
                let out_at = into + HOUR.mul_f64(18.0 + rng.random::<f64>() * 12.0);
                out.push(Visit::new(node, LandmarkId::from(0usize), into, out_at));
                day += 2;
                continue;
            }
            let garage_today = rng.random::<f64>() < cfg.garage_prob;
            if garage_today {
                // Maintenance: parked at the garage into the next morning —
                // the §IV-E.1 dead end. The bus also misses the next
                // service day's start.
                let into = day_start + HOUR.mul_f64(9.0 + rng.random::<f64>() * 3.0);
                let back = day_start + DAY + HOUR.mul_f64(5.0);
                out.push(Visit::new(node, cfg.garage(), into, back));
                day += 2;
                continue;
            }

            // Sparse service: a few route loops at staggered times, parked
            // (invisible to the network) in between. Loop counts follow a
            // deterministic timetable accumulator (buses run schedules,
            // not coin flips), which keeps per-unit bandwidths stable (O4).
            let loops = (((day as f64 + 1.0) * LOOPS_PER_DAY).floor()
                - (day as f64 * LOOPS_PER_DAY).floor()) as u32;
            let service_start = day_start + HOUR.mul_f64(6.0 + rng.random::<f64>());
            let service_end = day_start + HOUR.mul_f64(21.0 + rng.random::<f64>());
            let breakdown_today = rng.random::<f64>() < BREAKDOWN_PROB;
            let mut t = service_start;
            for _ in 0..loops {
                // Idle gap before this loop starts.
                t += HOUR.mul_f64(rng.random::<f64>() * 3.0);
                for &stop in route {
                    if t >= service_end {
                        break;
                    }
                    let dwell = SimDuration::from_secs(log_normal(rng, DWELL_MEDIAN_S, 0.4) as u64);
                    // AP ambiguity: sometimes the visit is logged at the
                    // nearest neighbouring stop; sometimes not at all.
                    let logged = if rng.random::<f64>() < AMBIGUITY {
                        self.nearest_other(positions, stop)
                    } else {
                        stop
                    };
                    let mut end = t + dwell;
                    // A breakdown stalls the bus here for hours, visible
                    // to the station the whole time.
                    if breakdown_today && rng.random::<f64>() < 0.25 {
                        end += HOUR.mul_f64(4.0 + rng.random::<f64>() * 6.0);
                        out.push(Visit::new(node, LandmarkId::from(stop), t, end));
                    } else if rng.random::<f64>() >= RECORD_LOSS {
                        out.push(Visit::new(node, LandmarkId::from(logged), t, end));
                    }
                    let hop = SimDuration::from_secs(log_normal(rng, HOP_MEDIAN_S, 0.3) as u64);
                    t = end + hop;
                }
            }
            day += 1;
        }
    }
}

/// Convenience: generate the default reduced-scale bus trace.
pub fn default_bus_trace(seed: u64) -> Trace {
    BusModel::new(BusConfig {
        seed,
        ..BusConfig::default()
    })
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn generates_valid_trace() {
        let t = BusModel::new(BusConfig::tiny()).generate();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_landmarks(), 7);
        assert!(t.visits().len() > 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BusModel::new(BusConfig::tiny()).generate();
        let b = BusModel::new(BusConfig::tiny()).generate();
        assert_eq!(a.visits(), b.visits());
    }

    #[test]
    fn routes_share_the_hub() {
        let m = BusModel::new(BusConfig::default());
        for r in 0..m.cfg.routes {
            assert_eq!(m.route(r, false)[0], 0, "route {r} must start at the hub");
            assert_eq!(m.route(r, true)[0], 0, "reverse route {r} too");
            // The two directions visit the same stops.
            let mut fwd = m.route(r, false);
            let mut rev = m.route(r, true);
            fwd.sort_unstable();
            rev.sort_unstable();
            assert_eq!(fwd, rev);
        }
    }

    #[test]
    fn link_bandwidths_are_skewed_o2() {
        let t = default_bus_trace(3);
        let b = stats::link_bandwidths(&t, SimDuration::from_days(0.5));
        let links = b.ordered_links();
        // O2: a small portion of links carries most traffic — the top link
        // has several times the median link's bandwidth.
        let median = links[links.len() / 2].2;
        assert!(
            links[0].2 >= 3.0 * median,
            "top {} median {median}",
            links[0].2
        );
    }

    #[test]
    fn matching_links_symmetric_o3() {
        // Out-and-back service means b(i->j) tracks b(j->i).
        let t = default_bus_trace(10);
        let b = stats::link_bandwidths(&t, SimDuration::from_days(0.5));
        let sym = b.matching_link_symmetry();
        // AP ambiguity and odd per-route bus counts add noise, so the
        // correlation is high but not perfect.
        assert!(sym > 0.6, "symmetry correlation {sym}");
    }

    #[test]
    fn bus_bandwidths_lack_calendar_dips_o4() {
        // Fig. 4 contrast: the campus trace has deep holiday dips in
        // per-unit transit counts, while the bus trace (no weekends or
        // holidays) stays near its average throughout.
        let bus = default_bus_trace(5);
        let tl = stats::bandwidth_timeline(&bus, DAY);
        let units = tl.num_units();
        let mut day_totals = vec![0u64; units];
        for i in 0..bus.num_landmarks() {
            for j in 0..bus.num_landmarks() {
                let series = tl.series(LandmarkId::from(i), LandmarkId::from(j));
                for (d, c) in series.iter().enumerate() {
                    day_totals[d] += *c as u64;
                }
            }
        }
        // Ignore the possibly short first/last day.
        let interior = &day_totals[1..units - 1];
        let mean = interior.iter().sum::<u64>() as f64 / interior.len() as f64;
        let min = *interior.iter().min().unwrap() as f64;
        assert!(mean > 0.0);
        assert!(
            min > 0.35 * mean,
            "no service blackout expected: min {min} mean {mean}"
        );
    }

    #[test]
    fn garage_trips_occur() {
        let cfg = BusConfig {
            garage_prob: 0.5,
            ..BusConfig::tiny()
        };
        let garage = cfg.garage();
        let t = BusModel::new(cfg).generate();
        let garage_visits = t.visits().iter().filter(|v| v.landmark == garage).count();
        assert!(garage_visits > 0, "expected garage visits");
        // Garage stays are long (overnight).
        let max_stay = t
            .visits()
            .iter()
            .filter(|v| v.landmark == garage)
            .map(|v| v.duration().secs())
            .max()
            .unwrap();
        assert!(max_stay > 8 * 3_600);
    }

    #[test]
    fn no_garage_without_probability() {
        let cfg = BusConfig {
            garage_prob: 0.0,
            ..BusConfig::tiny()
        };
        let garage = cfg.garage();
        let t = BusModel::new(cfg).generate();
        assert!(t.visits().iter().all(|v| v.landmark != garage));
    }
}
