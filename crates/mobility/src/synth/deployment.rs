//! The §V-C campus deployment: nine students carrying phones across eight
//! buildings for a week and a half.
//!
//! Landmark layout mirrors Fig. 15: `l0` is the library (the paper's
//! \"l1\", the data-collection sink), `l1..=l4` are department buildings,
//! and `l5..=l7` are the student center and dining halls. Most
//! participating students are from the departments in `l1` and `l2`, and
//! they \"usually study in the library and go to classes in both department
//! buildings\" — which is what makes the library↔department links the
//! highest-bandwidth ones in Fig. 16(b).

use crate::prep::{preprocess, PrepConfig};
use crate::trace::{Trace, Visit};
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::rngutil::{log_normal, rng_for, weighted_choice};
use dtnflow_core::time::{SimDuration, SimTime, DAY, HOUR, MINUTE};
use rand::Rng;

/// Number of mobile nodes in the deployment.
pub const DEPLOY_NODES: usize = 9;
/// Number of landmarks in the deployment.
pub const DEPLOY_LANDMARKS: usize = 8;
/// The library: destination of every deployment packet.
pub const LIBRARY: LandmarkId = LandmarkId(0);
/// Length of the deployment in days (a week and a half).
const DEPLOY_DAYS: u32 = 12;

/// Configuration of the deployment generator.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub seed: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig { seed: 0xDE_9107 }
    }
}

/// The generator. Create with a config, call [`DeploymentModel::generate`].
#[derive(Debug, Clone)]
pub struct DeploymentModel {
    cfg: DeploymentConfig,
}

impl DeploymentModel {
    pub fn new(cfg: DeploymentConfig) -> Self {
        DeploymentModel { cfg }
    }

    /// Building positions roughly matching the Fig. 15 sketch (meters).
    fn positions() -> Vec<Point> {
        vec![
            Point::new(500.0, 500.0), // l0 library (central)
            Point::new(250.0, 650.0), // l1 department A
            Point::new(700.0, 680.0), // l2 department B
            Point::new(150.0, 300.0), // l3 department C
            Point::new(850.0, 320.0), // l4 department D
            Point::new(480.0, 150.0), // l5 student center
            Point::new(300.0, 450.0), // l6 dining hall
            Point::new(680.0, 460.0), // l7 dining hall
        ]
    }

    /// Department of each student: five from department A, two from B,
    /// one each from C and D ("nine students from four departments",
    /// "most students ... are from departments located in l4 and l5" of
    /// the paper's labelling, i.e. our l1/l2).
    fn department(node: usize) -> usize {
        match node {
            0..=4 => 1,
            5 | 6 => 2,
            7 => 3,
            _ => 4,
        }
    }

    /// Generate the deployment trace.
    pub fn generate(&self) -> Trace {
        let cfg = &self.cfg;
        let mut visits: Vec<Visit> = Vec::new();

        for n in 0..DEPLOY_NODES {
            let mut rng = rng_for(cfg.seed, &format!("deploy-node-{n}"));
            let dept = Self::department(n);
            let node = NodeId::from(n);

            // Preference weights: own department and library dominate;
            // students from A and B also attend classes in each other's
            // building.
            let mut weights = vec![0.0f64; DEPLOY_LANDMARKS];
            weights[LIBRARY.index()] = 3.0;
            weights[dept] = 3.5;
            if dept == 1 {
                weights[2] = 1.5;
            }
            if dept == 2 {
                weights[1] = 1.5;
            }
            weights[5] = 0.7;
            weights[6] = 0.5;
            weights[7] = 0.5;

            for day in 0..DEPLOY_DAYS {
                let day_start = SimTime(day as u64 * DAY.secs());
                let weekday = day % 7 < 5;
                let mut t = day_start + HOUR.mul_f64(8.0 + rng.random::<f64>() * 1.5);
                let day_end = day_start + HOUR.mul_f64(18.0 + rng.random::<f64>() * 3.0);
                let outings = if weekday { 7 } else { 3 };
                let mut current = usize::MAX;
                for _ in 0..outings {
                    if t >= day_end {
                        break;
                    }
                    let mut w = weights.clone();
                    if current != usize::MAX {
                        w[current] = 0.0;
                    }
                    let next = weighted_choice(&mut rng, &w);
                    t += MINUTE.mul_f64(5.0 + rng.random::<f64>() * 10.0);
                    let stay = MINUTE.mul_f64(log_normal(&mut rng, 70.0, 0.5).clamp(10.0, 300.0));
                    let end = (t + stay).min(day_end);
                    if end > t {
                        visits.push(Visit::new(node, LandmarkId::from(next), t, end));
                    }
                    t = end;
                    current = next;
                }
            }
        }

        let prep = preprocess(
            visits,
            &PrepConfig {
                min_visit: SimDuration::from_secs(200),
                ..PrepConfig::default()
            },
        );
        Trace::new(
            "deployment",
            DEPLOY_NODES,
            DEPLOY_LANDMARKS,
            Self::positions(),
            prep.visits,
        )
        .expect("generated deployment trace is valid")
    }
}

/// Convenience: generate the default deployment trace.
pub fn default_deployment_trace(seed: u64) -> Trace {
    DeploymentModel::new(DeploymentConfig { seed }).generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn shape_matches_the_paper() {
        let t = default_deployment_trace(1);
        assert_eq!(t.num_nodes(), DEPLOY_NODES);
        assert_eq!(t.num_landmarks(), DEPLOY_LANDMARKS);
        assert!(t.transits().len() > 100, "transits {}", t.transits().len());
    }

    #[test]
    fn library_department_links_dominate() {
        let t = default_deployment_trace(2);
        let b = stats::link_bandwidths(&t, SimDuration::from_hours(12.0));
        let links = b.ordered_links();
        // The busiest link touches the library or a major department
        // (l1/l2), matching Fig. 16(b).
        let hot = [LandmarkId(0), LandmarkId(1), LandmarkId(2)];
        let (f, to, _) = links[0];
        assert!(
            hot.contains(&f) && hot.contains(&to),
            "busiest link {f}->{to} should join library/major departments"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = default_deployment_trace(9);
        let b = default_deployment_trace(9);
        assert_eq!(a.visits(), b.visits());
    }
}
