//! E3 (Theorem 2.14 vs Theorem 2.11): robust HHH vs deterministic TMS12.
//!
//! Claim shape: both detect the planted hot /24 prefix and hot host at all
//! stream lengths; TMS12's counters carry `log m` bits while the robust
//! instance's counters count samples. Detection is enforced by a referee
//! at the final round of an engine-driven game, so a miss is a recorded
//! game violation, not a silently false table cell.

use wb_core::game::{FnReferee, Verdict};
use wb_core::space::SpaceUsage;
use wb_core::stream::InsertOnly;
use wb_engine::experiment::{run_cli, ExperimentSpec, Row, RunCtx, Section};
use wb_engine::{Game, WorkloadSpec};
use wb_sketch::hhh::{HierarchicalSpaceSaving, Prefix, RadixHierarchy, RobustHHH};

const EPS: f64 = 0.02;
const GAMMA: f64 = 0.10;
const SUBNET_ID: u64 = (10u64 << 16) | (1 << 8) | 7;
const HOST_ID: u64 = (203u64 << 24) | (113 << 8) | 5;

fn hits(report: &[(Prefix, f64)]) -> (bool, bool) {
    let subnet = report
        .iter()
        .any(|&(p, _)| p.level == 1 && p.id == SUBNET_ID);
    let host = report.iter().any(|&(p, _)| p.level == 0 && p.id == HOST_ID);
    (subnet, host)
}

/// The planted DDoS traffic for one row, as insertions.
fn ddos(m: u64, seed: u64) -> Vec<InsertOnly> {
    WorkloadSpec::Ddos { m, seed }
        .generate()
        .iter()
        .map(|u| InsertOnly(u.item()))
        .collect()
}

type HhhCheck = FnReferee<Box<dyn FnMut(u64, &Vec<(Prefix, f64)>) -> Verdict>>;

/// Referee that demands both planted prefixes appear in the final answer.
fn planted_referee(m: u64) -> HhhCheck {
    FnReferee::new(Box::new(move |t: u64, out: &Vec<(Prefix, f64)>| {
        if t < m {
            return Verdict::Correct;
        }
        match hits(out) {
            (true, true) => Verdict::Correct,
            (subnet, host) => Verdict::violation(format!(
                "round {t}: planted prefixes missed (subnet {subnet}, host {host})"
            )),
        }
    }))
}

fn row_pair(log_m: u32) -> [Row; 2] {
    let tms = Row::custom(format!("2^{log_m} tms12"), move |ctx: &RunCtx| {
        let m = ctx.cap(1 << log_m, 1 << 11);
        let (report, alg) = Game::new(HierarchicalSpaceSaving::new(
            RadixHierarchy::ipv4(),
            EPS,
            GAMMA,
        ))
        .script(ddos(m, 900 + log_m as u64))
        .referee(planted_referee(m))
        .batch(512)
        .seed(901 + log_m as u64)
        .play();
        let (s, h) = hits(&alg.solve(GAMMA));
        vec![
            alg.space_bits().to_string(),
            format!("{}/{}", s as u8, h as u8),
            report.survived().to_string(),
        ]
    });
    let robust = Row::custom(format!("2^{log_m} robust"), move |ctx: &RunCtx| {
        let m = ctx.cap(1 << log_m, 1 << 11);
        let (report, alg) = Game::new(RobustHHH::new(RadixHierarchy::ipv4(), EPS, GAMMA))
            .script(ddos(m, 900 + log_m as u64))
            .referee(planted_referee(m))
            .batch(512)
            .seed(901 + log_m as u64)
            .play();
        let (s, h) = hits(&alg.solve());
        vec![
            alg.space_bits().to_string(),
            format!("{}/{}", s as u8, h as u8),
            report.survived().to_string(),
        ]
    });
    [tms, robust]
}

fn main() {
    let mut section = Section::new(
        format!("IPv4 hierarchy (h=4), eps = {EPS}, gamma = {GAMMA}; hits = subnet/host"),
        &["m / alg", "space bits", "hits", "ok"],
        14,
    );
    for log_m in [14u32, 16, 18, 20] {
        section = section.rows(row_pair(log_m));
    }
    run_cli(
        ExperimentSpec::new("e3", "hierarchical heavy hitters on DDoS traffic")
            .section(section)
            .note(
                "hits: planted /24 prefix detected / planted host detected (1 = yes); ok is\n\
                 the final-round referee verdict demanding both detections.",
            ),
    );
}
