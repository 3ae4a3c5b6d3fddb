//! The correctness gate.
//!
//! Every result cell is timing-normalised and serialised, and its digest is
//! compared against a reference: the digests recorded in `reference.json`
//! at the reference seed, or, at any other seed, the run's first clean
//! campaign. At every seed each cell must also satisfy the invariants
//! (accuracies in `[0, 1]`, accuracy deltas in `[-1, 1]`) and the runner's
//! counters must equal what the configs imply (golden trainings equal the
//! distinct golden keys, weight trials equal the exhaustive instance
//! count, ...). An op fails when its cell fails any of these or its
//! campaign panicked.

use crate::workload::{Campaign, Cell, Prepared, Workload};
use tdfm_json::json_struct;

/// The seed whose digests `reference.json` records.
pub const REFERENCE_SEED: u64 = 0;

const REFERENCE: &str = include_str!("../reference.json");

/// 64-bit FNV-1a, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a whole campaign: of its cells' digests, in order.
pub fn campaign_digest(cell_digests: &[String]) -> String {
    digest(&cell_digests.join("\n"))
}

/// The recorded per-cell digests of `workload`, if `reference.json` holds
/// them.
pub fn recorded(workload: Workload) -> Option<Vec<String>> {
    let doc = tdfm_json::parse(REFERENCE).expect("reference.json is valid JSON");
    let cells = doc.get("workloads")?.get(workload.name())?.get("cells")?;
    cells
        .as_array()?
        .iter()
        .map(|d| d.as_str().map(str::to_string))
        .collect()
}

/// Why a cell breaks an invariant, if it does.
pub fn cell_fault(cell: &Cell) -> Option<String> {
    if let Some(a) = cell.accuracies.iter().find(|a| !(0.0..=1.0).contains(*a)) {
        return Some(format!("accuracy {a} outside [0, 1]"));
    }
    if let Some(d) = cell.deltas.iter().find(|d| !(-1.0..=1.0).contains(*d)) {
        return Some(format!("accuracy delta {d} outside [-1, 1]"));
    }
    None
}

/// Counters that differ from what the configs imply, as messages.
pub fn counter_faults(campaign: &Campaign, prepared: &Prepared) -> Vec<String> {
    prepared
        .expected_counters
        .iter()
        .filter_map(|&(name, want)| {
            let got = campaign.counters.counter(name).unwrap_or(0);
            (got != want).then(|| format!("counter {name} = {got}, expected {want}"))
        })
        .collect()
}

/// What checking one campaign on its own found — the form in which a
/// campaign process hands its outcome to the benchmark process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Digest of every result cell; empty when the campaign failed as a
    /// whole.
    pub digests: Vec<String>,
    /// Cells that failed a check of their own (every cell when the
    /// campaign failed as a whole).
    pub failed_cells: Vec<usize>,
    /// One line per failure.
    pub faults: Vec<String>,
    /// The cell the gate's self-test damages.
    pub perturbed_cell: usize,
    /// Digest of that cell with one digit of its JSON changed; empty when
    /// the campaign had no clean cell to perturb.
    pub perturbed_digest: String,
}

json_struct!(Report {
    digests,
    failed_cells,
    faults,
    perturbed_cell,
    perturbed_digest
});

/// Checks a campaign on its own: the invariants of every cell and the
/// runner's counters; also damages one cell for the gate's self-test (see
/// [`Gate::admit`]). A panicked campaign, a wrong cell count or a wrong
/// counter fails every cell.
pub fn report(campaign: &Campaign, prepared: &Prepared) -> Report {
    let mut faults = Vec::new();
    if campaign.panicked {
        faults.push("campaign panicked".to_string());
    } else if campaign.cells.len() != prepared.cell_ops.len() {
        faults.push(format!(
            "{} result cells, expected {}",
            campaign.cells.len(),
            prepared.cell_ops.len()
        ));
    }
    faults.extend(counter_faults(campaign, prepared));
    if !faults.is_empty() {
        return Report {
            digests: Vec::new(),
            failed_cells: (0..prepared.cell_ops.len()).collect(),
            faults,
            perturbed_cell: 0,
            perturbed_digest: String::new(),
        };
    }
    let mut failed_cells = Vec::new();
    for (i, cell) in campaign.cells.iter().enumerate() {
        if let Some(why) = cell_fault(cell) {
            failed_cells.push(i);
            faults.push(format!("cell {i}: {why}"));
        }
    }
    let digests: Vec<String> = campaign.cells.iter().map(|c| digest(&c.json)).collect();
    let victim = campaign
        .cells
        .iter()
        .position(|c| c.json.contains("accuracy"));
    Report {
        digests,
        failed_cells,
        faults,
        perturbed_cell: victim.unwrap_or(0),
        perturbed_digest: victim
            .map_or_else(String::new, |i| digest(&perturb(&campaign.cells[i].json))),
    }
}

/// Cells whose digest differs from the reference's.
pub fn mismatches(digests: &[String], reference: &[String]) -> Vec<usize> {
    (0..digests.len().max(reference.len()))
        .filter(|&i| digests.get(i) != reference.get(i))
        .collect()
}

/// Ops the given cells stand for.
pub fn ops_of(cells: &[usize], prepared: &Prepared) -> u64 {
    cells.iter().map(|&i| prepared.cell_ops[i]).sum()
}

/// Sums the reports of a run's campaigns. Digests are compared against
/// `reference.json` at the reference seed and against the run's first
/// clean campaign at any other seed.
pub struct Gate<'a> {
    prepared: &'a Prepared,
    reference: Option<Vec<String>>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// One line per failure.
    pub faults: Vec<String>,
    self_tests_passed: usize,
    self_test_errors: Vec<String>,
}

impl<'a> Gate<'a> {
    /// An empty gate for one run.
    pub fn new(prepared: &'a Prepared) -> Self {
        let reference = if prepared.seed == REFERENCE_SEED {
            recorded(prepared.workload)
        } else {
            None
        };
        Gate {
            prepared,
            reference,
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            self_tests_passed: 0,
            self_test_errors: Vec::new(),
        }
    }

    /// The digests every campaign is compared against, once known.
    pub fn reference(&self) -> Option<&[String]> {
        self.reference.as_deref()
    }

    /// Counts one campaign's ops, failing those of every cell that failed
    /// its own checks or differs from the reference, then runs the
    /// self-test on it.
    pub fn admit(&mut self, report: &Report) {
        let failed_before = self.failed;
        self.count(report);
        match self.self_test(report, self.failed - failed_before) {
            Ok(()) => self.self_tests_passed += 1,
            Err(e) => self.self_test_errors.push(e),
        }
    }

    /// Shows the gate catches damage: admits a copy of `report` whose
    /// perturbed cell carries its damaged digest into a scratch gate that
    /// holds this run's reference, and checks that the copy fails exactly
    /// that cell's ops more than the `failed` ops `report` itself failed.
    fn self_test(&self, report: &Report, failed: u64) -> Result<(), String> {
        let victim = report.perturbed_cell;
        if report.perturbed_digest.is_empty() || victim >= report.digests.len() {
            return Err("no clean cell to perturb".to_string());
        }
        let mut damaged = report.clone();
        damaged.digests[victim] = report.perturbed_digest.clone();
        let mut scratch = Gate::new(self.prepared);
        scratch.reference = self.reference.clone();
        scratch.count(&damaged);
        let want = failed + self.prepared.cell_ops[victim];
        if scratch.failed == want {
            Ok(())
        } else {
            Err(format!(
                "perturbed cell {victim}: gate failed {} ops, expected {want}",
                scratch.failed
            ))
        }
    }

    /// Adds one campaign's ops to `attempted` and those of its failed
    /// cells to `failed`.
    fn count(&mut self, report: &Report) {
        let mut bad = report.failed_cells.clone();
        if !report.digests.is_empty() {
            let reference = self.reference.get_or_insert_with(|| report.digests.clone());
            for i in mismatches(&report.digests, reference) {
                self.faults.push(format!(
                    "cell {i}: digest {:?} != reference {:?}",
                    report.digests.get(i),
                    reference.get(i)
                ));
                bad.push(i);
            }
        }
        bad.sort_unstable();
        bad.dedup();
        bad.retain(|&i| i < self.prepared.cell_ops.len());
        self.attempted += self.prepared.ops();
        self.failed += ops_of(&bad, self.prepared);
        self.faults.extend(report.faults.iter().cloned());
    }

    /// Fails every op of a campaign that produced no report.
    pub fn admit_lost(&mut self, why: &str) {
        self.attempted += self.prepared.ops();
        self.failed += self.prepared.ops();
        self.faults.push(why.to_string());
    }

    /// Counts the traced replay, whose results must equal the campaign's.
    pub fn admit_replay(&mut self, digests: &[String]) {
        self.attempted += self.prepared.ops();
        if self.reference.as_deref() != Some(digests) {
            self.failed += self.prepared.ops();
            self.faults
                .push("traced replay results differ from the campaign's".to_string());
        }
    }

    /// No failed op, and every self-test caught its perturbed cell.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.self_tests_passed > 0 && self.self_test_errors.is_empty()
    }

    /// Prints the findings, the self-test outcome and `failed_share`.
    pub fn print(&self) {
        for f in self.faults.iter().take(20) {
            println!("FAULT {f}");
        }
        for e in &self.self_test_errors {
            println!("gate self-test FAILED: {e}");
        }
        println!(
            "gate self-test: perturbed cell counted as failed in {} campaign(s)",
            self.self_tests_passed
        );
        println!(
            "{:<34} {:>16.6} {:<6} (failed {} of {} ops)",
            "failed_share",
            crate::stats::share(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        );
    }
}

/// Changes the last digit of the first `"accuracy_delta": <number>` value
/// (or, failing that, appends a space) — a one-ulp-sized edit to a result.
pub fn perturb(json: &str) -> String {
    let key = "\"accuracy_delta\": ";
    if let Some(at) = json.find(key) {
        let start = at + key.len();
        let end = start
            + json[start..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(json.len() - start);
        if let Some(pos) = json[start..end].rfind(|c: char| c.is_ascii_digit()) {
            let i = start + pos;
            let d = json.as_bytes()[i] - b'0';
            let swapped = char::from(b'0' + (d + 1) % 10);
            return format!("{}{}{}", &json[..i], swapped, &json[i + 1..]);
        }
    }
    format!("{json} ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::CpuTimes;
    use crate::workload::{prepare, Tally};
    use tdfm_obs::metrics::CounterSnapshot;
    use tdfm_obs::MetricsSnapshot;

    /// A synthetic sharded campaign: 16 cells of one fit each, with the
    /// counters the sweep implies.
    fn fake() -> (Campaign, Prepared) {
        let prepared = prepare(Workload::ShardedByzantine, 1);
        let cells = (0..prepared.cell_ops.len())
            .map(|i| Cell {
                json: format!("{{\n  \"accuracy_delta\": 0.{i}5\n}}"),
                accuracies: vec![0.5, 0.75],
                deltas: vec![0.25],
            })
            .collect();
        let counters = MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "sharded_fits".into(),
                value: prepared.ops(),
            }],
            histograms: vec![],
        };
        let campaign = Campaign {
            wall_s: 1.0,
            cpu: CpuTimes::default(),
            peak_rss_bytes: 1,
            cells,
            counters,
            tally: Tally::default(),
            panicked: false,
            output: None,
        };
        (campaign, prepared)
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_eq!(digest("{\"x\": 1}"), digest("{\"x\": 1}"));
        assert_ne!(digest("{\"x\": 1}"), digest("{\"x\": 2}"));
    }

    #[test]
    fn clean_campaigns_pass() {
        let (c, p) = fake();
        let mut gate = Gate::new(&p);
        gate.admit(&report(&c, &p));
        gate.admit(&report(&c, &p));
        assert_eq!((gate.attempted, gate.failed), (32, 0), "{:?}", gate.faults);
        assert!(gate.correct());
    }

    #[test]
    fn perturbed_cell_is_counted_in_failed_share() {
        let (c, p) = fake();
        let clean = report(&c, &p);
        assert_eq!(clean.perturbed_cell, 0);
        assert_ne!(clean.perturbed_digest, clean.digests[0]);
        let mut damaged = fake().0;
        damaged.cells[3].json = perturb(&damaged.cells[3].json);
        assert_ne!(damaged.cells[3].json, c.cells[3].json);
        let mut gate = Gate::new(&p);
        gate.admit(&clean);
        gate.admit(&report(&damaged, &p));
        assert_eq!((gate.attempted, gate.failed), (32, 1));
        assert_eq!(gate.failed as f64 / gate.attempted as f64, 1.0 / 32.0);
        assert!(!gate.correct());
    }

    #[test]
    fn self_test_fails_when_damage_goes_unseen() {
        let (c, p) = fake();
        let mut gate = Gate::new(&p);
        gate.admit(&report(&c, &p));
        assert!(gate.correct());
        // A digest that misses the perturbation: the scratch gate fails
        // nothing more, so the self-test fails the run.
        let mut blind = report(&c, &p);
        blind.perturbed_digest = blind.digests[blind.perturbed_cell].clone();
        gate.admit(&blind);
        assert_eq!(gate.failed, 0);
        assert!(!gate.correct());
        // No clean cell to perturb fails it too.
        let mut gate = Gate::new(&p);
        let mut none = report(&c, &p);
        none.perturbed_digest.clear();
        gate.admit(&none);
        assert!(!gate.correct());
    }

    #[test]
    fn self_test_counts_against_the_run_reference() {
        // The second campaign differs from the first in cell 5; its
        // self-test must see the victim fail on top of cell 5.
        let (c, p) = fake();
        let mut other = fake().0;
        other.cells[5].json = perturb(&other.cells[5].json);
        let mut gate = Gate::new(&p);
        gate.admit(&report(&c, &p));
        gate.admit(&report(&other, &p));
        assert_eq!(gate.failed, 1);
        assert_eq!(gate.self_tests_passed, 2, "{:?}", gate.self_test_errors);
    }

    #[test]
    fn invariants_fail_their_cells() {
        let (mut c, p) = fake();
        c.cells[0].accuracies[1] = 1.5;
        c.cells[1].deltas[0] = f32::NAN;
        let r = report(&c, &p);
        assert_eq!(r.failed_cells, vec![0, 1], "{:?}", r.faults);
        let mut gate = Gate::new(&p);
        gate.admit(&r);
        assert_eq!(gate.failed, 2);
    }

    #[test]
    fn wrong_counter_panic_or_lost_campaign_fails_every_op() {
        let (mut c, p) = fake();
        c.counters.counters[0].value += 1;
        let mut gate = Gate::new(&p);
        gate.admit(&report(&c, &p));
        assert_eq!(gate.failed, 16);
        let (mut c, p) = fake();
        c.panicked = true;
        c.cells.clear();
        gate.admit(&report(&c, &p));
        gate.admit_lost("campaign process exited with 101");
        assert_eq!((gate.attempted, gate.failed), (48, 48));
    }

    #[test]
    fn report_round_trips_through_json() {
        let (mut c, p) = fake();
        c.cells[2].deltas[0] = 2.0;
        let r = report(&c, &p);
        let back: Report = tdfm_json::from_str(&tdfm_json::to_string(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn mismatches_cover_missing_cells() {
        let a: Vec<String> = ["x", "y", "z"].map(String::from).to_vec();
        assert_eq!(mismatches(&a, &a), Vec::<usize>::new());
        assert_eq!(mismatches(&a[..2], &a), vec![2]);
        let b: Vec<String> = ["x", "q", "z"].map(String::from).to_vec();
        assert_eq!(mismatches(&b, &a), vec![1]);
    }

    #[test]
    fn perturb_edits_one_digit() {
        assert_eq!(
            perturb("\"accuracy_delta\": 0.25,"),
            "\"accuracy_delta\": 0.26,"
        );
        assert_eq!(
            perturb("\"accuracy_delta\": 0.9\n"),
            "\"accuracy_delta\": 0.0\n"
        );
        assert_eq!(perturb("{}"), "{} ");
    }

    #[test]
    fn reference_file_names_every_workload() {
        for w in Workload::ALL {
            let cells = recorded(w).expect("reference digests recorded");
            assert_eq!(cells.len(), prepare(w, REFERENCE_SEED).cell_ops.len());
        }
    }
}
