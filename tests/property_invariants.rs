//! Property-based tests over the core data structures and simulator
//! invariants, spanning crates.

use fo4depth::isa::{ArchReg, Instruction, Opcode};
use fo4depth::pipeline::{CoreConfig, InOrderCore, OutOfOrderCore};
use fo4depth::study::cells::CellSpec;
use fo4depth::study::latency::StructureSet;
use fo4depth::study::scaler::ScaledMachine;
use fo4depth::study::sim::SimParams;
use fo4depth::study::sweep::CoreKind;
use fo4depth::uarch::cache::Cache;
use fo4depth::uarch::rob::ReorderBuffer;
use fo4depth::uarch::segmented::{SegmentedWindow, SelectMode};
use fo4depth::uarch::window::{
    ConventionalWindow, IssueBudget, IssuePort, WindowEntry, WindowModel,
};
use fo4depth::util::{harmonic_mean, Rng64, Xoshiro256StarStar};
use fo4depth::workload::{profiles, BenchClass, BenchProfile, TraceGenerator};
use fo4depth_fo4::{cycles_for, Fo4};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantization: at least one cycle, never more than one stage of slack.
    #[test]
    fn cycles_for_is_tight(latency in 0.0f64..400.0, t in 1.0f64..20.0) {
        let c = cycles_for(Fo4::new(latency), Fo4::new(t));
        prop_assert!(c >= 1);
        // c−1 full stages must not cover the latency (up to float fuzz).
        prop_assert!(f64::from(c - 1) * t < latency + t + 1e-6);
        // c stages must cover it.
        prop_assert!(f64::from(c) * t + 1e-6 >= latency.min(f64::from(c) * t));
        prop_assert!(f64::from(c) * t >= latency - 1e-6);
    }

    /// Quantized latency is monotone non-increasing in t_useful.
    #[test]
    fn cycles_monotone_in_t(latency in 1.0f64..400.0, a in 1.0f64..19.0, delta in 0.1f64..5.0) {
        let tight = cycles_for(Fo4::new(latency), Fo4::new(a));
        let loose = cycles_for(Fo4::new(latency), Fo4::new(a + delta));
        prop_assert!(loose <= tight);
    }

    /// Harmonic mean lies between min and max of its inputs.
    #[test]
    fn harmonic_mean_bounded(xs in proptest::collection::vec(0.001f64..1000.0, 1..20)) {
        let hm = harmonic_mean(xs.iter().copied()).expect("positive inputs");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(hm >= lo - 1e-9 && hm <= hi + 1e-9);
    }

    /// RNG range stays in bounds for arbitrary seeds/bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_range(bound) < bound);
        }
    }

    /// A cache never reports more hits+misses than accesses, and repeating
    /// the same address after a touch always hits.
    #[test]
    fn cache_repeat_hits(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(16 * 1024, 2, 64);
        for &a in &addrs {
            let _ = c.access(a);
            prop_assert!(c.access(a), "immediate repeat of {a:#x} must hit");
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64 * 2);
    }

    /// Issue windows never exceed their budget or capacity, and selected
    /// entries come out in age order.
    #[test]
    fn window_select_respects_budget(
        readies in proptest::collection::vec(0u64..8, 1..32),
        now in 0u64..8,
    ) {
        let mut conventional = ConventionalWindow::new(32, 1);
        let mut segmented = SegmentedWindow::new(32, 4, SelectMode::figure12());
        for (i, &r) in readies.iter().enumerate() {
            let e = WindowEntry { seq: i as u64, port: IssuePort::Int, ready_at: r };
            conventional.insert(e);
            segmented.insert(e);
        }
        for w in [&mut conventional as &mut dyn WindowModel, &mut segmented] {
            let before = w.len();
            let mut budget = IssueBudget::alpha_like();
            let picked = w.select(now, &mut budget);
            prop_assert!(picked.len() <= 4, "int budget is 4");
            prop_assert_eq!(w.len(), before - picked.len());
            for pair in picked.windows(2) {
                prop_assert!(pair[0].seq < pair[1].seq, "age order violated");
            }
            for e in &picked {
                prop_assert!(e.ready_at <= now, "issued before ready");
            }
        }
    }

    /// The ROB commits in strict program order for arbitrary completion
    /// schedules.
    #[test]
    fn rob_commits_in_order(completions in proptest::collection::vec(0u64..50, 1..40)) {
        let mut rob = ReorderBuffer::new(64);
        for (seq, _) in completions.iter().enumerate() {
            rob.allocate(seq as u64, None).expect("capacity");
        }
        for (seq, &c) in completions.iter().enumerate() {
            rob.complete(seq as u64, c);
        }
        let mut committed = Vec::new();
        // Enough cycles for the worst case: latest completion plus drain
        // time at the commit width.
        for cycle in 0..=(50 + completions.len() as u64) {
            committed.extend(rob.commit_ready(cycle, 4).into_iter().map(|e| e.seq));
        }
        let sorted: Vec<u64> = (0..completions.len() as u64).collect();
        prop_assert_eq!(committed, sorted);
    }

    /// Trace generation is total and well-formed for arbitrary profile
    /// perturbations within the valid parameter space.
    #[test]
    fn trace_generator_total(
        seed in any::<u64>(),
        dep in 1.0f64..20.0,
        far in 0.0f64..1.0,
        l2r in 0.0f64..0.4,
        mem in 0.0f64..0.4,
    ) {
        let mut p: BenchProfile = profiles::by_name("176.gcc").expect("profile");
        p.mean_dep_distance = dep;
        p.far_source_fraction = far;
        p.memory.l2_resident = l2r;
        p.memory.memory = mem;
        prop_assume!(p.validate().is_ok());
        for inst in TraceGenerator::new(p, seed).take(300) {
            if inst.op_class().is_memory() {
                prop_assert!(inst.mem_addr.is_some());
            }
            if inst.op_class().is_control() {
                prop_assert!(inst.branch.is_some());
            }
        }
    }
}

/// An out-of-order gzip cell at one clock point and overhead.
fn gzip_cell(t_useful: f64, overhead: f64) -> CellSpec {
    CellSpec {
        core: CoreKind::OutOfOrder,
        profile: profiles::by_name("164.gzip").expect("known benchmark"),
        t_useful: Fo4::new(t_useful),
        overhead: Fo4::new(overhead),
        params: SimParams {
            warmup: 1_000,
            measure: 3_000,
            seed: 1,
        },
        observed: false,
        structures_tag: "alpha_21264",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A cell's fingerprint addresses the machine its clock point scales
    /// to: two points (at any overheads) share a fingerprint exactly when
    /// their scaled configs are equal. Half the pairs are near neighbours,
    /// so both sides of the equivalence are exercised.
    #[test]
    fn fingerprints_match_exactly_when_machines_match(
        t1 in 0.5f64..99.0,
        far in 0.5f64..99.0,
        near in any::<bool>(),
        nudge in -0.05f64..0.05,
        o1 in 0.0f64..20.0,
        o2 in 0.0f64..20.0,
    ) {
        let t2 = if near { (t1 + nudge).clamp(0.5, 99.0) } else { far };
        let structures = StructureSet::alpha_21264();
        let same_machine = ScaledMachine::at(&structures, Fo4::new(t1), Fo4::new(o1)).config
            == ScaledMachine::at(&structures, Fo4::new(t2), Fo4::new(o2)).config;
        let same_fingerprint = gzip_cell(t1, o1).fingerprint() == gzip_cell(t2, o2).fingerprint();
        prop_assert_eq!(same_fingerprint, same_machine, "t {} / {}, overhead {} / {}", t1, t2, o1, o2);
    }
}

proptest! {
    // Simulator-level properties are more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// IPC is bounded by the dispatch width on both cores, for any
    /// benchmark and seed.
    #[test]
    fn ipc_bounded_by_width(seed in 1u64..1000, idx in 0usize..18) {
        let p = profiles::all()[idx].clone();
        let cfg = CoreConfig::alpha_like();

        let mut ooo = OutOfOrderCore::new(cfg.clone(), TraceGenerator::new(p.clone(), seed));
        ooo.run(1_000);
        let r = ooo.run(5_000);
        prop_assert!(r.ipc() <= f64::from(cfg.dispatch_width) + 1e-9);
        prop_assert!(r.ipc() > 0.01);

        let mut ino = InOrderCore::new(cfg.clone(), TraceGenerator::new(p, seed));
        ino.run(1_000);
        let r = ino.run(5_000);
        prop_assert!(r.ipc() <= f64::from(cfg.dispatch_width) + 1e-9);
    }
}

/// The shrunk case from `tests/property_invariants.proptest-regressions`
/// (`completions = [48, 0, 0, ...]`), pinned as a deterministic test: a
/// head entry completing long after its already-complete successors must
/// not stall or reorder commit.
#[test]
fn rob_regression_late_head_completion() {
    let completions: Vec<u64> = std::iter::once(48)
        .chain(std::iter::repeat_n(0, 12))
        .collect();
    let mut rob = ReorderBuffer::new(64);
    for (seq, _) in completions.iter().enumerate() {
        rob.allocate(seq as u64, None).expect("capacity");
    }
    for (seq, &c) in completions.iter().enumerate() {
        rob.complete(seq as u64, c);
    }
    let mut committed = Vec::new();
    for cycle in 0..=(50 + completions.len() as u64) {
        committed.extend(rob.commit_ready(cycle, 4).into_iter().map(|e| e.seq));
    }
    let sorted: Vec<u64> = (0..completions.len() as u64).collect();
    assert_eq!(committed, sorted);
}

/// A focused determinism check (not a proptest: exact equality matters).
#[test]
fn simulators_are_bit_deterministic() {
    for p in profiles::all().into_iter().take(3) {
        let cfg = CoreConfig::alpha_like();
        let run = || {
            let mut c = OutOfOrderCore::new(cfg.clone(), TraceGenerator::new(p.clone(), 9));
            c.run(2_000);
            c.run(6_000)
        };
        assert_eq!(run(), run(), "{} not deterministic", p.name);
    }
}

/// Dependent-chain IPC on the OoO core cannot exceed 1 regardless of
/// configuration width.
#[test]
fn dependent_chain_cannot_exceed_unit_ipc() {
    let chain = (0..).map(|i| {
        Instruction::alu(
            Opcode::Addq,
            ArchReg::int(1),
            ArchReg::int(1),
            ArchReg::int(1),
        )
        .at_pc(0x1000 + i * 4)
    });
    let mut core = OutOfOrderCore::new(CoreConfig::alpha_like(), chain);
    core.run(500);
    assert!(core.run(3_000).ipc() <= 1.0 + 1e-9);
}

/// Class orderings hold for the calibrated profile set: vector FP has the
/// most ILP, integer the least dependency slack.
#[test]
fn calibrated_class_structure() {
    let all = profiles::all();
    let mean_dep = |class: BenchClass| {
        let v: Vec<f64> = all
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.mean_dep_distance)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(mean_dep(BenchClass::VectorFp) > mean_dep(BenchClass::NonVectorFp));
    assert!(mean_dep(BenchClass::NonVectorFp) > mean_dep(BenchClass::Integer));
}

// ---- observability-layer invariants ------------------------------------

use fo4depth::pipeline::{Counters, StallCause};
use fo4depth::uarch::OccupancyHist;
use fo4depth::util::Json;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slot identity survives arbitrary record sequences, and no cause
    /// ever accumulates more slots than were lost in total.
    #[test]
    fn counter_slot_identity_is_exact(
        width in 1u32..8,
        cycles in proptest::collection::vec((0u32..8, 0usize..StallCause::COUNT), 1..200),
    ) {
        let mut c = Counters::new(width);
        let mut lost = 0u64;
        for (issued, cause) in cycles {
            let issued = issued.min(width);
            let stall = (issued < width).then(|| StallCause::ALL[cause]);
            c.record_cycle(issued, stall);
            lost += u64::from(width - issued);
        }
        prop_assert!(c.identity_holds());
        prop_assert_eq!(c.stall_total(), lost);
        for cause in StallCause::ALL {
            prop_assert!(c.stalls(cause) <= lost);
        }
        // The CPI stack redistributes the identity over instructions: its
        // components must sum to cycles/instructions.
        let instructions = c.useful_slots.max(1);
        let total: f64 = c.cpi_stack(instructions).iter().map(|(_, v)| v).sum();
        let cpi = c.cycles as f64 / instructions as f64;
        prop_assert!((total - cpi).abs() < 1e-9, "{} vs {}", total, cpi);
    }

    /// Occupancy histograms: bucket sums equal samples, the mean lies
    /// within the observed range, and `max` names a non-empty bucket.
    #[test]
    fn occupancy_histogram_invariants(
        occs in proptest::collection::vec(0usize..200, 1..300),
    ) {
        let mut h = OccupancyHist::new();
        for &o in &occs {
            h.record(o);
        }
        prop_assert_eq!(h.samples(), occs.len() as u64);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), occs.len() as u64);
        let lo = *occs.iter().min().expect("non-empty") as f64;
        let hi = *occs.iter().max().expect("non-empty") as f64;
        prop_assert!(h.mean() >= lo - 1e-9 && h.mean() <= hi + 1e-9);
        prop_assert_eq!(h.max(), *occs.iter().max().expect("non-empty"));
        prop_assert!(h.buckets()[h.max()] > 0);
    }

    /// Counter blocks serialize to JSON that parses back to the same value
    /// for arbitrary counter contents.
    #[test]
    fn counters_json_round_trips(
        width in 1u32..8,
        cycles in proptest::collection::vec((0u32..8, 0usize..StallCause::COUNT), 1..60),
        occs in proptest::collection::vec(0usize..64, 1..60),
    ) {
        let mut c = Counters::new(width);
        for &(issued, cause) in &cycles {
            let issued = issued.min(width);
            c.record_cycle(issued, (issued < width).then(|| StallCause::ALL[cause]));
        }
        for &o in &occs {
            c.window_occupancy.record(o);
        }
        let doc = fo4depth::study::report::counters_json(&c, c.useful_slots.max(1));
        let parsed = Json::parse(&doc.render()).expect("valid JSON");
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.get("cycles").and_then(Json::as_u64), Some(c.cycles));
        for cause in StallCause::ALL {
            let got = parsed
                .get("stall_slots")
                .and_then(|s| s.get(cause.key()))
                .and_then(Json::as_u64);
            prop_assert_eq!(got, Some(c.stalls(cause)));
        }
    }
}
