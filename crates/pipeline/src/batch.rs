//! Shared fetch-stage branch resolution for lane-parallel batched runs.
//!
//! Both cores do identical fetch-stage branch work: every branch-carrying
//! instruction consults the direction predictor and (when taken, or for a
//! jump) the BTB, *in trace order, unconditionally* — timing never skips or
//! reorders it. Because `ScaledMachine` holds predictor and BTB geometry
//! constant across clock points, the per-instruction resolution stream
//! (mispredict? BTB tag hit?) is a pure function of (trace, predictor
//! config, BTB size): every lane of a batched sweep would recompute the
//! same bits. A [`FetchPlan`] computes them once per (arena × geometry) and
//! lets every lane replay them as two bit reads per branch.
//!
//! A lane that runs past the planned prefix (the arena's materialized
//! region plus slack) falls back to a live predictor+BTB cloned from the
//! plan's end-of-prefix state, exactly as [`TraceCursor`] falls back to the
//! arena's generator tail — so overflow is bit-identical to never having
//! had a plan at all.
//!
//! [`TraceCursor`]: fo4depth_workload::TraceCursor

use std::sync::Arc;

use fo4depth_isa::{Instruction, OpClass};
use fo4depth_uarch::branch::{
    Bimodal, BranchPredictor, Btb, BtbStats, Gshare, Perceptron, Tournament,
};

use crate::config::{CoreConfig, PredictorConfig};

/// A concrete, clonable direction predictor — the plan's end-of-prefix
/// state must be cloned into each overflowing lane, which `Box<dyn
/// BranchPredictor>` cannot do without widening the public trait.
#[derive(Debug, Clone)]
enum AnyPredictor {
    Tournament(Tournament),
    Bimodal(Bimodal),
    Gshare(Gshare),
    Perceptron(Perceptron),
    AlwaysTaken,
}

impl AnyPredictor {
    fn build(cfg: PredictorConfig) -> Self {
        match cfg {
            PredictorConfig::Tournament {
                local_sites,
                local_history_bits,
                global_entries,
            } => AnyPredictor::Tournament(Tournament::new(
                local_sites,
                local_history_bits,
                global_entries,
            )),
            PredictorConfig::Bimodal { entries } => AnyPredictor::Bimodal(Bimodal::new(entries)),
            PredictorConfig::Gshare { entries } => AnyPredictor::Gshare(Gshare::new(entries)),
            PredictorConfig::Perceptron { rows, history_bits } => {
                AnyPredictor::Perceptron(Perceptron::new(rows, history_bits))
            }
            PredictorConfig::AlwaysTaken => AnyPredictor::AlwaysTaken,
        }
    }
}

impl BranchPredictor for AnyPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        match self {
            AnyPredictor::Tournament(p) => p.predict(pc),
            AnyPredictor::Bimodal(p) => p.predict(pc),
            AnyPredictor::Gshare(p) => p.predict(pc),
            AnyPredictor::Perceptron(p) => p.predict(pc),
            AnyPredictor::AlwaysTaken => true,
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        match self {
            AnyPredictor::Tournament(p) => p.update(pc, taken),
            AnyPredictor::Bimodal(p) => p.update(pc, taken),
            AnyPredictor::Gshare(p) => p.update(pc, taken),
            AnyPredictor::Perceptron(p) => p.update(pc, taken),
            AnyPredictor::AlwaysTaken => {}
        }
    }
}

/// The fetch-stage branch work for one branch-carrying instruction,
/// replicated exactly from the cores' fetch loops: conditional branches
/// consult and train the direction predictor, then (when taken) the BTB;
/// jumps are always taken and only the BTB target can miss.
fn resolve_live(predictor: &mut dyn BranchPredictor, btb: &mut Btb, inst: &Instruction) -> bool {
    let branch = inst.branch.expect("resolving a non-branch");
    match inst.op_class() {
        OpClass::Branch => {
            let pred = predictor.predict(inst.pc);
            predictor.update(inst.pc, branch.taken);
            let target_ok = if branch.taken {
                let hit = btb.lookup(inst.pc) == Some(branch.target);
                btb.update(inst.pc, branch.target);
                hit
            } else {
                true
            };
            pred != branch.taken || !target_ok
        }
        _ => {
            // Jumps: always taken; only the target can miss.
            let hit = btb.lookup(inst.pc) == Some(branch.target);
            btb.update(inst.pc, branch.target);
            !hit
        }
    }
}

/// Whether the fetch stage performs a BTB lookup for this instruction — a
/// pure function of the instruction, so lanes replaying a plan can
/// re-accumulate [`BtbStats`] without consulting a BTB.
fn btb_lookup_happens(inst: &Instruction) -> bool {
    match inst.branch {
        Some(branch) => inst.op_class() != OpClass::Branch || branch.taken,
        None => false,
    }
}

/// The precomputed branch-resolution stream for one trace prefix under one
/// (predictor, BTB) geometry: two bits per instruction, indexed by dynamic
/// sequence number (= trace position).
#[derive(Debug)]
pub struct FetchPlan {
    predictor_cfg: PredictorConfig,
    btb_entries: usize,
    len: usize,
    /// Bit per instruction: the fetch stage declares a mispredict
    /// (direction wrong or BTB target wrong/missing).
    misp: Vec<u64>,
    /// Bit per instruction: the BTB lookup (when one happens) found a
    /// matching tag — the [`BtbStats`] hit, which is presence-only and
    /// distinct from target correctness.
    btb_hit: Vec<u64>,
    /// Predictor and BTB state after the prefix, cloned into lanes that
    /// fetch past `len`.
    tail_predictor: AnyPredictor,
    tail_btb: Btb,
}

impl FetchPlan {
    /// Walks `len` instructions of `trace` through a fresh predictor and
    /// BTB built from `cfg`, recording each branch's resolution.
    pub fn build<I: Iterator<Item = Instruction>>(cfg: &CoreConfig, trace: I, len: usize) -> Self {
        let words = len.div_ceil(64);
        let mut plan = Self {
            predictor_cfg: cfg.predictor,
            btb_entries: cfg.btb_entries,
            len,
            misp: vec![0; words],
            btb_hit: vec![0; words],
            tail_predictor: AnyPredictor::build(cfg.predictor),
            tail_btb: Btb::new(cfg.btb_entries),
        };
        for (i, inst) in trace.take(len).enumerate() {
            if inst.branch.is_none() {
                continue;
            }
            let before = plan.tail_btb.stats();
            let misp = resolve_live(&mut plan.tail_predictor, &mut plan.tail_btb, &inst);
            if misp {
                plan.misp[i / 64] |= 1 << (i % 64);
            }
            if plan.tail_btb.stats().since(&before).hits > 0 {
                plan.btb_hit[i / 64] |= 1 << (i % 64);
            }
        }
        plan
    }

    /// Whether this plan was built under `cfg`'s fetch-relevant geometry —
    /// lanes whose predictor or BTB differ must resolve live.
    #[must_use]
    pub fn matches(&self, cfg: &CoreConfig) -> bool {
        self.predictor_cfg == cfg.predictor && self.btb_entries == cfg.btb_entries
    }

    /// Instructions covered by the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bit(bits: &[u64], i: usize) -> bool {
        bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Live predictor+BTB state for a lane that ran past its plan's prefix.
#[derive(Debug)]
pub(crate) struct PlanTail {
    predictor: AnyPredictor,
    btb: Btb,
}

/// How a core resolves fetch-stage branch work: live structures (a core
/// run on its own) or a shared [`FetchPlan`] replay with per-lane
/// [`BtbStats`] re-accumulation (lanes of a batch).
#[derive(Debug)]
pub(crate) enum FetchResolver {
    Live {
        predictor: Box<dyn BranchPredictor + Send>,
        btb: Btb,
    },
    Planned {
        plan: Arc<FetchPlan>,
        stats: BtbStats,
        tail: Option<Box<PlanTail>>,
    },
}

impl FetchResolver {
    /// Live resolution: a fresh predictor and BTB per `cfg`.
    pub(crate) fn live(cfg: &CoreConfig) -> Self {
        FetchResolver::Live {
            predictor: crate::ooo::build_predictor(cfg),
            btb: Btb::new(cfg.btb_entries),
        }
    }

    /// Replays `plan`; the caller must have checked [`FetchPlan::matches`].
    pub(crate) fn planned(plan: Arc<FetchPlan>) -> Self {
        FetchResolver::Planned {
            plan,
            stats: BtbStats::default(),
            tail: None,
        }
    }

    /// Resolves the branch carried by `inst` (dynamic sequence number
    /// `seq`, which equals its trace position): returns whether the fetch
    /// stage declares a mispredict.
    pub(crate) fn resolve(&mut self, seq: u64, inst: &Instruction) -> bool {
        match self {
            FetchResolver::Live { predictor, btb } => resolve_live(&mut **predictor, btb, inst),
            FetchResolver::Planned { plan, stats, tail } => {
                let i = seq as usize;
                if i < plan.len {
                    if btb_lookup_happens(inst) {
                        stats.lookups += 1;
                        stats.hits += u64::from(FetchPlan::bit(&plan.btb_hit, i));
                    }
                    FetchPlan::bit(&plan.misp, i)
                } else {
                    // Past the prefix: continue live from the plan's end
                    // state. Every lane reaches this point with `stats`
                    // equal to the plan's whole-prefix stats (the stream is
                    // positional), which is exactly what the cloned BTB
                    // carries — so switching to the tail's counters is
                    // seamless.
                    let t = tail.get_or_insert_with(|| {
                        Box::new(PlanTail {
                            predictor: plan.tail_predictor.clone(),
                            btb: plan.tail_btb.clone(),
                        })
                    });
                    resolve_live(&mut t.predictor, &mut t.btb, inst)
                }
            }
        }
    }

    /// Cumulative BTB counters, identical to what a live BTB would report
    /// at the same fetch position.
    pub(crate) fn btb_stats(&self) -> BtbStats {
        match self {
            FetchResolver::Live { btb, .. } => btb.stats(),
            FetchResolver::Planned { stats, tail, .. } => match tail {
                Some(t) => t.btb.stats(),
                None => *stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_workload::{profiles, TraceGenerator};

    /// A planned resolver replays the live stream bit-for-bit, including
    /// BTB stats, within the prefix and past it.
    #[test]
    fn planned_matches_live_including_overflow() {
        let cfg = CoreConfig::alpha_like();
        let p = profiles::by_name("176.gcc").unwrap();
        let prefix = 4_000;
        let total = 6_000; // runs past the prefix into the tail
        let plan = Arc::new(FetchPlan::build(
            &cfg,
            TraceGenerator::new(p.clone(), 7),
            prefix,
        ));
        assert!(plan.matches(&cfg));
        let mut live = FetchResolver::live(&cfg);
        let mut planned = FetchResolver::planned(plan);
        for (i, inst) in TraceGenerator::new(p, 7).take(total).enumerate() {
            if inst.branch.is_none() {
                continue;
            }
            let a = live.resolve(i as u64, &inst);
            let b = planned.resolve(i as u64, &inst);
            assert_eq!(a, b, "mispredict bit diverged at {i}");
            assert_eq!(
                live.btb_stats(),
                planned.btb_stats(),
                "BTB stats diverged at {i}"
            );
        }
    }

    #[test]
    fn plan_rejects_mismatched_geometry() {
        let cfg = CoreConfig::alpha_like();
        let p = profiles::by_name("164.gzip").unwrap();
        let plan = FetchPlan::build(&cfg, TraceGenerator::new(p, 1), 128);
        let mut other = cfg.clone();
        other.btb_entries *= 2;
        assert!(!plan.matches(&other));
    }
}
