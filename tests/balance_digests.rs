//! Bit-identity locks for balanced runs at scale.
//!
//! The balanced goldens are 8-rank reports printed to three decimals,
//! so they cannot see a last-bit drift in a migration decision. These
//! cases pin an FNV-1a digest of everything a 1024-rank balanced run
//! produces — the binary trace bytes, every `SimStats` field, and every
//! `BalanceReport` field (floats by their bit patterns) — for each
//! policy, with and without the `chaos` fault preset. The event engine
//! is pinned and the polling engine must produce the same digest.
//!
//! The constants were computed with the scanning load accounts that
//! preceded the incremental ones; any change to balancing arithmetic,
//! tie-breaks, or iteration order shows up here as a digest mismatch.

use limba::mpisim::{BalancePlan, FaultPlan, MachineConfig, Program, SimOutput, Simulator};
use limba::par::Fnv;
use limba::trace::binary;
use limba::workloads::cfd::CfdConfig;
use limba::workloads::Imbalance;

const RANKS: usize = 1024;

/// `limba simulate cfd --ranks 1024 --imbalance linear:0.4`.
fn program() -> Program {
    CfdConfig::new(RANKS)
        .with_iterations(1)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .with_seed(0)
        .build_program()
        .unwrap()
}

fn digest(out: &SimOutput) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(&binary::to_bytes(&out.trace));
    let s = &out.stats;
    for t in &s.rank_end_times {
        fnv.update(&t.to_bits().to_le_bytes());
    }
    fnv.update(&s.makespan.to_bits().to_le_bytes());
    for count in [s.messages, s.bytes, s.collectives] {
        fnv.update(&count.to_le_bytes());
    }
    let b = &out.balance;
    fnv.update(b.policy.as_deref().unwrap_or("").as_bytes());
    fnv.update(&b.migrations.to_le_bytes());
    fnv.update(&b.declined.to_le_bytes());
    fnv.update(&b.moved_seconds.to_bits().to_le_bytes());
    for ledger in [&b.local_seconds, &b.donated_seconds, &b.received_seconds] {
        for v in ledger {
            fnv.update(&v.to_bits().to_le_bytes());
        }
    }
    fnv.digest()
}

/// Runs `policy` (a balance preset) on both engines, optionally under
/// the `chaos` fault preset scaled to the unbalanced event-engine
/// makespan exactly as `limba simulate --faults preset:chaos` does, and
/// returns the event engine's digest after asserting the polling
/// engine's equals it.
fn engines_digest(program: &Program, policy: &str, chaos: bool) -> u64 {
    let sim = Simulator::new(MachineConfig::new(RANKS));
    let faults: Option<FaultPlan> = chaos.then(|| {
        let horizon = sim.run(program).unwrap().stats.makespan;
        limba::workloads::faults::preset("chaos", RANKS, horizon).unwrap()
    });
    let plan: BalancePlan = limba::workloads::balance::preset(policy).unwrap();
    let event = sim
        .run_configured(program, faults.as_ref(), Some(&plan), None)
        .unwrap();
    let polling = sim
        .run_polling_configured(program, faults.as_ref(), Some(&plan), None)
        .unwrap();
    // Under chaos the last rank crashes halfway and interrupts every
    // rank waiting on it, before anticipatory's 8-sample trend windows
    // fill; that case locks the crash path, not a decision.
    let proposals = event.balance.migrations + event.balance.declined;
    assert!(
        proposals > 0 || (chaos && policy == "anticipatory"),
        "{policy} (chaos: {chaos}) never proposed, so the case locks nothing"
    );
    let (e, p) = (digest(&event), digest(&polling));
    assert_eq!(e, p, "{policy} (chaos: {chaos}): engines diverged");
    e
}

#[test]
fn balance_digests_are_pinned_at_1024_ranks() {
    let program = program();
    let pinned: [(&str, bool, u64); 6] = [
        ("stealing", false, 0x2f6a_c4b1_0c1b_0e1d),
        ("diffusion", false, 0x47ab_c3a0_7f20_d20c),
        ("anticipatory", false, 0x11e3_1f89_a4d5_dad3),
        ("stealing", true, 0x47a9_de8a_a229_dbe9),
        ("diffusion", true, 0xf41b_d5c2_4e38_0cc4),
        ("anticipatory", true, 0xa687_5749_2c0e_3b2e),
    ];
    let mut drifted = Vec::new();
    for (policy, chaos, want) in pinned {
        let got = engines_digest(&program, policy, chaos);
        if got != want {
            drifted.push(format!(
                "{policy} chaos={chaos}: {got:#018x} (pinned {want:#018x})"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "balanced runs drifted:\n{}",
        drifted.join("\n")
    );
}
