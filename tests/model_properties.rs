//! Property-based tests of the measurement model's algebra.

use limba::model::{Measurements, MeasurementsBuilder, RegionId, STANDARD_ACTIVITIES};
use proptest::prelude::*;

fn measurements_strategy() -> impl Strategy<Value = Measurements> {
    (1usize..5, 1usize..7).prop_flat_map(|(regions, procs)| {
        proptest::collection::vec(0.0f64..50.0, regions * 4 * procs).prop_map(move |data| {
            let mut b = MeasurementsBuilder::new(procs);
            let mut it = data.into_iter();
            for r in 0..regions {
                let id = b.add_region(format!("r{r}"));
                for kind in STANDARD_ACTIVITIES {
                    for p in 0..procs {
                        b.record(id, kind, p, it.next().expect("sized")).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn marginal_identities_hold(m in measurements_strategy()) {
        // T == Σ_i t_i == Σ_j T_j.
        let by_regions: f64 = m.region_ids().map(|r| m.region_time(r)).sum();
        let by_activities: f64 = m.activities().iter().map(|k| m.activity_time(k)).sum();
        prop_assert!((m.total_time() - by_regions).abs() < 1e-9);
        prop_assert!((m.total_time() - by_activities).abs() < 1e-9);
        // Per-processor totals sum to P times the (mean-convention) total.
        let per_proc: f64 = m.processor_ids().map(|p| m.processor_time(p)).sum();
        prop_assert!((per_proc - m.total_time() * m.processors() as f64).abs() < 1e-6);
    }

    #[test]
    fn merging_k_copies_equals_scaling_by_k(m in measurements_strategy(), k in 1usize..5) {
        let copies: Vec<&Measurements> = std::iter::repeat_n(&m, k).collect();
        let merged = Measurements::merged(&copies).unwrap();
        let scaled = m.scaled(k as f64).unwrap();
        prop_assert!(merged.same_shape(&scaled));
        for r in m.region_ids() {
            for kind in m.activities().iter() {
                for p in m.processor_ids() {
                    let a = merged.time(r, kind, p);
                    let b = scaled.time(r, kind, p);
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn restriction_to_all_regions_is_identity(m in measurements_strategy()) {
        let all: Vec<RegionId> = m.region_ids().collect();
        let r = m.restricted(&all).unwrap();
        prop_assert_eq!(&r, &m);
    }

    #[test]
    fn restriction_partitions_total_time(m in measurements_strategy()) {
        prop_assume!(m.regions() >= 2);
        let all: Vec<RegionId> = m.region_ids().collect();
        let (left, right) = all.split_at(m.regions() / 2);
        let a = m.restricted(left).unwrap();
        let b = m.restricted(right).unwrap();
        prop_assert!((a.total_time() + b.total_time() - m.total_time()).abs() < 1e-9);
    }

    #[test]
    fn scaling_composes(m in measurements_strategy(), a in 0.1f64..10.0, b in 0.1f64..10.0) {
        let ab = m.scaled(a).unwrap().scaled(b).unwrap();
        let ba = m.scaled(a * b).unwrap();
        for r in m.region_ids() {
            for kind in m.activities().iter() {
                for p in m.processor_ids() {
                    prop_assert!((ab.time(r, kind, p) - ba.time(r, kind, p)).abs() < 1e-9);
                }
            }
        }
    }
}
