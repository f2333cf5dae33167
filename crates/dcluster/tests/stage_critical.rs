//! A stage segment's `critical_task` is always a task of that stage.
//!
//! Alone in its file: it installs the process-global `obs` collector, and
//! a test binary of its own keeps that away from every other test.

use dcluster::{ClusterConfig, SimCluster, StageOptions};

#[test]
fn instant_tasks_with_no_overhead_record_a_real_critical_task() {
    // No-op tasks measure a few nanoseconds, or exactly 0.0 on a coarse
    // clock — the case where every core load ties at 0.0 and the list
    // scheduler once named the idle last core's `usize::MAX` critical.
    const TASKS: usize = 48;
    let collector = obs::install_new();
    let cluster = SimCluster::new(ClusterConfig::scaled_cluster());
    for _ in 0..20 {
        let tasks: Vec<_> = (0..TASKS).map(|i| move || i).collect();
        cluster.run_stage(StageOptions::new("instant").with_task_overhead(0.0), tasks);
    }
    let _ = obs::uninstall();
    let critical: Vec<u64> = collector
        .events()
        .iter()
        .filter(|e| e.cat == "segment" && e.name == "stage:instant")
        .filter_map(|e| {
            e.args.iter().find_map(|(k, v)| match (*k, v) {
                ("critical_task", obs::ArgValue::U64(t)) => Some(*t),
                _ => None,
            })
        })
        .collect();
    assert_eq!(critical.len(), 20, "one cpu segment per stage");
    assert!(
        critical.iter().all(|&t| t < TASKS as u64),
        "critical tasks {critical:?} must index the stage's {TASKS} tasks"
    );
}
