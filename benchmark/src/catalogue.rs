//! Every metric the benchmark reports: name, unit, direction and, for the
//! end-to-end ones, the bound by which a change may worsen the parent's
//! median before it counts as a regression. `BENCHMARK.json` lists the
//! same metrics; a test keeps the two in step.

use crate::stats::Better;
use crate::trace::Op;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn m(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, from the untraced run.
///
/// The bounds follow the spread measured over ten seeds (README.md): host
/// times swing with the shared machine's load even after rescaling to the
/// reference speed (`speed.rs`), and the fault campaign
/// moves the degraded cycle's latency percentiles by a few percent from
/// seed to seed; every other simulated metric varies by well under 1 %.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("wall_s", "s", Lower, Some(0.25)),
        m("setup_s", "s", Lower, Some(0.25)),
        m("peak_rss_mib", "MiB", Lower, Some(0.10)),
        m("sim_makespan_s", "s", Lower, Some(0.01)),
        m("write_gib_s", "GiB/s", Higher, Some(0.01)),
        m("read_gib_s", "GiB/s", Higher, Some(0.01)),
        m("write_p50_ms", "ms", Lower, Some(0.10)),
        m("write_p99_ms", "ms", Lower, Some(0.10)),
        m("read_p50_ms", "ms", Lower, Some(0.10)),
        m("read_p99_ms", "ms", Lower, Some(0.10)),
        m("space_amplification", "ratio", Lower, Some(0.01)),
    ]
}

/// The client operations the four workloads call; each gets its own
/// per-operation metrics. A traced run that sees any other operation
/// fails its correctness check, so this list cannot silently go stale.
pub const CLIENT_OPS: [Op; 14] = [
    Op::ContOpenOrCreate,
    Op::ContOpen,
    Op::KvPut,
    Op::KvGet,
    Op::KvPutIfAbsent,
    Op::KvRemove,
    Op::KvListKeys,
    Op::ArrayCreate,
    Op::ArrayOpen,
    Op::ArrayOpenOrCreate,
    Op::ArrayWrite,
    Op::ArrayRead,
    Op::ArrayClose,
    Op::ObjPunch,
];

/// One layer at a time, from the traced run (host self times, per-op
/// simulated latency) and from counters read after the untraced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("kernel.run_wall_s", "s", Lower, None),
        m("kernel.self_wall_s", "s", Lower, None),
        m("workload.self_wall_s", "s", Lower, None),
        m("net.settles", "count", Lower, None),
        m("net.recomputes", "count", Lower, None),
        m("net.settles_per_client_op", "ratio", Lower, None),
        m("net.bytes_per_user_byte", "ratio", Lower, None),
        m("media.target_busy_max", "ratio", Lower, None),
        m("media.target_busy_mean", "ratio", Lower, None),
        m("media.scm_used_mib", "MiB", Lower, None),
        m("media.nvme_used_mib", "MiB", Lower, None),
        m("media.aggregated_mib", "MiB", Lower, None),
        m("objstore.pool_used_mib", "MiB", Lower, None),
        m("objstore.live_array_mib", "MiB", Higher, None),
        m("objstore.kv_updates_per_op", "ratio", Lower, None),
        m("objstore.kv_fetches_per_op", "ratio", Lower, None),
        m("objstore.array_updates_per_op", "ratio", Lower, None),
        m("objstore.array_fetches_per_op", "ratio", Lower, None),
    ];
    for layer in ["objstore.eq", "client", "fieldio", "dfs"] {
        v.push(m(&format!("{layer}.calls"), "count", Lower, None));
        v.push(m(&format!("{layer}.self_wall_s"), "s", Lower, None));
        v.push(m(&format!("{layer}.self_us_per_call"), "us", Lower, None));
    }
    for op in CLIENT_OPS {
        let op = op.name();
        v.push(m(&format!("client.{op}.calls"), "count", Lower, None));
        v.push(m(&format!("client.{op}.sim_p50_ms"), "ms", Lower, None));
        v.push(m(&format!("client.{op}.sim_p99_ms"), "ms", Lower, None));
        v.push(m(
            &format!("client.{op}.host_us_per_call"),
            "us",
            Lower,
            None,
        ));
        v.push(m(&format!("client.{op}.failed"), "count", Lower, None));
    }
    v.extend([
        m("cluster.retries", "count", Lower, None),
        m("cluster.timeouts", "count", Lower, None),
        m("cluster.failovers", "count", Lower, None),
        m("cluster.gave_up", "count", Lower, None),
        m("cluster.aged_grants", "count", Lower, None),
        m("cluster.backlog_peak", "count", Lower, None),
        m("cluster.client_ops", "count", Lower, None),
        m("workload.write_ops", "count", Higher, None),
        m("workload.read_ops", "count", Higher, None),
        m("workload.failed_ops", "count", Lower, None),
        m("workload.failed_op_ratio", "ratio", Lower, None),
        m("workload.deadline_miss_ratio", "ratio", Lower, None),
        m("workload.generator_lag_ms", "ms", Lower, None),
        m("trace.overhead_ratio", "ratio", Lower, None),
        m("host.unscaled_wall_s", "s", Lower, None),
        m("host.probe_ms", "ms", Lower, None),
    ]);
    v
}

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<Metric> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workload::Workload;

    fn listed(doc: &Value, key: &str) -> Vec<Value> {
        match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json `{key}` is {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, want) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let got = listed(&doc, key);
            assert_eq!(got.len(), want.len(), "{key} length");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.get("name").and_then(Value::as_str), Some(&*w.name));
                assert_eq!(g.get("unit").and_then(Value::as_str), Some(w.unit));
                assert_eq!(
                    g.get("better").and_then(Value::as_str),
                    Some(w.better.name())
                );
                assert_eq!(
                    g.get("bound").and_then(Value::as_f64),
                    w.bound,
                    "{}",
                    w.name
                );
            }
        }
        let names: Vec<String> = listed(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        assert!(per_layer().len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for m in &all {
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(
            find("setup_s").unwrap().bound
                >= end_to_end()
                    .iter()
                    .map(|m| m.bound)
                    .max_by(|a, b| a.partial_cmp(b).unwrap())
                    .unwrap()
        );
    }
}
