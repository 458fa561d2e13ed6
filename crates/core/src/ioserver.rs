//! The model-rank → I/O-server pipeline (paper §1.2).
//!
//! At ECMWF the forecast model's processes never touch storage directly:
//! fields stream over the low-latency interconnect to dedicated *I/O
//! server* nodes, which aggregate and encode them and perform the actual
//! object-store writes. This module reproduces that pipeline on the
//! simulated cluster: model ranks on one set of client nodes push fields
//! to I/O-server processes on another set, which archive them through the
//! field I/O functions — measuring both storage-side bandwidth and the
//! end-to-end (model-to-durable) field latency.

use std::rc::Rc;

use bytes::Bytes;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_kernel::sync::channel;
use daosim_kernel::{Sim, SimDuration, SimTime};

use crate::fieldio::{FieldIoConfig, FieldStore};
use crate::key::FieldKey;
use crate::metrics::{latency_stats, phase_stats, EventKind, LatencyStats, PhaseStats, Recorder};
use crate::workload::payload;

/// Configuration of an I/O-server pipeline run.
#[derive(Clone, Debug)]
pub struct IoServerConfig {
    /// Cluster shape; `client_nodes` must cover model + I/O-server nodes.
    pub cluster: ClusterSpec,
    pub fieldio: FieldIoConfig,
    /// Leading client nodes that run model ranks.
    pub model_nodes: u16,
    /// Model ranks per model node.
    pub ranks_per_node: u32,
    /// I/O-server processes per remaining client node.
    pub ioservers_per_node: u32,
    /// Fields each model rank emits per step.
    pub fields_per_rank: u32,
    /// Forecast steps.
    pub steps: u32,
    pub field_bytes: u64,
    /// Per-field encoding cost on the I/O server (GRIB encoding).
    pub encode_cost: SimDuration,
}

impl IoServerConfig {
    /// A small but representative default: 2 model nodes feeding 1
    /// I/O-server node in front of a single DAOS server node.
    pub fn small() -> Self {
        IoServerConfig {
            cluster: ClusterSpec::tcp(1, 3),
            fieldio: FieldIoConfig::default(),
            model_nodes: 2,
            ranks_per_node: 8,
            ioservers_per_node: 4,
            fields_per_rank: 12,
            steps: 2,
            field_bytes: 1024 * 1024,
            encode_cost: SimDuration::from_micros(120),
        }
    }

    pub fn io_server_nodes(&self) -> u16 {
        self.cluster.client_nodes - self.model_nodes
    }

    pub fn total_fields(&self) -> u64 {
        self.model_nodes as u64
            * self.ranks_per_node as u64
            * self.fields_per_rank as u64
            * self.steps as u64
    }
}

/// Outcome of a pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct IoServerResult {
    /// Storage-side write statistics (I/O-server perspective).
    pub storage: PhaseStats,
    /// Model-to-durable latency distribution per field.
    pub end_to_end: LatencyStats,
    pub fields: u64,
    pub end_secs: f64,
}

/// A field in flight from a model rank to an I/O server.
struct InFlight {
    key: FieldKey,
    data: Bytes,
    emitted_at: SimTime,
    rank: u32,
    seq: u32,
}

/// Runs the pipeline to completion.
pub fn run_ioserver_pipeline(cfg: &IoServerConfig) -> IoServerResult {
    assert!(cfg.model_nodes >= 1 && cfg.model_nodes < cfg.cluster.client_nodes);
    assert!(cfg.ranks_per_node >= 1 && cfg.ioservers_per_node >= 1);
    let sim = Sim::new();
    let d = Deployment::new(&sim, cfg.cluster);
    let data = payload(cfg.field_bytes, 3);
    let storage_rec = Recorder::new();
    let e2e_rec = Recorder::new();

    let servers = cfg.io_server_nodes() as u32 * cfg.ioservers_per_node;
    let mut to_server = Vec::new();
    let mut from_model = Vec::new();
    for _ in 0..servers {
        let (tx, rx) = channel::<InFlight>();
        to_server.push(tx);
        from_model.push(Some(rx));
    }

    // Model ranks: generate fields, ship each over the fabric to its
    // assigned I/O server (sharded by field sequence number).
    let ranks = cfg.model_nodes as u32 * cfg.ranks_per_node;
    for rank in 0..ranks {
        let (d, cfg, data, sim2) = (Rc::clone(&d), cfg.clone(), data.clone(), sim.clone());
        let senders = to_server.clone();
        sim.spawn(async move {
            let node = (rank / cfg.ranks_per_node) as u16;
            let ep = d.client_endpoint(node, rank % cfg.ranks_per_node);
            for step in 0..cfg.steps {
                for f in 0..cfg.fields_per_rank {
                    let seq = step * cfg.fields_per_rank + f;
                    let target = ((rank + seq) % senders.len() as u32) as usize;
                    let server_node =
                        cfg.model_nodes + (target as u32 / cfg.ioservers_per_node) as u16;
                    let server_ep =
                        d.client_endpoint(server_node, target as u32 % cfg.ioservers_per_node);
                    let key = model_field_key(rank, step, f);
                    let emitted_at = sim2.now();
                    // Interconnect hop: latency + bulk flow rank -> server.
                    sim2.sleep(d.fabric.msg_latency()).await;
                    d.fabric.transfer(ep, server_ep, cfg.field_bytes).await;
                    senders[target].send(InFlight {
                        key,
                        data: data.clone(),
                        emitted_at,
                        rank,
                        seq,
                    });
                }
            }
        });
    }
    drop(to_server);

    // I/O servers: drain their queue, encode, archive. With an in-flight
    // window above 1 the archive step goes through the pipelined writer
    // (FDB-style asynchronous flush); events are then recorded from the
    // per-field completion callback, at completion time.
    let window = cfg.fieldio.inflight_window;
    for (s, rx) in from_model.iter_mut().enumerate() {
        let mut rx = rx.take().expect("receiver consumed twice");
        let (d, cfg, sim2) = (Rc::clone(&d), cfg.clone(), sim.clone());
        let (storage_rec, e2e_rec) = (storage_rec.clone(), e2e_rec.clone());
        sim.spawn(async move {
            let node = cfg.model_nodes + (s as u32 / cfg.ioservers_per_node) as u16;
            let client = SimClient::for_process(&d, node, s as u32 % cfg.ioservers_per_node);
            let fs = FieldStore::connect(client, cfg.fieldio.clone(), 50_000 + s as u32)
                .await
                .expect("ioserver connect");
            if window > 1 {
                let mut w = fs.pipelined_writer(window);
                let mut n = 0u32;
                while let Some(field) = rx.recv().await {
                    // Aggregation + GRIB encoding before the storage write.
                    sim2.sleep(cfg.encode_cost).await;
                    storage_rec.record(node, s as u32, n, EventKind::IoStart, sim2.now(), 0);
                    let (storage_rec, e2e_rec, sim3) =
                        (storage_rec.clone(), e2e_rec.clone(), sim2.clone());
                    let (rank, seq, emitted_at) = (field.rank, field.seq, field.emitted_at);
                    let (field_bytes, submit_seq, server) = (cfg.field_bytes, n, s as u32);
                    w.submit_with(&field.key, field.data.clone(), move |r| {
                        r.expect("archive failed");
                        let now = sim3.now();
                        storage_rec.record(
                            node,
                            server,
                            submit_seq,
                            EventKind::IoEnd,
                            now,
                            field_bytes,
                        );
                        e2e_rec.record(0, rank, seq, EventKind::IoStart, emitted_at, 0);
                        e2e_rec.record(0, rank, seq, EventKind::IoEnd, now, field_bytes);
                    })
                    .await
                    .expect("archive failed");
                    n += 1;
                }
                w.flush().await.expect("archive flush failed");
                return;
            }
            let mut n = 0u32;
            while let Some(field) = rx.recv().await {
                // Aggregation + GRIB encoding before the storage write.
                sim2.sleep(cfg.encode_cost).await;
                storage_rec.record(node, s as u32, n, EventKind::IoStart, sim2.now(), 0);
                fs.write_field(&field.key, field.data.clone())
                    .await
                    .expect("archive failed");
                let now = sim2.now();
                storage_rec.record(node, s as u32, n, EventKind::IoEnd, now, cfg.field_bytes);
                // End-to-end: from model emission to durable.
                e2e_rec.record(
                    0,
                    field.rank,
                    field.seq,
                    EventKind::IoStart,
                    field.emitted_at,
                    0,
                );
                e2e_rec.record(
                    0,
                    field.rank,
                    field.seq,
                    EventKind::IoEnd,
                    now,
                    cfg.field_bytes,
                );
                n += 1;
            }
        });
    }

    let end = sim.run().expect_quiescent();
    let storage_events = storage_rec.take();
    let e2e_events = e2e_rec.take();
    let fields = storage_events
        .iter()
        .filter(|e| e.kind == EventKind::IoEnd)
        .count() as u64;
    IoServerResult {
        storage: phase_stats(&storage_events, false),
        end_to_end: latency_stats(&e2e_events).expect("no fields archived"),
        fields,
        end_secs: end.as_secs_f64(),
    }
}

fn model_field_key(rank: u32, step: u32, f: u32) -> FieldKey {
    FieldKey::from_pairs([
        ("class", "od".to_string()),
        ("stream", "oper".to_string()),
        ("expver", "0001".to_string()),
        ("date", "20290101".to_string()),
        ("time", "0000".to_string()),
        ("number", rank.to_string()),
        ("step", step.to_string()),
        ("field", f.to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldio::FieldIoMode;

    #[test]
    fn pipeline_archives_every_field() {
        let cfg = IoServerConfig::small();
        let r = run_ioserver_pipeline(&cfg);
        assert_eq!(r.fields, cfg.total_fields());
        assert_eq!(r.storage.total_bytes, cfg.total_fields() * cfg.field_bytes);
        assert!(r.storage.global_bw_gib > 0.0);
        assert!(r.end_secs > 0.0);
    }

    #[test]
    fn end_to_end_latency_exceeds_storage_write_alone() {
        let cfg = IoServerConfig::small();
        let r = run_ioserver_pipeline(&cfg);
        // The interconnect hop + queueing + encode must make the
        // end-to-end latency strictly larger than the encode cost.
        assert!(r.end_to_end.mean_us > cfg.encode_cost.as_nanos() as f64 / 1000.0);
        assert!(r.end_to_end.p50_us <= r.end_to_end.p99_us);
        assert_eq!(r.end_to_end.count as u64, cfg.total_fields());
    }

    #[test]
    fn more_ioservers_do_not_lose_fields() {
        let mut cfg = IoServerConfig::small();
        cfg.ioservers_per_node = 8;
        cfg.fieldio = FieldIoConfig::builder()
            .mode(FieldIoMode::NoContainers)
            .build();
        let r = run_ioserver_pipeline(&cfg);
        assert_eq!(r.fields, cfg.total_fields());
    }

    #[test]
    fn windowed_pipeline_archives_every_field_no_slower() {
        let mut cfg = IoServerConfig::small();
        let sequential = run_ioserver_pipeline(&cfg);
        cfg.fieldio = FieldIoConfig::builder().window(8).build();
        let pipelined = run_ioserver_pipeline(&cfg);
        assert_eq!(pipelined.fields, cfg.total_fields());
        assert_eq!(
            pipelined.storage.total_bytes,
            cfg.total_fields() * cfg.field_bytes
        );
        // Overlapping storage writes can only help the makespan.
        assert!(pipelined.end_secs <= sequential.end_secs);
        // And the windowed run is deterministic too.
        let again = run_ioserver_pipeline(&cfg);
        assert_eq!(pipelined.end_secs.to_bits(), again.end_secs.to_bits());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let cfg = IoServerConfig::small();
        let a = run_ioserver_pipeline(&cfg);
        let b = run_ioserver_pipeline(&cfg);
        assert_eq!(a.end_secs.to_bits(), b.end_secs.to_bits());
        assert_eq!(a.end_to_end.p99_us.to_bits(), b.end_to_end.p99_us.to_bits());
    }
}
