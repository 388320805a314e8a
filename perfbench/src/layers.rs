//! The traced run: after the timed window, the store is taken back from
//! the service and a prefix of the same op stream runs twice against it
//! — once directly (`Store::query_as`, `get`, `put`: the untraced layer
//! times) and once through the layer replay, which records spans. The
//! per-layer metrics come from those spans and the window's counters.

use crate::drive::{same_result, Window};
use crate::ops::{object_name, put_key, Dataset, Op, Scale, QUERIES};
use crate::replay::{Chunks, Replay, Span};
use crate::stats::{median, p50, Metric};
use fusion_core::query::QueryResult;
use fusion_core::store::{PutReport, Store};
use fusion_core::PutOutcome;
use fusion_service::{Request, Response};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Most ops one replay pass runs.
const MAX_REPLAY_OPS: usize = 400;

/// Span layers reported as p50 ns per call, calls per op and share of
/// the direct query time.
pub const SPAN_LAYERS: [&str; 15] = [
    "sql.parse",
    "sql.plan",
    "sql.scan",
    "sql.combine",
    "sql.aggregate",
    "core.meta_resolve",
    "core.cache_lookup",
    "core.chunk_bytes",
    "core.degraded_read",
    "cluster.block_probe",
    "cluster.block_read",
    "format.chunk_parse",
    "format.materialize",
    "snappy.bitmap_compress",
    "ec.reconstruct",
];

/// What the traced run produced.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Ops replayed (each runs directly and through the replay).
    pub ops: usize,
    /// Mismatches and errors among them.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// The store's own answer to one op, and how long it took.
enum Direct {
    Query {
        ns: u64,
        result: QueryResult,
        chunks: Chunks,
    },
    Get {
        ns: u64,
        data: Vec<u8>,
    },
    Put {
        ns: u64,
        report: PutReport,
    },
}

/// The ops the traced run replays: the clients' streams interleaved op
/// by op, PUTs renamed to fresh keys and capped at `scale.replay_puts`.
pub fn replay_ops(streams: &[Vec<Op>], scale: &Scale) -> Vec<Op> {
    let mut out = Vec::new();
    let mut puts = 0;
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for j in 0..longest {
        for s in streams {
            match s.get(j) {
                Some(&Op::Put { payload, .. }) if puts < scale.replay_puts => {
                    out.push(Op::Put {
                        payload,
                        key: scale.ingest_puts + puts,
                    });
                    puts += 1;
                }
                Some(Op::Put { .. }) | None => {}
                Some(&op) => out.push(op),
            }
            if out.len() == MAX_REPLAY_OPS {
                return out;
            }
        }
    }
    out
}

/// Runs the direct pass for at most `budget_s` seconds, then replays the
/// same ops with spans, and derives the per-layer metrics.
pub fn traced(
    mut store: Store,
    ops: &[Op],
    ds: &Dataset,
    oracle: &[QueryResult],
    window: &Window,
    budget_s: f64,
) -> Result<Traced, String> {
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut fail = |what: String| {
        failed += 1;
        if errors.len() < 8 {
            errors.push(what);
        }
    };

    // Direct pass: the layer entry points the service calls, untraced.
    let t0 = Instant::now();
    let mut direct = Vec::new();
    for op in ops {
        if !direct.is_empty() && t0.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let t = Instant::now();
        let d = match *op {
            Op::Query { object, query } => {
                let out = store
                    .query_as(&object_name(object), QUERIES[query])
                    .map_err(|e| format!("direct {op:?}: {e}"))?;
                let ns = t.elapsed().as_nanos() as u64;
                if !same_result(&out.result, &oracle[query]) {
                    fail(format!("direct {op:?}: differs from the oracle"));
                }
                let chunks = Chunks {
                    pruned: out.pruned_chunks,
                    hits: out.cache_hits,
                    misses: out.cache_misses,
                    considered: out.chunks_considered,
                    ..Chunks::default()
                };
                Direct::Query {
                    ns,
                    result: out.result,
                    chunks,
                }
            }
            Op::Get {
                object,
                offset,
                len,
            } => {
                let data = store
                    .get(&object_name(object), offset, len)
                    .map_err(|e| format!("direct {op:?}: {e}"))?;
                let ns = t.elapsed().as_nanos() as u64;
                if data[..] != ds.file[offset as usize..(offset + len) as usize] {
                    fail(format!("direct {op:?}: wrong bytes"));
                }
                Direct::Get { ns, data }
            }
            Op::Put { payload, key } => {
                let data = ds.payloads[payload].clone();
                let t = Instant::now();
                let report = store
                    .put(&put_key(key), data)
                    .map_err(|e| format!("direct {op:?}: {e}"))?;
                Direct::Put {
                    ns: t.elapsed().as_nanos() as u64,
                    report,
                }
            }
        };
        direct.push(d);
    }

    // Traced pass over the same ops.
    let mut replay = Replay::new(&store).map_err(|e| e.to_string())?;
    let nodes = store.blocks().num_nodes();
    let served = |s: &Store| (0..nodes).map(|n| s.blocks().bytes_served(n)).sum::<u64>();
    let mut roots = Vec::with_capacity(direct.len());
    let mut bytes_read = 0u64;
    let mut scan_rows = 0u64;
    for (i, (op, d)) in ops.iter().zip(&direct).enumerate() {
        replay.rec.set_op(i);
        let before = served(&store);
        let (root, verdict) = match (*op, d) {
            (Op::Query { object, query }, Direct::Query { result, chunks, .. }) => {
                let root = replay.rec.open("op.query");
                let r = replay.query(&object_name(object), QUERIES[query]);
                replay.rec.close(root);
                bytes_read += served(&store) - before;
                let verdict = match r {
                    Ok((got, c)) => {
                        scan_rows += c.scan_rows;
                        replay.pool_fanout(c.scan_tasks);
                        if c.pruned + c.hits + c.misses != c.considered {
                            Err("replay chunk accounting does not conserve".to_string())
                        } else if chunks.pruned + chunks.hits + chunks.misses != chunks.considered {
                            Err("store chunk accounting does not conserve".to_string())
                        } else if !same_result(&got, result) {
                            Err("replayed answer differs from Store::query_as".to_string())
                        } else {
                            Ok(())
                        }
                    }
                    Err(e) => Err(e.to_string()),
                };
                (root, verdict)
            }
            (
                Op::Get {
                    object,
                    offset,
                    len,
                },
                Direct::Get { data, .. },
            ) => {
                let root = replay.rec.open("op.get");
                let r = replay.get(&object_name(object), offset, len);
                replay.rec.close(root);
                bytes_read += served(&store) - before;
                let verdict = match r {
                    Ok(got) if got == *data => Ok(()),
                    Ok(_) => Err("replayed bytes differ from Store::get".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                (root, verdict)
            }
            (Op::Put { payload, key }, Direct::Put { .. }) => {
                let root = replay.rec.open("op.put");
                let r = replay.put_layers(&put_key(key), &ds.payloads[payload]);
                replay.rec.close(root);
                bytes_read += served(&store) - before;
                let verdict = match r {
                    Ok(parity) => parity
                        .iter()
                        .all(|(node, block, want)| {
                            store
                                .blocks()
                                .get(*node, *block)
                                .is_ok_and(|b| b[..] == want[..])
                        })
                        .then_some(())
                        .ok_or_else(|| "replayed parity differs from the stored".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                (root, verdict)
            }
            _ => unreachable!("direct outcomes follow the op list"),
        };
        if let Err(e) = verdict {
            fail(format!("replay {op:?}: {e}"));
        }
        roots.push(root);
        frame(&mut replay, *op, d, ds);
        replay.crc_touched();
    }
    let spans = std::mem::take(&mut replay.rec.spans);
    drop(replay);

    let metrics = derive(&spans, &roots, &direct, window, bytes_read, scan_rows);
    Ok(Traced {
        metrics,
        ops: direct.len(),
        failed,
        errors,
        spans,
    })
}

/// Times the four frame-codec calls one op makes on the loopback path:
/// request encode and decode, response encode and decode.
fn frame(replay: &mut Replay<'_>, op: Op, d: &Direct, ds: &Dataset) {
    let request = match op {
        Op::Query { object, query } => Request::Query {
            object: object_name(object),
            sql: QUERIES[query].to_string(),
        },
        Op::Get {
            object,
            offset,
            len,
        } => Request::Get {
            key: object_name(object),
            offset,
            len,
        },
        Op::Put { payload, key } => Request::Put {
            key: put_key(key),
            data: ds.payloads[payload].clone(),
        },
    };
    let response = match d {
        Direct::Query { result, .. } => Response::Query(result.clone()),
        Direct::Get { data, .. } => Response::Get(data.clone()),
        Direct::Put { report, .. } => Response::Put(PutOutcome::from(report)),
    };
    replay.rec.time("service.frame", || {
        let req = Request::decode(&request.encode());
        let resp = Response::decode(&response.encode());
        black_box((req.is_ok(), resp.is_ok()));
    });
}

/// Per-layer metrics from the spans, the direct pass and the window.
fn derive(
    spans: &[Span],
    roots: &[usize],
    direct: &[Direct],
    window: &Window,
    bytes_read: u64,
    scan_rows: u64,
) -> Vec<Metric> {
    let ops = direct.len().max(1) as f64;
    let is_query: Vec<bool> = direct
        .iter()
        .map(|d| matches!(d, Direct::Query { .. }))
        .collect();
    let query_ns: Vec<u64> = direct
        .iter()
        .filter_map(|d| match d {
            Direct::Query { ns, .. } => Some(*ns),
            _ => None,
        })
        .collect();
    let query_total: u64 = query_ns.iter().sum();
    let mut by_name: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut in_queries: HashMap<&str, u64> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.ns());
        if is_query[s.op as usize] {
            *in_queries.entry(s.name).or_default() += s.ns();
        }
    }
    let calls = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;

    let mut m = Vec::new();
    // Service: exact mean service time from the window, frame codec from
    // the replay, and queue wait as what the client saw beyond both.
    let client_mean = mean(&window.samples.all_ns().collect::<Vec<_>>());
    let frame_mean = mean(calls("service.frame"));
    m.push(Metric::new(
        "service.frame_ns",
        p50(calls("service.frame")) as f64,
        "ns",
    ));
    m.push(Metric::new("service.time_ns", window.service_mean_ns, "ns"));
    m.push(Metric::new(
        "service.queue_wait_ns",
        client_mean - window.service_mean_ns - frame_mean,
        "ns",
    ));
    for layer in SPAN_LAYERS {
        let v = calls(layer);
        m.push(Metric::new(format!("{layer}_ns"), p50(v) as f64, "ns"));
        m.push(Metric::new(
            format!("{layer}.calls_per_op"),
            v.len() as f64 / ops,
            "count",
        ));
        m.push(Metric::new(
            format!("{layer}.share"),
            in_queries.get(layer).copied().unwrap_or(0) as f64 / query_total.max(1) as f64,
            "ratio",
        ));
    }
    let scan_ns: u64 = calls("sql.scan").iter().sum();
    m.push(Metric::new(
        "sql.scan_rows_per_us",
        scan_rows as f64 * 1e3 / scan_ns.max(1) as f64,
        "rows/us",
    ));

    // Store entry points, untraced.
    m.push(Metric::new("core.query_ns", p50(&query_ns) as f64, "ns"));
    let mut top_level: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        *top_level.entry(s.parent).or_default() += s.ns();
    }
    let unattributed: Vec<f64> = direct
        .iter()
        .zip(roots)
        .filter_map(|(d, &root)| match d {
            Direct::Query { ns, .. } => {
                let covered = top_level.get(&spans[root].id).copied().unwrap_or(0);
                Some(*ns as f64 - covered as f64)
            }
            _ => None,
        })
        .collect();
    m.push(Metric::new(
        "core.query_unattributed_ns",
        median(&unattributed),
        "ns",
    ));
    let lookups = window.cache_hits + window.cache_misses;
    m.push(Metric::new(
        "core.cache_hit_ratio",
        window.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    let (pruned, considered) = direct.iter().fold((0, 0), |(p, c), d| match d {
        Direct::Query { chunks, .. } => (p + chunks.pruned, c + chunks.considered),
        _ => (p, c),
    });
    m.push(Metric::new(
        "core.prune_ratio",
        pruned as f64 / considered.max(1) as f64,
        "ratio",
    ));
    let get_ns: Vec<u64> = direct
        .iter()
        .filter_map(|d| match d {
            Direct::Get { ns, .. } => Some(*ns),
            _ => None,
        })
        .collect();
    m.push(Metric::new("core.get_ns", p50(&get_ns) as f64, "ns"));
    let (put_ns, pack_ns): (Vec<u64>, Vec<u64>) = direct
        .iter()
        .filter_map(|d| match d {
            Direct::Put { ns, report } => Some((*ns, report.pack_runtime.as_nanos() as u64)),
            _ => None,
        })
        .unzip();
    m.push(Metric::new("core.put_ns", p50(&put_ns) as f64, "ns"));
    m.push(Metric::new(
        "core.layout_pack_ns",
        p50(&pack_ns) as f64,
        "ns",
    ));
    m.push(Metric::new(
        "cluster.bytes_read_per_op",
        bytes_read as f64 / ops,
        "bytes",
    ));
    let (crc_bytes, crc_ns) = spans
        .iter()
        .filter(|s| s.name == "format.crc")
        .fold((0u64, 0u64), |(b, t), s| (b + s.bytes, t + s.ns()));
    m.push(Metric::new(
        "format.crc_mb_s",
        crc_bytes as f64 * 1e3 / crc_ns.max(1) as f64,
        "MB/s",
    ));
    m.push(Metric::new(
        "ec.encode_ns",
        p50(calls("ec.encode")) as f64,
        "ns",
    ));
    m.push(Metric::new(
        "ec.pool_fanout_ns",
        p50(calls("ec.pool_fanout")) as f64,
        "ns",
    ));
    let replayed: Vec<f64> = roots
        .iter()
        .zip(&is_query)
        .filter(|(_, &q)| q)
        .map(|(&r, _)| spans[r].ns() as f64)
        .collect();
    let untraced = median(&query_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    m.push(Metric::new(
        "trace.overhead_frac",
        if untraced > 0.0 {
            median(&replayed) / untraced - 1.0
        } else {
            0.0
        },
        "ratio",
    ));
    m
}
