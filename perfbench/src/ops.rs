//! Workloads, seeded datasets, and the pre-generated op streams the
//! clients replay. Everything here is a pure function of the workload,
//! the seed and the scale, and runs before any timing starts.

use fusion_workloads::tpch::{lineitem_file, TpchConfig};

/// Closed-loop client threads. The callers of an analytics store each
/// wait for their reply, so load is closed loop; two clients match the
/// two vCPUs the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Service worker threads.
pub const WORKERS: usize = 2;

/// Length of every ranged GET.
pub const GET_LEN: u64 = 4096;

/// The query mix. `Store::query_as` ignores the `FROM` name, so one text
/// serves every object copy.
pub const QUERIES: [&str; 5] = [
    // Selective filter plus projection.
    "SELECT extendedprice FROM lineitem WHERE quantity < 5",
    // Filter plus ungrouped aggregate.
    "SELECT sum(extendedprice) FROM lineitem WHERE quantity <= 10",
    // Full-table aggregate: every shipdate chunk, no filter.
    "SELECT min(shipdate), max(shipdate) FROM lineitem",
    // Single-key GROUP BY. The filter keeps the grouped rows near a
    // quarter of the table so this shape costs what the others do.
    "SELECT returnflag, count(*), sum(quantity) FROM lineitem WHERE discount < 0.03 \
     GROUP BY returnflag",
    // Two-leaf string conjunction.
    "SELECT orderkey FROM lineitem WHERE returnflag = 'A' AND shipmode = 'AIR'",
];

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Queries over one object whose chunks all stay cached.
    WarmQuery,
    /// Queries plus ranged GETs cycling over more copies than the chunk
    /// cache holds.
    ColdScan,
    /// One client PUTs fresh objects while another queries.
    IngestMixed,
    /// Queries plus ranged GETs with one storage node failed.
    DegradedQuery,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WarmQuery,
        Workload::ColdScan,
        Workload::IngestMixed,
        Workload::DegradedQuery,
    ];

    /// The name used on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmQuery => "warm_query",
            Workload::ColdScan => "cold_scan",
            Workload::IngestMixed => "ingest_mixed",
            Workload::DegradedQuery => "degraded_query",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Dataset and stream sizes. [`Scale::full`] is what the benchmark
/// measures; [`Scale::smoke`] exercises the same code in seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rows per lineitem row group.
    pub rows_per_group: usize,
    /// Row groups per lineitem object (16 columns each).
    pub row_groups: usize,
    /// Object copies `cold_scan` cycles over.
    pub cold_copies: usize,
    /// Chunk-cache capacity `cold_scan` configures, in bytes.
    pub cold_cache_bytes: u64,
    /// Rows per row group of each object `ingest_mixed` PUTs.
    pub ingest_rows_per_group: usize,
    /// Distinct pre-generated PUT payloads (PUT keys are all fresh).
    pub ingest_payloads: usize,
    /// PUTs in the `ingest_mixed` stream; bounds the bytes it stores.
    pub ingest_puts: usize,
    /// PUTs the traced run replays directly against the store.
    pub replay_puts: usize,
    /// Ops pre-generated per client; a client that runs out wraps.
    pub stream_len: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Scale {
    /// The measured scale: lineitem at the harness default scale 0.5
    /// (150k rows, 10 row groups × 16 columns, about 5 MB).
    pub fn full() -> Scale {
        Scale {
            rows_per_group: 15_000,
            row_groups: 10,
            cold_copies: 6,
            cold_cache_bytes: 2 << 20,
            ingest_rows_per_group: 2_000,
            ingest_payloads: 8,
            ingest_puts: 160,
            replay_puts: 16,
            stream_len: 100_000,
            setups: 5,
        }
    }

    /// A tiny scale for the benchmark's own tests.
    pub fn smoke() -> Scale {
        Scale {
            rows_per_group: 600,
            row_groups: 4,
            cold_copies: 3,
            cold_cache_bytes: 16 << 10,
            ingest_rows_per_group: 200,
            ingest_payloads: 2,
            ingest_puts: 4,
            replay_puts: 2,
            stream_len: 1_000,
            setups: 1,
        }
    }

    /// Objects stored at set-up.
    pub fn objects(&self, w: Workload) -> usize {
        match w {
            Workload::ColdScan => self.cold_copies,
            _ => 1,
        }
    }
}

/// Name of the `i`-th stored lineitem copy.
pub fn object_name(i: usize) -> String {
    format!("lineitem-{i}")
}

/// Key of the `i`-th object the ingest client PUTs.
pub fn put_key(i: usize) -> String {
    format!("ingest-{i}")
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run `QUERIES[query]` against object copy `object`.
    Query {
        /// Object copy index.
        object: usize,
        /// Index into [`QUERIES`].
        query: usize,
    },
    /// Ranged GET of object copy `object`.
    Get {
        /// Object copy index.
        object: usize,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
    },
    /// PUT payload `payload` under [`put_key`]`(key)`.
    Put {
        /// Index into [`Dataset::payloads`].
        payload: usize,
        /// Key index.
        key: usize,
    },
}

/// Every generated byte the benchmark stores.
pub struct Dataset {
    /// The lineitem file stored at set-up (every copy holds these bytes).
    pub file: Vec<u8>,
    /// Rows in `file`.
    pub rows: usize,
    /// PUT payloads (`ingest_mixed` only).
    pub payloads: Vec<Vec<u8>>,
}

impl Dataset {
    /// Generates the dataset of `w` for `seed`.
    pub fn generate(w: Workload, seed: u64, scale: &Scale) -> Dataset {
        let cfg = TpchConfig {
            rows_per_group: scale.rows_per_group,
            row_groups: scale.row_groups,
            seed: mix(seed, 1),
        };
        let payloads = match w {
            Workload::IngestMixed => (0..scale.ingest_payloads)
                .map(|i| {
                    lineitem_file(TpchConfig {
                        rows_per_group: scale.ingest_rows_per_group,
                        row_groups: scale.row_groups,
                        seed: mix(seed, 100 + i as u64),
                    })
                })
                .collect(),
            _ => Vec::new(),
        };
        Dataset {
            file: lineitem_file(cfg),
            rows: cfg.rows(),
            payloads,
        }
    }
}

/// Generates one op stream per client.
pub fn streams(w: Workload, seed: u64, scale: &Scale, object_size: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng(mix(seed, 2));
    let len = scale.stream_len;
    match w {
        Workload::WarmQuery => (0..CLIENTS)
            .map(|_| client_stream(&mut rng, len, 1, 0, None))
            .collect(),
        // Clients start half the copy cycle apart, so neither reuses a
        // copy the other just pulled into the cache.
        Workload::ColdScan => (0..CLIENTS)
            .map(|c| {
                let first = c * scale.cold_copies / CLIENTS;
                client_stream(&mut rng, len, scale.cold_copies, first, Some(object_size))
            })
            .collect(),
        Workload::IngestMixed => vec![
            (0..scale.ingest_puts)
                .map(|key| Op::Put {
                    payload: key % scale.ingest_payloads,
                    key,
                })
                .collect(),
            client_stream(&mut rng, len, 1, 0, None),
        ],
        Workload::DegradedQuery => (0..CLIENTS)
            .map(|_| client_stream(&mut rng, len, 1, 0, Some(object_size)))
            .collect(),
    }
}

/// A query stream in which every block of five ops runs each query shape
/// once, in seeded order (so the mix is exact, not just expected); with
/// `gets`, every fourth op is instead a 4 KiB GET at a seeded offset.
fn client_stream(
    rng: &mut Rng,
    len: usize,
    copies: usize,
    first_copy: usize,
    gets: Option<u64>,
) -> Vec<Op> {
    let mut order: Vec<usize> = (0..QUERIES.len()).collect();
    let mut next = order.len();
    (0..len)
        .map(|j| {
            let object = (first_copy + j) % copies;
            match gets {
                Some(size) if j % 4 == 3 => Op::Get {
                    object,
                    offset: rng.below(size - GET_LEN + 1),
                    len: GET_LEN,
                },
                _ => {
                    if next == order.len() {
                        rng.shuffle(&mut order);
                        next = 0;
                    }
                    next += 1;
                    Op::Query {
                        object,
                        query: order[next - 1],
                    }
                }
            }
        })
        .collect()
}

/// FNV-1a digest of every generated input: the stored bytes, the PUT
/// payloads and the op streams.
pub fn digest(ds: &Dataset, streams: &[Vec<Op>]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&ds.file);
    for p in &ds.payloads {
        h.u64(p.len() as u64);
        h.bytes(p);
    }
    for s in streams {
        h.u64(s.len() as u64);
        for op in s {
            match *op {
                Op::Query { object, query } => {
                    h.u64(0);
                    h.u64(object as u64);
                    h.u64(query as u64);
                }
                Op::Get {
                    object,
                    offset,
                    len,
                } => {
                    h.u64(1);
                    h.u64(object as u64);
                    h.u64(offset);
                    h.u64(len);
                }
                Op::Put { payload, key } => {
                    h.u64(2);
                    h.u64(payload as u64);
                    h.u64(key as u64);
                }
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: a small seeded generator, so the op streams depend on
/// nothing but the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Derives an independent sub-seed for one input.
fn mix(seed: u64, salt: u64) -> u64 {
    Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next()
}
