//! The length-prefixed wire protocol (DESIGN.md §17).
//!
//! Every message is one **frame**: a 4-byte little-endian body length
//! followed by the body, whose first byte is the opcode. Bodies are
//! capped at [`MAX_FRAME`] so a hostile length prefix cannot make a
//! worker allocate unbounded memory. Decoding follows the checked
//! wire-codec style of the metadata plane
//! ([`fusion_core::LayoutRecord::from_bytes`]): every read is
//! bounds-checked, every tag validated, and any violation comes back as
//! a typed [`FrameError`] — malformed input must never panic a worker.
//!
//! Floats cross the wire as raw `to_le_bytes` IEEE-754 bits, so a query
//! result round-trips **bit-identically** — the equivalence suite
//! compares DES-side and service-side results with `==` and must never
//! be tripped by a lossy float format.

use fusion_core::query::QueryResult;
use fusion_core::{PutOutcome, StoreError};
use fusion_format::value::{ColumnData, Value};

/// Frame-body cap: object payloads ride inside frames, so this bounds
/// the largest storable object through the service (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// Wire decode failures. These describe the *frame*; store-level
/// failures travel inside a well-formed [`Response::Err`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Body shorter than a field it claims to contain.
    Truncated {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown value/column type tag.
    BadTag(u8),
    /// A string field is not UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            FrameError::BadUtf8 => write!(f, "string field is not UTF-8"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Typed wire error codes: stable u16s a non-Rust client could match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// No such object.
    ObjectNotFound = 1,
    /// Object already exists.
    ObjectExists = 2,
    /// Analytics operation on a non-analytics object.
    NotAnalytics = 3,
    /// Columnar file problem.
    Format = 4,
    /// SQL parse/plan failure.
    Sql = 5,
    /// Cluster-level failure.
    Cluster = 6,
    /// Erasure-code configuration problem.
    Code = 7,
    /// Data unrecoverable.
    Unrecoverable = 8,
    /// Ranged read outside the object.
    OutOfRange = 9,
    /// Corrupt location metadata.
    Metadata = 10,
    /// Invalid request argument (bad key, overflowing range, bad node).
    InvalidRequest = 11,
    /// Cluster cannot serve right now; retryable.
    Unavailable = 12,
    /// Anything else server-side.
    Internal = 13,
    /// Request queue full; retryable after backoff.
    Overloaded = 14,
    /// Service is draining; not retryable against this instance.
    ShuttingDown = 15,
    /// The request frame itself failed to decode.
    BadFrame = 16,
}

impl ErrorCode {
    /// Parses a wire code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => ObjectNotFound,
            2 => ObjectExists,
            3 => NotAnalytics,
            4 => Format,
            5 => Sql,
            6 => Cluster,
            7 => Code,
            8 => Unrecoverable,
            9 => OutOfRange,
            10 => Metadata,
            11 => InvalidRequest,
            12 => Unavailable,
            13 => Internal,
            14 => Overloaded,
            15 => ShuttingDown,
            16 => BadFrame,
            _ => return None,
        })
    }

    /// Whether a client may retry the request verbatim.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Unavailable | ErrorCode::Overloaded)
    }
}

/// Maps a store error onto its wire code.
pub fn code_of(err: &StoreError) -> ErrorCode {
    match err {
        StoreError::ObjectNotFound(_) => ErrorCode::ObjectNotFound,
        StoreError::ObjectExists(_) => ErrorCode::ObjectExists,
        StoreError::NotAnalytics(_) => ErrorCode::NotAnalytics,
        StoreError::Format(_) => ErrorCode::Format,
        StoreError::Sql(_) => ErrorCode::Sql,
        StoreError::Cluster(_) => ErrorCode::Cluster,
        StoreError::Code(_) => ErrorCode::Code,
        StoreError::Unrecoverable(_) => ErrorCode::Unrecoverable,
        StoreError::OutOfRange { .. } => ErrorCode::OutOfRange,
        StoreError::Metadata(_) => ErrorCode::Metadata,
        StoreError::InvalidRequest(_) => ErrorCode::InvalidRequest,
        StoreError::Unavailable(_) => ErrorCode::Unavailable,
        StoreError::Internal(_) => ErrorCode::Internal,
    }
}

/// A client request, one frame each.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store `data` under `key`.
    Put {
        /// Object key.
        key: String,
        /// Object bytes.
        data: Vec<u8>,
    },
    /// Read `len` bytes at `offset` of `key`.
    Get {
        /// Object key.
        key: String,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// Run `sql` against `object`.
    Query {
        /// Object key (overrides the SQL `FROM` name).
        object: String,
        /// SQL text.
        sql: String,
    },
    /// Mark a node failed.
    FailNode(u32),
    /// Revive and heal a node.
    RecoverNode(u32),
    /// Liveness probe.
    Ping,
}

/// A server response, one frame each.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Put succeeded.
    Put(PutOutcome),
    /// Get succeeded.
    Get(Vec<u8>),
    /// Query succeeded.
    Query(QueryResult),
    /// Node admin op succeeded.
    Ok,
    /// Ping reply.
    Pong,
    /// The request failed; the frame itself was well-formed.
    Err {
        /// Typed wire code.
        code: ErrorCode,
        /// Human-readable detail (display of the server-side error).
        message: String,
    },
}

const OP_PUT: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_FAIL_NODE: u8 = 0x04;
const OP_RECOVER_NODE: u8 = 0x05;
const OP_PING: u8 = 0x06;

const OP_R_PUT: u8 = 0x81;
const OP_R_GET: u8 = 0x82;
const OP_R_QUERY: u8 = 0x83;
const OP_R_OK: u8 = 0x84;
const OP_R_PONG: u8 = 0x85;
const OP_R_ERR: u8 = 0xee;

const TAG_INT64: u8 = 0;
const TAG_FLOAT64: u8 = 1;
const TAG_UTF8: u8 = 2;

// ---- Checked reader over a frame body ----

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(FrameError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?).map_err(|_| FrameError::BadUtf8)
    }

    fn finish(&self) -> Result<(), FrameError> {
        let rest = self.buf.len() - self.pos;
        if rest != 0 {
            return Err(FrameError::TrailingBytes(rest));
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

// ---- Request codec ----

impl Request {
    /// Encodes the frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Put { key, data } => {
                out.push(OP_PUT);
                put_string(&mut out, key);
                put_bytes(&mut out, data);
            }
            Request::Get { key, offset, len } => {
                out.push(OP_GET);
                put_string(&mut out, key);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Request::Query { object, sql } => {
                out.push(OP_QUERY);
                put_string(&mut out, object);
                put_string(&mut out, sql);
            }
            Request::FailNode(n) => {
                out.push(OP_FAIL_NODE);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Request::RecoverNode(n) => {
                out.push(OP_RECOVER_NODE);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Request::Ping => out.push(OP_PING),
        }
        out
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; never panics on hostile input.
    pub fn decode(body: &[u8]) -> Result<Request, FrameError> {
        if body.len() > MAX_FRAME {
            return Err(FrameError::Oversized(body.len()));
        }
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_PUT => Request::Put {
                key: c.string()?,
                data: c.bytes()?,
            },
            OP_GET => Request::Get {
                key: c.string()?,
                offset: c.u64()?,
                len: c.u64()?,
            },
            OP_QUERY => Request::Query {
                object: c.string()?,
                sql: c.string()?,
            },
            OP_FAIL_NODE => Request::FailNode(c.u32()?),
            OP_RECOVER_NODE => Request::RecoverNode(c.u32()?),
            OP_PING => Request::Ping,
            op => return Err(FrameError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---- Response codec ----

fn encode_column(out: &mut Vec<u8>, col: &ColumnData) {
    match col {
        ColumnData::Int64(v) => {
            out.push(TAG_INT64);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Float64(v) => {
            out.push(TAG_FLOAT64);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Utf8(v) => {
            out.push(TAG_UTF8);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for s in v {
                put_string(out, s);
            }
        }
    }
}

fn decode_column(c: &mut Cursor<'_>) -> Result<ColumnData, FrameError> {
    let tag = c.u8()?;
    let n = c.u32()? as usize;
    // Guard the reserve against a hostile count: the loop itself is
    // bounds-checked, but with_capacity(huge) would abort first.
    let cap = n.min(MAX_FRAME / 8);
    Ok(match tag {
        TAG_INT64 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(c.u64()? as i64);
            }
            ColumnData::Int64(v)
        }
        TAG_FLOAT64 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(f64::from_le_bytes(c.take(8)?.try_into().expect("8")));
            }
            ColumnData::Float64(v)
        }
        TAG_UTF8 => {
            let mut v = Vec::with_capacity(cap.min(1 << 16));
            for _ in 0..n {
                v.push(c.string()?);
            }
            ColumnData::Utf8(v)
        }
        t => return Err(FrameError::BadTag(t)),
    })
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            out.push(TAG_INT64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_UTF8);
            put_string(out, s);
        }
    }
}

fn decode_value(c: &mut Cursor<'_>) -> Result<Value, FrameError> {
    Ok(match c.u8()? {
        TAG_INT64 => Value::Int(c.u64()? as i64),
        TAG_FLOAT64 => Value::Float(f64::from_le_bytes(c.take(8)?.try_into().expect("8"))),
        TAG_UTF8 => Value::Str(c.string()?),
        t => return Err(FrameError::BadTag(t)),
    })
}

/// Encodes a [`QueryResult`] payload (shared by response and tests).
fn encode_query_result(out: &mut Vec<u8>, r: &QueryResult) {
    out.extend_from_slice(&(r.row_count as u64).to_le_bytes());
    out.extend_from_slice(&(r.columns.len() as u32).to_le_bytes());
    for (name, col) in &r.columns {
        put_string(out, name);
        encode_column(out, col);
    }
    out.extend_from_slice(&(r.aggregates.len() as u32).to_le_bytes());
    for (name, v) in &r.aggregates {
        put_string(out, name);
        encode_value(out, v);
    }
}

fn decode_query_result(c: &mut Cursor<'_>) -> Result<QueryResult, FrameError> {
    let row_count = c.u64()? as usize;
    let ncols = c.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1 << 10));
    for _ in 0..ncols {
        let name = c.string()?;
        columns.push((name, decode_column(c)?));
    }
    let naggs = c.u32()? as usize;
    let mut aggregates = Vec::with_capacity(naggs.min(1 << 10));
    for _ in 0..naggs {
        let name = c.string()?;
        aggregates.push((name, decode_value(c)?));
    }
    Ok(QueryResult {
        row_count,
        columns,
        aggregates,
    })
}

impl Response {
    /// Encodes the frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Put(o) => {
                out.push(OP_R_PUT);
                out.extend_from_slice(&o.stored_bytes.to_le_bytes());
                out.extend_from_slice(&o.stripes.to_le_bytes());
                out.extend_from_slice(&o.chunks.to_le_bytes());
            }
            Response::Get(data) => {
                out.push(OP_R_GET);
                put_bytes(&mut out, data);
            }
            Response::Query(r) => {
                out.push(OP_R_QUERY);
                encode_query_result(&mut out, r);
            }
            Response::Ok => out.push(OP_R_OK),
            Response::Pong => out.push(OP_R_PONG),
            Response::Err { code, message } => {
                out.push(OP_R_ERR);
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_string(&mut out, message);
            }
        }
        out
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; never panics on hostile input.
    pub fn decode(body: &[u8]) -> Result<Response, FrameError> {
        if body.len() > MAX_FRAME {
            return Err(FrameError::Oversized(body.len()));
        }
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            OP_R_PUT => Response::Put(PutOutcome {
                stored_bytes: c.u64()?,
                stripes: c.u64()?,
                chunks: c.u64()?,
            }),
            OP_R_GET => Response::Get(c.bytes()?),
            OP_R_QUERY => Response::Query(decode_query_result(&mut c)?),
            OP_R_OK => Response::Ok,
            OP_R_PONG => Response::Pong,
            OP_R_ERR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw).ok_or(FrameError::BadTag(raw as u8))?;
                Response::Err {
                    code,
                    message: c.string()?,
                }
            }
            op => return Err(FrameError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Reads one full frame from a byte stream (blocking). `Ok(None)` on a
/// clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors pass through; an oversized or mid-frame-truncated stream
/// becomes `InvalidData`.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    use std::io::{Error, ErrorKind};
    let mut len_buf = [0u8; 4];
    // Manual first-byte read to distinguish clean EOF from truncation.
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(Error::new(
            ErrorKind::InvalidData,
            FrameError::Oversized(len),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one frame to a byte stream (blocking).
///
/// # Errors
///
/// I/O errors pass through.
pub fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body), Ok(req));
    }

    fn roundtrip_resp(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body), Ok(resp));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Put {
            key: "bucket/obj".into(),
            data: vec![0, 1, 2, 255],
        });
        roundtrip_req(Request::Get {
            key: "k".into(),
            offset: u64::MAX,
            len: 7,
        });
        roundtrip_req(Request::Query {
            object: "o".into(),
            sql: "SELECT COUNT(*) FROM t".into(),
        });
        roundtrip_req(Request::FailNode(3));
        roundtrip_req(Request::RecoverNode(u32::MAX));
        roundtrip_req(Request::Ping);
    }

    #[test]
    fn response_roundtrips_bit_exact() {
        roundtrip_resp(Response::Put(PutOutcome {
            stored_bytes: 12345,
            stripes: 3,
            chunks: 17,
        }));
        roundtrip_resp(Response::Get(vec![9; 1000]));
        // Floats with tricky bit patterns must survive exactly.
        let weird = f64::from_bits(0x7ff0_0000_0000_0001); // signaling NaN bits
        let r = QueryResult {
            row_count: 42,
            columns: vec![
                ("a".into(), ColumnData::Int64(vec![i64::MIN, -1, i64::MAX])),
                ("b".into(), ColumnData::Float64(vec![0.1, -0.0, weird])),
                (
                    "c".into(),
                    ColumnData::Utf8(vec!["x".into(), String::new()]),
                ),
            ],
            aggregates: vec![
                ("sum".into(), Value::Int(-5)),
                ("avg".into(), Value::Float(1.0 / 3.0)),
                ("max".into(), Value::Str("zz".into())),
            ],
        };
        let body = Response::Query(r.clone()).encode();
        match Response::decode(&body).unwrap() {
            Response::Query(got) => {
                assert_eq!(got.row_count, r.row_count);
                assert_eq!(got.columns[0], r.columns[0]);
                assert_eq!(got.columns[2], r.columns[2]);
                // Compare floats by bits: NaN != NaN under PartialEq.
                match (&got.columns[1].1, &r.columns[1].1) {
                    (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                        let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
                        let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(ab, bb, "float bits must round-trip exactly");
                    }
                    _ => panic!("column type changed"),
                }
            }
            other => panic!("wrong response: {other:?}"),
        }
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Err {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Unknown opcode.
        assert_eq!(Request::decode(&[0x7f]), Err(FrameError::BadOpcode(0x7f)));
        // Empty body.
        assert!(matches!(
            Request::decode(&[]),
            Err(FrameError::Truncated { .. })
        ));
        // Truncated string length.
        let mut body = Request::Query {
            object: "obj".into(),
            sql: "SELECT".into(),
        }
        .encode();
        body.truncate(body.len() - 3);
        assert!(matches!(
            Request::decode(&body),
            Err(FrameError::Truncated { .. })
        ));
        // String length pointing past the end.
        let mut lie = vec![OP_GET];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&lie),
            Err(FrameError::Truncated { .. })
        ));
        // Trailing garbage.
        let mut body = Request::Ping.encode();
        body.push(0);
        assert_eq!(Request::decode(&body), Err(FrameError::TrailingBytes(1)));
        // Bad value tag in a response.
        let mut body = vec![OP_R_QUERY];
        body.extend_from_slice(&0u64.to_le_bytes()); // row_count
        body.extend_from_slice(&1u32.to_le_bytes()); // 1 column
        body.extend_from_slice(&1u32.to_le_bytes()); // name len
        body.push(b'a');
        body.push(0x63); // bogus column tag
        body.extend_from_slice(&0u32.to_le_bytes()); // count (read before tag check)
        assert_eq!(Response::decode(&body), Err(FrameError::BadTag(0x63)));
        // Hostile element count: claims 2^32-1 ints with a 9-byte body.
        let mut body = vec![OP_R_QUERY];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'a');
        body.push(TAG_INT64);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes()); // only one value present
        assert!(matches!(
            Response::decode(&body),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_split_and_stream_io() {
        let body = Request::Get {
            key: "k".into(),
            offset: 0,
            len: 10,
        }
        .encode();
        // A hostile length prefix is refused before any body is read.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let inner = err.into_inner().expect("a frame error");
        assert_eq!(
            inner.downcast_ref::<FrameError>(),
            Some(&FrameError::Oversized(MAX_FRAME + 1))
        );
        // Stream io round-trip, two frames back to back.
        let mut stream = Vec::new();
        write_frame(&mut stream, &body).unwrap();
        write_frame(&mut stream, &Request::Ping.encode()).unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), body);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), Request::Ping.encode());
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // Truncated mid-frame is an error, not a clean EOF.
        let mut r = &stream[..stream.len() - 1];
        read_frame(&mut r).unwrap();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn error_codes_are_stable_and_mapped() {
        for code in 1..=16u16 {
            let c = ErrorCode::from_u16(code).expect("dense code space");
            assert_eq!(c as u16, code);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(17), None);
        assert!(ErrorCode::Overloaded.retryable());
        assert!(ErrorCode::Unavailable.retryable());
        assert!(!ErrorCode::ShuttingDown.retryable());
        assert_eq!(
            code_of(&StoreError::ObjectNotFound("x".into())),
            ErrorCode::ObjectNotFound
        );
        assert_eq!(
            code_of(&StoreError::InvalidRequest("y".into())),
            ErrorCode::InvalidRequest
        );
        assert_eq!(
            code_of(&StoreError::OutOfRange {
                offset: 1,
                len: 2,
                size: 0
            }),
            ErrorCode::OutOfRange
        );
    }
}
