//! The `wbd` wire protocol: newline-delimited JSON, one request and one
//! reply per line.
//!
//! ```text
//! request  = hello | ingest | query | snapshot-stats | snapshot | restore
//!          | metrics | top | bye | shutdown
//! hello    = {"cmd":"hello","tenant":ID,"alg":NAME,
//!             "seed"?:U64,"n"?:U64,"eps"?:F64,"shards"?:N}
//! ingest   = {"cmd":"ingest","tenant":ID,"updates":[U, ...]}
//! U        = ITEM | [ITEM, DELTA]          ; bare int = insert, pair = turnstile
//! query    = {"cmd":"query","tenant":ID}
//! snapshot-stats = {"cmd":"snapshot-stats","tenant":ID}
//! snapshot = {"cmd":"snapshot","tenant":ID,"path"?:PATH}
//! restore  = {"cmd":"restore","path":PATH}
//! metrics  = {"cmd":"metrics"}
//! top      = {"cmd":"top"}
//! bye      = {"cmd":"bye"}
//! shutdown = {"cmd":"shutdown"}
//! ```
//!
//! `snapshot` quiesces the tenant and writes its full engine state (sketch,
//! transcript RNG, counters) to `path` — or to the daemon's `--state-dir`
//! when the path is omitted — using the versioned `wb_core::snap` codec.
//! `restore` reads such a file and registers the tenant it holds; later
//! ingest continues draw-for-draw as if the daemon had never restarted.
//!
//! Every reply is `{"ok":true, ...}` or a **typed error**
//! `{"ok":false,"error":{"kind":KIND,"message":TEXT}}` — protocol-level bad
//! input never panics the daemon or drops the connection; the session keeps
//! serving after an error reply. Error kinds are a closed set (see
//! [`ErrorKind`]) so scripted clients can branch without string matching.
//!
//! [`parse_request`] decodes a line in one pass over its bytes, with the
//! lexer primitives of [`crate::json`]: members are read in order, the
//! first `updates` array is decoded by one loop straight into a
//! `Vec<Update>` reserved up front (plain integers and `[item, delta]`
//! pairs are lexed in place; any other element is parsed as one [`Json`]
//! value and read the same way), and every other member is kept as a
//! [`Json`] value. No tree
//! of the batch is built and no line is parsed twice. Errors come in a
//! fixed precedence: a syntax error anywhere in the line (`malformed
//! JSON: …`, also trailing bytes and nesting deeper than the JSON
//! reader's limit of 64) wins over a shape error (a missing or mistyped
//! field, or `updates[i]: …` for the first malformed element), which wins
//! over the admission checks made later against the tenant (`wrong_model`,
//! `quota_exceeded`, …). On a duplicated key the first value wins. The
//! unit tests hold a tree-based reference parser, `parse_request_oracle`
//! (`Json::parse` the whole line, then read each field from the tree), and
//! check that both give the same `Result` — error kind and message
//! included — on generated and damaged lines.

use crate::json::{self, obj, Json};
use wb_engine::Update;

/// Closed set of protocol error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, missing/mistyped fields, unknown command.
    BadRequest,
    /// `alg` is not a registry algorithm, or a parameter is out of bounds
    /// (`n == 0`, ε below 2^-16, a `sis_l0` universe above 2^20, more than
    /// `wb_engine::shard::MAX_SHARDS` shards, …). Carries the typed message.
    InvalidParameter,
    /// The tenant named in the request has not said `hello`.
    UnknownTenant,
    /// `hello` for an existing tenant with a different algorithm or seed.
    TenantMismatch,
    /// The daemon's `--max-tenants` cap is reached.
    MaxTenants,
    /// An update in the batch is outside the tenant algorithm's stream
    /// model (deletion into insert-only, zero delta, |delta| beyond the
    /// expansion bound). The whole batch is rejected — accepted batches
    /// are all-or-nothing.
    WrongModel,
    /// The tenant's algorithm previously failed and can no longer serve.
    TenantFailed,
    /// The batch would push the tenant past the daemon's
    /// `--max-updates-per-tenant` admission quota. All-or-nothing like
    /// every admission check: the whole batch is rejected, the tenant
    /// keeps serving queries and stays under quota.
    QuotaExceeded,
    /// The daemon is draining and no longer accepts this request.
    Draining,
    /// A `snapshot`/`restore` could not complete (I/O failure, corrupt or
    /// mismatched snapshot file, failed tenant).
    SnapshotFailed,
}

impl ErrorKind {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::InvalidParameter => "invalid_parameter",
            ErrorKind::UnknownTenant => "unknown_tenant",
            ErrorKind::TenantMismatch => "tenant_mismatch",
            ErrorKind::MaxTenants => "max_tenants",
            ErrorKind::WrongModel => "wrong_model",
            ErrorKind::TenantFailed => "tenant_failed",
            ErrorKind::QuotaExceeded => "quota_exceeded",
            ErrorKind::Draining => "draining",
            ErrorKind::SnapshotFailed => "snapshot_failed",
        }
    }
}

/// A typed protocol error: kind + human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Which closed-set failure this is.
    pub kind: ErrorKind,
    /// Diagnostic detail (safe to show; carries the engine's typed
    /// `WbError` text where one exists).
    pub message: String,
}

impl ProtoError {
    /// Build an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }

    /// The `{"ok":false,...}` reply line for this error.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                obj(vec![
                    ("kind", Json::from(self.kind.label())),
                    ("message", Json::from(self.message.as_str())),
                ]),
            ),
        ])
    }
}

/// Tenant construction parameters carried by `hello` (a protocol-facing
/// subset of the registry's `Params`; omitted fields keep registry
/// defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct HelloParams {
    /// Universe size override.
    pub n: Option<u64>,
    /// Accuracy override.
    pub eps: Option<f64>,
    /// Per-tenant shard count override (None = daemon default).
    pub shards: Option<usize>,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Attach to (or create) a tenant.
    Hello {
        /// Tenant id (any non-empty string).
        tenant: String,
        /// Registry algorithm name.
        alg: String,
        /// Tenant seed base; `None` uses the daemon master seed. The
        /// effective per-tenant seed is always derived via
        /// `derive_seed(base, ["tenant", id])`.
        seed: Option<u64>,
        /// Constructor overrides.
        params: HelloParams,
    },
    /// Append updates to a tenant's stream.
    Ingest {
        /// Target tenant.
        tenant: String,
        /// The parsed batch.
        updates: Vec<Update>,
    },
    /// Ask the tenant's sketch its fixed query.
    Query {
        /// Target tenant.
        tenant: String,
    },
    /// Per-tenant statistics.
    SnapshotStats {
        /// Target tenant.
        tenant: String,
    },
    /// Persist a tenant's full engine state to disk.
    Snapshot {
        /// Target tenant.
        tenant: String,
        /// Destination file; `None` uses the daemon's `--state-dir`.
        path: Option<String>,
    },
    /// Register the tenant stored in a snapshot file.
    Restore {
        /// Source file written by a prior `snapshot`.
        path: String,
    },
    /// Whole-daemon metrics (JSON).
    Metrics,
    /// Whole-daemon metrics (rendered text, `wbd-top` style).
    Top,
    /// End this session (the daemon keeps running).
    Bye,
    /// Graceful drain: stop accepting, flush every queue, answer
    /// in-flight queries, emit a final metrics snapshot, exit.
    Shutdown,
}

/// Parse one request line. Errors are [`ErrorKind::BadRequest`] with a
/// message pointing at the offending field; a syntax error anywhere in the
/// line wins over a missing or mistyped field.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let bad = |msg: String| ProtoError::new(ErrorKind::BadRequest, msg);
    let (v, batch) = decode(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'cmd'".to_string()))?;
    let tenant_of = |v: &Json| -> Result<String, ProtoError> {
        match v.get("tenant").and_then(Json::as_str) {
            Some(t) if !t.is_empty() => Ok(t.to_string()),
            _ => Err(bad("missing non-empty string field 'tenant'".to_string())),
        }
    };
    match cmd {
        "hello" => {
            let tenant = tenant_of(&v)?;
            let alg = v
                .get("alg")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("hello needs a string field 'alg'".to_string()))?
                .to_string();
            let seed = match v.get("seed") {
                None => None,
                Some(s) => Some(
                    s.as_u64()
                        .ok_or_else(|| bad("'seed' must be a u64".to_string()))?,
                ),
            };
            let n = match v.get("n") {
                None => None,
                Some(x) => Some(
                    x.as_u64()
                        .ok_or_else(|| bad("'n' must be a u64".to_string()))?,
                ),
            };
            let eps = match v.get("eps") {
                None => None,
                Some(Json::Float(x)) => Some(*x),
                Some(Json::Int(i)) => Some(*i as f64),
                Some(_) => return Err(bad("'eps' must be a number".to_string())),
            };
            let shards = match v.get("shards") {
                None => None,
                Some(x) => Some(
                    x.as_u64()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("'shards' must be a u64 >= 1".to_string()))?
                        as usize,
                ),
            };
            Ok(Request::Hello {
                tenant,
                alg,
                seed,
                params: HelloParams { n, eps, shards },
            })
        }
        "ingest" => {
            let tenant = tenant_of(&v)?;
            let updates = batch
                .ok_or_else(|| bad("ingest needs an array field 'updates'".to_string()))?
                .map_err(bad)?;
            Ok(Request::Ingest { tenant, updates })
        }
        "query" => Ok(Request::Query {
            tenant: tenant_of(&v)?,
        }),
        "snapshot-stats" => Ok(Request::SnapshotStats {
            tenant: tenant_of(&v)?,
        }),
        "snapshot" => {
            let tenant = tenant_of(&v)?;
            let path = match v.get("path") {
                None => None,
                Some(p) => Some(
                    p.as_str()
                        .filter(|p| !p.is_empty())
                        .ok_or_else(|| bad("'path' must be a non-empty string".to_string()))?
                        .to_string(),
                ),
            };
            Ok(Request::Snapshot { tenant, path })
        }
        "restore" => match v.get("path").and_then(Json::as_str) {
            Some(p) if !p.is_empty() => Ok(Request::Restore {
                path: p.to_string(),
            }),
            _ => Err(bad(
                "restore needs a non-empty string field 'path'".to_string()
            )),
        },
        "metrics" => Ok(Request::Metrics),
        "top" => Ok(Request::Top),
        "bye" => Ok(Request::Bye),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!(
            "unknown command '{other}' (known: hello, ingest, query, snapshot-stats, \
             snapshot, restore, metrics, top, bye, shutdown)"
        ))),
    }
}

/// The first `updates` member of a request, decoded: `None` when it is
/// absent or not an array, else the batch or `updates[i]: why` for its
/// first malformed element.
type Batch = Option<Result<Vec<Update>, String>>;

/// Lex one request line in a single pass. The first `updates` member goes
/// straight into a [`Batch`]; every other member is kept as a [`Json`]
/// value in the returned object (a line that is not an object comes back
/// as whatever value it is). `Err` is a syntax error, found before any
/// field is looked at, so it wins over every shape error in the line.
fn decode(line: &str) -> Result<(Json, Batch), String> {
    json::parse_line(line, |bytes, pos| {
        json::skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'{') {
            return Ok((json::parse_value(bytes, pos, 0)?, None));
        }
        let mut members = Vec::new();
        let mut batch = None;
        let mut seen_updates = false;
        json::parse_members(bytes, pos, |key, bytes, pos| {
            if key == "updates" && !seen_updates {
                // Later duplicates fall through to `members`, where no
                // lookup reaches them: the first value wins.
                seen_updates = true;
                batch = decode_updates(bytes, pos)?;
            } else {
                members.push((key, json::parse_value(bytes, pos, 1)?));
            }
            Ok(())
        })?;
        Ok((Json::Obj(members), batch))
    })
}

/// Most updates an `updates` array reserves room for before its elements
/// are read: the batch size `wbd`'s clients send. A longer batch grows its
/// `Vec` as it goes; a shorter line reserves only what its bytes can hold.
const RESERVE_UPDATES: usize = 1024;

/// The value of the first `updates` member (a depth-1 value).
///
/// An array is read by one loop that follows the array grammar of
/// `json::parse_arr`, with the `,` or `]` after each element checked in
/// place. A bare item of at most 19 digits and an
/// `[item, delta]` pair of plain integers are lexed in place; any other
/// element (a sign on an item, a fraction or exponent, a longer digit
/// string, another shape) is parsed as a [`Json`] value and read by
/// [`parse_update`]. Both ways give the same `Update` or message. After a
/// malformed element the rest is still lexed, so that a later syntax error
/// wins, but nothing more is kept.
fn decode_updates(bytes: &[u8], pos: &mut usize) -> Result<Batch, String> {
    json::skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'[') {
        json::parse_value(bytes, pos, 1)?;
        return Ok(None);
    }
    *pos += 1;
    // An element and its `,` or `]` take two bytes at least.
    let room = (bytes.len() - *pos) / 2;
    let mut updates = Vec::with_capacity(room.min(RESERVE_UPDATES));
    let mut malformed = None;
    json::skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Some(Ok(updates)));
    }
    loop {
        let start = *pos;
        let lexed = match bytes.get(*pos) {
            Some(b'0'..=b'9') => lex_digits(bytes, pos, 19).map(Update::Insert),
            Some(b'[') => lex_pair(bytes, pos),
            _ => None,
        };
        let update = match lexed {
            Some(u) => Ok(u),
            None => {
                *pos = start;
                parse_update(&json::parse_value(bytes, pos, 2)?)
            }
        };
        match update {
            Ok(u) if malformed.is_none() => updates.push(u),
            Err(e) if malformed.is_none() => {
                malformed = Some(format!("updates[{}]: {e}", updates.len()));
            }
            _ => {}
        }
        json::skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                break;
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
        json::skip_ws(bytes, pos);
    }
    Ok(Some(match malformed {
        None => Ok(updates),
        Some(e) => Err(e),
    }))
}

/// A whole number token of 1 to `max` ASCII digits at `*pos` (`max` ≤ 19,
/// so the value cannot overflow a `u64`). `None` — with `*pos` anywhere —
/// when the token is empty, longer, or continues with a fraction,
/// exponent or sign, all of which the JSON number lexer would read on.
///
/// With eight bytes left to read, one little-endian word load finds the
/// end of a run of up to seven digits (the lowest set bit of a per-byte
/// non-digit mask) and [`eight_digits`] computes its value. A run of
/// eight or more digits, and a token in the last seven bytes of the line,
/// take the byte loop [`lex_digits_bytewise`]. This function is forced
/// inline and the byte loop kept out of line because, left to the
/// compiler, the word load lost most of its gain in `parse_request`
/// (README, "The daemon wire path").
#[inline(always)]
fn lex_digits(bytes: &[u8], pos: &mut usize, max: usize) -> Option<u64> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = ONES << 7;
    const ZEROS: u64 = ONES * b'0' as u64;
    let Some(word) = bytes.get(*pos..*pos + 8) else {
        return lex_digits_bytewise(bytes, pos, max);
    };
    let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
    // A byte of `x` is 0..=9 exactly where `w` holds a digit. Its high bit
    // in `non_digit` is set when `x` ≥ 128, or when its low seven bits
    // plus 0x76 reach 0x80, i.e. are ≥ 10; no sum carries across bytes.
    let x = w ^ ZEROS;
    let non_digit = (((x & !HIGHS) + ONES * (0x80 - 10)) | x) & HIGHS;
    if non_digit == 0 {
        return lex_digits_bytewise(bytes, pos, max);
    }
    let run = (non_digit.trailing_zeros() / 8) as usize;
    if run == 0 || run > max || matches!(word[run], b'.' | b'e' | b'E' | b'+' | b'-') {
        return None;
    }
    *pos += run;
    // The run's digit values, moved to the top bytes of the word behind
    // 8 − run zero digits. Subtracting can borrow only out of the byte
    // after the run, and the shift drops that byte and all above it.
    Some(eight_digits(w.wrapping_sub(ZEROS) << (64 - 8 * run)))
}

/// The value of eight decimal digits, one per byte of `digits` (values
/// 0..=9, most significant in the lowest byte), in three multiplies: pair
/// adjacent digits, then combine the four pairs.
fn eight_digits(digits: u64) -> u64 {
    const PAIRS: u64 = 0x0000_00ff_0000_00ff;
    let v = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let high = (v & PAIRS).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((v >> 16) & PAIRS).wrapping_mul(1 + (10_000 << 32));
    high.wrapping_add(low) >> 32
}

/// [`lex_digits`] one byte at a time.
#[cold]
#[inline(never)]
fn lex_digits_bytewise(bytes: &[u8], pos: &mut usize, max: usize) -> Option<u64> {
    let start = *pos;
    let mut value = 0u64;
    while let Some(&d @ b'0'..=b'9') = bytes.get(*pos) {
        if *pos - start == max {
            return None;
        }
        value = value * 10 + u64::from(d - b'0');
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'.' | b'e' | b'E' | b'+' | b'-') => None,
        _ if *pos == start => None,
        _ => Some(value),
    }
}

/// `[item, delta]` at the `[` at `*pos`: an item of at most 19 digits and
/// a delta of at most 18 digits after an optional `-`, so both fit.
/// `None` — with `*pos` anywhere — for any other array.
fn lex_pair(bytes: &[u8], pos: &mut usize) -> Option<Update> {
    *pos += 1;
    json::skip_ws(bytes, pos);
    let item = lex_digits(bytes, pos, 19)?;
    json::skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b',') {
        return None;
    }
    *pos += 1;
    json::skip_ws(bytes, pos);
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    let magnitude = lex_digits(bytes, pos, 18)? as i64;
    json::skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b']') {
        return None;
    }
    *pos += 1;
    let delta = if negative { -magnitude } else { magnitude };
    Some(Update::Turnstile { item, delta })
}

/// One update: a bare non-negative integer is an insert; a two-element
/// `[item, delta]` array is a turnstile update. (Model membership — e.g.
/// deletions into insert-only tenants — is checked later against the
/// tenant, not here; this is pure shape.)
fn parse_update(u: &Json) -> Result<Update, String> {
    match u {
        Json::Int(_) => u
            .as_u64()
            .map(Update::Insert)
            .ok_or_else(|| "bare update must be a non-negative u64 item".to_string()),
        Json::Arr(pair) if pair.len() == 2 => {
            let item = pair[0]
                .as_u64()
                .ok_or_else(|| "turnstile item must be a u64".to_string())?;
            let delta = pair[1]
                .as_i64()
                .ok_or_else(|| "turnstile delta must be an i64".to_string())?;
            Ok(Update::Turnstile { item, delta })
        }
        _ => Err("update must be ITEM or [ITEM, DELTA]".to_string()),
    }
}

/// Render an erased answer as the protocol's tagged object.
pub fn answer_to_json(answer: &wb_engine::Answer) -> Json {
    match answer {
        wb_engine::Answer::Items(items) => obj(vec![
            ("type", Json::from("items")),
            (
                "items",
                Json::Arr(
                    items
                        .iter()
                        .map(|&(item, est)| Json::Arr(vec![Json::from(item), Json::from(est)]))
                        .collect(),
                ),
            ),
        ]),
        wb_engine::Answer::Scalar(x) => obj(vec![
            ("type", Json::from("scalar")),
            ("value", Json::from(*x)),
        ]),
        wb_engine::Answer::Count(c) => obj(vec![
            ("type", Json::from("count")),
            ("value", Json::from(*c)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let hello = parse_request(
            r#"{"cmd":"hello","tenant":"t1","alg":"misra_gries","seed":7,"n":1024,"eps":0.25,"shards":4}"#,
        )
        .unwrap();
        assert_eq!(
            hello,
            Request::Hello {
                tenant: "t1".into(),
                alg: "misra_gries".into(),
                seed: Some(7),
                params: HelloParams {
                    n: Some(1024),
                    eps: Some(0.25),
                    shards: Some(4),
                },
            }
        );
        let ingest =
            parse_request(r#"{"cmd":"ingest","tenant":"t1","updates":[5,[9,-2],[3,4]]}"#).unwrap();
        assert_eq!(
            ingest,
            Request::Ingest {
                tenant: "t1".into(),
                updates: vec![
                    Update::Insert(5),
                    Update::Turnstile { item: 9, delta: -2 },
                    Update::Turnstile { item: 3, delta: 4 },
                ],
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"query","tenant":"t1"}"#).unwrap(),
            Request::Query {
                tenant: "t1".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"cmd":"snapshot","tenant":"t1","path":"/tmp/t1.wbsnap"}"#).unwrap(),
            Request::Snapshot {
                tenant: "t1".into(),
                path: Some("/tmp/t1.wbsnap".into()),
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"snapshot","tenant":"t1"}"#).unwrap(),
            Request::Snapshot {
                tenant: "t1".into(),
                path: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"restore","path":"/tmp/t1.wbsnap"}"#).unwrap(),
            Request::Restore {
                path: "/tmp/t1.wbsnap".into(),
            }
        );
        assert_eq!(parse_request(r#"{"cmd":"top"}"#).unwrap(), Request::Top);
        assert_eq!(parse_request(r#"{"cmd":"bye"}"#).unwrap(), Request::Bye);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn bad_requests_are_typed_not_fatal() {
        for line in [
            "not json",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"no_cmd":1}"#,
            r#"{"cmd":"hello","tenant":"","alg":"x"}"#,
            r#"{"cmd":"hello","tenant":"t"}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":[[1,2,3]]}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":["five"]}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":[-4]}"#,
            r#"{"cmd":"hello","tenant":"t","alg":"x","seed":-1}"#,
            r#"{"cmd":"snapshot","tenant":"t","path":""}"#,
            r#"{"cmd":"restore"}"#,
            r#"{"cmd":"restore","path":17}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line}");
            let reply = err.to_json().to_line();
            assert!(
                reply.starts_with(r#"{"ok":false,"error":{"kind":"bad_request""#),
                "{reply}"
            );
        }
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(ErrorKind::WrongModel.label(), "wrong_model");
        assert_eq!(ErrorKind::InvalidParameter.label(), "invalid_parameter");
        assert_eq!(ErrorKind::UnknownTenant.label(), "unknown_tenant");
    }

    /// The reference parser: `Json::parse` the whole line, then read every
    /// field out of the tree.
    fn parse_request_oracle(line: &str) -> Result<Request, ProtoError> {
        let bad = |msg: String| ProtoError::new(ErrorKind::BadRequest, msg);
        let v = Json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field 'cmd'".to_string()))?;
        let tenant_of = |v: &Json| -> Result<String, ProtoError> {
            match v.get("tenant").and_then(Json::as_str) {
                Some(t) if !t.is_empty() => Ok(t.to_string()),
                _ => Err(bad("missing non-empty string field 'tenant'".to_string())),
            }
        };
        match cmd {
            "hello" => {
                let tenant = tenant_of(&v)?;
                let alg = v
                    .get("alg")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("hello needs a string field 'alg'".to_string()))?
                    .to_string();
                let seed = match v.get("seed") {
                    None => None,
                    Some(s) => Some(
                        s.as_u64()
                            .ok_or_else(|| bad("'seed' must be a u64".to_string()))?,
                    ),
                };
                let n = match v.get("n") {
                    None => None,
                    Some(x) => Some(
                        x.as_u64()
                            .ok_or_else(|| bad("'n' must be a u64".to_string()))?,
                    ),
                };
                let eps = match v.get("eps") {
                    None => None,
                    Some(Json::Float(x)) => Some(*x),
                    Some(Json::Int(i)) => Some(*i as f64),
                    Some(_) => return Err(bad("'eps' must be a number".to_string())),
                };
                let shards = match v.get("shards") {
                    None => None,
                    Some(x) => Some(
                        x.as_u64()
                            .filter(|&s| s >= 1)
                            .ok_or_else(|| bad("'shards' must be a u64 >= 1".to_string()))?
                            as usize,
                    ),
                };
                Ok(Request::Hello {
                    tenant,
                    alg,
                    seed,
                    params: HelloParams { n, eps, shards },
                })
            }
            "ingest" => {
                let tenant = tenant_of(&v)?;
                let raw = v
                    .get("updates")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("ingest needs an array field 'updates'".to_string()))?;
                let mut updates = Vec::with_capacity(raw.len());
                for (i, u) in raw.iter().enumerate() {
                    updates.push(parse_update(u).map_err(|e| bad(format!("updates[{i}]: {e}")))?);
                }
                Ok(Request::Ingest { tenant, updates })
            }
            "query" => Ok(Request::Query {
                tenant: tenant_of(&v)?,
            }),
            "snapshot-stats" => Ok(Request::SnapshotStats {
                tenant: tenant_of(&v)?,
            }),
            "snapshot" => {
                let tenant = tenant_of(&v)?;
                let path = match v.get("path") {
                    None => None,
                    Some(p) => Some(
                        p.as_str()
                            .filter(|p| !p.is_empty())
                            .ok_or_else(|| bad("'path' must be a non-empty string".to_string()))?
                            .to_string(),
                    ),
                };
                Ok(Request::Snapshot { tenant, path })
            }
            "restore" => match v.get("path").and_then(Json::as_str) {
                Some(p) if !p.is_empty() => Ok(Request::Restore {
                    path: p.to_string(),
                }),
                _ => Err(bad(
                    "restore needs a non-empty string field 'path'".to_string()
                )),
            },
            "metrics" => Ok(Request::Metrics),
            "top" => Ok(Request::Top),
            "bye" => Ok(Request::Bye),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!(
                "unknown command '{other}' (known: hello, ingest, query, snapshot-stats, \
                 snapshot, restore, metrics, top, bye, shutdown)"
            ))),
        }
    }

    /// `parse_request` agrees with the oracle on `line`, error kind and
    /// message included; returns the shared result.
    fn agree(line: &str) -> Result<Request, ProtoError> {
        let got = parse_request(line);
        assert_eq!(got, parse_request_oracle(line), "{line:?}");
        got
    }

    fn ingest_of(updates: &str) -> String {
        format!(r#"{{"cmd":"ingest","tenant":"t","updates":[{updates}]}}"#)
    }

    fn bad_message(line: &str) -> String {
        let err = agree(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest, "{line}");
        err.message
    }

    #[test]
    fn decoder_numbers_match_the_oracle() {
        let batch = |updates: &str| match agree(&ingest_of(updates)) {
            Ok(Request::Ingest { updates, .. }) => updates,
            other => panic!("{updates}: {other:?}"),
        };
        assert_eq!(batch("18446744073709551615"), [Update::Insert(u64::MAX)]);
        assert_eq!(
            batch("9999999999999999999"),
            [Update::Insert(9_999_999_999_999_999_999)]
        );
        assert_eq!(batch("-0, 01, 007"), [0, 1, 7].map(Update::Insert));
        assert_eq!(
            batch("[18446744073709551615,-9223372036854775808],[0,9223372036854775807],[3,-0]"),
            [
                Update::Turnstile {
                    item: u64::MAX,
                    delta: i64::MIN
                },
                Update::Turnstile {
                    item: 0,
                    delta: i64::MAX
                },
                Update::Turnstile { item: 3, delta: 0 },
            ]
        );
        let bare = "updates[1]: bare update must be a non-negative u64 item";
        assert_eq!(bad_message(&ingest_of("1,18446744073709551616")), bare);
        assert_eq!(bad_message(&ingest_of("1,-5")), bare);
        let shape = "updates[1]: update must be ITEM or [ITEM, DELTA]";
        for float in ["1.0", "1e3", "+5", "1E+2"] {
            assert_eq!(
                bad_message(&ingest_of(&format!("1,{float}"))),
                shape,
                "{float}"
            );
        }
        assert_eq!(
            bad_message(&ingest_of("[1,9223372036854775808]")),
            "updates[0]: turnstile delta must be an i64"
        );
        assert_eq!(
            bad_message(&ingest_of("[-1,1]")),
            "updates[0]: turnstile item must be a u64"
        );
        let forty = "1234567890".repeat(4);
        assert_eq!(
            bad_message(&ingest_of(&forty)),
            format!("malformed JSON: bad number '{forty}'")
        );
    }

    #[test]
    fn decoder_shapes_keys_and_precedence_match_the_oracle() {
        let shape = "update must be ITEM or [ITEM, DELTA]";
        for (updates, at) in [
            ("[1]", 0),
            ("2,[1,2,3]", 1),
            (r#"3,4,"five""#, 2),
            ("{}", 0),
        ] {
            assert_eq!(
                bad_message(&ingest_of(updates)),
                format!("updates[{at}]: {shape}")
            );
        }
        // `updates` before `cmd`, and a second `updates` key: the first wins
        // whether it is a batch, a bad batch or not an array at all.
        let ingest = |updates: Vec<Update>| Request::Ingest {
            tenant: "t".into(),
            updates,
        };
        assert_eq!(
            agree(r#"{"updates":[4,[5,-1]],"tenant":"t","cmd":"ingest"}"#),
            Ok(ingest(vec![
                Update::Insert(4),
                Update::Turnstile { item: 5, delta: -1 }
            ]))
        );
        assert_eq!(
            agree(r#"{"cmd":"ingest","tenant":"t","updates":[1],"updates":[2,3]}"#),
            Ok(ingest(vec![Update::Insert(1)]))
        );
        assert_eq!(
            bad_message(r#"{"cmd":"ingest","tenant":"t","updates":[-1],"updates":[2]}"#),
            "updates[0]: bare update must be a non-negative u64 item"
        );
        assert_eq!(
            bad_message(r#"{"cmd":"ingest","tenant":"t","updates":7,"updates":[2]}"#),
            "ingest needs an array field 'updates'"
        );
        assert_eq!(
            agree(r#"{"cmd":"ingest","tenant":"t","upd\u0061tes":[9]}"#),
            Ok(ingest(vec![Update::Insert(9)]))
        );
        // A syntax error anywhere wins over a shape error before it; shape
        // errors are reported in field order (`cmd`, `tenant`, `updates`).
        for line in [
            r#"{"cmd":"ingest","tenant":"t","updates":["five",1,]}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":[[1],2] x}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":[1,[2,3]}"#,
            r#"{"cmd":"ingest","tenant":"t","updates":[1}"#,
            r#"{"updates":[-1],"cmd":"ingest","tenant":"t""#,
            r#"{"cmd":"frob","updates":[1.5],"x":tru}"#,
        ] {
            assert!(bad_message(line).starts_with("malformed JSON: "), "{line}");
        }
        assert_eq!(
            bad_message(r#"{"cmd":"ingest","updates":[-1]}"#),
            "missing non-empty string field 'tenant'"
        );
        // Other commands ignore `updates`, malformed or not.
        assert_eq!(
            agree(r#"{"cmd":"query","tenant":"t","updates":[[1,2,3],"x"]}"#),
            Ok(Request::Query { tenant: "t".into() })
        );
        for line in ["", "  ", "[1,2]", r#""cmd""#, "7", "null", "{}"] {
            assert!(agree(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn decoder_nesting_limit_matches_the_oracle() {
        // The object and the `updates` array are two levels, so an element
        // opening k arrays nests its innermost value k + 2 deep.
        let nested = |k: usize| ingest_of(&format!("1,{}1{}", "[".repeat(k), "]".repeat(k)));
        assert_eq!(
            bad_message(&nested(json::MAX_DEPTH - 2)),
            "updates[1]: update must be ITEM or [ITEM, DELTA]"
        );
        let err = bad_message(&nested(json::MAX_DEPTH - 1));
        assert!(
            err.starts_with("malformed JSON: nesting deeper than"),
            "{err}"
        );
        let bomb = ingest_of(&"[".repeat(100_000));
        assert!(bad_message(&bomb).contains("nesting"));
    }

    /// A 1024-element ingest line of canonical elements (bare items and
    /// compact pairs), element `at` replaced by `odd`; with `broken`, a
    /// syntax error follows `odd` at once.
    fn canonical_with(odd: &str, at: usize, broken: bool) -> String {
        let elements: Vec<String> = (0..1024)
            .map(|i| match i {
                _ if i == at && broken => format!("{odd},,"),
                _ if i == at => odd.to_string(),
                _ if i % 3 == 0 => format!("[{},-{}]", i * 7919, i % 5 + 1),
                _ => (i * 104_729).to_string(),
            })
            .collect();
        ingest_of(&elements.join(","))
    }

    #[test]
    fn decoder_one_odd_element_in_a_canonical_batch_matches_the_oracle() {
        let shape = "update must be ITEM or [ITEM, DELTA]";
        let bare = "bare update must be a non-negative u64 item";
        // Each form with the shape message it gets (`None`: accepted).
        let forms: [(&str, Option<&str>); 16] = [
            (" 5 ", None),
            ("\t[7, -2]\r\n", None),
            ("-0", None),
            ("-3", Some(bare)),
            ("+3", Some(shape)),
            ("1.5", Some(shape)),
            ("2e3", Some(shape)),
            ("9999999999999999999", None),
            ("18446744073709551615", None),
            ("18446744073709551616", Some(bare)),
            ("[1,-0]", None),
            ("[ 1 , 2 ]", None),
            ("[1,2,3]", Some(shape)),
            ("\"five\"", Some(shape)),
            ("null", Some(shape)),
            ("[-1,2]", Some("turnstile item must be a u64")),
        ];
        for (odd, message) in forms {
            for at in [0, 511, 1023] {
                match agree(&canonical_with(odd, at, false)) {
                    Ok(Request::Ingest { updates, .. }) => {
                        assert_eq!(message, None, "{odd:?} at {at}");
                        assert_eq!(updates.len(), 1024, "{odd:?} at {at}");
                    }
                    Err(e) => assert_eq!(
                        Some(e.message),
                        message.map(|m| format!("updates[{at}]: {m}")),
                        "{odd:?} at {at}"
                    ),
                    Ok(other) => panic!("{odd:?} at {at}: {other:?}"),
                }
                // A later syntax error wins, in the array or after it.
                let in_array = canonical_with(odd, at, true);
                let after = canonical_with(odd, at, false).replace("]}", r#"],"x":tru}"#);
                for line in [in_array, after] {
                    let err = bad_message(&line);
                    assert!(
                        err.starts_with("malformed JSON: "),
                        "{odd:?} at {at}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_reserves_at_most_the_cap() {
        // 1 MiB of spaces could hold no element: the batch is empty and
        // its reservation stays within the cap.
        let line = format!(
            r#"{{"cmd":"ingest","tenant":"t","updates":[{}]}}"#,
            " ".repeat(1 << 20)
        );
        let (_, batch) = decode(&line).unwrap();
        let updates = batch.expect("an array").expect("no malformed element");
        assert!(updates.is_empty());
        assert!(
            updates.capacity() <= RESERVE_UPDATES,
            "{}",
            updates.capacity()
        );
        assert_eq!(
            agree(&line),
            Ok(Request::Ingest {
                tenant: "t".into(),
                updates: Vec::new(),
            })
        );
        // A short array reserves no more than its bytes could hold.
        let (_, batch) = decode(&ingest_of("1,2,3")).unwrap();
        let updates = batch.expect("an array").expect("no malformed element");
        assert_eq!(updates.len(), 3);
        assert!(updates.capacity() <= 4, "{}", updates.capacity());
    }

    /// The byte loop `lex_digits` used before it read eight bytes at a
    /// time, frozen as its oracle.
    fn lex_digits_oracle(bytes: &[u8], pos: &mut usize, max: usize) -> Option<u64> {
        let start = *pos;
        let mut value = 0u64;
        while let Some(&d @ b'0'..=b'9') = bytes.get(*pos) {
            if *pos - start == max {
                return None;
            }
            value = value * 10 + u64::from(d - b'0');
            *pos += 1;
        }
        match bytes.get(*pos) {
            Some(b'.' | b'e' | b'E' | b'+' | b'-') => None,
            _ if *pos == start => None,
            _ => Some(value),
        }
    }

    /// `lex_digits` agrees with the oracle on `bytes` from `start`: the
    /// same value, and the same end position wherever that is `Some`.
    fn lex_agrees(bytes: &[u8], start: usize, max: usize) {
        let (mut got_pos, mut want_pos) = (start, start);
        let got = lex_digits(bytes, &mut got_pos, max);
        let want = lex_digits_oracle(bytes, &mut want_pos, max);
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(got, want, "{shown:?} from byte {start}, max {max}");
        if want.is_some() {
            assert_eq!(got_pos, want_pos, "{shown:?} from byte {start}, max {max}");
        }
    }

    #[test]
    fn decoder_lex_digits_matches_the_byte_loop_at_every_boundary() {
        // Runs of 0..=21 digits (every digit value appears), each followed
        // by every terminator class and then cut so that the run starts
        // anywhere from 0 bytes before the end of the buffer to 9 bytes
        // past its terminator: the word load sees every split of digits,
        // terminator and end of input.
        let digits = b"9081726354".repeat(3);
        for run in 0..=21 {
            for term in [",", "]", " ", ".", "e", "E", "+", "-", ""] {
                let mut token = digits[..run].to_vec();
                token.extend_from_slice(term.as_bytes());
                if !term.is_empty() {
                    token.extend_from_slice(b"7,[12,-3]]}");
                }
                for lead in ["", "[", "1, "] {
                    let end = token.len().min(run + term.len() + 9);
                    for cut in 0..=end {
                        let mut bytes = lead.as_bytes().to_vec();
                        bytes.extend_from_slice(&token[..cut]);
                        for max in [18, 19] {
                            lex_agrees(&bytes, lead.len(), max);
                        }
                    }
                }
            }
        }
        // The largest values each width admits, next to the word boundary.
        for (text, max) in [("9999999", 18), ("99999999", 18), ("1234567", 19)] {
            for pad in 0..=9 {
                let bytes = format!("{text}{}", ",".repeat(pad));
                lex_agrees(bytes.as_bytes(), 0, max);
            }
        }
    }

    /// The line generator's stream (SplitMix64, seeded by the property).
    /// A `wild` line may also draw values and shapes the protocol refuses.
    struct Mix {
        state: u64,
        wild: bool,
    }

    impl Mix {
        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len() as u64) as usize]
        }

        /// Whitespace the grammar allows between tokens, usually none.
        fn ws(&mut self) -> &'static str {
            ["", "", "", " ", "\t", " \r\n "][self.below(6) as usize]
        }
    }

    /// An item: small, at the `u64` and 19-digit edges, or (wild) past them.
    fn item(g: &mut Mix) -> String {
        match g.below(10) {
            0 => g
                .pick(&[
                    "18446744073709551615",
                    "9999999999999999999",
                    "10000000000000000000",
                ])
                .into(),
            1 => g.pick(&["0", "-0", "01", "007"]).into(),
            2 if g.wild => g
                .pick(&[
                    "18446744073709551616",
                    "-3",
                    "1.0",
                    "1e3",
                    "+5",
                    "0.5e1",
                    "1-2",
                    "-",
                ])
                .into(),
            3 => g.next().to_string(),
            _ => g.below(5000).to_string(),
        }
    }

    /// A delta: small, at the `i64` and 18-digit edges, or (wild) past them.
    fn delta(g: &mut Mix) -> String {
        match g.below(8) {
            0 => g
                .pick(&[
                    "-9223372036854775808",
                    "9223372036854775807",
                    "999999999999999999",
                    "-1000000000000000000",
                    "-0",
                ])
                .into(),
            1 if g.wild => g
                .pick(&[
                    "9223372036854775808",
                    "-9223372036854775809",
                    "2.5",
                    "-1e2",
                    "--1",
                ])
                .into(),
            _ => (g.below(21) as i64 - 10).to_string(),
        }
    }

    fn element(g: &mut Mix) -> String {
        match g.below(12) {
            0 if g.wild => g
                .pick(&[
                    "[1]", "[1,2,3]", "\"five\"", "[]", "null", "{}", "[[1,2]]", "[-1,2]",
                ])
                .into(),
            1..=4 => {
                let (a, b, c, d) = (g.ws(), g.ws(), g.ws(), g.ws());
                format!("[{a}{}{b},{c}{}{d}]", item(g), delta(g))
            }
            _ => item(g),
        }
    }

    /// A request line of one of the commands: members in random order,
    /// whitespace between tokens, sometimes a duplicated or escaped key.
    fn request_line(g: &mut Mix) -> String {
        let cmd = g.pick(&[
            "hello", "ingest", "ingest", "ingest", "query", "snapshot", "restore",
        ]);
        let mut members: Vec<(String, String)> = vec![("cmd".into(), format!("\"{cmd}\""))];
        let tenant = match g.below(8) {
            0 if g.wild => None,
            1 if g.wild => Some(g.pick(&["\"\"", "7"])),
            _ => Some(g.pick(&["\"t\"", "\"c0-mg\""])),
        };
        if let Some(tenant) = tenant {
            members.push(("tenant".into(), tenant.into()));
        }
        match cmd {
            "hello" => {
                members.push(("alg".into(), "\"misra_gries\"".into()));
                for (key, value) in [
                    ("seed", item(g)),
                    ("n", item(g)),
                    ("eps", delta(g)),
                    ("shards", item(g)),
                ] {
                    if g.below(2) == 0 {
                        members.push((key.into(), value));
                    }
                }
            }
            "snapshot" | "restore" => {
                let path = match g.below(4) {
                    0 if g.wild => None,
                    1 if g.wild => Some(g.pick(&["\"\"", "3"])),
                    _ => Some("\"/tmp/x.wbsnap\""),
                };
                if let Some(path) = path {
                    members.push(("path".into(), path.into()));
                }
            }
            _ => {}
        }
        if cmd == "ingest" || g.below(4) == 0 {
            let len = match g.below(8) {
                0 => 1024,
                1 => 0,
                _ => g.below(12),
            };
            let elements: Vec<String> = (0..len).map(|_| element(g)).collect();
            let sep = format!("{},{}", g.ws(), g.ws());
            let value = match g.below(12) {
                0 if g.wild => g.pick(&["7", "\"x\"", "{}", "null"]).into(),
                _ => format!("[{}{}{}]", g.ws(), elements.join(&sep), g.ws()),
            };
            members.push(("updates".into(), value));
        }
        if g.below(6) == 0 {
            // A duplicated key: the oracle keeps the first value.
            let (key, _) = members[g.below(members.len() as u64) as usize].clone();
            let value = if key == "updates" {
                format!("[{}]", element(g))
            } else {
                item(g)
            };
            members.push((key, value));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, g.below(i as u64 + 1) as usize);
        }
        if g.below(10) == 0 {
            members[0].0 = members[0].0.replace('t', "\\u0074");
        }
        let body: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", g.ws(), g.ws(), g.ws(), g.ws()))
            .collect();
        format!("{}{{{}}}{}", g.ws(), body.join(","), g.ws())
    }

    /// Byte-level damage: truncate, or insert or delete one structural
    /// byte. Every generated line is ASCII, so any cut is a char boundary.
    fn mutate(line: &mut String, op: u8, at: u64, which: u8) {
        const BYTES: &[u8] = b"[],-.e+\" ";
        let byte = BYTES[which as usize % BYTES.len()];
        match op {
            0 => line.truncate(at as usize % (line.len() + 1)),
            1 => line.insert(at as usize % (line.len() + 1), byte as char),
            2 => {
                let hits: Vec<usize> = line.match_indices(byte as char).map(|(i, _)| i).collect();
                if !hits.is_empty() {
                    line.remove(hits[at as usize % hits.len()]);
                }
            }
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        #[test]
        fn decoder_lex_digits_matches_the_byte_loop_on_random_bytes(
            picks in proptest::collection::vec(0u8..22, 0..40),
            start in 0usize..40,
        ) {
            // Mostly digits, with every terminator class and other bytes.
            const ALPHABET: &[u8] = b"0123456789012.eE+- ,]x";
            let bytes: Vec<u8> = picks.iter().map(|&i| ALPHABET[i as usize]).collect();
            let start = start.min(bytes.len());
            for max in [1, 7, 8, 18, 19] {
                lex_agrees(&bytes, start, max);
            }
        }

        #[test]
        fn decoder_matches_tree_oracle(
            seed in proptest::any::<u64>(),
            damage in proptest::collection::vec((0u8..4, proptest::any::<u64>(), 0u8..9), 0..3),
        ) {
            let mut g = Mix { state: seed, wild: seed & 1 == 1 };
            let mut line = request_line(&mut g);
            agree(&line).ok();
            for (op, at, which) in damage {
                mutate(&mut line, op, at, which);
                agree(&line).ok();
            }
        }
    }
}
