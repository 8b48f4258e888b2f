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

use crate::json::{obj, Json};
use wb_engine::Update;

/// Closed set of protocol error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, missing/mistyped fields, unknown command.
    BadRequest,
    /// `alg` is not a registry algorithm, or a parameter is out of bounds
    /// (`n == 0`, ε below 2^-16, a `sis_l0` universe above 2^20, more than
    /// `tenant::MAX_SHARDS` shards, …). Carries the typed message.
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
/// message pointing at the offending field.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
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
}
