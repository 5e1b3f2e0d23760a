//! The `/v1` resource API's request and response shapes, as plain data.
//!
//! The serving layer (`dod_server`) and its clients need to agree on the
//! JSON bodies of the resource routes — engine creation, the engine
//! listing, session creation, the session listing, and the uniform error
//! envelope every non-2xx answer carries. This module is that agreement
//! in one place: each shape is a plain struct with a
//! `to_json`/`from_json` pair over [`JsonValue`], so the server renders
//! and parses the exact same text a test (or another process) does.
//!
//! Everything here is *wire-typed* — strings and numbers, no engine
//! types — so the crate stays dependency-free and both ends of the wire
//! can use it.

use crate::JsonValue;

/// The `{"error": {"kind", "message"}}` envelope carried by **every**
/// non-2xx response body, from route-level validation failures down to
/// HTTP framing errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorEnvelope {
    /// Machine-readable failure class (snake_case, bounded set).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl ErrorEnvelope {
    /// Builds the envelope.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        ErrorEnvelope {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// The envelope as a [`JsonValue`].
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([(
            "error",
            JsonValue::obj([
                ("kind", self.kind.as_str()),
                ("message", self.message.as_str()),
            ]),
        )])
    }

    /// Renders the envelope to its wire text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses an envelope back out of a response body.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        let err = v.get("error")?;
        Some(ErrorEnvelope {
            kind: err.get("kind")?.as_str()?.to_string(),
            message: err.get("message")?.as_str()?.to_string(),
        })
    }
}

/// One entry of the `GET /v1/engines` listing (and the body answered by
/// `PUT`/`GET /v1/engines/{name}`): the engine's identity and footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSummary {
    /// Registry name (the `{name}` path parameter).
    pub name: String,
    /// Canonical index spelling (`mrpg:8`, `vptree`, …) — the same text
    /// an engine-creation body carries.
    pub index: String,
    /// Objects the engine serves.
    pub points: u64,
    /// Index footprint in bytes (the listing's memory estimate).
    pub index_bytes: u64,
}

impl EngineSummary {
    /// The summary as a [`JsonValue`] object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("name", JsonValue::from(self.name.as_str())),
            ("index", JsonValue::from(self.index.as_str())),
            ("points", JsonValue::from(self.points)),
            ("index_bytes", JsonValue::from(self.index_bytes)),
        ])
    }

    /// Parses a summary out of a listing entry.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        Some(EngineSummary {
            name: v.get("name")?.as_str()?.to_string(),
            index: v.get("index")?.as_str()?.to_string(),
            points: v.get("points")?.as_f64()? as u64,
            index_bytes: v.get("index_bytes")?.as_f64()? as u64,
        })
    }
}

/// One entry of the `GET /v1/sessions` listing (and the body answered by
/// `POST /v1/sessions`): the session's identity and stream shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Session id (the `{id}` path parameter), assigned by the server.
    pub id: String,
    /// Wire name of the session's metric (`l1`, `l2`, `l4`, `angular`).
    pub metric: String,
    /// Pinned vector dimension of the session's space.
    pub dim: u64,
    /// Shards the session's window is partitioned across.
    pub shards: u64,
    /// Points accepted over HTTP so far.
    pub ingested: u64,
    /// Whether the session writes a WAL and survives restarts.
    pub durable: bool,
    /// Durable sessions only: `"ok"` while the WAL is being written,
    /// `"degraded"` after an I/O failure latched the session into
    /// fail-open (it keeps serving from memory, nothing is logged
    /// anymore). Absent for volatile sessions.
    pub durability: Option<String>,
}

impl SessionSummary {
    /// The summary as a [`JsonValue`] object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id".to_string(), JsonValue::from(self.id.as_str())),
            ("metric".to_string(), JsonValue::from(self.metric.as_str())),
            ("dim".to_string(), JsonValue::from(self.dim)),
            ("shards".to_string(), JsonValue::from(self.shards)),
            ("ingested".to_string(), JsonValue::from(self.ingested)),
            ("durable".to_string(), JsonValue::from(self.durable)),
        ];
        if let Some(d) = &self.durability {
            fields.push(("durability".to_string(), JsonValue::from(d.as_str())));
        }
        JsonValue::Obj(fields)
    }

    /// Parses a summary out of a listing entry. `durable` defaults to
    /// `false` (and `durability` to absent) when missing, so
    /// pre-durability listings still parse.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        Some(SessionSummary {
            id: v.get("id")?.as_str()?.to_string(),
            metric: v.get("metric")?.as_str()?.to_string(),
            dim: v.get("dim")?.as_f64()? as u64,
            shards: v.get("shards")?.as_f64()? as u64,
            ingested: v.get("ingested")?.as_f64()? as u64,
            durable: v
                .get("durable")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            durability: v
                .get("durability")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }
}

/// The per-query `"cost"` object attached to each result when a
/// `POST /v1/engines/{name}/query` body carries `"explain": true`:
/// distance evaluations split by phase, graph hops, and the live pruning
/// power against the nested-loop baseline `n·(n−1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCostShape {
    /// Distance evaluations spent in the filtering phase.
    pub filter_dist_evals: u64,
    /// Distance evaluations spent verifying candidates.
    pub verify_dist_evals: u64,
    /// All distance evaluations (the sum, carried explicitly so clients
    /// never re-derive it).
    pub total_dist_evals: u64,
    /// Graph vertices expanded across every traversal.
    pub hops: u64,
    /// `1 − total_dist_evals / n(n−1)`, clamped to `[0, 1]`.
    pub pruning_power: f64,
}

impl QueryCostShape {
    /// The cost as a [`JsonValue`] object (field order is the wire
    /// contract — tests pin the rendered text).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("filter_dist_evals", JsonValue::from(self.filter_dist_evals)),
            ("verify_dist_evals", JsonValue::from(self.verify_dist_evals)),
            ("total_dist_evals", JsonValue::from(self.total_dist_evals)),
            ("hops", JsonValue::from(self.hops)),
            ("pruning_power", JsonValue::from(self.pruning_power)),
        ])
    }

    /// Parses a cost object back out of a response.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        Some(QueryCostShape {
            filter_dist_evals: v.get("filter_dist_evals")?.as_f64()? as u64,
            verify_dist_evals: v.get("verify_dist_evals")?.as_f64()? as u64,
            total_dist_evals: v.get("total_dist_evals")?.as_f64()? as u64,
            hops: v.get("hops")?.as_f64()? as u64,
            pruning_power: v.get("pruning_power")?.as_f64()?,
        })
    }
}

/// The `PUT /v1/engines/{name}` request body: the engine's recipe.
///
/// `index` defaults server-side when absent; `load` names a persisted
/// engine payload to restore instead of building the index fresh.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCreateRequest {
    /// Dataset family name (`sift`, `glove`, …).
    pub family: String,
    /// Number of objects to generate.
    pub n: u64,
    /// Generation seed (default 0).
    pub seed: u64,
    /// Canonical index spelling; `None` lets the server pick its default.
    pub index: Option<String>,
    /// Path to an `Engine::save` payload to load instead of building.
    pub load: Option<String>,
}

impl EngineCreateRequest {
    /// Every key the body may carry.
    const KEYS: [&'static str; 5] = ["family", "n", "seed", "index", "load"];

    /// Parses the request body, reporting an unknown key or the first
    /// missing or mistyped field in words.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        reject_unknown_keys(v, &Self::KEYS, "engine body")?;
        let family = v
            .get("family")
            .and_then(JsonValue::as_str)
            .ok_or("body must carry a string \"family\"")?
            .to_string();
        let n = v
            .get("n")
            .and_then(JsonValue::as_usize)
            .ok_or("body must carry a non-negative integer \"n\"")? as u64;
        let seed = v.get("seed").map_or(Ok(0), |s| {
            s.as_usize()
                .map(|s| s as u64)
                .ok_or("\"seed\" must be a non-negative integer")
        })?;
        let field_str = |key: &'static str| match v.get(key) {
            None => Ok(None),
            Some(s) => s
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or("must be a string"),
        };
        let index = field_str("index").map_err(|e| format!("\"index\" {e}"))?;
        let load = field_str("load").map_err(|e| format!("\"load\" {e}"))?;
        Ok(EngineCreateRequest {
            family,
            n,
            seed,
            index,
            load,
        })
    }

    /// The request as a [`JsonValue`] body (the client side).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("family".to_string(), JsonValue::from(self.family.as_str())),
            ("n".to_string(), JsonValue::from(self.n)),
            ("seed".to_string(), JsonValue::from(self.seed)),
        ];
        if let Some(index) = &self.index {
            fields.push(("index".to_string(), JsonValue::from(index.as_str())));
        }
        if let Some(load) = &self.load {
            fields.push(("load".to_string(), JsonValue::from(load.as_str())));
        }
        JsonValue::Obj(fields)
    }
}

/// The sliding window of a session-creation body: `{"count": w}` or
/// `{"time": horizon}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowShape {
    /// Keep the most recent `w` points.
    Count(u64),
    /// Keep points within a time horizon.
    Time(f64),
}

/// The `"sync"` field of a durable session-creation body: when appended
/// WAL frames are forced to disk. `"always"`, `"never"`, or a positive
/// integer (fsync every N appends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncShape {
    /// fsync after every append — an acked point survives any crash.
    Always,
    /// fsync every `n` appends — bounded loss, amortized cost.
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    Never,
}

impl SyncShape {
    /// Parses the wire value: the strings `"always"`/`"never"`, or a
    /// positive integer meaning every-N.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        if let Some(s) = v.as_str() {
            return match s {
                "always" => Ok(SyncShape::Always),
                "never" => Ok(SyncShape::Never),
                _ => Err(format!(
                    "\"sync\" must be \"always\", \"never\" or a positive integer, got {s:?}"
                )),
            };
        }
        match v.as_usize() {
            Some(n) if n >= 1 => Ok(SyncShape::EveryN(n as u64)),
            _ => Err("\"sync\" must be \"always\", \"never\" or a positive integer".to_string()),
        }
    }

    /// The value as it travels on the wire.
    pub fn to_json(self) -> JsonValue {
        match self {
            SyncShape::Always => JsonValue::from("always"),
            SyncShape::Never => JsonValue::from("never"),
            SyncShape::EveryN(n) => JsonValue::from(n),
        }
    }
}

/// The `POST /v1/sessions` request body: the stream's space, query and
/// sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCreateRequest {
    /// Wire name of the metric (`l1`, `l2`, `l4`, `angular`).
    pub metric: String,
    /// Vector dimension of the stream.
    pub dim: u64,
    /// Query radius the window is monitored at.
    pub r: f64,
    /// Query count threshold `k`.
    pub k: u64,
    /// The sliding window.
    pub window: WindowShape,
    /// Shards to partition the window across (default 1).
    pub shards: u64,
    /// Warm-up prefix override; `None` keeps the shard-spec default.
    pub warmup: Option<u64>,
    /// Pivot oversampling override; `None` keeps the shard-spec default.
    pub pivots_per_shard: Option<u64>,
    /// Whether the session writes a WAL and is recovered on restart
    /// (default `false`; requires the server to have a data directory).
    pub durable: bool,
    /// WAL sync policy; `None` keeps the server default (`"always"` —
    /// a durable wire session's ack means the point is on disk).
    pub sync: Option<SyncShape>,
    /// Snapshot (and log-truncate) after this many logged operations;
    /// `None` keeps the server default.
    pub snapshot_ops: Option<u64>,
}

impl SessionCreateRequest {
    /// Every top-level key the body may carry.
    const KEYS: [&'static str; 11] = [
        "metric",
        "dim",
        "r",
        "k",
        "window",
        "shards",
        "warmup",
        "pivots_per_shard",
        "durable",
        "sync",
        "snapshot_ops",
    ];

    /// Every key the `"window"` object may carry (exactly one of them).
    const WINDOW_KEYS: [&'static str; 2] = ["count", "time"];

    /// Parses the request body, reporting an unknown key (top-level or
    /// in `"window"`) or the first missing or mistyped field in words.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        reject_unknown_keys(v, &Self::KEYS, "session body")?;
        if let Some(window) = v.get("window") {
            reject_unknown_keys(window, &Self::WINDOW_KEYS, "\"window\"")?;
        }
        Self::from_json_lenient(v)
    }

    /// [`from_json`](Self::from_json) without the unknown-key check, for
    /// bodies stored by an earlier version (a durable session's
    /// manifest): a key that version wrote and this one no longer
    /// defines is ignored.
    pub fn from_json_lenient(v: &JsonValue) -> Result<Self, String> {
        let metric = v
            .get("metric")
            .and_then(JsonValue::as_str)
            .ok_or("body must carry a string \"metric\"")?
            .to_string();
        let dim = v
            .get("dim")
            .and_then(JsonValue::as_usize)
            .ok_or("body must carry a positive integer \"dim\"")? as u64;
        let r = v
            .get("r")
            .and_then(JsonValue::as_f64)
            .ok_or("body must carry a numeric \"r\"")?;
        let k = v
            .get("k")
            .and_then(JsonValue::as_usize)
            .ok_or("body must carry a non-negative integer \"k\"")? as u64;
        let window = v.get("window").ok_or("body must carry a \"window\"")?;
        let window = match (window.get("count"), window.get("time")) {
            (Some(c), None) => WindowShape::Count(
                c.as_usize()
                    .ok_or("\"window\".\"count\" must be a positive integer")?
                    as u64,
            ),
            (None, Some(t)) => {
                WindowShape::Time(t.as_f64().ok_or("\"window\".\"time\" must be numeric")?)
            }
            _ => return Err("\"window\" must be {\"count\": w} or {\"time\": horizon}".to_string()),
        };
        let field_u64 = |key: &'static str| match v.get(key) {
            None => Ok(None),
            Some(s) => s
                .as_usize()
                .map(|s| Some(s as u64))
                .ok_or(format!("\"{key}\" must be a non-negative integer")),
        };
        let durable = match v.get("durable") {
            None => false,
            Some(b) => b.as_bool().ok_or("\"durable\" must be a boolean")?,
        };
        let sync = match v.get("sync") {
            None => None,
            Some(s) => Some(SyncShape::from_json(s)?),
        };
        Ok(SessionCreateRequest {
            metric,
            dim,
            r,
            k,
            window,
            shards: field_u64("shards")?.unwrap_or(1),
            warmup: field_u64("warmup")?,
            pivots_per_shard: field_u64("pivots_per_shard")?,
            durable,
            sync,
            snapshot_ops: field_u64("snapshot_ops")?,
        })
    }

    /// The request as a [`JsonValue`] body (the client side).
    pub fn to_json(&self) -> JsonValue {
        let window = match self.window {
            WindowShape::Count(w) => JsonValue::obj([("count", JsonValue::from(w))]),
            WindowShape::Time(t) => JsonValue::obj([("time", JsonValue::from(t))]),
        };
        let mut fields = vec![
            ("metric".to_string(), JsonValue::from(self.metric.as_str())),
            ("dim".to_string(), JsonValue::from(self.dim)),
            ("r".to_string(), JsonValue::from(self.r)),
            ("k".to_string(), JsonValue::from(self.k)),
            ("window".to_string(), window),
            ("shards".to_string(), JsonValue::from(self.shards)),
        ];
        if let Some(w) = self.warmup {
            fields.push(("warmup".to_string(), JsonValue::from(w)));
        }
        if let Some(p) = self.pivots_per_shard {
            fields.push(("pivots_per_shard".to_string(), JsonValue::from(p)));
        }
        if self.durable {
            fields.push(("durable".to_string(), JsonValue::from(true)));
        }
        if let Some(sync) = self.sync {
            fields.push(("sync".to_string(), sync.to_json()));
        }
        if let Some(n) = self.snapshot_ops {
            fields.push(("snapshot_ops".to_string(), JsonValue::from(n)));
        }
        JsonValue::Obj(fields)
    }
}

/// Refuses a key of the object `v` outside `supported`, naming the first
/// offender and the supported keys; `what` names the object. A typo must
/// answer an error, not a default. A non-object passes: its shape error
/// belongs to the parser.
fn reject_unknown_keys(v: &JsonValue, supported: &[&str], what: &str) -> Result<(), String> {
    let JsonValue::Obj(fields) = v else {
        return Ok(());
    };
    match fields
        .iter()
        .find(|(key, _)| !supported.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!(
            "unknown key {key:?} in {what}; supported: {}",
            supported.join(", ")
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    #[test]
    fn error_envelope_round_trips() {
        let e = ErrorEnvelope::new("not_found", "no engine named x");
        let text = e.render();
        assert_eq!(
            text,
            r#"{"error":{"kind":"not_found","message":"no engine named x"}}"#
        );
        let back = ErrorEnvelope::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, e);
        assert!(ErrorEnvelope::from_json(&parse_json("{}").unwrap()).is_none());
    }

    #[test]
    fn summaries_round_trip() {
        let e = EngineSummary {
            name: "prod".into(),
            index: "mrpg:8".into(),
            points: 4000,
            index_bytes: 123456,
        };
        assert_eq!(EngineSummary::from_json(&e.to_json()), Some(e.clone()));
        let s = SessionSummary {
            id: "s1".into(),
            metric: "l2".into(),
            dim: 3,
            shards: 2,
            ingested: 77,
            durable: true,
            durability: Some("degraded".into()),
        };
        assert_eq!(SessionSummary::from_json(&s.to_json()), Some(s));
        // Volatile summaries omit the durability health field entirely.
        let s = SessionSummary {
            id: "s2".into(),
            metric: "l2".into(),
            dim: 3,
            shards: 1,
            ingested: 0,
            durable: false,
            durability: None,
        };
        assert!(!s.to_json().render().contains("durability"));
        assert_eq!(SessionSummary::from_json(&s.to_json()), Some(s));
        // Listings from before durability parse with durable = false.
        let v = parse_json(r#"{"id":"s1","metric":"l2","dim":3,"shards":2,"ingested":0}"#).unwrap();
        assert!(!SessionSummary::from_json(&v).unwrap().durable);
    }

    #[test]
    fn query_cost_round_trips_with_pinned_field_order() {
        let c = QueryCostShape {
            filter_dist_evals: 1200,
            verify_dist_evals: 300,
            total_dist_evals: 1500,
            hops: 450,
            pruning_power: 0.75,
        };
        assert_eq!(
            c.to_json().render(),
            r#"{"filter_dist_evals":1200,"verify_dist_evals":300,"total_dist_evals":1500,"hops":450,"pruning_power":0.75}"#
        );
        assert_eq!(QueryCostShape::from_json(&c.to_json()), Some(c));
        assert!(QueryCostShape::from_json(&parse_json("{}").unwrap()).is_none());
    }

    #[test]
    fn engine_create_parses_and_reports_missing_fields() {
        let v = parse_json(r#"{"family":"sift","n":400,"seed":7,"index":"mrpg:6"}"#).unwrap();
        let req = EngineCreateRequest::from_json(&v).unwrap();
        assert_eq!(req.family, "sift");
        assert_eq!((req.n, req.seed), (400, 7));
        assert_eq!(req.index.as_deref(), Some("mrpg:6"));
        assert_eq!(req.load, None);
        assert_eq!(EngineCreateRequest::from_json(&req.to_json()), Ok(req));
        // Seed defaults, index optional.
        let v = parse_json(r#"{"family":"glove","n":10}"#).unwrap();
        let req = EngineCreateRequest::from_json(&v).unwrap();
        assert_eq!((req.seed, req.index), (0, None));
        // Missing and mistyped fields are named.
        let err = EngineCreateRequest::from_json(&parse_json(r#"{"n":1}"#).unwrap()).unwrap_err();
        assert!(err.contains("family"), "{err}");
        let err = EngineCreateRequest::from_json(
            &parse_json(r#"{"family":"sift","n":1,"index":3}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("index"), "{err}");
    }

    #[test]
    fn session_create_parses_both_window_shapes() {
        let v = parse_json(
            r#"{"metric":"l2","dim":2,"r":0.8,"k":2,"window":{"count":32},"shards":2,"warmup":8}"#,
        )
        .unwrap();
        let req = SessionCreateRequest::from_json(&v).unwrap();
        assert_eq!(req.window, WindowShape::Count(32));
        assert_eq!((req.shards, req.warmup), (2, Some(8)));
        assert_eq!(SessionCreateRequest::from_json(&req.to_json()), Ok(req));
        let v = parse_json(r#"{"metric":"l1","dim":1,"r":1,"k":3,"window":{"time":5.5}}"#).unwrap();
        let req = SessionCreateRequest::from_json(&v).unwrap();
        assert_eq!(req.window, WindowShape::Time(5.5));
        assert_eq!(req.shards, 1, "shards default to 1");
        // A window must be exactly one of count/time.
        let v = parse_json(r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{}}"#).unwrap();
        assert!(SessionCreateRequest::from_json(&v).is_err());
    }

    #[test]
    fn creation_bodies_reject_unknown_keys() {
        let err = EngineCreateRequest::from_json(
            &parse_json(r#"{"family":"sift","n":10,"indx":"mrpg:8"}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown key \"indx\" in engine body; supported: family, n, seed, index, load"
        );
        let body = r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"sample_rate":4}"#;
        let v = parse_json(body).unwrap();
        let err = SessionCreateRequest::from_json(&v).unwrap_err();
        assert!(
            err.starts_with("unknown key \"sample_rate\" in session body; supported: metric, dim,"),
            "{err}"
        );
        // The lenient parse (stored manifests) ignores the retired key.
        let req = SessionCreateRequest::from_json_lenient(&v).unwrap();
        assert_eq!(req.window, WindowShape::Count(8));
        assert!(!req.to_json().render().contains("sample_rate"));
        let v = parse_json(r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8,"tme":2}}"#)
            .unwrap();
        assert_eq!(
            SessionCreateRequest::from_json(&v).unwrap_err(),
            "unknown key \"tme\" in \"window\"; supported: count, time"
        );
    }

    #[test]
    fn session_create_parses_durability_fields() {
        let v = parse_json(
            r#"{"metric":"l2","dim":2,"r":1,"k":2,"window":{"count":32},"durable":true,"sync":"always","snapshot_ops":64}"#,
        )
        .unwrap();
        let req = SessionCreateRequest::from_json(&v).unwrap();
        assert!(req.durable);
        assert_eq!(req.sync, Some(SyncShape::Always));
        assert_eq!(req.snapshot_ops, Some(64));
        assert_eq!(SessionCreateRequest::from_json(&req.to_json()), Ok(req));
        // Numeric sync means every-N; absent durability fields default off.
        let v = parse_json(r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"sync":16}"#)
            .unwrap();
        let req = SessionCreateRequest::from_json(&v).unwrap();
        assert_eq!(
            (req.durable, req.sync),
            (false, Some(SyncShape::EveryN(16)))
        );
        assert_eq!(SessionCreateRequest::from_json(&req.to_json()), Ok(req));
        // Mistyped durability fields are named.
        for (body, field) in [
            (
                r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"durable":1}"#,
                "durable",
            ),
            (
                r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"sync":"lazy"}"#,
                "sync",
            ),
            (
                r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"sync":0}"#,
                "sync",
            ),
            (
                r#"{"metric":"l2","dim":1,"r":1,"k":1,"window":{"count":8},"snapshot_ops":-1}"#,
                "snapshot_ops",
            ),
        ] {
            let err = SessionCreateRequest::from_json(&parse_json(body).unwrap()).unwrap_err();
            assert!(err.contains(field), "{body}: {err}");
        }
    }
}
