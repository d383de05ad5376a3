//! The JSON-lines wire protocol.
//!
//! One request per input line, one response per output line — the
//! framing `chatpattern-serve` speaks over stdin/stdout (see
//! `docs/WIRE_PROTOCOL.md` for the full format with worked examples).
//!
//! A [`RequestEnvelope`] pairs a client-chosen `id` (any JSON scalar;
//! echoed verbatim) with a [`PatternRequest`]; a [`ResponseEnvelope`]
//! echoes the `id` and carries either the [`PatternResponse`] or a
//! [`WireError`]. Responses may arrive out of submission order — the
//! `id` is the correlation key.

use crate::{Error, PatternRequest, PatternResponse};
use serde::{Deserialize, Serialize, Value};

/// One input line: a client-tagged request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Any JSON scalar works; `null` (or a missing `id`) is rejected
    /// by [`decode_request_line`].
    pub id: Value,
    /// The tenant this request is accounted to for QoS (quotas, fair
    /// queuing, per-tenant stats). Absent/`null` means the default
    /// tenant, so pre-QoS clients keep working unchanged.
    pub tenant: Option<String>,
    /// The request to execute.
    pub request: PatternRequest,
}

/// A serializable rendering of the workspace [`Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The error's variant name (`"InvalidRequest"`, `"Legalize"`, …)
    /// — stable enough to match on without parsing the message.
    pub kind: String,
    /// Human-readable description (the error's `Display` form).
    pub message: String,
    /// For backpressure kinds (`Overloaded`, `QueueFull`): how many
    /// milliseconds the client should wait before retrying. Absent on
    /// every other kind.
    pub retry_after_ms: Option<u64>,
}

impl From<&Error> for WireError {
    fn from(error: &Error) -> WireError {
        let kind = match error {
            Error::Config { .. } => "Config",
            Error::InvalidRequest { .. } => "InvalidRequest",
            Error::Requirement(_) => "Requirement",
            Error::Tool(_) => "Tool",
            Error::Legalize(_) => "Legalize",
            Error::Drc { .. } => "Drc",
            Error::SessionNotFound { .. } => "SessionNotFound",
            Error::SessionPersist { .. } => "SessionPersist",
            Error::Cancelled => "Cancelled",
            Error::QueueFull { .. } => "QueueFull",
            Error::Overloaded { .. } => "Overloaded",
            Error::Internal { .. } => "Internal",
        };
        let retry_after_ms = match error {
            Error::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            // A full queue drains as soon as a worker frees up; the
            // default QoS hint is an honest "come back shortly".
            Error::QueueFull { .. } => Some(cp_qos::DEFAULT_RETRY_AFTER_MS),
            _ => None,
        };
        WireError {
            kind: kind.to_owned(),
            message: error.to_string(),
            retry_after_ms,
        }
    }
}

/// The served-or-failed half of a [`ResponseEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireOutcome {
    /// The request was served.
    Ok(PatternResponse),
    /// The request failed; the payload says why.
    Err(WireError),
}

/// One output line: the outcome of the request with the same `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The correlation id from the request envelope.
    pub id: Value,
    /// What happened.
    pub outcome: WireOutcome,
}

impl ResponseEnvelope {
    /// Success envelope.
    #[must_use]
    pub fn ok(id: Value, response: PatternResponse) -> ResponseEnvelope {
        ResponseEnvelope {
            id,
            outcome: WireOutcome::Ok(response),
        }
    }

    /// Failure envelope.
    #[must_use]
    pub fn error(id: Value, error: &Error) -> ResponseEnvelope {
        ResponseEnvelope {
            id,
            outcome: WireOutcome::Err(WireError::from(error)),
        }
    }

    /// Renders the envelope as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| {
            // The shim serializer is infallible; this arm guards the
            // real-serde swap path.
            String::from(r#"{"id":null,"outcome":{"Err":{"kind":"Error","message":"unserializable response"}}}"#)
        })
    }
}

/// Longest decode-error message [`decode_request_line`] returns, in
/// bytes before [`TRUNCATION_MARKER`]. Parser messages quote the
/// offending input, so without a cap an error reply would echo an
/// arbitrarily large request back to the client.
const MAX_DECODE_MESSAGE_BYTES: usize = 256;

/// Appended to a decode-error message cut at
/// [`MAX_DECODE_MESSAGE_BYTES`].
const TRUNCATION_MARKER: &str = " …[truncated]";

/// A decode failure as [`Error::InvalidRequest`], its message cut to
/// [`MAX_DECODE_MESSAGE_BYTES`] on a char boundary.
fn decode_error(mut message: String) -> Error {
    if message.len() > MAX_DECODE_MESSAGE_BYTES {
        let mut cut = MAX_DECODE_MESSAGE_BYTES;
        while !message.is_char_boundary(cut) {
            cut -= 1;
        }
        message.truncate(cut);
        message.push_str(TRUNCATION_MARKER);
    }
    Error::invalid_request(message)
}

/// Parses one wire line into a [`RequestEnvelope`].
///
/// # Errors
///
/// On failure returns the best-effort `id` recovered from the line
/// (so the caller can still address its error reply) plus the decode
/// problem as an [`Error::InvalidRequest`], whose message is cut to
/// its first 256 bytes. Malformed JSON (including nesting deeper than
/// 128 arrays and objects) and absent ids yield `Value::Null` as the
/// id.
pub fn decode_request_line(line: &str) -> Result<RequestEnvelope, (Value, Error)> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| (Value::Null, decode_error(format!("bad JSON: {e}"))))?;
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    if id.is_null() {
        return Err((
            Value::Null,
            Error::invalid_request("request envelope needs a non-null \"id\""),
        ));
    }
    match serde_json::from_value::<RequestEnvelope>(&value) {
        Ok(envelope) => Ok(envelope),
        Err(e) => Err((id, decode_error(format!("bad request: {e}")))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerateParams, ResponsePayload, Timing};
    use cp_dataset::Style;

    fn sample_request() -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 8,
            cols: 8,
            count: 1,
            seed: 7,
        })
    }

    #[test]
    fn request_envelope_round_trips() {
        let envelope = RequestEnvelope {
            id: serde_json::to_value(&"job-1"),
            tenant: None,
            request: sample_request(),
        };
        let text = serde_json::to_string(&envelope).expect("serializes");
        let back = decode_request_line(&text).expect("decodes");
        assert_eq!(back, envelope);
    }

    #[test]
    fn numeric_ids_survive() {
        let envelope = RequestEnvelope {
            id: serde_json::to_value(&42u64),
            tenant: None,
            request: sample_request(),
        };
        let back = decode_request_line(&serde_json::to_string(&envelope).expect("serializes"))
            .expect("decodes");
        assert_eq!(back.id, 42u64);
    }

    #[test]
    fn tenant_field_round_trips_and_defaults() {
        let envelope = RequestEnvelope {
            id: serde_json::to_value(&1u64),
            tenant: Some("alice".to_owned()),
            request: sample_request(),
        };
        let back = decode_request_line(&serde_json::to_string(&envelope).expect("serializes"))
            .expect("decodes");
        assert_eq!(back.tenant.as_deref(), Some("alice"));
        // A pre-QoS envelope without the field decodes as no tenant.
        let legacy = serde_json::to_string(&RequestEnvelope {
            id: serde_json::to_value(&2u64),
            tenant: None,
            request: sample_request(),
        })
        .expect("serializes");
        assert!(!legacy.contains("\"tenant\":\""));
        let back = decode_request_line(&legacy).expect("decodes");
        assert_eq!(back.tenant, None);
    }

    #[test]
    fn response_envelope_round_trips_both_outcomes() {
        let ok = ResponseEnvelope::ok(
            serde_json::to_value(&"a"),
            PatternResponse {
                payload: ResponsePayload::Generate(Vec::new()),
                timing: Timing::queued(3, 5),
            },
        );
        let back: ResponseEnvelope = serde_json::from_str(&ok.to_line()).expect("parses");
        assert_eq!(back, ok);
        let err =
            ResponseEnvelope::error(serde_json::to_value(&"b"), &Error::invalid_request("nope"));
        let back: ResponseEnvelope = serde_json::from_str(&err.to_line()).expect("parses");
        assert_eq!(back, err);
        match back.outcome {
            WireOutcome::Err(e) => {
                assert_eq!(e.kind, "InvalidRequest");
                assert!(e.message.contains("nope"));
            }
            WireOutcome::Ok(_) => panic!("expected the error outcome"),
        }
    }

    #[test]
    fn wire_error_kinds_are_stable() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::config("x"), "Config"),
            (Error::invalid_request("x"), "InvalidRequest"),
            (Error::session_not_found("s", "closed"), "SessionNotFound"),
            (Error::session_persist("disk full"), "SessionPersist"),
            (Error::Cancelled, "Cancelled"),
            (Error::QueueFull { depth: 4 }, "QueueFull"),
            (Error::overloaded(40), "Overloaded"),
            (Error::internal("x"), "Internal"),
        ];
        for (error, kind) in cases {
            assert_eq!(WireError::from(&error).kind, kind);
        }
    }

    #[test]
    fn backpressure_kinds_carry_retry_after() {
        let overloaded = WireError::from(&Error::overloaded(40));
        assert_eq!(overloaded.retry_after_ms, Some(40));
        let full = WireError::from(&Error::QueueFull { depth: 4 });
        assert!(full.retry_after_ms.is_some());
        let plain = WireError::from(&Error::invalid_request("x"));
        assert_eq!(plain.retry_after_ms, None);
    }

    #[test]
    fn decode_recovers_id_from_broken_requests() {
        // Valid JSON, valid id, bogus request body.
        let (id, err) =
            decode_request_line(r#"{"id": 7, "request": {"Nonsense": {}}}"#).unwrap_err();
        assert_eq!(id, 7u64);
        assert!(matches!(err, Error::InvalidRequest { .. }));
        // Malformed JSON: no id recoverable.
        let (id, _) = decode_request_line("{oops").unwrap_err();
        assert!(id.is_null());
        // Missing id.
        let (id, err) = decode_request_line(r#"{"request": "x"}"#).unwrap_err();
        assert!(id.is_null());
        assert!(err.to_string().contains("id"));
    }

    #[test]
    fn decode_errors_are_cut_to_a_bounded_prefix() {
        // The shim quotes the offending value; a 40 KB body must not
        // come back whole. Multi-byte chars straddle the cut point.
        let body = "é".repeat(20_000);
        let line = format!(r#"{{"id":1,"request":{{"Generate":"{body}"}}}}"#);
        let (id, err) = decode_request_line(&line).unwrap_err();
        assert_eq!(id, 1u64);
        let Error::InvalidRequest { message } = &err else {
            panic!("expected InvalidRequest, got {err:?}");
        };
        assert!(message.ends_with(TRUNCATION_MARKER), "{message}");
        assert!(message.len() <= MAX_DECODE_MESSAGE_BYTES + TRUNCATION_MARKER.len());
        // Short messages pass through untouched.
        let (_, err) = decode_request_line("{oops").unwrap_err();
        assert!(!err.to_string().contains(TRUNCATION_MARKER));
    }
}
