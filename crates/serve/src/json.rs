//! Request-body helpers and the API error type shared by all handlers.

use serde_json::Value;

/// An error that maps directly onto an HTTP error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message, returned as `{"error": message}`.
    pub message: String,
}

impl ApiError {
    /// 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// 404 Not Found.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }

    /// 405 Method Not Allowed.
    pub fn method_not_allowed() -> Self {
        Self {
            status: 405,
            message: "method not allowed".into(),
        }
    }

    /// 409 Conflict.
    pub fn conflict(message: impl Into<String>) -> Self {
        Self {
            status: 409,
            message: message.into(),
        }
    }

    /// 413 Payload Too Large.
    pub fn too_large(message: impl Into<String>) -> Self {
        Self {
            status: 413,
            message: message.into(),
        }
    }

    /// 422 Unprocessable Entity (well-formed request, engine rejected it).
    pub fn unprocessable(message: impl Into<String>) -> Self {
        Self {
            status: 422,
            message: message.into(),
        }
    }

    /// 500 Internal Server Error (an acknowledged-durability write
    /// failed; the request must not be acknowledged).
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }

    /// The `{"error": ...}` response body.
    pub fn body(&self) -> Value {
        Value::Object(vec![("error".into(), Value::String(self.message.clone()))])
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<ziggy_core::ZiggyError> for ApiError {
    fn from(e: ziggy_core::ZiggyError) -> Self {
        // Engine rejections are semantic problems with a well-formed
        // request: degenerate selections, bad predicates, bad config.
        ApiError::unprocessable(e.to_string())
    }
}

impl From<ziggy_store::StoreError> for ApiError {
    fn from(e: ziggy_store::StoreError) -> Self {
        ApiError::unprocessable(e.to_string())
    }
}

/// A request body as text (`400` when it is not UTF-8).
pub fn body_text(body: &[u8]) -> Result<&str, ApiError> {
    std::str::from_utf8(body).map_err(|_| ApiError::bad_request("request body is not UTF-8"))
}

/// Parses a request body as a JSON object.
pub fn parse_object(body: &[u8]) -> Result<Value, ApiError> {
    let v = serde_json::from_str_value(body_text(body)?)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))?;
    if v.as_object().is_none() {
        return Err(ApiError::bad_request("request body must be a JSON object"));
    }
    Ok(v)
}

/// Extracts a required string field from a parsed body.
pub fn required_str<'a>(body: &'a Value, field: &str) -> Result<&'a str, ApiError> {
    body.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing string field `{field}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_extract() {
        let v = parse_object(br#"{"name": "crime", "csv": "a,b\n1,2\n"}"#).unwrap();
        assert_eq!(required_str(&v, "name").unwrap(), "crime");
        assert!(required_str(&v, "missing").is_err());
    }

    #[test]
    fn rejects_non_objects() {
        assert!(parse_object(b"[1,2]").is_err());
        assert!(parse_object(b"not json").is_err());
        assert!(parse_object(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn error_bodies_are_json() {
        let e = ApiError::not_found("no such table");
        assert_eq!(
            serde_json::to_string(&e.body()).unwrap(),
            r#"{"error":"no such table"}"#
        );
    }
}
